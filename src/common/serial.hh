/**
 * @file
 * Minimal binary serialization for the checkpoint store: fixed-width
 * little-endian primitives appended to a byte vector (each a single
 * memcpy of the host representation, which is little-endian), a
 * word-at-a-time record checksum, and a
 * bounds-checked reader with an error latch. Readers never throw and
 * never read past the end: the first malformed field trips ok() and
 * every subsequent read returns zero, so callers can parse a whole
 * record into temporaries and check ok() once before committing any
 * state (the validate-before-mutate contract every deserializer in
 * this codebase follows).
 */

#ifndef MG_COMMON_SERIAL_HH
#define MG_COMMON_SERIAL_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace mg {

// The wire format is little-endian and the primitives copy the host
// representation verbatim.
static_assert(std::endian::native == std::endian::little,
              "serial primitives assume a little-endian host");

/** FNV-1a 64-bit over a byte range (record checksums, store keys). */
inline std::uint64_t
fnv1a64(const void *data, std::size_t len,
        std::uint64_t h = 0xcbf29ce484222325ull)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Record checksum, 8 bytes per step: the input is read as 64-bit
 * words dealt round-robin to four independent lanes (the trailing
 * 1-7 bytes form one zero-padded word), and each lane folds its words
 * through an xxHash64-style round
 *
 *     acc' = rotl(acc + word * k2, 31) * k1     (k1, k2 odd)
 *
 * which is a bijection of the word for a fixed acc and of acc for a
 * fixed word. Any change confined to one word therefore changes its
 * lane's final value with certainty, and the lane merge below is
 * again one such round per lane, so the checksum changes too. The
 * length is mixed in first and the final avalanche is invertible.
 */
inline std::uint64_t
checksum64(const void *data, std::size_t len)
{
    constexpr std::uint64_t k1 = 0x9e3779b185ebca87ull;
    constexpr std::uint64_t k2 = 0xc2b2ae3d27d4eb4full;
    constexpr std::uint64_t k3 = 0x165667b19e3779f9ull;
    auto round = [](std::uint64_t acc, std::uint64_t word) {
        return std::rotl(acc + word * k2, 31) * k1;
    };
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t lane[4] = {k1 + k2, k2, 0, k3};
    std::size_t i = 0;
    for (; len - i >= 32; i += 32) {
        for (int j = 0; j < 4; ++j) {
            std::uint64_t w;
            std::memcpy(&w, p + i + 8 * j, 8);
            lane[j] = round(lane[j], w);
        }
    }
    int j = 0;
    for (; len - i >= 8; i += 8, ++j) {
        std::uint64_t w;
        std::memcpy(&w, p + i, 8);
        lane[j] = round(lane[j], w);
    }
    if (i < len) {
        std::uint64_t w = 0;
        std::memcpy(&w, p + i, len - i);
        lane[j] = round(lane[j], w);
    }
    std::uint64_t h = round(k3, len);
    for (std::uint64_t v : lane)
        h = round(h, v);
    h ^= h >> 33;
    h *= k2;
    h ^= h >> 29;
    h *= k3;
    h ^= h >> 32;
    return h;
}

/** Append-only little-endian encoder. */
class SerialWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf.push_back(v);
    }

    void u32(std::uint32_t v) { bytes(&v, sizeof v); }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, 8);
        u64(bits);
    }

    void
    bytes(const void *data, std::size_t len)
    {
        std::size_t n = buf.size();
        buf.resize(n + len);
        if (len)
            std::memcpy(buf.data() + n, data, len);
    }

    /** Length-prefixed string. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /** Length-prefixed vector of a fixed-width integral type. */
    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        u64(v.size());
        for (const T &x : v)
            u64(static_cast<std::uint64_t>(x));
    }

    const std::vector<std::uint8_t> &data() const { return buf; }
    std::vector<std::uint8_t> take() { return std::move(buf); }
    std::size_t size() const { return buf.size(); }

  private:
    std::vector<std::uint8_t> buf;
};

/** Bounds-checked little-endian decoder with an error latch. */
class SerialReader
{
  public:
    SerialReader(const std::uint8_t *data, std::size_t len)
        : p(data), len_(len)
    {
    }
    explicit SerialReader(const std::vector<std::uint8_t> &v)
        : SerialReader(v.data(), v.size())
    {
    }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return p[pos_++];
    }

    std::uint32_t u32() { return word<std::uint32_t>(); }
    std::uint64_t u64() { return word<std::uint64_t>(); }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, 8);
        return v;
    }

    bool
    bytes(void *out, std::size_t n)
    {
        if (!need(n))
            return false;
        std::memcpy(out, p + pos_, n);
        pos_ += n;
        return true;
    }

    std::string
    str()
    {
        std::uint64_t n = u64();
        if (!need(n))
            return {};
        std::string s(reinterpret_cast<const char *>(p + pos_),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    /** Length-prefixed vector counterpart of SerialWriter::vec.
     *  The length is sanity-capped against the remaining bytes so a
     *  corrupt header cannot trigger a huge allocation. */
    template <typename T>
    std::vector<T>
    vec()
    {
        std::uint64_t n = u64();
        if (n > remaining() / 8) {
            fail();
            return {};
        }
        std::vector<T> v;
        v.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i)
            v.push_back(static_cast<T>(u64()));
        return v;
    }

    std::size_t remaining() const { return len_ - pos_; }
    std::size_t pos() const { return pos_; }
    bool ok() const { return ok_; }
    void fail() { ok_ = false; }

  private:
    template <typename T>
    T
    word()
    {
        T v = 0;
        if (need(sizeof v)) {
            std::memcpy(&v, p + pos_, sizeof v);
            pos_ += sizeof v;
        }
        return v;
    }

    bool
    need(std::size_t n)
    {
        if (!ok_ || n > len_ - pos_) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const std::uint8_t *p;
    std::size_t len_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace mg

#endif // MG_COMMON_SERIAL_HH
