/**
 * @file
 * Warm-checkpoint store battery.
 *
 * Three layers, innermost out:
 *  - serialization round trips for every warmable structure (the
 *    functional oracle, the cache hierarchy, the branch predictor,
 *    the store sets), including geometry/shape-mismatch rejection and
 *    malformed sparse cache/BTB lists, which a core refuses without
 *    changing state;
 *  - the on-disk store: the zero-RLE codec against a byte-at-a-time
 *    reference, the record checksum, and the file format defenses:
 *    truncation, flipped bytes, stale version headers, hash-slot
 *    collisions, LRU eviction, unusable directories, and mid-session
 *    write failures all degrade to misses — never crash, never
 *    return wrong data;
 *  - end-to-end: a cold sampled session populates the store, a warm
 *    session restores from it bit-identically; corrupting every
 *    record between the two sessions forces the warm session back
 *    onto the recompute path and it must still produce the cold
 *    session's exact stats (the never-silently-mis-simulate
 *    contract). Records in the previous file format are stale and
 *    recompute identically too.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/serial.hh"
#include "engine/checkpoint_store.hh"
#include "engine/engine.hh"
#include "memsys/hierarchy.hh"
#include "uarch/branch_pred.hh"
#include "uarch/core.hh"
#include "uarch/store_sets.hh"
#include "workloads/suites.hh"

using namespace mg;
namespace fs = std::filesystem;

namespace {

/** Fresh per-test scratch directory (removed on destruction). */
struct ScratchDir
{
    fs::path path;

    explicit ScratchDir(const std::string &tag)
        : path(fs::temp_directory_path() /
               ("mg-store-test-" + tag + "-" +
                std::to_string(::getpid())))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir() { fs::remove_all(path); }
    std::string str() const { return path.string(); }
};

/** All record files currently in @p dir. */
std::vector<fs::path>
recordFiles(const fs::path &dir)
{
    std::vector<fs::path> out;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".mgck")
            out.push_back(e.path());
    return out;
}

/** The key string a record file carries (the collision guard field:
 *  magic u32, version u32, encoding u8, then a length-prefixed key). */
std::string
recordKey(const fs::path &file)
{
    std::ifstream in(file, std::ios::binary);
    std::vector<char> buf(9 + 8);
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    std::uint64_t len = 0;
    for (int i = 0; i < 8; ++i)
        len |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(buf[9 + i]))
            << (8 * i);
    std::string key(len, '\0');
    in.read(key.data(), static_cast<std::streamsize>(len));
    return key;
}

/** Overwrite one byte at @p off (negative: from the end). */
void
flipByte(const fs::path &file, long long off)
{
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    if (off < 0)
        f.seekp(off, std::ios::end);
    else
        f.seekp(off, std::ios::beg);
    char c = 0;
    f.seekg(f.tellp());
    f.get(c);
    f.seekp(-1, std::ios::cur);
    c = static_cast<char>(c ^ 0x5a);
    f.put(c);
}

/** Small-sampling config the unit tier can afford: enough periods on
 *  a ref-scale kernel to exercise fast-forward gaps and warm records
 *  without degenerating to an exact run. */
SimConfig
sampledSmall(SimConfig cfg)
{
    cfg.sampling.enabled = true;
    cfg.sampling.interval = 200;
    cfg.sampling.period = 2400;
    cfg.sampling.warmup = 400;
    return cfg;
}

/** The zero-RLE encoder one byte at a time (the codec's definition). */
std::vector<std::uint8_t>
refRleEncode(const std::vector<std::uint8_t> &in)
{
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i < in.size();) {
        if (in[i] != 0) {
            out.push_back(in[i++]);
            continue;
        }
        std::size_t run = 1;
        while (run < 255 && i + run < in.size() && in[i + run] == 0)
            ++run;
        out.push_back(0);
        out.push_back(static_cast<std::uint8_t>(run));
        i += run;
    }
    return out;
}

/** The zero-RLE decoder one byte at a time. */
bool
refRleDecode(const std::vector<std::uint8_t> &in,
             std::vector<std::uint8_t> &out, std::size_t expect)
{
    out.clear();
    for (std::size_t i = 0; i < in.size();) {
        std::uint8_t b = in[i++];
        if (b != 0) {
            out.push_back(b);
        } else {
            if (i >= in.size() || in[i] == 0)
                return false;
            out.insert(out.end(), in[i++], 0);
        }
        if (out.size() > expect)
            return false;
    }
    return out.size() == expect;
}

/** Random buffer of @p n bytes whose zero runs (up to 700 long, so
 *  runs split at 255) cover about @p zeroShare of it. */
std::vector<std::uint8_t>
zeroHeavy(std::mt19937_64 &rng, std::size_t n, double zeroShare)
{
    std::vector<std::uint8_t> buf;
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    while (buf.size() < n) {
        std::size_t len = 1 + rng() % (coin(rng) < 0.2 ? 700 : 12);
        bool zero = coin(rng) < zeroShare;
        for (std::size_t i = 0; i < len && buf.size() < n; ++i)
            buf.push_back(zero ? 0 : static_cast<std::uint8_t>(
                                         1 + rng() % 255));
    }
    return buf;
}

/** A record as the previous store format (version 2) wrote it: the
 *  same header layout, an FNV-1a checksum, and the zero-RLE body. */
void
writeFormat2Record(const fs::path &file, const std::string &key,
                   const std::vector<std::uint8_t> &payload)
{
    SerialWriter w;
    w.u32(0x4b43474d);   // "MGCK"
    w.u32(2);
    w.u8(1);
    w.str(key);
    w.u64(payload.size());
    w.u64(fnv1a64(payload.data(), payload.size()));
    std::vector<std::uint8_t> body = refRleEncode(payload);
    w.bytes(body.data(), body.size());
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(w.data().data()),
              static_cast<std::streamsize>(w.size()));
}

/** Serialized size of one memory page: its index, then its bytes. */
constexpr std::size_t pageRecordBytes = 8 + Memory::pageBytes;

/** A Core::serializeWarm record taken apart into its sections, so a
 *  test can damage one section and put the record back together. */
struct WarmRecord
{
    std::uint32_t version = 0;
    std::uint64_t baseTag = 0;
    std::uint64_t now = 0;
    std::uint64_t nextSeq = 0;
    EmuCheckpoint ck;                 ///< ck.mem: the delta pages
    HierarchyState mem;
    BranchPredState bp;
    StoreSetsState ss;
    std::vector<std::uint8_t> rest;   ///< violation-shadow sections
    std::size_t pagesAt = 0;          ///< offset of the page count
    std::size_t ssBytes = 0;          ///< size of the store-set section

    bool
    parse(const std::vector<std::uint8_t> &bytes)
    {
        SerialReader r(bytes);
        version = r.u32();
        baseTag = r.u64();
        now = r.u64();
        nextSeq = r.u64();
        if (!deserializeCheckpoint(r, ck))
            return false;
        // The page list closes the oracle section.
        pagesAt = r.pos() - 8 - ck.mem.residentPages() * pageRecordBytes;
        if (!mem.deserialize(r) || !bp.deserialize(r))
            return false;
        std::size_t ssAt = r.pos();
        if (!ss.deserialize(r))
            return false;
        ssBytes = r.pos() - ssAt;
        rest.assign(bytes.begin() + static_cast<std::ptrdiff_t>(r.pos()),
                    bytes.end());
        return r.ok();
    }

    std::vector<std::uint8_t>
    bytes() const
    {
        SerialWriter w;
        w.u32(version);
        w.u64(baseTag);
        w.u64(now);
        w.u64(nextSeq);
        serializeCheckpoint(ck, w);
        mem.serialize(w);
        bp.serialize(w);
        ss.serialize(w);
        w.bytes(rest.data(), rest.size());
        return w.take();
    }
};

/** A core on @p bk's oracle, functionally warmed to @p work. */
std::unique_ptr<Core>
warmedCore(const BoundKernel &bk, std::uint64_t work)
{
    auto core = std::make_unique<Core>(*bk.program, nullptr, CoreConfig{});
    bk.setup(core->oracle());
    core->fastForward(work, /*ipcEst=*/1.0);
    return core;
}

/** Store stub that misses every load and keeps the first record a
 *  run writes back. */
struct FirstWriteback : WarmStoreIf
{
    std::uint64_t pos = 0;
    std::vector<std::uint8_t> bytes;

    bool
    loadWarm(std::uint64_t, std::uint64_t,
             std::vector<std::uint8_t> &) override
    {
        return false;
    }

    void
    storeWarm(std::uint64_t p, std::uint64_t,
              const std::vector<std::uint8_t> &b) override
    {
        if (bytes.empty()) {
            pos = p;
            bytes = b;
        }
    }
};

std::vector<std::uint8_t>
warmBytes(const Core &core, const WarmBase &base)
{
    SerialWriter w;
    core.serializeWarm(w, base);
    return w.take();
}

/** The post-setup memory image of @p bk, the base a sampled run's
 *  warm records are written against. */
WarmBase
postSetupBase(const BoundKernel &bk)
{
    Emulator e(*bk.program);
    bk.setup(e);
    return WarmBase(e.memory());
}

/** @p m's pages by index, read back from its full serialized image. */
std::map<Addr, std::vector<std::uint8_t>>
pagesOf(const Memory &m)
{
    SerialWriter w;
    m.serialize(w);
    SerialReader r(w.data());
    std::map<Addr, std::vector<std::uint8_t>> out;
    for (std::uint64_t n = r.u64(); n > 0; --n) {
        Addr idx = r.u64();
        std::vector<std::uint8_t> &page = out[idx];
        page.resize(Memory::pageBytes);
        r.bytes(page.data(), page.size());
    }
    EXPECT_TRUE(r.ok());
    return out;
}

/** Overwrite the little-endian u64 at @p off of @p b. */
void
putU64(std::vector<std::uint8_t> &b, std::size_t off, std::uint64_t v)
{
    std::memcpy(b.data() + off, &v, sizeof v);
}

std::uint64_t
getU64(const std::vector<std::uint8_t> &b, std::size_t off)
{
    std::uint64_t v;
    std::memcpy(&v, b.data() + off, sizeof v);
    return v;
}

} // namespace

// ---------------------------------------------------------- serial layer

TEST(StoreSerial, PrimitivesRoundTripAndTruncationLatches)
{
    SerialWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.f64(3.25);
    w.str("warm|key");
    w.vec(std::vector<std::uint32_t>{1, 2, 3});

    std::vector<std::uint8_t> bytes = w.take();
    {
        SerialReader r(bytes);
        EXPECT_EQ(r.u8(), 0xab);
        EXPECT_EQ(r.u32(), 0xdeadbeefu);
        EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
        EXPECT_EQ(r.f64(), 3.25);
        EXPECT_EQ(r.str(), "warm|key");
        EXPECT_EQ(r.vec<std::uint32_t>(),
                  (std::vector<std::uint32_t>{1, 2, 3}));
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r.remaining(), 0u);
    }
    // Fixed-width fields are little-endian on the wire.
    EXPECT_EQ(bytes[1], 0xef);
    EXPECT_EQ(bytes[4], 0xde);
    EXPECT_EQ(bytes[5], 0xef);
    EXPECT_EQ(bytes[12], 0x01);

    // Any truncation point must trip ok(), never read past the end.
    for (std::size_t cut : {std::size_t(0), bytes.size() / 2,
                            bytes.size() - 1}) {
        SerialReader r(bytes.data(), cut);
        r.u8();
        r.u32();
        r.u64();
        r.f64();
        r.str();
        r.vec<std::uint32_t>();
        EXPECT_FALSE(r.ok()) << "cut at " << cut;
    }
}

TEST(StoreSerial, EmuCheckpointRoundTripContinuesIdentically)
{
    BoundKernel bk = bindKernel(findKernel("crc"));
    Emulator a(*bk.program);
    bk.kernel->setup(a, 0);
    while (!a.halted() && a.dynInsns() < 3000)
        a.step();

    SerialWriter w;
    serializeCheckpoint(a.checkpoint(), w);
    std::vector<std::uint8_t> bytes = w.take();

    EmuCheckpoint c;
    {
        SerialReader r(bytes);
        ASSERT_TRUE(deserializeCheckpoint(r, c));
        EXPECT_TRUE(r.ok());
    }
    Emulator b(*bk.program);
    bk.kernel->setup(b, 0);
    b.restore(std::move(c));
    EmuResult endA = a.run();
    EmuResult endB = b.run();
    EXPECT_EQ(endA.dynWork, endB.dynWork);
    EXPECT_EQ(a.pc(), b.pc());
    for (RegId r = 0; r < numArchRegs; ++r)
        EXPECT_EQ(a.reg(r), b.reg(r)) << "register " << int(r);

    // Every truncation of a checkpoint must be rejected, not adopted.
    for (std::size_t cut = 0; cut < bytes.size();
         cut += 1 + bytes.size() / 13) {
        SerialReader r(bytes.data(), cut);
        EmuCheckpoint t;
        EXPECT_FALSE(deserializeCheckpoint(r, t) && r.ok())
            << "cut at " << cut;
    }
}

TEST(StoreSerial, HierarchyRoundTripAndGeometryGuard)
{
    HierarchyConfig hc;
    Hierarchy h(hc);
    for (Addr a = 0; a < 64 * 1024; a += 24) {
        h.dataAccess(a, (a / 24) % 3 == 0, a / 8);
        h.instAccess(0x400000 + a % 4096, a / 8);
    }
    HierarchyState st = h.exportState();

    SerialWriter w;
    st.serialize(w);
    std::vector<std::uint8_t> bytes = w.take();
    HierarchyState rt;
    {
        SerialReader r(bytes);
        ASSERT_TRUE(rt.deserialize(r));
        EXPECT_TRUE(r.ok());
    }

    Hierarchy h2(hc);
    ASSERT_TRUE(h2.stateCompatible(rt));
    h2.adoptState(rt);
    // Adopted warm state is bit-equal on re-export.
    SerialWriter w2;
    h2.exportState().serialize(w2);
    EXPECT_EQ(bytes, w2.data());

    // A different geometry must refuse the state outright.
    HierarchyConfig other = hc;
    other.l1d = CacheGeometry{16 * 1024, 4, 64};
    EXPECT_FALSE(Hierarchy(other).stateCompatible(rt));

    // Only live lines travel, and the tag arrays here are far from
    // full.
    std::size_t l2Lines = std::size_t(hc.l2.sizeBytes) / hc.l2.lineBytes;
    ASSERT_GE(rt.l2.lines.size(), 2u);
    EXPECT_LT(rt.l2.lines.size(), l2Lines);

    // Malformed sparse lists are refused: an index past the array, a
    // repeated or descending index, and a listed line without its
    // valid bit (or with unknown flag bits).
    auto refused = [&](HierarchyState bad, const char *what) {
        EXPECT_FALSE(Hierarchy(hc).stateCompatible(bad)) << what;
    };
    {
        HierarchyState bad = rt;
        bad.l2.lines.back().index = static_cast<std::uint32_t>(l2Lines);
        refused(bad, "index past the array");
    }
    {
        HierarchyState bad = rt;
        std::swap(bad.l1d.lines[0], bad.l1d.lines[1]);
        refused(bad, "descending index");
    }
    {
        HierarchyState bad = rt;
        bad.l1i.lines[1].index = bad.l1i.lines[0].index;
        refused(bad, "repeated index");
    }
    {
        HierarchyState bad = rt;
        bad.l2.lines[0].flags = 2;
        refused(bad, "dirty line without its valid bit");
    }
    {
        HierarchyState bad = rt;
        bad.l1d.lines[0].flags = 5;
        refused(bad, "unknown flag bit");
    }
}

TEST(StoreSerial, BranchPredRoundTripAndShapeGuard)
{
    BranchPredictor bp;
    for (Addr pc = 0x1000; pc < 0x3000; pc += 4) {
        bp.updateDirection(pc, (pc >> 2) % 3 != 0);
        if ((pc >> 2) % 5 == 0)
            bp.updateTarget(pc, pc * 2 + 8);
    }
    bp.pushReturn(0x7700);
    BranchPredState st = bp.exportState();

    SerialWriter w;
    st.serialize(w);
    BranchPredState rt;
    {
        SerialReader r(w.data());
        ASSERT_TRUE(rt.deserialize(r));
        EXPECT_TRUE(r.ok());
    }
    BranchPredictor bp2;
    ASSERT_TRUE(bp2.stateCompatible(rt));
    bp2.adoptState(rt);
    // Adopted state is bit-equal on re-export, and only the live BTB
    // entries travel.
    SerialWriter w2;
    bp2.exportState().serialize(w2);
    EXPECT_EQ(w.data(), w2.data());
    ASSERT_GE(rt.btb.size(), 2u);
    EXPECT_LT(rt.btb.size(), BranchPredConfig{}.btbEntries);
    for (Addr pc = 0x1000; pc < 0x3000; pc += 4) {
        EXPECT_EQ(bp2.predictDirection(pc), bp.predictDirection(pc));
        EXPECT_EQ(bp2.predictTarget(pc), bp.predictTarget(pc));
    }
    EXPECT_EQ(bp2.popReturn(), 0x7700u);


    BranchPredState bad = rt;
    bad.gshare.resize(bad.gshare.size() / 2);
    EXPECT_FALSE(BranchPredictor().stateCompatible(bad));

    bad = rt;
    bad.btb.back().index = BranchPredConfig{}.btbEntries;
    EXPECT_FALSE(BranchPredictor().stateCompatible(bad)) << "past the array";
    bad = rt;
    std::swap(bad.btb[0], bad.btb[1]);
    EXPECT_FALSE(BranchPredictor().stateCompatible(bad)) << "descending";
    bad = rt;
    bad.btb[0].valid = 0;
    EXPECT_FALSE(BranchPredictor().stateCompatible(bad)) << "not valid";
}

TEST(StoreSerial, StoreSetsRoundTripAndShapeGuard)
{
    StoreSets ss;
    ss.recordViolation(0x100, 0x200);
    ss.recordViolation(0x100, 0x300);   // merged set
    ss.recordViolation(0x500, 0x600);
    ss.dispatchStore(0x200, 41);
    StoreSetsState st = ss.exportState();

    SerialWriter w;
    st.serialize(w);
    StoreSetsState rt;
    {
        SerialReader r(w.data());
        ASSERT_TRUE(rt.deserialize(r));
        EXPECT_TRUE(r.ok());
    }
    StoreSets ss2;
    ASSERT_TRUE(ss2.stateCompatible(rt));
    ss2.adoptState(rt);
    // Adopted state is bit-equal on re-export, and only the entries
    // away from their reset value travel: five PCs hold a set, one
    // LFST slot a store.
    SerialWriter w2;
    ss2.exportState().serialize(w2);
    EXPECT_EQ(w.data(), w2.data());
    EXPECT_EQ(rt.ssit.size(), 5u);
    EXPECT_EQ(rt.lfst.size(), 1u);
    // The merged set's ordering behavior survives the round trip.
    EXPECT_EQ(ss2.dispatchLoad(0x100), 41u);
    EXPECT_EQ(ss2.violations(), 3u);

    StoreSetsState bad = rt;
    bad.ssitEntries -= 1;
    EXPECT_FALSE(StoreSets().stateCompatible(bad)) << "SSIT size";
    bad = rt;
    bad.lfstEntries *= 2;
    EXPECT_FALSE(StoreSets().stateCompatible(bad)) << "LFST size";
}

TEST(StoreSerial, WarmRecordRoundTripsBitIdentically)
{
    BoundKernel bk = bindKernel(findKernel("gzip"));
    const WarmBase base = postSetupBase(bk);
    auto src = warmedCore(bk, 20000);
    std::vector<std::uint8_t> rec = warmBytes(*src, base);

    // The sections reassemble into the same bytes, the sparse lists
    // are really sparse, and memory travels as a strict subset of
    // the resident pages.
    WarmRecord parts;
    ASSERT_TRUE(parts.parse(rec));
    EXPECT_EQ(parts.bytes(), rec);
    EXPECT_EQ(parts.baseTag, base.tag);
    EXPECT_FALSE(parts.mem.l2.lines.empty());
    EXPECT_FALSE(parts.bp.btb.empty());
    EXPECT_GT(parts.ck.mem.residentPages(), 0u);
    EXPECT_LT(parts.ck.mem.residentPages(),
              src->oracle().memory().residentPages());

    // export -> serialize -> deserialize -> adopt -> export is exact.
    auto dst = warmedCore(bk, 5000);
    ASSERT_TRUE(dst->tryRestoreWarm(rec, base));
    EXPECT_EQ(warmBytes(*dst, base), rec);
}

TEST(StoreSerial, DeltaRestoreRebuildsBasePlusRecordPages)
{
    BoundKernel bk = bindKernel(findKernel("gzip"));
    const WarmBase base = postSetupBase(bk);
    auto a = warmedCore(bk, 20000);
    const std::vector<std::uint8_t> rec = warmBytes(*a, base);
    const auto basePages = pagesOf(base.mem);
    const auto aPages = pagesOf(a->oracle().memory());

    // A base page A changed, and one A left at its base bytes.
    std::vector<Addr> changed, kept;
    for (const auto &[idx, bytes] : basePages) {
        ASSERT_TRUE(aPages.count(idx));
        (aPages.at(idx) == bytes ? kept : changed).push_back(idx);
    }
    ASSERT_FALSE(changed.empty());
    ASSERT_FALSE(kept.empty());

    // B dirties what the record does not hold: a page neither the
    // base nor A has, and a base page A left alone. It also puts one
    // of A's changed pages back to its base bytes.
    auto b = warmedCore(bk, 5000);
    Memory &bm = b->oracle().memory();
    const Addr stray = (aPages.rbegin()->first + 16) * Memory::pageBytes;
    bm.write(stray, 0xfeedull, 8);
    const Addr keptAt = kept.front() * Memory::pageBytes + 8;
    bm.write(keptAt, ~bm.read(keptAt, 8), 8);
    bm.writeBlock(changed.front() * Memory::pageBytes,
                  basePages.at(changed.front()).data(), Memory::pageBytes);

    // Restored memory is base plus the record's pages: A's image
    // exactly, so B now writes A's record byte for byte.
    ASSERT_TRUE(b->tryRestoreWarm(rec, base));
    EXPECT_EQ(warmBytes(*b, base), rec);
    EXPECT_EQ(pagesOf(bm), aPages);
    EXPECT_EQ(bm.read(stray, 8), 0u);
}

TEST(StoreSerial, MismatchedBaseLeavesCoreUntouched)
{
    BoundKernel bk = bindKernel(findKernel("gzip"));
    const WarmBase base = postSetupBase(bk);
    const std::vector<std::uint8_t> rec =
        warmBytes(*warmedCore(bk, 20000), base);

    // One byte of difference makes another base, with another tag.
    Memory otherImage = base.mem;
    const Addr at = pagesOf(base.mem).begin()->first * Memory::pageBytes;
    otherImage.writeByte(at, otherImage.readByte(at) ^ 1);
    const WarmBase other(otherImage);
    ASSERT_NE(other.tag, base.tag);

    auto dst = warmedCore(bk, 5000);
    const std::vector<std::uint8_t> before = warmBytes(*dst, base);
    EXPECT_FALSE(dst->tryRestoreWarm(rec, other));
    EXPECT_EQ(warmBytes(*dst, base), before);
    EXPECT_FALSE(dst->tryRestoreWarm(rec, WarmBase()));
    EXPECT_EQ(warmBytes(*dst, base), before);
    EXPECT_TRUE(dst->tryRestoreWarm(rec, base));
}

TEST(StoreSerial, MalformedPageListLeavesCoreUntouched)
{
    BoundKernel bk = bindKernel(findKernel("gzip"));
    const WarmBase base = postSetupBase(bk);
    const std::vector<std::uint8_t> rec =
        warmBytes(*warmedCore(bk, 20000), base);
    WarmRecord good;
    ASSERT_TRUE(good.parse(rec));
    ASSERT_GE(good.ck.mem.residentPages(), 2u);
    const std::size_t first = good.pagesAt + 8;     // first page's index
    const std::size_t second = first + pageRecordBytes;

    auto dst = warmedCore(bk, 5000);
    const std::vector<std::uint8_t> before = warmBytes(*dst, base);
    auto refused = [&](const std::vector<std::uint8_t> &bad,
                       const char *what) {
        EXPECT_FALSE(dst->tryRestoreWarm(bad, base)) << what;
        EXPECT_EQ(warmBytes(*dst, base), before) << what;
    };
    {
        std::vector<std::uint8_t> bad = rec;
        putU64(bad, first, getU64(rec, second));
        putU64(bad, second, getU64(rec, first));
        refused(bad, "descending page index");
    }
    {
        std::vector<std::uint8_t> bad = rec;
        putU64(bad, second, getU64(rec, first));
        refused(bad, "repeated page index");
    }
    {
        std::vector<std::uint8_t> bad = rec;
        putU64(bad, good.pagesAt,
               (rec.size() - first) / pageRecordBytes + 1);
        refused(bad, "page count past the remaining bytes");
    }
    EXPECT_TRUE(dst->tryRestoreWarm(rec, base));
}

TEST(StoreSerial, LongRecordCarriesOnlyChangedPages)
{
    // Long-tier kernels after a million work units: the record's page
    // list is exactly the pages that are new or differ from the
    // post-setup image. gap's image is one page, which it writes;
    // rtr's is 149 pages of tables it only reads, so its list is
    // empty. An untrained predictor's store-set section is the
    // fixed-size header alone.
    // Table sizes, two empty lists, and the three counters.
    constexpr std::size_t ssHeaderBytes = 4 + 4 + 8 + 8 + 8 + 8 + 4;
    SerialWriter fresh;
    StoreSets().exportState().serialize(fresh);
    ASSERT_EQ(fresh.size(), ssHeaderBytes);

    for (const char *name : {"gap", "rtr"}) {
        BoundKernel bk = bindKernel(findKernel(name), Scale::Long);
        const WarmBase base = postSetupBase(bk);
        auto core = warmedCore(bk, 1000000);
        WarmRecord parts;
        ASSERT_TRUE(parts.parse(warmBytes(*core, base))) << name;

        const auto basePages = pagesOf(base.mem);
        const auto nowPages = pagesOf(core->oracle().memory());
        std::size_t differing = 0;
        for (const auto &[idx, bytes] : nowPages) {
            auto it = basePages.find(idx);
            differing += it == basePages.end() || it->second != bytes;
        }
        EXPECT_EQ(parts.ck.mem.residentPages(), differing) << name;
        EXPECT_EQ(differing, std::string(name) == "gap" ? 1u : 0u)
            << name << " of " << nowPages.size() << " pages";
        EXPECT_EQ(parts.ssBytes, ssHeaderBytes) << name;
    }
}

TEST(StoreSerial, SeededWarmRecordMatchesGolden)
{
    // The first record a seeded sampled sha run writes back: the
    // seed is the run's own discovered violation set, so the record
    // carries a shadow section with both woken and dormant edges and
    // RAW alias entries, and store-set entries. Its checksum pins the
    // record layout and the state it captures; a change here must
    // come with a warmStateVersion bump.
    BoundKernel bk = bindKernel(findKernel("sha"));
    const SamplingParams sp = sampledSmall(SimConfig{}).sampling;
    SampleSummary sum =
        collectSampleSummary(*bk.program, nullptr, bk.setup, sp);
    const std::vector<std::pair<Addr, Addr>> seed = {
        {0x10048, 0x10028}, {0x10048, 0x10074},
        {0x1004c, 0x10028}, {0x1005c, 0x10028}};
    Core core(*bk.program, nullptr, CoreConfig{});
    bk.kernel->setup(core.oracle(), 0);
    FirstWriteback store;
    SampledStats s = core.runSampled(sp, sum, ~0ull, &store, &seed);
    ASSERT_FALSE(s.exact);

    WarmRecord parts;
    ASSERT_TRUE(parts.parse(store.bytes));
    EXPECT_GT(parts.rest.size(), 16u) << "empty shadow section";
    EXPECT_FALSE(parts.ss.ssit.empty()) << "no store-set entries";
    EXPECT_EQ(parts.baseTag, postSetupBase(bk).tag);
    EXPECT_EQ(store.pos, 4800u);
    EXPECT_EQ(store.bytes.size(), 12941u);
    EXPECT_EQ(checksum64(store.bytes.data(), store.bytes.size()),
              0x062126bccc339bc9ull);
}

TEST(StoreSerial, MalformedSparseStateLeavesCoreUntouched)
{
    BoundKernel bk = bindKernel(findKernel("gzip"));
    const WarmBase base = postSetupBase(bk);
    WarmRecord good;
    ASSERT_TRUE(good.parse(warmBytes(*warmedCore(bk, 20000), base)));
    ASSERT_GE(good.mem.l1d.lines.size(), 2u);
    ASSERT_GE(good.bp.btb.size(), 2u);
    // A shadowless warm-through trains no store sets; give the record
    // well-formed entries to damage.
    ASSERT_TRUE(good.ss.ssit.empty() && good.ss.lfst.empty());
    good.ss.ssit = {{5, 0}, {9, 1}};
    good.ss.lfst = {{0, 41, 0x200}, {1, 0, 0x300}};

    auto dst = warmedCore(bk, 5000);
    const std::vector<std::uint8_t> before = warmBytes(*dst, base);
    auto refused = [&](const WarmRecord &bad, const char *what) {
        EXPECT_FALSE(dst->tryRestoreWarm(bad.bytes(), base)) << what;
        EXPECT_EQ(warmBytes(*dst, base), before) << what;
    };
    {
        WarmRecord bad = good;
        bad.mem.l1d.lines.back().index = bad.mem.l1d.sets *
            bad.mem.l1d.assoc;
        refused(bad, "cache line index past the array");
    }
    {
        WarmRecord bad = good;
        std::swap(bad.mem.l1d.lines[0], bad.mem.l1d.lines[1]);
        refused(bad, "non-ascending cache line index");
    }
    {
        WarmRecord bad = good;
        bad.mem.l2.lines[0].flags &= ~1;
        refused(bad, "live cache line without its valid bit");
    }
    {
        WarmRecord bad = good;
        bad.bp.btb.back().index = BranchPredConfig{}.btbEntries;
        refused(bad, "BTB index past the array");
    }
    {
        WarmRecord bad = good;
        std::swap(bad.bp.btb[0], bad.bp.btb[1]);
        refused(bad, "non-ascending BTB index");
    }
    {
        WarmRecord bad = good;
        bad.bp.btb[0].valid = 0;
        refused(bad, "live BTB entry without its valid bit");
    }
    {
        WarmRecord bad = good;
        bad.ss.ssit.back().index = bad.ss.ssitEntries;
        refused(bad, "SSIT index past the array");
    }
    {
        WarmRecord bad = good;
        bad.ss.lfst.back().index = bad.ss.lfstEntries;
        refused(bad, "LFST index past the array");
    }
    {
        WarmRecord bad = good;
        std::swap(bad.ss.ssit[0], bad.ss.ssit[1]);
        refused(bad, "descending SSIT index");
    }
    {
        WarmRecord bad = good;
        std::swap(bad.ss.lfst[0], bad.ss.lfst[1]);
        refused(bad, "descending LFST index");
    }
    {
        WarmRecord bad = good;
        bad.ss.ssit[1].index = bad.ss.ssit[0].index;
        refused(bad, "repeated SSIT index");
    }
    {
        WarmRecord bad = good;
        bad.ss.lfst[1].index = bad.ss.lfst[0].index;
        refused(bad, "repeated LFST index");
    }
    {
        WarmRecord bad = good;
        bad.ss.ssit[0].set = -1;
        refused(bad, "SSIT entry at its reset value");
    }
    {
        WarmRecord bad = good;
        bad.ss.lfst[1].pc = 0;
        refused(bad, "LFST slot at its reset value");
    }
    // The undamaged record still restores, store-set entries and all.
    ASSERT_TRUE(dst->tryRestoreWarm(good.bytes(), base));
    EXPECT_EQ(warmBytes(*dst, base), good.bytes());
}

// ----------------------------------------------------------- codec layer

TEST(StoreCodec, RleMatchesBytewiseReference)
{
    std::mt19937_64 rng(14);
    for (int t = 0; t < 300; ++t) {
        std::size_t n = rng() % (t < 40 ? 300 : 5000);
        double zeroShare = (t % 5) / 4.0;
        std::vector<std::uint8_t> buf = zeroHeavy(rng, n, zeroShare);

        std::vector<std::uint8_t> enc = rleEncode(buf.data(), buf.size());
        ASSERT_EQ(enc, refRleEncode(buf)) << "trial " << t;
        std::vector<std::uint8_t> dec;
        ASSERT_TRUE(rleDecode(enc.data(), enc.size(), dec, n));
        EXPECT_EQ(dec, buf);

        // A stream that decodes past the expected length, or short of
        // it, is refused.
        if (n > 0) {
            EXPECT_FALSE(rleDecode(enc.data(), enc.size(), dec, n - 1));
        }
        EXPECT_FALSE(rleDecode(enc.data(), enc.size(), dec, n + 1));
        // So is every truncation (small trials: every cut).
        if (t < 40) {
            for (std::size_t cut = 0; cut < enc.size(); ++cut)
                EXPECT_FALSE(rleDecode(enc.data(), cut, dec, n))
                    << "trial " << t << " cut " << cut;
        }
    }

    // Damaged streams: both decoders agree on acceptance and output.
    for (int t = 0; t < 2000; ++t) {
        std::vector<std::uint8_t> stream = zeroHeavy(rng, rng() % 64, 0.5);
        for (std::uint8_t &b : stream) {
            if (rng() % 4 == 0)
                b = static_cast<std::uint8_t>(rng() % 3);
        }
        std::size_t expect = rng() % 1500;
        std::vector<std::uint8_t> fast, ref;
        bool okFast = rleDecode(stream.data(), stream.size(), fast, expect);
        bool okRef = refRleDecode(stream, ref, expect);
        ASSERT_EQ(okFast, okRef) << "trial " << t;
        if (okFast) {
            EXPECT_EQ(fast, ref);
        }
    }

    // Hand-made defects: a run byte of zero, a missing run byte, and
    // a claimed length no stream that short can reach.
    std::vector<std::uint8_t> dec;
    const std::uint8_t zeroRun[] = {7, 0, 0};
    EXPECT_FALSE(rleDecode(zeroRun, sizeof zeroRun, dec, 1));
    const std::uint8_t bareZero[] = {7, 0};
    EXPECT_FALSE(rleDecode(bareZero, sizeof bareZero, dec, 2));
    const std::uint8_t run[] = {0, 255};
    EXPECT_TRUE(rleDecode(run, sizeof run, dec, 255));
    EXPECT_FALSE(rleDecode(run, sizeof run, dec, std::size_t(1) << 40));
    EXPECT_TRUE(rleDecode(nullptr, 0, dec, 0));
    EXPECT_TRUE(dec.empty());
}

TEST(StoreCodec, ChecksumDetectsEverySingleBitFlip)
{
    // Lengths around the four-lane block and the zero-padded tail.
    std::mt19937_64 rng(3);
    for (std::size_t n : {std::size_t(0), std::size_t(1), std::size_t(7),
                          std::size_t(8), std::size_t(31), std::size_t(32),
                          std::size_t(61), std::size_t(300)}) {
        std::vector<std::uint8_t> buf = zeroHeavy(rng, n, 0.7);
        std::uint64_t sum = checksum64(buf.data(), buf.size());
        for (std::size_t i = 0; i < n; ++i) {
            for (int bit = 0; bit < 8; ++bit) {
                buf[i] ^= static_cast<std::uint8_t>(1u << bit);
                EXPECT_NE(checksum64(buf.data(), buf.size()), sum)
                    << "length " << n << " byte " << i << " bit " << bit;
                buf[i] ^= static_cast<std::uint8_t>(1u << bit);
            }
        }
        // The length is covered too: a zero byte appended or dropped.
        std::vector<std::uint8_t> longer = buf;
        longer.push_back(0);
        EXPECT_NE(checksum64(longer.data(), longer.size()), sum);
        EXPECT_EQ(checksum64(buf.data(), buf.size()), sum);
    }
}

// ------------------------------------------------------------ file layer

TEST(StoreFiles, RoundTripCountersAndPersistence)
{
    ScratchDir dir("roundtrip");
    std::vector<std::uint8_t> payload;
    for (int i = 0; i < 4096; ++i)
        payload.push_back(static_cast<std::uint8_t>(i % 11 ? 0 : i));

    {
        CheckpointStore s({dir.str()});
        ASSERT_TRUE(s.enabled());
        std::vector<std::uint8_t> out;
        EXPECT_FALSE(s.load("warm|a|p0", out));
        s.store("warm|a|p0", payload);
        ASSERT_TRUE(s.load("warm|a|p0", out));
        EXPECT_EQ(out, payload);
        CheckpointStoreCounters c = s.counters();
        EXPECT_EQ(c.hits, 1u);
        EXPECT_EQ(c.misses, 1u);
        EXPECT_EQ(c.writebacks, 1u);
        EXPECT_EQ(c.corrupt, 0u);
    }
    // A second store instance over the same directory sees the record
    // (the content-addressed contract: the key, not the session, owns
    // the data).
    CheckpointStore s2({dir.str()});
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(s2.load("warm|a|p0", out));
    EXPECT_EQ(out, payload);
}

TEST(StoreFiles, TruncatedRecordRejectedAndHealedByWriteback)
{
    ScratchDir dir("truncate");
    CheckpointStore s({dir.str()});
    std::vector<std::uint8_t> payload(1000, 7);
    s.store("warm|t|p0", payload);

    auto files = recordFiles(dir.path);
    ASSERT_EQ(files.size(), 1u);
    fs::resize_file(files[0], fs::file_size(files[0]) / 2);

    std::vector<std::uint8_t> out;
    EXPECT_FALSE(s.load("warm|t|p0", out));
    EXPECT_EQ(s.counters().corrupt, 1u);
    // Defective records are unlinked so the next writeback heals.
    EXPECT_TRUE(recordFiles(dir.path).empty());
    s.store("warm|t|p0", payload);
    EXPECT_TRUE(s.load("warm|t|p0", out));
    EXPECT_EQ(out, payload);
}

TEST(StoreFiles, FlippedPayloadByteFailsChecksum)
{
    ScratchDir dir("flip");
    CheckpointStore s({dir.str()});
    std::vector<std::uint8_t> payload(512);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i);
    s.store("warm|f|p0", payload);

    auto files = recordFiles(dir.path);
    ASSERT_EQ(files.size(), 1u);
    flipByte(files[0], -17);    // inside the encoded payload

    std::vector<std::uint8_t> out;
    EXPECT_FALSE(s.load("warm|f|p0", out));
    EXPECT_EQ(s.counters().corrupt, 1u);
}

TEST(StoreFiles, StaleVersionHeaderRejected)
{
    ScratchDir dir("stale");
    CheckpointStore s({dir.str()});
    s.store("warm|v|p0", std::vector<std::uint8_t>(64, 3));

    auto files = recordFiles(dir.path);
    ASSERT_EQ(files.size(), 1u);
    flipByte(files[0], 4);      // the format-version field

    std::vector<std::uint8_t> out;
    EXPECT_FALSE(s.load("warm|v|p0", out));
    EXPECT_EQ(s.counters().corrupt, 1u);
}

TEST(StoreFiles, HashSlotHoldingAnotherKeyReadsAsMiss)
{
    ScratchDir dir("collide");
    CheckpointStore s({dir.str()});
    s.store("warm|x|p0", std::vector<std::uint8_t>(64, 1));
    s.store("warm|y|p0", std::vector<std::uint8_t>(64, 2));

    // Simulate an FNV collision: plant x's (well-formed!) record in
    // y's file slot. The embedded key string must read as a miss for
    // y — never as x's data.
    auto files = recordFiles(dir.path);
    ASSERT_EQ(files.size(), 2u);
    fs::path xFile =
        recordKey(files[0]) == "warm|x|p0" ? files[0] : files[1];
    fs::path yFile = xFile == files[0] ? files[1] : files[0];
    fs::copy_file(xFile, yFile, fs::copy_options::overwrite_existing);

    std::uint64_t corruptBefore = s.counters().corrupt;
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(s.load("warm|y|p0", out));
    // A key mismatch is a plain miss, not corruption.
    EXPECT_EQ(s.counters().corrupt, corruptBefore);
    // x itself still loads.
    EXPECT_TRUE(s.load("warm|x|p0", out));
    EXPECT_EQ(out, std::vector<std::uint8_t>(64, 1));
}

TEST(StoreFiles, CapEvictsLeastRecentlyUsed)
{
    ScratchDir dir("evict");
    // Each record is ~0.5 KiB on disk; cap at ~2 records.
    CheckpointStore s({dir.str(), 1300});
    std::vector<std::uint8_t> payload(512);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 7);

    s.store("warm|e|p0", payload);
    s.store("warm|e|p1", payload);
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(s.load("warm|e|p0", out));  // refresh p0's recency
    s.store("warm|e|p2", payload);          // must evict p1, not p0

    EXPECT_GT(s.counters().evictions, 0u);
    EXPECT_TRUE(s.load("warm|e|p2", out));
    EXPECT_TRUE(s.load("warm|e|p0", out));
    EXPECT_FALSE(s.load("warm|e|p1", out));
}

TEST(StoreFiles, UnusableDirectoryDegradesToNoOp)
{
    // The directory path runs *through* a regular file: mkdir fails.
    ScratchDir dir("unwritable");
    fs::path blocker = dir.path / "blocker";
    std::ofstream(blocker).put('x');
    CheckpointStore s({(blocker / "cache").string()});
    EXPECT_FALSE(s.enabled());
    EXPECT_FALSE(s.writable());

    // Every operation is a safe no-op.
    std::vector<std::uint8_t> out;
    s.store("warm|u|p0", std::vector<std::uint8_t>(8, 1));
    EXPECT_FALSE(s.load("warm|u|p0", out));
    EXPECT_EQ(s.counters().writebacks, 0u);
}

TEST(StoreFiles, WriteFailureMidSessionDegradesWrites)
{
    ScratchDir dir("enospc");
    fs::path sub = dir.path / "cache";
    fs::create_directories(sub);
    CheckpointStore s({sub.string()});
    ASSERT_TRUE(s.enabled());
    s.store("warm|w|p0", std::vector<std::uint8_t>(128, 9));
    EXPECT_EQ(s.counters().writebacks, 1u);

    // Yank the directory out from under the store: the next write
    // cannot create its temp file (the ENOSPC-class failure mode) and
    // must degrade writes without failing the caller.
    fs::remove_all(sub);
    s.store("warm|w|p1", std::vector<std::uint8_t>(128, 9));
    EXPECT_FALSE(s.writable());
    EXPECT_EQ(s.counters().writebacks, 1u);
    // Further stores stay no-ops; the object remains safe to use.
    s.store("warm|w|p2", std::vector<std::uint8_t>(128, 9));
    EXPECT_EQ(s.counters().writebacks, 1u);
}

// ------------------------------------------------------- end-to-end layer

TEST(StoreEndToEnd, ColdPopulatesWarmRestoresBitIdentically)
{
    ScratchDir dir("e2e");
    BoundKernel bk = bindKernel(findKernel("gzip"));
    EngineWorkload w = workload(bk);
    SimConfig sc = sampledSmall(SimConfig::intMemMg());

    ExperimentEngine cold(1);
    cold.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats a = cold.cell(w, {"sampled", sc}).sampled;
    ASSERT_FALSE(a.exact) << "kernel too small to exercise sampling";
    EXPECT_GT(a.ckptWritebacks, 0u);
    EXPECT_EQ(a.ckptRestores, 0u);
    EXPECT_GT(cold.checkpointStore()->counters().writebacks, 0u);

    ExperimentEngine warm(1);
    warm.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats b = warm.cell(w, {"sampled", sc}).sampled;
    EXPECT_GT(b.ckptRestores, 0u);
    EXPECT_EQ(b.ckptWritebacks, 0u);

    // The warm session is the cold session, bit for bit.
    EXPECT_EQ(b.est, a.est);
    EXPECT_EQ(b.intervals, a.intervals);
    EXPECT_EQ(b.measuredCycles, a.measuredCycles);
    EXPECT_EQ(b.ipcHat, a.ipcHat);
    EXPECT_EQ(b.ipcRelCi95, a.ipcRelCi95);
}

TEST(StoreEndToEnd, CorruptedRecordsFallBackToIdenticalRecompute)
{
    ScratchDir dir("e2e-corrupt");
    BoundKernel bk = bindKernel(findKernel("gzip"));
    EngineWorkload w = workload(bk);
    SimConfig sc = sampledSmall(SimConfig::intMemMg());

    ExperimentEngine cold(1);
    cold.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats a = cold.cell(w, {"sampled", sc}).sampled;
    ASSERT_FALSE(a.exact);
    ASSERT_GT(a.ckptWritebacks, 0u);

    // Flip a byte near the end of every record on disk (summary,
    // violation set, and warm records alike).
    for (const fs::path &f : recordFiles(dir.path))
        flipByte(f, -3);

    ExperimentEngine warm(1);
    warm.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats b = warm.cell(w, {"sampled", sc}).sampled;

    // Nothing restorable: the session must recompute everything and
    // land on the cold session's exact stats — corruption can cost
    // time, never correctness.
    EXPECT_EQ(b.ckptRestores, 0u);
    EXPECT_EQ(b.est, a.est);
    EXPECT_EQ(b.intervals, a.intervals);
    EXPECT_GT(warm.checkpointStore()->counters().corrupt, 0u);
    // The rejected records were unlinked and rewritten: a third
    // session restores warm again.
    ExperimentEngine healed(1);
    healed.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats c = healed.cell(w, {"sampled", sc}).sampled;
    EXPECT_GT(c.ckptRestores, 0u);
    EXPECT_EQ(c.est, a.est);
}

TEST(StoreEndToEnd, PartlyEvictedStoreReproducesTheColdSession)
{
    ScratchDir dir("e2e-evict");
    BoundKernel bk = bindKernel(findKernel("gzip"));
    EngineWorkload w = workload(bk);
    SimConfig sc = sampledSmall(SimConfig::intMemMg());

    ExperimentEngine cold(1);
    cold.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats a = cold.cell(w, {"sampled", sc}).sampled;
    ASSERT_FALSE(a.exact);
    ASSERT_GT(a.ckptWritebacks, 0u);

    // Delete every third warm record (in key order, so the same ones
    // every run): the next session restores the gaps it still has
    // and warms through the rest from restored state.
    std::vector<std::pair<std::string, fs::path>> warmRecords;
    for (const fs::path &f : recordFiles(dir.path)) {
        std::string key = recordKey(f);
        if (key.rfind("warm|", 0) == 0)
            warmRecords.emplace_back(key, f);
    }
    std::sort(warmRecords.begin(), warmRecords.end());
    ASSERT_GE(warmRecords.size(), 3u);
    for (std::size_t i = 2; i < warmRecords.size(); i += 3)
        fs::remove(warmRecords[i].second);

    ExperimentEngine warm(1);
    warm.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats b = warm.cell(w, {"sampled", sc}).sampled;
    EXPECT_GT(b.ckptRestores, 0u);
    EXPECT_EQ(b.est, a.est);
    EXPECT_EQ(b.intervals, a.intervals);
    EXPECT_EQ(b.measuredCycles, a.measuredCycles);
    EXPECT_EQ(b.ipcHat, a.ipcHat);
    EXPECT_EQ(b.ipcRelCi95, a.ipcRelCi95);
}

TEST(StoreEndToEnd, FormatTwoRecordsRecomputeIdentically)
{
    ScratchDir dir("e2e-format2");
    BoundKernel bk = bindKernel(findKernel("gzip"));
    EngineWorkload w = workload(bk);
    SimConfig sc = sampledSmall(SimConfig::intMemMg());

    ExperimentEngine cold(1);
    cold.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats a = cold.cell(w, {"sampled", sc}).sampled;
    ASSERT_FALSE(a.exact);
    ASSERT_GT(a.ckptWritebacks, 0u);

    // Rewrite every record as the previous format wrote it, with the
    // same payload.
    std::vector<fs::path> files = recordFiles(dir.path);
    {
        CheckpointStore reader({dir.str()});
        for (const fs::path &f : files) {
            std::string key = recordKey(f);
            std::vector<std::uint8_t> payload;
            ASSERT_TRUE(reader.load(key, payload)) << key;
            writeFormat2Record(f, key, payload);
        }
    }

    ExperimentEngine warm(1);
    warm.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats b = warm.cell(w, {"sampled", sc}).sampled;

    // Every old record reads as stale and is recomputed, to the same
    // result.
    EXPECT_EQ(b.ckptRestores, 0u);
    EXPECT_EQ(warm.checkpointStore()->counters().corrupt, files.size());
    EXPECT_EQ(b.est, a.est);
    EXPECT_EQ(b.intervals, a.intervals);
    EXPECT_EQ(b.measuredCycles, a.measuredCycles);

    // The recomputed records are current: the next session restores.
    ExperimentEngine healed(1);
    healed.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats c = healed.cell(w, {"sampled", sc}).sampled;
    EXPECT_GT(c.ckptRestores, 0u);
    EXPECT_EQ(c.est, a.est);
}

TEST(StoreEndToEnd, VersionTwoWarmRecordsRecomputeIdentically)
{
    ScratchDir dir("e2e-warm2");
    BoundKernel bk = bindKernel(findKernel("gzip"));
    EngineWorkload w = workload(bk);
    SimConfig sc = sampledSmall(SimConfig::intMemMg());

    ExperimentEngine cold(1);
    cold.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats a = cold.cell(w, {"sampled", sc}).sampled;
    ASSERT_FALSE(a.exact);
    ASSERT_GT(a.ckptWritebacks, 0u);

    // Tag every warm record with the previous warmStateVersion. The
    // store's own checks still pass: only the core can refuse them.
    std::size_t retagged = 0;
    {
        CheckpointStore rw({dir.str()});
        for (const fs::path &f : recordFiles(dir.path)) {
            std::string key = recordKey(f);
            if (key.rfind("warm|", 0) != 0)
                continue;
            std::vector<std::uint8_t> payload;
            ASSERT_TRUE(rw.load(key, payload)) << key;
            ASSERT_GE(payload.size(), 4u);
            const std::uint32_t v2 = 2;
            std::memcpy(payload.data(), &v2, sizeof v2);
            rw.store(key, payload);
            ++retagged;
        }
    }
    ASSERT_GT(retagged, 0u);

    ExperimentEngine warm(1);
    warm.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats b = warm.cell(w, {"sampled", sc}).sampled;
    EXPECT_EQ(b.ckptRestores, 0u);
    EXPECT_GT(b.ckptWritebacks, 0u);
    EXPECT_EQ(warm.checkpointStore()->counters().corrupt, 0u);
    EXPECT_EQ(b.est, a.est);
    EXPECT_EQ(b.intervals, a.intervals);
    EXPECT_EQ(b.measuredCycles, a.measuredCycles);
    EXPECT_EQ(b.ipcHat, a.ipcHat);

    // The recomputed records replaced them: the next session restores.
    ExperimentEngine healed(1);
    healed.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats c = healed.cell(w, {"sampled", sc}).sampled;
    EXPECT_GT(c.ckptRestores, 0u);
    EXPECT_EQ(c.est, a.est);
}

TEST(StoreEndToEnd, UnusableDirectoryStillSimulatesStoreless)
{
    ScratchDir dir("e2e-baddir");
    fs::path blocker = dir.path / "blocker";
    std::ofstream(blocker).put('x');

    BoundKernel bk = bindKernel(findKernel("adpcm.enc"));
    EngineWorkload w = workload(bk);
    SimConfig sc = sampledSmall(SimConfig::intMemMg());

    ExperimentEngine plain(1);
    SampledStats ref = plain.cell(w, {"sampled", sc}).sampled;

    ExperimentEngine broken(1);
    broken.setCheckpointStore(std::make_shared<CheckpointStore>(
        CheckpointStoreConfig{(blocker / "cache").string()}));
    SampledStats got = broken.cell(w, {"sampled", sc}).sampled;

    // A disabled store must not change a single bit of the result.
    EXPECT_EQ(got.est, ref.est);
    EXPECT_EQ(got.intervals, ref.intervals);
    EXPECT_EQ(got.ckptRestores, 0u);
    EXPECT_EQ(got.ckptWritebacks, 0u);
}
