#include "memsys/memory.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace mg {

void
Memory::copyPages(const Memory &other)
{
    pages.reserve(other.pages.size());
    // mglint:allow(unordered-iter): deep copy map-to-map, order-free
    for (const auto &[idx, page] : other.pages)
        pages.emplace(idx, std::make_unique<Page>(*page));
}

const Memory::Page *
Memory::findPageSlow(Addr addr) const
{
    Addr idx = addr / pageBytes;
    auto it = pages.find(idx);
    if (it == pages.end())
        return nullptr;
    cachedIdx = idx;
    cachedPage = it->second.get();
    return cachedPage;
}

Memory::Page &
Memory::getPageSlow(Addr addr)
{
    Addr idx = addr / pageBytes;
    auto &slot = pages[idx];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    cachedIdx = idx;
    cachedPage = slot.get();
    return *slot;
}

std::uint64_t
Memory::readSlow(Addr addr, int bytes) const
{
    // Page-straddling access: assemble byte-wise across the boundary.
    if (bytes != 1 && bytes != 2 && bytes != 4 && bytes != 8)
        panic("bad access size %d", bytes);
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(readByte(addr + i)) << (8 * i);
    return v;
}

void
Memory::writeSlow(Addr addr, std::uint64_t value, int bytes)
{
    if (bytes != 1 && bytes != 2 && bytes != 4 && bytes != 8)
        panic("bad access size %d", bytes);
    for (int i = 0; i < bytes; ++i)
        writeByte(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
}

void
Memory::writeBlock(Addr addr, const std::uint8_t *data, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        writeByte(addr + i, data[i]);
}

std::vector<std::uint8_t>
Memory::readBlock(Addr addr, std::size_t len) const
{
    std::vector<std::uint8_t> out(len);
    for (std::size_t i = 0; i < len; ++i)
        out[i] = readByte(addr + i);
    return out;
}

void
Memory::serialize(SerialWriter &w, const Memory &base) const
{
    // Sorted page order: the byte stream (and any checksum over it)
    // is a canonical function of the image, not of hash-map layout.
    std::vector<Addr> idxs;
    idxs.reserve(pages.size());
    // mglint:allow(unordered-iter): keys copied then sorted below
    for (const auto &[idx, page] : pages) {
        auto b = base.pages.find(idx);
        if (b == base.pages.end() ||
            std::memcmp(b->second->data(), page->data(), pageBytes) != 0)
            idxs.push_back(idx);
    }
    std::sort(idxs.begin(), idxs.end());
    w.u64(idxs.size());
    for (Addr idx : idxs) {
        w.u64(idx);
        w.bytes(pages.at(idx)->data(), pageBytes);
    }
}

bool
Memory::deserialize(SerialReader &r)
{
    clear();
    std::uint64_t n = r.u64();
    if (n > r.remaining() / (sizeof(Addr) + pageBytes)) {
        r.fail();
        return false;
    }
    Addr prevIdx = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        Addr idx = r.u64();
        auto page = std::make_unique<Page>();
        if ((i > 0 && idx <= prevIdx) || !r.bytes(page->data(), pageBytes)) {
            r.fail();
            clear();
            return false;
        }
        pages.emplace(idx, std::move(page));
        prevIdx = idx;
    }
    if (!r.ok()) {
        clear();
        return false;
    }
    return true;
}

void
Memory::rebase(const Memory &base, Memory &&delta)
{
    // mglint:allow(unordered-iter): each page's fate is its own
    for (auto it = pages.begin(); it != pages.end();) {
        if (delta.pages.count(it->first)) {
            ++it;               // replaced below
            continue;
        }
        auto b = base.pages.find(it->first);
        if (b == base.pages.end()) {
            it = pages.erase(it);
            continue;
        }
        if (std::memcmp(it->second->data(), b->second->data(),
                        pageBytes) != 0)
            *it->second = *b->second;
        ++it;
    }
    // mglint:allow(unordered-iter): inserts by key, order-free
    for (const auto &[idx, page] : base.pages) {
        if (!delta.pages.count(idx) && !pages.count(idx))
            pages.emplace(idx, std::make_unique<Page>(*page));
    }
    // mglint:allow(unordered-iter): inserts by key, order-free
    for (auto &[idx, page] : delta.pages)
        pages[idx] = std::move(page);
    delta.clear();
    invalidateCache();
}

std::uint64_t
Memory::checksum() const
{
    SerialWriter w;
    serialize(w);
    return checksum64(w.data().data(), w.data().size());
}

} // namespace mg
