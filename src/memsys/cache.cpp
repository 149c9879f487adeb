#include "memsys/cache.hh"

#include "common/logging.hh"

namespace mg {

Cache::Cache(const CacheGeometry &g, std::string name)
    : geom(g), name_(std::move(name))
{
    if (geom.lineBytes == 0 || geom.assoc == 0 ||
        geom.sizeBytes % (geom.assoc * geom.lineBytes) != 0)
        fatal("cache %s: size %u not divisible by assoc %u * line %u",
              name_.c_str(), geom.sizeBytes, geom.assoc, geom.lineBytes);
    if (geom.numSets() == 0)
        fatal("cache %s has zero sets", name_.c_str());
    lines.resize(static_cast<size_t>(geom.numSets()) * geom.assoc);

    std::uint32_t sets = geom.numSets();
    if ((geom.lineBytes & (geom.lineBytes - 1)) == 0 &&
        (sets & (sets - 1)) == 0) {
        pow2 = true;
        while ((1u << lineShift) < geom.lineBytes)
            ++lineShift;
        while ((1u << setShift) < sets)
            ++setShift;
        setMask = sets - 1;
    }
}

CacheResult
Cache::access(Addr addr, bool write)
{
    ++useClock;
    std::uint32_t set = setOf(addr);
    Addr tag = tagOf(addr);
    Line *base = &lines[static_cast<size_t>(set) * geom.assoc];

    for (std::uint32_t w = 0; w < geom.assoc; ++w) {
        Line &l = base[w];
        if (l.valid && l.tag == tag) {
            l.lastUse = useClock;
            if (write)
                l.dirty = true;
            ++hits_;
            return {true, false};
        }
    }

    // Miss: pick invalid way or LRU victim.
    Line *victim = base;
    for (std::uint32_t w = 0; w < geom.assoc; ++w) {
        Line &l = base[w];
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (l.lastUse < victim->lastUse)
            victim = &l;
    }

    bool wbDirty = victim->valid && victim->dirty;
    victim->valid = true;
    victim->dirty = write;
    victim->tag = tag;
    victim->lastUse = useClock;
    ++misses_;
    return {false, wbDirty};
}

bool
Cache::probe(Addr addr) const
{
    std::uint32_t set = setOf(addr);
    Addr tag = tagOf(addr);
    const Line *base = &lines[static_cast<size_t>(set) * geom.assoc];
    for (std::uint32_t w = 0; w < geom.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (Line &l : lines)
        l = Line();
}

namespace {

/** Serialized size of one CacheLineState: index, flags, tag, lastUse. */
constexpr std::size_t lineStateBytes = 4 + 1 + 8 + 8;

} // namespace

void
CacheState::serialize(SerialWriter &w) const
{
    w.u32(sets);
    w.u32(assoc);
    w.u64(useClock);
    w.u64(hits);
    w.u64(misses);
    w.u64(lines.size());
    for (const CacheLineState &l : lines) {
        w.u32(l.index);
        w.u8(l.flags);
        w.u64(l.tag);
        w.u64(l.lastUse);
    }
}

bool
CacheState::deserialize(SerialReader &r)
{
    sets = r.u32();
    assoc = r.u32();
    useClock = r.u64();
    hits = r.u64();
    misses = r.u64();
    std::uint64_t n = r.u64();
    if (n > r.remaining() / lineStateBytes) {
        r.fail();
        return false;
    }
    lines.resize(static_cast<std::size_t>(n));
    for (CacheLineState &l : lines) {
        l.index = r.u32();
        l.flags = r.u8();
        l.tag = r.u64();
        l.lastUse = r.u64();
    }
    return r.ok();
}

CacheState
Cache::exportState() const
{
    CacheState s;
    s.sets = geom.numSets();
    s.assoc = geom.assoc;
    s.useClock = useClock;
    s.hits = hits_;
    s.misses = misses_;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const Line &l = lines[i];
        if (l.valid)
            s.lines.push_back({static_cast<std::uint32_t>(i),
                               static_cast<std::uint8_t>(
                                   1 | (l.dirty ? 2 : 0)),
                               l.tag, l.lastUse});
    }
    return s;
}

bool
Cache::stateCompatible(const CacheState &s) const
{
    if (s.sets != geom.numSets() || s.assoc != geom.assoc)
        return false;
    std::uint64_t next = 0;   // lowest index the next line may take
    for (const CacheLineState &l : s.lines) {
        // Valid, optionally dirty, no other bits.
        if (l.index < next || l.index >= lines.size() ||
            (l.flags & ~2) != 1)
            return false;
        next = std::uint64_t(l.index) + 1;
    }
    return true;
}

void
Cache::adoptState(const CacheState &s)
{
    if (!stateCompatible(s))
        panic("cache %s: adoptState of incompatible state",
              name_.c_str());
    flush();
    useClock = s.useClock;
    hits_ = s.hits;
    misses_ = s.misses;
    for (const CacheLineState &l : s.lines) {
        Line &dst = lines[l.index];
        dst.valid = true;
        dst.dirty = (l.flags & 2) != 0;
        dst.tag = l.tag;
        dst.lastUse = l.lastUse;
    }
}

} // namespace mg
