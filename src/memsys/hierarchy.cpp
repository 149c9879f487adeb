#include "memsys/hierarchy.hh"

#include <algorithm>

namespace mg {

Hierarchy::Hierarchy(const HierarchyConfig &cfg)
    : cfg(cfg),
      l1iCache(cfg.l1i, "l1i"),
      l1dCache(cfg.l1d, "l1d"),
      l2Cache(cfg.l2, "l2")
{}

Cycle
Hierarchy::dramAccess(Cycle start)
{
    ++dramCount;
    // The request occupies the bus for the line transfer after the DRAM
    // access latency. Transfers serialize on the shared bus.
    Cycle beats = (cfg.l2.lineBytes + cfg.busBytes - 1) / cfg.busBytes;
    Cycle busTime = beats * cfg.busCycleRatio;
    Cycle busStart = std::max(start + cfg.memLat, busFreeAt);
    busFreeAt = busStart + busTime;
    return busFreeAt;
}

MemAccess
Hierarchy::dataAccess(Addr addr, bool write, Cycle now)
{
    MemAccess out;
    CacheResult r1 = l1dCache.access(addr, write);
    out.l1Hit = r1.hit;
    if (r1.hit) {
        out.readyAt = now + cfg.l1dLat;
        return out;
    }
    CacheResult r2 = l2Cache.access(addr, false);
    out.l2Hit = r2.hit;
    if (r2.hit) {
        out.readyAt = now + cfg.l1dLat + cfg.l2Lat;
        return out;
    }
    Cycle done = dramAccess(now + cfg.l1dLat + cfg.l2Lat);
    if (r2.writebackDirty)
        dramAccess(done);  // victim writeback occupies the bus afterwards
    out.readyAt = done;
    return out;
}

MemAccess
Hierarchy::instAccess(Addr addr, Cycle now)
{
    MemAccess out;
    CacheResult r1 = l1iCache.access(addr, false);
    out.l1Hit = r1.hit;
    if (r1.hit) {
        out.readyAt = now + cfg.l1iLat;
        return out;
    }
    CacheResult r2 = l2Cache.access(addr, false);
    out.l2Hit = r2.hit;
    if (r2.hit) {
        out.readyAt = now + cfg.l1iLat + cfg.l2Lat;
        return out;
    }
    Cycle done = dramAccess(now + cfg.l1iLat + cfg.l2Lat);
    if (r2.writebackDirty)
        dramAccess(done);
    out.readyAt = done;
    return out;
}

void
HierarchyState::serialize(SerialWriter &w) const
{
    l1i.serialize(w);
    l1d.serialize(w);
    l2.serialize(w);
    w.u64(busFreeAt);
    w.u64(dramCount);
}

bool
HierarchyState::deserialize(SerialReader &r)
{
    if (!l1i.deserialize(r) || !l1d.deserialize(r) ||
        !l2.deserialize(r))
        return false;
    busFreeAt = r.u64();
    dramCount = r.u64();
    return r.ok();
}

HierarchyState
Hierarchy::exportState() const
{
    HierarchyState s;
    s.l1i = l1iCache.exportState();
    s.l1d = l1dCache.exportState();
    s.l2 = l2Cache.exportState();
    s.busFreeAt = busFreeAt;
    s.dramCount = dramCount;
    return s;
}

bool
Hierarchy::stateCompatible(const HierarchyState &s) const
{
    return l1iCache.stateCompatible(s.l1i) &&
        l1dCache.stateCompatible(s.l1d) && l2Cache.stateCompatible(s.l2);
}

void
Hierarchy::adoptState(const HierarchyState &s)
{
    l1iCache.adoptState(s.l1i);
    l1dCache.adoptState(s.l1d);
    l2Cache.adoptState(s.l2);
    busFreeAt = s.busFreeAt;
    dramCount = s.dramCount;
}

} // namespace mg
