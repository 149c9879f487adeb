#include "uarch/store_sets.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mg {

namespace {

/** Mask for power-of-two @p n, else 0 ("use %"). */
std::uint32_t
maskOf(std::uint32_t n)
{
    return (n != 0 && (n & (n - 1)) == 0) ? n - 1 : 0;
}

/** Serialized size of one SsitEntryState / LfstEntryState. */
constexpr std::size_t ssitEntryBytes = 4 + 4;
constexpr std::size_t lfstEntryBytes = 4 + 8 + 8;

/** True when @p sparse's indices ascend strictly below @p size. */
template <typename E>
bool
ascendingBelow(const std::vector<E> &sparse, std::uint32_t size)
{
    std::uint64_t next = 0;   // lowest index the next entry may take
    for (const E &e : sparse) {
        if (e.index < next || e.index >= size)
            return false;
        next = std::uint64_t(e.index) + 1;
    }
    return true;
}

} // namespace

StoreSets::StoreSets(const StoreSetsConfig &c) : cfg(c)
{
    ssit.assign(cfg.ssitEntries, noSet);
    lfst.assign(cfg.lfstEntries, 0);
    lfstPc.assign(cfg.lfstEntries, 0);
    ssitMask = maskOf(cfg.ssitEntries);
    lfstMask = maskOf(cfg.lfstEntries);
}

std::uint32_t
StoreSets::idx(Addr pc) const
{
    std::uint64_t v = pc >> 2;
    return static_cast<std::uint32_t>(
        ssitMask ? (v & ssitMask) : (v % cfg.ssitEntries));
}

std::uint32_t
StoreSets::lfstIdx(std::int32_t set) const
{
    auto v = static_cast<std::uint32_t>(set);
    return lfstMask ? (v & lfstMask) : (v % cfg.lfstEntries);
}

void
StoreSets::maybeClear()
{
    if (++accesses % cfg.clearInterval == 0) {
        std::fill(ssit.begin(), ssit.end(), noSet);
        std::fill(lfst.begin(), lfst.end(), 0);
        std::fill(lfstPc.begin(), lfstPc.end(), 0);
    }
}

std::uint64_t
StoreSets::dispatchStore(Addr pc, std::uint64_t storeSeq)
{
    maybeClear();
    std::int32_t set = ssit[idx(pc)];
    if (set == noSet)
        return 0;
    std::uint32_t s = lfstIdx(set);
    std::uint64_t prev = lfst[s];
    lfst[s] = storeSeq;
    lfstPc[s] = pc;
    return prev;
}

std::uint64_t
StoreSets::dispatchLoad(Addr pc)
{
    maybeClear();
    std::int32_t set = ssit[idx(pc)];
    if (set == noSet)
        return 0;
    return lfst[lfstIdx(set)];
}

void
StoreSets::completeStore(Addr pc, std::uint64_t storeSeq)
{
    std::int32_t set = ssit[idx(pc)];
    if (set == noSet)
        return;
    std::uint32_t s = lfstIdx(set);
    if (lfst[s] == storeSeq)
        lfst[s] = 0;
}

void
StoreSets::recordViolation(Addr loadPc, Addr storePc)
{
    ++violations_;
    std::int32_t &ls = ssit[idx(loadPc)];
    std::int32_t &ss = ssit[idx(storePc)];
    if (ls == noSet && ss == noSet) {
        ls = ss = nextSet;
        nextSet = (nextSet + 1) %
            static_cast<std::int32_t>(cfg.lfstEntries);
    } else if (ls == noSet) {
        ls = ss;
    } else if (ss == noSet) {
        ss = ls;
    } else {
        // Both have sets: merge into the smaller id (declawed merge).
        std::int32_t m = std::min(ls, ss);
        ls = ss = m;
    }
}

void
StoreSetsState::serialize(SerialWriter &w) const
{
    w.u32(ssitEntries);
    w.u32(lfstEntries);
    w.u64(ssit.size());
    for (const SsitEntryState &e : ssit) {
        w.u32(e.index);
        w.u32(static_cast<std::uint32_t>(e.set));
    }
    w.u64(lfst.size());
    for (const LfstEntryState &e : lfst) {
        w.u32(e.index);
        w.u64(e.seq);
        w.u64(e.pc);
    }
    w.u64(accesses);
    w.u64(violations);
    w.u32(static_cast<std::uint32_t>(nextSet));
}

bool
StoreSetsState::deserialize(SerialReader &r)
{
    ssitEntries = r.u32();
    lfstEntries = r.u32();
    std::uint64_t n = r.u64();
    if (n > r.remaining() / ssitEntryBytes) {
        r.fail();
        return false;
    }
    ssit.resize(static_cast<std::size_t>(n));
    for (SsitEntryState &e : ssit) {
        e.index = r.u32();
        e.set = static_cast<std::int32_t>(r.u32());
    }
    n = r.u64();
    if (n > r.remaining() / lfstEntryBytes) {
        r.fail();
        return false;
    }
    lfst.resize(static_cast<std::size_t>(n));
    for (LfstEntryState &e : lfst) {
        e.index = r.u32();
        e.seq = r.u64();
        e.pc = r.u64();
    }
    accesses = r.u64();
    violations = r.u64();
    nextSet = static_cast<std::int32_t>(r.u32());
    return r.ok();
}

StoreSetsState
StoreSets::exportState() const
{
    StoreSetsState s;
    s.ssitEntries = static_cast<std::uint32_t>(ssit.size());
    s.lfstEntries = static_cast<std::uint32_t>(lfst.size());
    for (std::size_t i = 0; i < ssit.size(); ++i) {
        if (ssit[i] != noSet)
            s.ssit.push_back({static_cast<std::uint32_t>(i), ssit[i]});
    }
    for (std::size_t i = 0; i < lfst.size(); ++i) {
        if (lfst[i] || lfstPc[i])
            s.lfst.push_back(
                {static_cast<std::uint32_t>(i), lfst[i], lfstPc[i]});
    }
    s.accesses = accesses;
    s.violations = violations_;
    s.nextSet = nextSet;
    return s;
}

bool
StoreSets::stateCompatible(const StoreSetsState &s) const
{
    if (s.ssitEntries != ssit.size() || s.lfstEntries != lfst.size() ||
        !ascendingBelow(s.ssit, s.ssitEntries) ||
        !ascendingBelow(s.lfst, s.lfstEntries))
        return false;
    for (const SsitEntryState &e : s.ssit) {
        if (e.set == noSet)
            return false;
    }
    for (const LfstEntryState &e : s.lfst) {
        if (!e.seq && !e.pc)
            return false;
    }
    return true;
}

void
StoreSets::adoptState(const StoreSetsState &s)
{
    if (!stateCompatible(s))
        panic("store sets: adoptState of incompatible state");
    std::fill(ssit.begin(), ssit.end(), noSet);
    std::fill(lfst.begin(), lfst.end(), 0);
    std::fill(lfstPc.begin(), lfstPc.end(), 0);
    for (const SsitEntryState &e : s.ssit)
        ssit[e.index] = e.set;
    for (const LfstEntryState &e : s.lfst) {
        lfst[e.index] = e.seq;
        lfstPc[e.index] = e.pc;
    }
    accesses = s.accesses;
    violations_ = s.violations;
    nextSet = s.nextSet;
}

} // namespace mg
