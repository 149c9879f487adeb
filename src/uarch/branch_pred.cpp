#include "uarch/branch_pred.hh"

#include <algorithm>
#include <cstddef>

#include "common/logging.hh"

namespace mg {

BranchPredictor::BranchPredictor(const BranchPredConfig &c) : cfg(c)
{
    bimodal.assign(cfg.bimodalEntries, 1);   // weakly not-taken
    gshare.assign(cfg.gshareEntries, 1);
    chooser.assign(cfg.chooserEntries, 1);   // weakly prefer bimodal
    btb.assign(static_cast<size_t>(cfg.btbEntries), BtbEntry());
    ras.assign(cfg.rasEntries, 0);
    bimodalMask = maskOf(cfg.bimodalEntries);
    gshareMask = maskOf(cfg.gshareEntries);
    chooserMask = maskOf(cfg.chooserEntries);
    btbSetMask = maskOf(cfg.btbEntries / cfg.btbAssoc);
    rasMask = maskOf(cfg.rasEntries);
}

std::uint32_t
BranchPredictor::bimodalIdx(Addr pc) const
{
    return reduce(pc >> 2, bimodalMask, cfg.bimodalEntries);
}

std::uint32_t
BranchPredictor::gshareIdx(Addr pc) const
{
    std::uint64_t h = history & ((1ull << cfg.historyBits) - 1);
    return reduce((pc >> 2) ^ h, gshareMask, cfg.gshareEntries);
}

std::uint32_t
BranchPredictor::chooserIdx(Addr pc) const
{
    return reduce(pc >> 2, chooserMask, cfg.chooserEntries);
}

void
BranchPredictor::bump(std::uint8_t &ctr, bool up)
{
    if (up && ctr < 3)
        ++ctr;
    else if (!up && ctr > 0)
        --ctr;
}

bool
BranchPredictor::predictDirection(Addr pc) const
{
    ++lookups_;
    bool useGshare = chooser[chooserIdx(pc)] >= 2;
    std::uint8_t ctr = useGshare ? gshare[gshareIdx(pc)]
                                 : bimodal[bimodalIdx(pc)];
    return ctr >= 2;
}

void
BranchPredictor::updateDirection(Addr pc, bool taken)
{
    bool bPred = bimodal[bimodalIdx(pc)] >= 2;
    bool gPred = gshare[gshareIdx(pc)] >= 2;
    // Chooser trains toward whichever component was right.
    if (bPred != gPred)
        bump(chooser[chooserIdx(pc)], gPred == taken);
    bump(bimodal[bimodalIdx(pc)], taken);
    bump(gshare[gshareIdx(pc)], taken);
    history = (history << 1) | (taken ? 1 : 0);
}

Addr
BranchPredictor::predictTarget(Addr pc) const
{
    std::uint32_t sets = cfg.btbEntries / cfg.btbAssoc;
    std::uint32_t set = reduce(pc >> 2, btbSetMask, sets);
    Addr tag = (pc >> 2) / sets;
    const BtbEntry *base = &btb[static_cast<size_t>(set) * cfg.btbAssoc];
    for (std::uint32_t w = 0; w < cfg.btbAssoc; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return base[w].target;
    }
    return 0;
}

void
BranchPredictor::updateTarget(Addr pc, Addr target)
{
    ++btbClock;
    std::uint32_t sets = cfg.btbEntries / cfg.btbAssoc;
    std::uint32_t set = reduce(pc >> 2, btbSetMask, sets);
    Addr tag = (pc >> 2) / sets;
    BtbEntry *base = &btb[static_cast<size_t>(set) * cfg.btbAssoc];
    BtbEntry *victim = base;
    for (std::uint32_t w = 0; w < cfg.btbAssoc; ++w) {
        BtbEntry &e = base[w];
        if (e.valid && e.tag == tag) {
            e.target = target;
            e.lastUse = btbClock;
            return;
        }
        if (!e.valid) {
            victim = &e;
        } else if (victim->valid && e.lastUse < victim->lastUse) {
            victim = &e;
        }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->target = target;
    victim->lastUse = btbClock;
}

void
BranchPredictor::pushReturn(Addr returnPc)
{
    ras[reduce(rasTop, rasMask, cfg.rasEntries)] = returnPc;
    ++rasTop;
}

Addr
BranchPredictor::popReturn()
{
    if (rasTop == 0)
        return 0;
    --rasTop;
    return ras[reduce(rasTop, rasMask, cfg.rasEntries)];
}

namespace {

void
putU8Vec(SerialWriter &w, const std::vector<std::uint8_t> &v)
{
    w.u64(v.size());
    w.bytes(v.data(), v.size());
}

bool
getU8Vec(SerialReader &r, std::vector<std::uint8_t> &v)
{
    std::uint64_t n = r.u64();
    if (n > r.remaining()) {
        r.fail();
        return false;
    }
    v.resize(static_cast<std::size_t>(n));
    return r.bytes(v.data(), v.size());
}

/** Serialized size of one BtbLineState: index, valid, tag, target,
 *  lastUse. */
constexpr std::size_t btbLineBytes = 4 + 1 + 8 + 8 + 8;

} // namespace

void
BranchPredState::serialize(SerialWriter &w) const
{
    putU8Vec(w, bimodal);
    putU8Vec(w, gshare);
    putU8Vec(w, chooser);
    w.u64(history);
    w.u64(btb.size());
    for (const BtbLineState &e : btb) {
        w.u32(e.index);
        w.u8(e.valid);
        w.u64(e.tag);
        w.u64(e.target);
        w.u64(e.lastUse);
    }
    w.u64(btbClock);
    w.vec(ras);
    w.u32(rasTop);
    w.u64(lookups);
    w.u64(mispredicts);
}

bool
BranchPredState::deserialize(SerialReader &r)
{
    if (!getU8Vec(r, bimodal) || !getU8Vec(r, gshare) ||
        !getU8Vec(r, chooser))
        return false;
    history = r.u64();
    std::uint64_t n = r.u64();
    if (n > r.remaining() / btbLineBytes) {
        r.fail();
        return false;
    }
    btb.resize(static_cast<std::size_t>(n));
    for (BtbLineState &e : btb) {
        e.index = r.u32();
        e.valid = r.u8();
        e.tag = r.u64();
        e.target = r.u64();
        e.lastUse = r.u64();
    }
    btbClock = r.u64();
    ras = r.vec<Addr>();
    rasTop = r.u32();
    lookups = r.u64();
    mispredicts = r.u64();
    return r.ok();
}

BranchPredState
BranchPredictor::exportState() const
{
    BranchPredState s;
    s.bimodal = bimodal;
    s.gshare = gshare;
    s.chooser = chooser;
    s.history = history;
    for (std::size_t i = 0; i < btb.size(); ++i) {
        const BtbEntry &e = btb[i];
        if (e.valid)
            s.btb.push_back({static_cast<std::uint32_t>(i), 1, e.tag,
                             e.target, e.lastUse});
    }
    s.btbClock = btbClock;
    s.ras = ras;
    s.rasTop = rasTop;
    s.lookups = lookups_;
    s.mispredicts = mispredicts_;
    return s;
}

bool
BranchPredictor::stateCompatible(const BranchPredState &s) const
{
    if (s.bimodal.size() != bimodal.size() ||
        s.gshare.size() != gshare.size() ||
        s.chooser.size() != chooser.size() || s.ras.size() != ras.size())
        return false;
    std::uint64_t next = 0;   // lowest index the next entry may take
    for (const BtbLineState &e : s.btb) {
        if (e.index < next || e.index >= btb.size() || e.valid != 1)
            return false;
        next = std::uint64_t(e.index) + 1;
    }
    return true;
}

void
BranchPredictor::adoptState(const BranchPredState &s)
{
    if (!stateCompatible(s))
        panic("branch predictor: adoptState of incompatible state");
    bimodal = s.bimodal;
    gshare = s.gshare;
    chooser = s.chooser;
    history = s.history;
    std::fill(btb.begin(), btb.end(), BtbEntry());
    for (const BtbLineState &e : s.btb)
        btb[e.index] = {true, e.tag, e.target, e.lastUse};
    btbClock = s.btbClock;
    ras = s.ras;
    rasTop = s.rasTop;
    lookups_ = s.lookups;
    mispredicts_ = s.mispredicts;
}

} // namespace mg
