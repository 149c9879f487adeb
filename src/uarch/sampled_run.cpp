#include "uarch/sampled_run.hh"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "uarch/core.hh"

namespace mg {

// ------------------------------------------------------ ViolationShadow

void
ViolationShadow::addEdge(Addr loadPc, Addr storePc, bool active)
{
    edges_[loadPc].push_back({storePc, active});
    if (!active)
        ++dormant_;
}

void
ViolationShadow::seed(const std::vector<std::pair<Addr, Addr>> &pairs)
{
    for (const auto &[loadPc, storePc] : pairs) {
        addEdge(loadPc, storePc, false);
        partnerStores_.insert(storePc);
    }
}

void
ViolationShadow::recordViolation(Addr loadPc, Addr storePc)
{
    std::vector<Partner> &partners = edges_[loadPc];
    for (Partner &p : partners) {
        if (p.storePc == storePc) {
            if (!p.active) {
                p.active = true;
                --dormant_;
            }
            return;
        }
    }
    partners.push_back({storePc, true});
}

void
ViolationShadow::scan(const ExecRecord &rec, std::uint64_t work)
{
    // Word granularity: the LSQ's violation check is byte-overlap,
    // but partner pairs that alias at all touch the same words in
    // practice, and word keys keep the map small.
    Addr lo = rec.memAddr & ~Addr(7);
    Addr hi = (rec.memAddr + static_cast<Addr>(
                   rec.memBytes > 0 ? rec.memBytes - 1 : 0)) &
        ~Addr(7);
    if (rec.memIsStore) {
        if (!partnerStores_.count(rec.pc))
            return;
        for (Addr wd = lo;; wd += 8) {
            aliasLast_[wd] = {rec.pc, work};
            if (wd == hi)
                break;
        }
        return;
    }
    auto it = edges_.find(rec.pc);
    if (it == edges_.end())
        return;
    for (Addr wd = lo;; wd += 8) {
        auto a = aliasLast_.find(wd);
        if (a != aliasLast_.end() && work - a->second.second <= aliasSpan) {
            for (Partner &p : it->second) {
                if (!p.active && p.storePc == a->second.first) {
                    p.active = true;
                    --dormant_;
                }
            }
        }
        if (wd == hi)
            break;
    }
}

void
ViolationShadow::warm(const ExecRecord &rec, std::uint64_t work,
                      StoreSets &ss)
{
    if (edges_.empty())
        return;
    observe(rec, work);
    if (rec.memIsStore)
        return;
    auto it = edges_.find(rec.pc);
    if (it == edges_.end())
        return;
    for (const Partner &p : it->second) {
        if (p.active)
            ss.recordViolation(it->first, p.storePc);
    }
}

std::vector<std::pair<Addr, Addr>>
ViolationShadow::sortedPairs() const
{
    std::vector<std::pair<Addr, Addr>> v;
    // mglint:allow(unordered-iter): edges copied then sorted below
    for (const auto &[loadPc, partners] : edges_) {
        for (const Partner &p : partners)
            v.emplace_back(loadPc, p.storePc);
    }
    std::sort(v.begin(), v.end());
    return v;
}

// deserialize rebuilds the edges through addEdge, which derives
// dormant_ from the activation bits; partnerStores_ is the seed's,
// which adopt() keeps.
void    // mglint:allow(serial-parity): see above
ViolationShadow::serialize(SerialWriter &w) const
{
    std::vector<std::tuple<Addr, Addr, std::uint8_t>> edges;
    // mglint:allow(unordered-iter): edges copied then sorted below
    for (const auto &[loadPc, partners] : edges_) {
        for (const Partner &p : partners)
            edges.emplace_back(loadPc, p.storePc, p.active ? 1 : 0);
    }
    std::sort(edges.begin(), edges.end());
    w.u64(edges.size());
    for (const auto &[l, s, a] : edges) {
        w.u64(l);
        w.u64(s);
        w.u8(a);
    }
    std::vector<std::pair<Addr, std::pair<Addr, std::uint64_t>>> alias(
        aliasLast_.begin(),   // mglint:allow(unordered-iter): sorted below
        aliasLast_.end());
    std::sort(alias.begin(), alias.end());
    w.u64(alias.size());
    for (const auto &[wd, last] : alias) {
        w.u64(wd);
        w.u64(last.first);
        w.u64(last.second);
    }
}

bool
ViolationShadow::deserialize(SerialReader &r)
{
    // Parse into a fresh shadow; adopt it only once the whole section
    // read cleanly.
    ViolationShadow in;
    std::uint64_t nEdges = r.u64();
    if (nEdges > r.remaining() / 17)
        return false;
    for (std::uint64_t i = 0; i < nEdges; ++i) {
        Addr l = r.u64();
        Addr s = r.u64();
        in.addEdge(l, s, r.u8() != 0);
    }
    std::uint64_t nAlias = r.u64();
    if (nAlias > r.remaining() / 24)
        return false;
    for (std::uint64_t i = 0; i < nAlias; ++i) {
        Addr wd = r.u64();
        Addr spc = r.u64();
        std::uint64_t pos = r.u64();
        in.aliasLast_[wd] = {spc, pos};
    }
    if (!r.ok())
        return false;
    *this = std::move(in);
    return true;
}

void
ViolationShadow::adopt(ViolationShadow &&restored)
{
    restored.partnerStores_ = std::move(partnerStores_);
    *this = std::move(restored);
}

// ------------------------------------------------------------ the sampler

namespace {

/** Generation hash of a violation-pair seed set: runs seeded with
 *  different sets follow different warm-state trajectories, so the
 *  hash namespaces their store records apart. FNV-1a over each pair's
 *  two little-endian PCs in order; a null or empty seed hashes to the
 *  FNV basis (the discovery generation). */
std::uint64_t
violSeedHash(const std::vector<std::pair<Addr, Addr>> *seed)
{
    static_assert(sizeof(std::pair<Addr, Addr>) == 2 * sizeof(Addr));
    return seed ? fnv1a64(seed->data(), seed->size() * sizeof((*seed)[0]))
                : fnv1a64(nullptr, 0);
}

/** Measurements of one phase cluster. */
struct ClusterAgg
{
    CoreStats meas;                 ///< summed measurement deltas
    std::uint64_t work = 0;         ///< cluster work to represent
    std::vector<double> ipcs;

    /** Relative 95% CI of the cluster's mean interval IPC. */
    double
    relCi() const
    {
        if (ipcs.size() < 2)
            return 0;
        double m = 0;
        for (double x : ipcs)
            m += x;
        m /= static_cast<double>(ipcs.size());
        if (m <= 0)
            return 0;
        double var = 0;
        for (double x : ipcs)
            var += (x - m) * (x - m);
        var /= static_cast<double>(ipcs.size() - 1);
        return 1.96 * std::sqrt(var / static_cast<double>(ipcs.size())) /
            m;
    }
};

/**
 * The post-prefix measurement plan over the phase clustering: always
 * measure quantile-spread occurrences of every cluster, then keep
 * measuring later occurrences of any cluster whose error contribution
 * still exceeds the target, within the duty budget. Weight by cluster
 * work. Chunks are named by their index in the summary.
 */
struct SamplePlan
{
    static constexpr std::size_t maxPerCluster = 24;

    const SamplingParams &sp;
    std::vector<ClusterAgg> agg;
    std::vector<std::vector<std::size_t>> occ;  ///< measurable chunks
    std::vector<std::size_t> occIdxOf;  ///< chunk -> rank in its occ
    std::vector<std::uint8_t> baseMark; ///< chunk is in the base plan
    std::vector<std::size_t> stride;
    std::vector<std::size_t> nextEligible;
    std::uint64_t postWork = 0;
    std::uint64_t dutyBudget;

    SamplePlan(const SamplingParams &sp_, const SampleSummary &sum,
               std::uint64_t coldWork, std::uint64_t totalWork)
        : sp(sp_), agg(sum.clusters), occ(sum.clusters),
          occIdxOf(sum.chunks.size(), 0), baseMark(sum.chunks.size(), 0),
          stride(sum.clusters, 1), nextEligible(sum.clusters, 0),
          dutyBudget(static_cast<std::uint64_t>(
              sp.maxDuty * static_cast<double>(totalWork)))
    {
        for (std::size_t i = 0; i < sum.chunks.size(); ++i) {
            const SampleChunk &ch = sum.chunks[i];
            // Weigh only the work the exact prefix did not already
            // cover: the drain overshoots the prefix by up to a
            // windowful, and that overshoot is in the cold stats, so
            // extrapolating it again would double-count it.
            std::uint64_t effStart = std::max(ch.start, coldWork);
            std::uint64_t end = ch.start +
                std::min(ch.work, totalWork > ch.start
                                      ? totalWork - ch.start : 0);
            if (end <= effStart)
                continue;
            agg[ch.cluster].work += end - effStart;
            postWork += end - effStart;
            if (ch.start >= coldWork && ch.start + sp.interval <= totalWork)
                occ[ch.cluster].push_back(i);
        }
        // Base plan: quantile-spread occurrences of every cluster, so a
        // performance trend inside a code-identical cluster (queue
        // pressure building up, predictors still training) is sampled
        // across its whole extent, not just at its start.
        for (const auto &o : occ) {
            for (std::size_t r = 0; r < o.size(); ++r)
                occIdxOf[o[r]] = r;
            std::size_t m = o.size();
            if (m <= 3) {
                for (std::size_t i : o)
                    baseMark[i] = 1;
            } else {
                for (std::size_t q : {std::size_t(0), m / 2, m - 1})
                    baseMark[o[q]] = 1;
            }
        }
        // Stratified refinement: the oracle only moves forward, so
        // CI-driven extra samples taken in stream order would all land
        // right after the prefix — and a long-lived cluster with a
        // performance trend (predictors and caches still training over
        // hundreds of chunks, the rtr signature) would be estimated
        // from its transient head alone. Spacing eligible occurrences
        // a cluster-extent/maxPerCluster stride apart spreads the same
        // sample budget across the whole extent. Clusters with fewer
        // occurrences than the cap get stride 1: short (tier-1) runs
        // keep the previous plan.
        for (std::uint32_t c = 0; c < sum.clusters; ++c) {
            if (occ[c].size() > maxPerCluster)
                stride[c] = occ[c].size() / maxPerCluster;
        }
    }

    /** Whether to measure chunk @p i of cluster @p c, given
     *  @p detailedWork so far; sets @p wholeChunk when the
     *  measurement must cover the whole chunk. */
    bool
    shouldMeasure(std::size_t i, std::uint32_t c,
                  std::uint64_t detailedWork, bool *wholeChunk)
    {
        const ClusterAgg &a = agg[c];
        std::size_t oi = occIdxOf[i];
        auto take = [&](bool yes) {
            if (yes)
                nextEligible[c] = std::max(nextEligible[c], oi + stride[c]);
            return yes;
        };
        if (a.ipcs.empty())
            return take(true);   // every cluster is covered once
        double share = static_cast<double>(a.work) /
            static_cast<double>(postWork ? postWork : 1);
        if (detailedWork >= dutyBudget) {
            // Over budget, only gross non-convergence keeps sampling:
            // a cheap estimate is worthless if its bound is huge. Such
            // a cluster gets the whole chunk, not another floored
            // span — its variance already survived the normal
            // refinement budget, so the last samples must average the
            // chunk's full intra-phase swing instead of re-reading a
            // fraction of it.
            bool yes = sp.targetCi > 0 && a.ipcs.size() < maxPerCluster &&
                oi >= nextEligible[c] &&
                a.relCi() * share > 5 * sp.targetCi;
            *wholeChunk = yes;
            return take(yes);
        }
        if (baseMark[i])
            return take(true);
        if (oi < nextEligible[c])
            return false;
        if (a.ipcs.size() < 2)
            return take(true);
        if (sp.targetCi <= 0 || a.ipcs.size() >= maxPerCluster)
            return false;
        // Extent-coverage guard (salted placement only): a tiny CI
        // computed from samples confined to the head of a long cluster
        // extent is not evidence about its tail. reed@long turns on
        // store-set serialization mid-run; when the salted offsets
        // happen to dodge the head's hiccup intervals, the first two
        // samples agree to 0.4%, the CI gate stops refinement at the
        // head, and the quantile samples that DO land past the onset
        // read an untrained (rosy) pipeline because the onset is
        // discovered at detailed-work rate. The grid-aligned plan only
        // escaped by luck — its head samples disagreed enough to keep
        // the stride march going. So under a salt, keep marching until
        // the measured occurrences span half the extent; only then is
        // the CI an honest summary of the cluster.
        if (sp.phaseSalt && stride[c] > 1 &&
            nextEligible[c] * 2 < occ[c].size())
            return take(true);
        return take(a.relCi() * share > sp.targetCi / 2);
    }
};

/**
 * Fill @p out's estimate from the exact prefix @p cold plus per-cluster
 * ratio extrapolation of @p agg. Clusters that went unmeasured (halt
 * mid-plan, work cap) fall back to the pooled rates of everything that
 * was measured.
 */
void
extrapolate(const CoreStats &cold, const std::vector<ClusterAgg> &agg,
            SampledStats &out)
{
    CoreStats pooled;
    std::uint32_t intervals = 0;
    for (const ClusterAgg &a : agg) {
        pooled += a.meas;
        intervals += static_cast<std::uint32_t>(a.ipcs.size());
    }
    out.measuredWork = cold.committedWork + pooled.committedWork;
    out.measuredCycles = cold.cycles + pooled.cycles;
    out.intervals = intervals + 1;

    if (out.totalWork <= cold.committedWork) {
        out.est = cold;           // the prefix covered the whole run
        out.exact = true;
        out.ipcHat = out.est.ipc();
        return;
    }
    if (pooled.committedWork == 0 || pooled.cycles == 0) {
        // Nothing sampled beyond the prefix: extrapolate from it.
        out.est = cold.scaled(static_cast<double>(out.totalWork) /
                              static_cast<double>(cold.committedWork));
        out.est.committedWork = out.totalWork;
        out.ipcHat = out.est.ipc();
        return;
    }

    out.est = cold;
    std::uint64_t fallbackWork = 0;
    for (const ClusterAgg &a : agg) {
        if (!a.work)
            continue;
        if (!a.meas.committedWork) {
            fallbackWork += a.work;
            continue;
        }
        out.est += a.meas.scaled(static_cast<double>(a.work) /
                                 static_cast<double>(a.meas.committedWork));
    }
    if (fallbackWork)
        out.est += pooled.scaled(static_cast<double>(fallbackWork) /
                                 static_cast<double>(pooled.committedWork));
    out.est.committedWork = out.totalWork;   // known, not estimated
    out.ipcHat = out.est.ipc();

    // Error bound: within-cluster spread of the repeated measurements,
    // weighted by each cluster's share of the estimated cycles (the
    // exact prefix contributes none).
    double var = 0;
    double estCycles =
        static_cast<double>(out.est.cycles ? out.est.cycles : 1);
    for (const ClusterAgg &a : agg) {
        if (a.ipcs.size() < 2 || !a.meas.committedWork)
            continue;
        double rel = a.relCi();
        double share = static_cast<double>(a.work) /
            static_cast<double>(a.meas.committedWork) *
            static_cast<double>(a.meas.cycles) / estCycles;
        var += (rel * share) * (rel * share);
    }
    out.ipcRelCi95 = std::sqrt(var);
}

/** The sampled run of uarch/sampling.hh over @p core, which must be
 *  fresh (stats zero, shadow attached). */
SampledStats
sampledRun(Core &core, const SamplingParams &sp, const SampleSummary &sum,
           std::uint64_t maxWork, WarmStoreIf *warmStore,
           std::uint64_t seedHash)
{
    const Emulator &emu = core.oracle();
    SampledStats out;
    out.totalWork = std::min(sum.totalWork, maxWork);

    // Short programs degrade to exact full simulation. Below ~33
    // sampling periods the fixed costs (prefix, per-chunk warmups,
    // two samples per cluster) already approach full coverage, so
    // sampling buys under 2x wall-clock while paying 3-8% IPC error
    // (too few occurrences per cluster for the variance to average
    // out — the measured ref-tier tail on drr/bitcount/rgb2gray) and,
    // on kernels whose speculation state trains over the whole run,
    // far worse (reed@ref/int-mem measured 52% when sampled: its
    // store-set serialization never finishes being discovered).
    // Such runs are cheap to simulate exactly; the threshold is
    // period-relative so genuinely long runs (the M-scale tier is
    // ~90 periods at defaults) never degrade.
    bool tooShort = sum.totalWork > 0 &&
        out.totalWork < 33 * sp.period;
    if (sp.degenerate() || tooShort) {
        // No room for fast-forward: identical to a full run.
        core.runDetailedUntil(maxWork);
        const CoreStats &st = core.stats();
        out.est = st;
        out.exact = true;
        out.totalWork = out.measuredWork = out.detailedWork =
            st.committedWork;
        out.measuredCycles = st.cycles;
        out.intervals = 1;
        out.ipcHat = st.ipc();
        return out;
    }

    // Warm records carry memory as a delta against the image as it
    // stands now, before anything has executed: program + setup.
    const WarmBase base =
        warmStore ? WarmBase(emu.memory()) : WarmBase();

    // Exactly-measured cold prefix: the startup transient (cold
    // caches, bus backlog, queue fill) is a large, unrepresentative
    // fraction of a short run; extrapolating any sample of it is the
    // dominant error source, so it never extrapolates.
    core.runDetailedUntil(std::min(sp.period, out.totalWork));
    core.drainPipeline();
    const CoreStats cold = core.stats();
    out.prefixWork = cold.committedWork;

    SamplePlan plan(sp, sum, cold.committedWork, out.totalWork);

    // Settled-measurement sizing (see the measurement below): the
    // first interval-worth of work after warmup is discarded as
    // settling and the measurement averages the following
    // sub-intervals. The measured span is floored at ~6k work
    // regardless of the interval size: sub-6k contiguous windows
    // alias against multi-thousand-work rate oscillations and read a
    // systematic 2-4% bias on several M-scale kernels (adpcm.dec,
    // dijkstra, g721.enc — measured in docs/EXPERIMENTS.md) that no
    // amount of warmup or settling removes, while ~6k windows average
    // a whole oscillation.
    constexpr std::uint64_t minMeasuredSpan = 6000;
    const int measureSubs = static_cast<int>(std::max<std::uint64_t>(
        3, (minMeasuredSpan + sp.interval - 1) / sp.interval));

    std::vector<std::uint8_t> wsBytes;
    double lastIpc = cold.ipc();   // virtual-clock fast-forward rate
    for (std::size_t i = 0; i < sum.chunks.size(); ++i) {
        const SampleChunk &ch = sum.chunks[i];
        if (ch.start < cold.committedWork ||
            ch.start + sp.interval > out.totalWork)
            continue;
        if (emu.halted())
            break;
        // Chunks the prefix/drain (or a previous measurement's settle
        // span) already covered are discarded before the plan is
        // consulted: shouldMeasure ratchets per-cluster eligibility,
        // and a chunk that cannot be measured must not burn a stride
        // of its cluster's refinement budget.
        std::uint64_t p = emu.dynWork();
        if (ch.start <= p)
            continue;
        bool wholeChunk = false;
        if (!plan.shouldMeasure(i, ch.cluster, core.stats().committedWork,
                                &wholeChunk))
            continue;
        // Measurement placement and extent inside the chunk. A
        // whole-chunk measurement sizes its sub-intervals to cover the
        // chunk; otherwise a phase-salted run starts the measured span
        // at a hashed offset (see SamplingParams::phaseSalt).
        //
        // The salt dithers what is *measured*, not what is *executed*:
        // detailed (unmeasured) execution still begins at the chunk
        // start (see warmStart below), so the offset gap runs through
        // the cycle-accurate core instead of being fast-forwarded.
        // One-shot microarchitectural events discovered at
        // detailed-work rate — reed@long's store-set serialization
        // onset is a single violation that flips the rest of the run
        // from IPC 4.9 to 2.65 — land inside the grid span, and a
        // salt that shifted the detailed region past one would
        // silently un-discover it (measured: 72% IPC error at a 1%
        // CI). Keeping the detailed region a superset of the legacy
        // grid span makes event discovery salt-independent; only the
        // phase of the measured window moves.
        int subs = measureSubs;
        std::uint64_t mstart = ch.start;
        if (wholeChunk) {
            std::uint64_t ivals = ch.work / sp.interval;
            if (ivals > static_cast<std::uint64_t>(subs) + 1)
                subs = static_cast<int>(ivals - 1);
        } else if (sp.phaseSalt) {
            std::uint64_t span =
                (static_cast<std::uint64_t>(measureSubs) + 1) * sp.interval;
            std::uint64_t maxO = ch.work > span ? ch.work - span : 0;
            if (maxO)
                mstart += fnv1a64(&ch.start, sizeof(ch.start),
                                  sp.phaseSalt) % (maxO + 1);
        }

        // Fast-forward to the measurement: functionally warm through
        // every skipped instruction, so cumulative cache/predictor
        // state survives (footprint-bound kernels). Warmup is
        // anchored at the chunk start, not the salted measurement
        // start: the offset gap is covered by detailed execution (see
        // above), and warm-store records — keyed and serialized at
        // ch.start − warmup — stay valid for every salt.
        std::uint64_t warmStart =
            ch.start > sp.warmup ? ch.start - sp.warmup : 0;
        if (warmStart > p) {
            // Restore-warm fast path: a stored record at this chunk's
            // start (same binary, config, position, and seed
            // generation) is bit-for-bit the state warming through
            // this gap would compute — restore it and skip the
            // functional re-execution entirely. Misses (and corrupt
            // or incompatible records, rejected by tryRestoreWarm)
            // fall through to warming and write back the result.
            if (warmStore &&
                warmStore->loadWarm(ch.start, seedHash, wsBytes) &&
                core.tryRestoreWarm(wsBytes, base)) {
                ++out.ckptRestores;
            } else {
                core.fastForward(warmStart, lastIpc);
                if (warmStore && !emu.halted()) {
                    SerialWriter w;
                    core.serializeWarm(w, base);
                    warmStore->storeWarm(ch.start, seedHash, w.data());
                    ++out.ckptWritebacks;
                }
            }
        }
        out.ffWork = emu.dynWork() - core.stats().committedWork;
        if (emu.halted())
            break;

        // Detailed (unmeasured) warmup up to the measurement start:
        // refills the pipeline and restores queue back-pressure
        // equilibrium.
        std::uint64_t q = emu.dynWork();
        if (mstart > q)
            core.runDetailedUntil(core.stats().committedWork +
                                  (mstart - q));

        // Settled measurement: a drained-then-refilled pipeline can run
        // well above its congested steady state for a while (the
        // window fills slowly when the free register list is the
        // binding resource), so the first interval-worth of work after
        // warmup is discarded as settling and the measurement averages
        // the following sub-intervals — no convergence test, because
        // stopping "when two subs agree" preferentially stops on
        // plateaus of oscillating kernels and biases the sample.
        // Sub-interval targets never cross the work cap: a capped run
        // must estimate the capped run, not work beyond it.
        const std::uint64_t cap = out.totalWork - out.ffWork;
        auto boundedTarget = [&]() {
            return std::min(core.stats().committedWork + sp.interval, cap);
        };
        core.runDetailedUntil(boundedTarget());
        CoreStats delta;
        for (int s = 0; s < subs && !emu.halted() &&
                        core.stats().committedWork < cap; ++s) {
            CoreStats b = core.stats();
            core.runDetailedUntil(boundedTarget());
            delta += core.stats() - b;
        }
        if (delta.committedWork && delta.cycles) {
            ClusterAgg &a = plan.agg[ch.cluster];
            a.meas += delta;
            lastIpc = static_cast<double>(delta.committedWork) /
                static_cast<double>(delta.cycles);
            a.ipcs.push_back(lastIpc);
        }
        core.drainPipeline();
    }
    out.detailedWork = core.stats().committedWork;
    extrapolate(cold, plan.agg, out);
    return out;
}

} // namespace

SampledStats
Core::runSampled(const SamplingParams &sp, const SampleSummary &sum,
                 std::uint64_t maxWork, WarmStoreIf *warmStore,
                 const std::vector<std::pair<Addr, Addr>> *seedViol)
{
    stats_ = CoreStats();
    shadow_ = std::make_unique<ViolationShadow>();
    if (seedViol)
        shadow_->seed(*seedViol);
    return sampledRun(*this, sp, sum, maxWork, warmStore,
                      violSeedHash(seedViol));
}

} // namespace mg
