/**
 * @file
 * Sampled simulation: checkpoint fidelity, the degenerate-parameter
 * bit-identity contract, the stated accuracy bound on the tier-1
 * kernel set, the speed proxy (detailed-work fraction), the engine's
 * cross-config summary sharing, and the store-set violation shadow
 * on its own (no timing core).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "assembler/assembler.hh"
#include "engine/engine.hh"
#include "uarch/sampled_run.hh"
#include "workloads/suites.hh"

using namespace mg;

namespace {

/** Default sampled configuration derived from @p cfg. */
SimConfig
sampled(SimConfig cfg)
{
    cfg.sampling.enabled = true;
    return cfg;
}

/** Phase-mixed synthetic kernel, ~617k work units: long enough to
 *  sample genuinely (the short-run degrade threshold at default
 *  parameters is ~400k) and heterogeneous enough — an ALU burst and a
 *  store-walk per outer iteration — that per-interval IPC carries
 *  real variance for the CI machinery to chew on. */
const Program &
syntheticLongProgram()
{
    static Program p = assemble(R"(
        .text
main:
        li r20, 900
outer:
        li r1, 120
alu:
        addq r2, 1, r2
        mulq r2, 3, r3
        subq r1, 1, r1
        bgt r1, alu
        lda r5, sbuf
        li r6, 40
memp:
        ldq r7, 0(r5)
        addq r7, 1, r7
        stq r7, 0(r5)
        addq r5, 64, r5
        subq r6, 1, r6
        bgt r6, memp
        subq r20, 1, r20
        bgt r20, outer
        halt
        .data
sbuf:   .space 2560
    )");
    return p;
}

const SetupFn noSetup = [](Emulator &) {};

/** A functional memory record as the shadow sees it. */
ExecRecord
memRec(Addr pc, bool store, Addr addr, int bytes = 8)
{
    ExecRecord r;
    r.pc = pc;
    r.isMem = true;
    r.memIsStore = store;
    r.memAddr = addr;
    r.memBytes = bytes;
    return r;
}

std::vector<std::uint8_t>
shadowBytes(const ViolationShadow &sh)
{
    SerialWriter w;
    sh.serialize(w);
    return w.take();
}

} // namespace

TEST(Sampling, CheckpointRoundTrip)
{
    BoundKernel bk = bindKernel(findKernel("crc"));

    Emulator a(*bk.program);
    bk.kernel->setup(a, 0);
    while (!a.halted() && a.dynInsns() < 5000)
        a.step();
    EmuCheckpoint c = a.checkpoint();
    EXPECT_EQ(c.slots, 5000u);

    EmuResult endA = a.run();

    Emulator b(*bk.program);
    bk.kernel->setup(b, 0);
    b.restore(c);
    EXPECT_EQ(b.dynInsns(), 5000u);
    EmuResult endB = b.run();

    EXPECT_EQ(endA.dynInsns, endB.dynInsns);
    EXPECT_EQ(endA.dynWork, endB.dynWork);
    EXPECT_EQ(a.pc(), b.pc());
    for (RegId r = 0; r < numArchRegs; ++r)
        EXPECT_EQ(a.reg(r), b.reg(r)) << "register " << int(r);
}

TEST(Sampling, WholeProgramIntervalBitIdentical)
{
    // An interval covering the whole program leaves no room to
    // fast-forward: runSampled must degenerate to the plain detailed
    // run, bit for bit.
    for (const char *name : {"crc", "adpcm.enc"}) {
        BoundKernel bk = bindKernel(findKernel(name));
        for (SimConfig cfg :
             {SimConfig::baseline(), SimConfig::intMemMg()}) {
            ExperimentEngine eng(1);
            EngineWorkload w = workload(bk);
            CoreStats full = eng.cell(w, {"full", cfg}).stats;

            SimConfig sc = sampled(cfg);
            sc.sampling.interval = 1ull << 40;
            SampledStats ss = eng.cell(w, {"sampled", sc}).sampled;
            EXPECT_TRUE(ss.exact) << name;
            EXPECT_EQ(ss.est, full) << name << "/" << cfg.name;
        }
    }
}

TEST(Sampling, TierOneIpcWithinStatedBound)
{
    // Stated bound for the default sampled configuration on the
    // tier-1 kernels: every kernel's IPC within 2% of the full run.
    // Ref-scale kernels are short (50k-300k units), so most degrade
    // to exact full simulation (the fix for the old 3-8% ref-tier
    // tail on drr/bitcount/rgb2gray); the few above the degrade
    // threshold must still measure within the bound.
    ExperimentEngine eng(0);
    for (SimConfig cfg : {SimConfig::baseline(), SimConfig::intMemMg()}) {
        for (const BoundKernel &bk : bindAll()) {
            EngineWorkload w = workload(bk);
            double full = eng.cell(w, {"full", cfg}).stats.ipc();
            SampledStats ss =
                eng.cell(w, {"sampled", sampled(cfg)}).sampled;
            ASSERT_GT(full, 0.0);
            double err = std::abs(ss.est.ipc() - full) / full;
            EXPECT_LE(err, 0.02)
                << bk.kernel->name << "/" << cfg.name
                << " sampled " << ss.est.ipc() << " vs full " << full;
            // At default parameters every ref kernel sits under the
            // short-run threshold, so the whole tier is bit-exact by
            // contract — sampling a 33-period run was measured to pay
            // 3-8% error (52% on reed/int-mem, whose store-set
            // serialization is never fully discovered) for under-2x
            // wall-clock. The genuinely sampled path is exercised on
            // the long/huge tiers.
            EXPECT_TRUE(ss.exact) << bk.kernel->name;
            EXPECT_EQ(err, 0.0) << bk.kernel->name;
        }
    }
}

TEST(Sampling, FastForwardThenRunCompletesTheProgram)
{
    // Warming fast-forward at a virtual IPC of one: the skipped work
    // never commits, the tail runs normally, and the drained machine
    // ends with a full free list.
    BoundKernel bk = bindKernel(findKernel("crc"));
    Emulator probe(*bk.program);
    bk.kernel->setup(probe, 0);
    std::uint64_t total = probe.run().dynWork;

    Core core(*bk.program, nullptr, CoreConfig{});
    bk.kernel->setup(core.oracle(), 0);
    int freeAtReset = core.regFreeCount();
    core.fastForward(total / 2, /*ipcEst=*/1.0);
    std::uint64_t skipped = core.oracle().dynWork();
    EXPECT_GE(skipped, total / 2);
    CoreStats tail = core.run();
    EXPECT_EQ(skipped + tail.committedWork, total);
    EXPECT_EQ(core.regFreeCount(), freeAtReset);
}

TEST(Sampling, FastForwardSkipsMostWork)
{
    // Speed proxy on an M-scale kernel (ref bitcount now degrades to
    // exact under the short-run threshold): most of the run is never
    // simulated cycle-accurately, and several intervals were measured.
    BoundKernel bk = bindKernel(findKernel("bitcount"), Scale::Long);
    ExperimentEngine eng(1);
    EngineWorkload w = workload(bk);
    SampledStats ss =
        eng.cell(w, {"sampled", sampled(SimConfig::baseline())}).sampled;
    EXPECT_FALSE(ss.exact);
    EXPECT_GT(ss.ffWork, ss.totalWork / 3);
    EXPECT_LE(ss.detailedWork, (2 * ss.totalWork) / 3);
    EXPECT_GE(ss.intervals, 3u);
    EXPECT_EQ(ss.est.committedWork, ss.totalWork);
}

TEST(Sampling, SummarySharedAcrossConfigs)
{
    // The functional summary depends on the binary, not the machine:
    // two different core configurations running the same program must
    // share one summary artifact (and its checkpoints).
    BoundKernel bk = bindKernel(findKernel("bitcount"));
    ExperimentEngine eng(1);
    EngineWorkload w = workload(bk);

    SimConfig a = sampled(SimConfig::baseline());
    SimConfig b = a;
    b.core.robSize = 64;
    eng.cell(w, {"sampled", a});
    eng.cell(w, {"sampled", b});

    EngineCounters c = eng.counters();
    EXPECT_EQ(c.summaryComputes, 1u);
    EXPECT_EQ(c.summaryHits, 1u);
    EXPECT_EQ(c.sampledComputes, 2u);
}

TEST(Sampling, SweepReportsSamplingMetadata)
{
    BoundKernel bk = bindKernel(findKernel("bitcount"));
    SweepSpec spec;
    spec.title = "sampling metadata";
    spec.workloads = {workload(bk)};
    spec.columns.push_back({"base", SimConfig::baseline(), true});
    spec.columns.push_back(
        {"base-sampled", sampled(SimConfig::baseline()), true});
    spec.baselineColumn = 0;

    ExperimentEngine eng(1);
    SweepResult r = eng.sweep(spec);
    EXPECT_FALSE(r.at(0, 0).sampledRun);
    EXPECT_TRUE(r.at(0, 1).sampledRun);

    std::string json = sweepJson(r, "sampling_meta");
    EXPECT_NE(json.find("\"sampled\": true"), std::string::npos);
    EXPECT_NE(json.find("\"ipc_ci95_rel\""), std::string::npos);
}

TEST(Sampling, MeasurementPhaseSaltIsDeterministicAndAccurate)
{
    // The sampling-alias fix: grid-aligned measurement spans sample
    // one fixed phase of any rate oscillation commensurate with the
    // period (the jpeg.dct@huge ~2% systematic bias). A non-zero
    // phaseSalt hashes a per-chunk span offset instead. Contract:
    // salt 0 is the legacy placement, any fixed salt is fully
    // deterministic, and no salt choice may push this kernel outside
    // the stated 2% bound.
    const Program &p = syntheticLongProgram();
    SimConfig cfg = SimConfig::baseline();
    CoreStats full = runCell(p, nullptr, cfg, noSetup);

    SimConfig sc = sampled(cfg);
    SampleSummary sum = collectSampleSummary(p, nullptr, noSetup,
                                             sc.sampling);
    auto runAt = [&](std::uint64_t salt) {
        SimConfig c = sc;
        c.sampling.phaseSalt = salt;
        return runCellSampled(p, nullptr, c, noSetup, sum);
    };

    SampledStats legacy = runAt(0);
    SampledStats a = runAt(0x9e3779b97f4a7c15ull);
    SampledStats a2 = runAt(0x9e3779b97f4a7c15ull);
    SampledStats b = runAt(0x5bf03635ull);

    EXPECT_FALSE(legacy.exact);
    EXPECT_EQ(a.est, a2.est) << "salted placement not deterministic";
    EXPECT_EQ(a.intervals, a2.intervals);

    double fullIpc = full.ipc();
    ASSERT_GT(fullIpc, 0.0);
    for (const SampledStats *s : {&legacy, &a, &b}) {
        EXPECT_LE(std::abs(s->est.ipc() - fullIpc) / fullIpc, 0.02)
            << "salt variant missed the accuracy bound: sampled "
            << s->est.ipc() << " vs full " << fullIpc;
        EXPECT_EQ(s->est.committedWork, full.committedWork);
    }
}

TEST(Sampling, ExhaustedDutyBudgetFallsBackToWholeChunks)
{
    // The CI-refinement fix: when the duty budget runs out before a
    // cluster's error bound converges, the run used to just stop
    // sampling it — freezing a bad estimate made from floored spans.
    // Now a grossly unconverged cluster keeps sampling past the
    // budget with *whole-chunk* measurements (averaging the chunk's
    // full intra-phase swing). An unreachable targetCi plus a starved
    // duty budget forces that path: the run must keep refining well
    // beyond the base plan and still land inside the bound.
    const Program &p = syntheticLongProgram();
    SimConfig cfg = SimConfig::baseline();
    CoreStats full = runCell(p, nullptr, cfg, noSetup);

    SimConfig sc = sampled(cfg);
    sc.sampling.targetCi = 1e-9;    // never converges
    sc.sampling.maxDuty = 0.08;     // budget gone after the base plan
    SampleSummary sum = collectSampleSummary(p, nullptr, noSetup,
                                             sc.sampling);
    SampledStats s = runCellSampled(p, nullptr, sc, noSetup, sum);

    EXPECT_FALSE(s.exact);
    // Base plan alone is three quantile samples per cluster; the
    // over-budget whole-chunk fallback must have kept going.
    EXPECT_GE(s.intervals, 10u)
        << "over-budget refinement never fired";
    double fullIpc = full.ipc();
    ASSERT_GT(fullIpc, 0.0);
    EXPECT_LE(std::abs(s.est.ipc() - fullIpc) / fullIpc, 0.025)
        << "sampled " << s.est.ipc() << " vs full " << fullIpc;
}

// ------------------------------------------------------------------
// The store-set violation shadow, driven by hand-made records.
// ------------------------------------------------------------------

TEST(ViolationShadow, SeededEdgeWakesOnlyOnARawWithinTheAliasSpan)
{
    const Addr ld = 0x1000, st = 0x2000, other = 0x3000;
    const std::uint64_t span = ViolationShadow::aliasSpan;
    ViolationShadow sh;
    sh.seed({{ld, st}});
    EXPECT_EQ(sh.dormantEdges(), 1u);
    StoreSets ss;
    sh.warm(memRec(ld, false, 0x800), 10, ss);
    EXPECT_EQ(ss.violations(), 0u) << "a dormant edge re-trained";

    // The partner store, then the load on the same word one past the
    // span: too far apart to coexist in the window.
    sh.observe(memRec(st, true, 0x800), 100);
    sh.observe(memRec(ld, false, 0x804, 4), 100 + span + 1);
    EXPECT_EQ(sh.dormantEdges(), 1u);
    // A store that is not the partner, and a load of another word.
    sh.observe(memRec(other, true, 0x900), 1000);
    sh.observe(memRec(ld, false, 0x900), 1001);
    sh.observe(memRec(st, true, 0x800), 2000);
    sh.observe(memRec(ld, false, 0x808), 2001);
    EXPECT_EQ(sh.dormantEdges(), 1u);
    // Exactly at the span: the pair is violable, the edge wakes.
    sh.observe(memRec(ld, false, 0x800), 2000 + span);
    EXPECT_EQ(sh.dormantEdges(), 0u);

    // Active now: a fast-forwarded load re-merges its partner; a
    // store never does.
    sh.warm(memRec(ld, false, 0x800), 3000, ss);
    EXPECT_EQ(ss.violations(), 1u);
    sh.warm(memRec(st, true, 0x800), 3001, ss);
    EXPECT_EQ(ss.violations(), 1u);
}

TEST(ViolationShadow, DetailedViolationsWakeDormantAndAddActiveEdges)
{
    ViolationShadow sh;
    sh.seed({{0x1000, 0x2000}, {0x1000, 0x2100}});
    EXPECT_EQ(sh.dormantEdges(), 2u);
    sh.recordViolation(0x1000, 0x2100);     // wakes a seeded edge
    EXPECT_EQ(sh.dormantEdges(), 1u);
    sh.recordViolation(0x1000, 0x2100);     // already active
    sh.recordViolation(0x1800, 0x2000);     // new edge, active at once
    EXPECT_EQ(sh.dormantEdges(), 1u);
    EXPECT_EQ(sh.sortedPairs().size(), 3u);

    StoreSets ss;
    sh.warm(memRec(0x1800, false, 0x40), 1, ss);
    EXPECT_EQ(ss.violations(), 1u);
    // Only the active one of 0x1000's two partners re-merges.
    sh.warm(memRec(0x1000, false, 0x40), 2, ss);
    EXPECT_EQ(ss.violations(), 2u);
}

TEST(ViolationShadow, SortedPairsAreInLoadThenStoreOrder)
{
    ViolationShadow sh;
    sh.recordViolation(0x3000, 0x20);
    sh.recordViolation(0x1000, 0x90);
    sh.recordViolation(0x3000, 0x10);
    sh.recordViolation(0x1000, 0x50);
    sh.seed({{0x2000, 0x70}});
    const std::vector<std::pair<Addr, Addr>> want = {
        {0x1000, 0x50}, {0x1000, 0x90}, {0x2000, 0x70},
        {0x3000, 0x10}, {0x3000, 0x20}};
    EXPECT_EQ(sh.sortedPairs(), want);
}

TEST(ViolationShadow, SerializeRoundTripsAndTruncationLeavesItUnchanged)
{
    ViolationShadow a;
    a.seed({{0x1000, 0x2000}, {0x1100, 0x2100}});
    a.recordViolation(0x1100, 0x2100);
    a.recordViolation(0x1200, 0x2200);
    a.observe(memRec(0x2000, true, 0x800, 16), 50);   // two alias words
    const std::vector<std::uint8_t> bytes = shadowBytes(a);

    ViolationShadow b;
    SerialReader r(bytes);
    ASSERT_TRUE(b.deserialize(r));
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(shadowBytes(b), bytes);
    EXPECT_EQ(b.sortedPairs(), a.sortedPairs());
    EXPECT_EQ(b.dormantEdges(), 1u);
    // The restored alias map carries the RAW evidence: a load of the
    // second word within the span wakes the last dormant edge.
    b.observe(memRec(0x1000, false, 0x808), 60);
    EXPECT_EQ(b.dormantEdges(), 0u);

    // Every truncation of the section is refused and changes nothing.
    ViolationShadow c;
    c.recordViolation(0x9000, 0x9100);
    const std::vector<std::uint8_t> before = shadowBytes(c);
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        std::vector<std::uint8_t> cut(
            bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(n));
        SerialReader rc(cut);
        EXPECT_FALSE(c.deserialize(rc)) << n << " bytes";
        EXPECT_EQ(shadowBytes(c), before) << n << " bytes";
    }
}

TEST(ViolationShadow, RestoredShadowScansTheSameStoresAsTheLiveOne)
{
    // A woken seeded edge's store stays in the scan gate: its later
    // writes overwrite the alias word, so they hide an older partner
    // store of another dormant edge from that edge's load.
    const Addr ld = 0x1000, ld2 = 0x1100, st = 0x2000, st2 = 0x2100;
    const std::vector<std::pair<Addr, Addr>> seed = {{ld, st2},
                                                     {ld2, st}};
    ViolationShadow live;
    live.seed(seed);
    live.recordViolation(ld2, st);
    ASSERT_EQ(live.dormantEdges(), 1u);

    // The restore path of a warm record: a core seeded alike adopts
    // the parsed section.
    const std::vector<std::uint8_t> bytes = shadowBytes(live);
    ViolationShadow parsed;
    SerialReader r(bytes);
    ASSERT_TRUE(parsed.deserialize(r));
    ViolationShadow restored;
    restored.seed(seed);
    restored.adopt(std::move(parsed));
    EXPECT_EQ(shadowBytes(restored), bytes);

    for (ViolationShadow *sh : {&live, &restored}) {
        sh->observe(memRec(st2, true, 0x800), 10);
        sh->observe(memRec(st, true, 0x800), 11);
        sh->observe(memRec(ld, false, 0x800), 12);
    }
    EXPECT_EQ(live.dormantEdges(), 1u);
    EXPECT_EQ(restored.dormantEdges(), live.dormantEdges());
    EXPECT_EQ(shadowBytes(restored), shadowBytes(live));
}
