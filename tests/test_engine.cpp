/**
 * @file
 * ExperimentEngine contract tests: a parallel sweep is bit-identical
 * to a serial one, artifacts are computed exactly once per fingerprint
 * (cache hits skip re-profiling / re-preparing / re-running), and the
 * engine's cells agree with the one-call simulate() flow.
 */

#include <gtest/gtest.h>

#include "engine/engine.hh"
#include "common/serial.hh"
#include "engine/fingerprint.hh"
#include "workloads/suites.hh"

namespace {

using namespace mg;

constexpr std::uint64_t testBudget = 30000;

SweepSpec
testSpec()
{
    SweepSpec spec;
    spec.title = "engine test";
    for (const char *name : {"crc", "bitcount"})
        spec.workloads.push_back(workload(bindKernel(findKernel(name))));
    spec.columns = standardColumns();
    for (SweepColumn &c : spec.columns)
        c.config.runBudget = testBudget;
    spec.baselineColumn = 0;
    return spec;
}

TEST(Engine, ParallelSweepBitIdenticalToSerial)
{
    SweepSpec spec = testSpec();
    SweepResult serial = ExperimentEngine(1).sweep(spec);
    SweepResult parallel = ExperimentEngine(4).sweep(spec);

    ASSERT_EQ(serial.cells.size(),
              spec.workloads.size() * spec.columns.size());
    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        const SweepCell &a = serial.cells[i];
        const SweepCell &b = parallel.cells[i];
        EXPECT_EQ(a.stats, b.stats) << "cell " << i;
        EXPECT_EQ(a.timed, b.timed);
        EXPECT_EQ(a.staticCoverage, b.staticCoverage);
        EXPECT_EQ(a.templates, b.templates);
        EXPECT_EQ(a.textSlots, b.textSlots);
    }
}

TEST(Engine, CellMatchesSimulate)
{
    BoundKernel bk = bindKernel(findKernel("crc"));
    SimConfig cfg = SimConfig::intMemMg();
    cfg.runBudget = testBudget;
    ExperimentEngine engine(2);
    EXPECT_EQ(engine.cell(workload(bk), {"full", cfg}).stats,
              simulate(*bk.program, cfg, bk.setup));
}

std::vector<std::uint8_t>
cellBytes(const SweepCell &c)
{
    SerialWriter w;
    serializeSweepCell(c, w);
    return w.take();
}

TEST(Engine, CellIsTheSweepSlot)
{
    SweepSpec spec;
    spec.title = "one cell";
    spec.workloads.push_back(workload(bindKernel(findKernel("crc"))));
    SimConfig full = SimConfig::intMemMg();
    full.runBudget = testBudget;
    SimConfig sampled = full;
    sampled.sampling.enabled = true;
    SimConfig critpath = SimConfig::baseline();
    critpath.runBudget = testBudget;
    critpath.critpath = true;
    spec.columns = {{"full", full}, {"sampled", sampled},
                    {"critpath", critpath}};

    ExperimentEngine engine(2);
    SweepResult r = engine.sweep(spec);
    const EngineWorkload &w = spec.workloads[0];
    for (std::size_t col = 0; col < spec.columns.size(); ++col) {
        const SweepColumn &c = spec.columns[col];
        const SweepCell &slot = r.at(0, col);
        ASSERT_EQ(slot.outcome, CellOutcome::Ok) << c.name;
        ASSERT_TRUE(slot.timed) << c.name;
        EXPECT_EQ(slot.sampledRun, col == 1) << c.name;
        EXPECT_EQ(slot.critpath.present, col == 2) << c.name;
        EXPECT_GT(slot.wallSeconds, 0.0) << c.name;

        // The sweep already ran this cell: each call is a cache hit
        // carrying the original compute, wall-clock included.
        for (int rep = 0; rep < 2; ++rep) {
            EngineCounters before = engine.counters();
            SweepCell got = engine.cell(w, c);
            EngineCounters after = engine.counters();
            EXPECT_EQ(cellBytes(got), cellBytes(slot)) << c.name;
            EXPECT_EQ(got.wallSeconds, slot.wallSeconds) << c.name;
            EXPECT_EQ(after.runComputes, before.runComputes);
            EXPECT_EQ(after.sampledComputes, before.sampledComputes);
            EXPECT_EQ(after.runHits + after.sampledHits,
                      before.runHits + before.sampledHits + 1)
                << c.name;
        }
    }
}

TEST(Engine, ArtifactsComputedOncePerFingerprint)
{
    SweepSpec spec = testSpec();
    // A repeated configuration under a different display name must
    // dedupe onto the same artifacts and timing run.
    SweepColumn dup = spec.columns[3];
    dup.name = "int-mem-again";
    spec.columns.push_back(dup);

    ExperimentEngine engine(4);
    SweepResult r = engine.sweep(spec);
    std::uint64_t w = spec.workloads.size();

    EngineCounters c = engine.counters();
    // One functional profile per workload: every mini-graph column
    // shares the same profiling budget.
    EXPECT_EQ(c.profileComputes, w);
    // One prepare per distinct (policy, machine, compress): the four
    // standard mini-graph machines; the duplicate column only hits.
    EXPECT_EQ(c.prepareComputes, 4 * w);
    EXPECT_GE(c.prepareHits, w);
    // One timing run per distinct cell: five distinct configurations
    // (the duplicate dedupes onto int-mem).
    EXPECT_EQ(c.runComputes, 5 * w);
    EXPECT_GE(c.runHits, w);

    // The deduped column's cells are bit-identical to the original's.
    for (std::size_t row = 0; row < r.rows.size(); ++row)
        EXPECT_EQ(r.at(row, 3).stats, r.at(row, 5).stats);

    // Re-running the identical sweep performs no new computation.
    engine.sweep(spec);
    EngineCounters c2 = engine.counters();
    EXPECT_EQ(c2.profileComputes, c.profileComputes);
    EXPECT_EQ(c2.prepareComputes, c.prepareComputes);
    EXPECT_EQ(c2.runComputes, c.runComputes);
    EXPECT_GT(c2.runHits, c.runHits);
}

TEST(Engine, UntimedColumnsPrepareWithoutRunning)
{
    SweepSpec spec = testSpec();
    for (SweepColumn &c : spec.columns)
        c.timing = false;
    ExperimentEngine engine(2);
    SweepResult r = engine.sweep(spec);
    EXPECT_EQ(engine.counters().runComputes, 0u);
    for (std::size_t row = 0; row < r.rows.size(); ++row) {
        EXPECT_FALSE(r.at(row, 1).timed);
        EXPECT_EQ(r.at(row, 1).stats.cycles, 0u);
        EXPECT_GT(r.at(row, 1).templates, 0u);   // selection happened
    }
}

TEST(Engine, FingerprintIgnoresDisplayName)
{
    SimConfig a = SimConfig::intMemMg();
    SimConfig b = a;
    b.name = "same machine, different label";
    EXPECT_EQ(cellFingerprint("k", a), cellFingerprint("k", b));

    SimConfig c = a;
    c.core.physRegs -= 1;
    EXPECT_NE(cellFingerprint("k", a), cellFingerprint("k", c));
    SimConfig d = a;
    d.policy.maxTemplates = 8;
    EXPECT_NE(cellFingerprint("k", a), cellFingerprint("k", d));
}

} // namespace
