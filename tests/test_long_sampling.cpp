/**
 * @file
 * Sampled-vs-full accuracy bound on the long-workload tier (label:
 * long), now covering the complete 23-kernel corpus. Every long
 * kernel runs full and sampled (default warm-through parameters)
 * under the baseline and integer-memory machines; the battery pins
 * the measured accuracy envelope (median, quiet-cell cap, CI
 * announcement for loud cells), the aggregate wall-clock win, and
 * the footprint-bound rtr cell's accuracy. The store-backed battery
 * pins the warm-checkpoint store's accuracy rescue of the one loud
 * cell (reed/int-mem) and its cross-session determinism contract.
 * The measured figures behind these bounds are tabulated in
 * docs/EXPERIMENTS.md.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "engine/checkpoint_store.hh"
#include "engine/engine.hh"
#include "workloads/suites.hh"

using namespace mg;

TEST(LongSampling, AccuracyEnvelopeAndAggregateSpeedup)
{
    ExperimentEngine eng(0);
    std::vector<double> errs;
    double fullWall = 0, sampledWall = 0;
    for (SimConfig cfg : {SimConfig::baseline(), SimConfig::intMemMg()}) {
        for (const BoundKernel &bk : bindAll(Scale::Long)) {
            EngineWorkload w = workload(bk);
            SweepCell full = eng.cell(w, {"full", cfg});
            SimConfig sc = cfg;
            sc.sampling.enabled = true;
            SweepCell samp = eng.cell(w, {"sampled", sc});

            ASSERT_GT(full.stats.ipc(), 0.0);
            double err =
                std::abs(samp.sampled.est.ipc() - full.stats.ipc()) /
                full.stats.ipc();
            // Quiet cells stay tight (measured worst 2.1%,
            // gzip/int-mem); anything beyond must announce itself
            // through the error bound. The one known loud cell is
            // reed/int-mem (~26% at a ~11% CI): its store-set
            // serialization onset is discovered at detailed-work
            // rate, a duty-limited process no functional warming can
            // accelerate. A checkpoint store fixes this (two-pass
            // violation seeding, pinned by StoreBackedReedAccuracy
            // below); this battery runs storeless on purpose to keep
            // pinning the announced-error contract of the default
            // path — see docs/EXPERIMENTS.md.
            if (err > 0.025) {
                EXPECT_LE(err, 2.5 * samp.sampled.ipcRelCi95)
                    << w.id << "/" << cfg.name << " quiet error: sampled "
                    << samp.sampled.est.ipc() << " vs full "
                    << full.stats.ipc();
            }
            // Hard absolute backstop above the known reed outlier: a
            // CI-covered error is announced, not unbounded — a
            // regression that inflates both the error and its
            // self-reported CI must still trip.
            EXPECT_LE(err, 0.35) << w.id << "/" << cfg.name;
            EXPECT_FALSE(samp.sampled.exact)
                << w.id << " degraded to exact: not a long workload?";
            errs.push_back(err);
            fullWall += full.wallSeconds;
            sampledWall += samp.wallSeconds;
        }
    }
    std::sort(errs.begin(), errs.end());
    // The PR 2 issue's target, now reachable on M-scale kernels:
    // median IPC error at most 2%...
    EXPECT_LE(errs[errs.size() / 2], 0.02);
    // ...at a wall-clock win. The measured aggregate is ~4x
    // single-threaded; 2x leaves headroom for noisy CI machines
    // (docs/EXPERIMENTS.md carries the real numbers).
    EXPECT_GE(fullWall, 2.0 * sampledWall)
        << "sampled long tier no longer at least halves the "
           "full-simulation wall clock";
}

TEST(LongSampling, StoreBackedReedAccuracyAndCrossSessionDeterminism)
{
    // The loud cell of the storeless battery above, with the
    // warm-checkpoint store attached. The two-pass violation seeding
    // must pull reed/int-mem from ~26% IPC error to inside 4%
    // (measured 1.87% under salted placement — the bound leaves room
    // for placement drift, not for a regression of the mechanism),
    // and a second session
    // against the same store directory must reproduce the first
    // session's stats bit for bit while restoring — not recomputing
    // — its warm state.
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
        ("mg-long-store-" + std::to_string(::getpid()));
    fs::remove_all(dir);

    EngineWorkload w =
        workload(bindKernel(findKernel("reed"), Scale::Long));
    SimConfig cfg = SimConfig::intMemMg();
    double full = ExperimentEngine(1).cell(w, {"full", cfg}).stats.ipc();
    SimConfig sc = cfg;
    sc.sampling.enabled = true;

    ExperimentEngine cold(1);
    cold.setCheckpointStore(std::make_shared<CheckpointStore>(
        CheckpointStoreConfig{dir.string()}));
    SampledStats a = cold.cell(w, {"sampled", sc}).sampled;
    EXPECT_LE(std::abs(a.est.ipc() - full) / full, 0.04)
        << "store-backed reed/int-mem error regressed (sampled "
        << a.est.ipc() << " vs full " << full << ")";
    EXPECT_GT(a.ckptWritebacks, 0u);

    ExperimentEngine warm(1);
    warm.setCheckpointStore(std::make_shared<CheckpointStore>(
        CheckpointStoreConfig{dir.string()}));
    SampledStats b = warm.cell(w, {"sampled", sc}).sampled;
    EXPECT_GT(b.ckptRestores, 0u);
    EXPECT_EQ(b.ckptWritebacks, 0u);
    EXPECT_EQ(b.est, a.est);
    EXPECT_EQ(b.intervals, a.intervals);
    EXPECT_EQ(b.ipcHat, a.ipcHat);
    EXPECT_EQ(b.ipcRelCi95, a.ipcRelCi95);

    fs::remove_all(dir);
}

TEST(LongSampling, StoreBackedWorstCellStaysInsideDocumentedBound)
{
    // Satellite bound for the measurement-phase salt: the worst
    // store-enabled long-tier cell on record was gzip/int-mem at
    // 2.21% (docs/EXPERIMENTS.md) under grid-aligned placement; the
    // salted placement measured 0.77% on it. The documented historic
    // worst is the regression ceiling — the fix must never be the
    // thing that pushes a store-enabled cell past it.
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
        ("mg-long-worst-" + std::to_string(::getpid()));
    fs::remove_all(dir);

    EngineWorkload w =
        workload(bindKernel(findKernel("gzip"), Scale::Long));
    SimConfig cfg = SimConfig::intMemMg();
    double full = ExperimentEngine(1).cell(w, {"full", cfg}).stats.ipc();
    SimConfig sc = cfg;
    sc.sampling.enabled = true;

    ExperimentEngine eng(1);
    eng.setCheckpointStore(std::make_shared<CheckpointStore>(
        CheckpointStoreConfig{dir.string()}));
    SampledStats s = eng.cell(w, {"sampled", sc}).sampled;
    EXPECT_FALSE(s.exact);
    EXPECT_LE(std::abs(s.est.ipc() - full) / full, 0.0221)
        << "store-enabled gzip/int-mem error beyond the documented "
           "worst: sampled " << s.est.ipc() << " vs full " << full;

    fs::remove_all(dir);
}

TEST(LongSampling, WarmThroughRtrStaysAccurate)
{
    // rtr is the footprint-bound kernel: its whole-run cache-residency
    // ramp only survives fast-forward because warm-through emulates
    // every skipped instruction with warming. Measured 3.73% error on
    // baseline; a fast-forward that loses the ramp misses by 14-29%.
    ExperimentEngine eng(0);
    EngineWorkload w =
        workload(bindKernel(findKernel("rtr"), Scale::Long));
    SimConfig cfg = SimConfig::baseline();
    double full = eng.cell(w, {"full", cfg}).stats.ipc();
    SimConfig sc = cfg;
    sc.sampling.enabled = true;
    SampledStats s = eng.cell(w, {"sampled", sc}).sampled;
    EXPECT_FALSE(s.exact);
    EXPECT_LE(std::abs(s.est.ipc() - full) / full, 0.05)
        << "rtr@long/baseline warm-through error regressed (sampled "
        << s.est.ipc() << " vs full " << full << ")";
}

TEST(LongSampling, SummarySharedAcrossScalesIsKeyedApart)
{
    // The same kernel at the two scales must produce two summary
    // artifacts (different inputs), not one: the "@long" id suffix is
    // what keeps the fingerprints apart.
    ExperimentEngine eng(1);
    SimConfig sc = SimConfig::baseline();
    sc.sampling.enabled = true;
    eng.cell(workload(bindKernel(findKernel("bitcount"))), {"sampled", sc});
    eng.cell(workload(bindKernel(findKernel("bitcount"), Scale::Long)),
             {"sampled", sc});
    EngineCounters c = eng.counters();
    EXPECT_EQ(c.summaryComputes, 2u);
    EXPECT_EQ(c.summaryHits, 0u);
    EXPECT_EQ(c.sampledComputes, 2u);
}
