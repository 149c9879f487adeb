/**
 * @file
 * google-benchmark microbenchmarks of the library's hot operations:
 * assembly, emulation rate, enumeration + selection, cache access,
 * branch prediction, end-to-end cycle simulation rate, the
 * experiment engine's artifact-cache and sweep paths, and the
 * warm-checkpoint store's record round trip. Useful when tuning the
 * infrastructure itself.
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "assembler/assembler.hh"
#include "engine/checkpoint_store.hh"

#include "sim/simulator.hh"
#include "uarch/branch_pred.hh"
#include "uarch/core.hh"
#include "uarch/sliding_window.hh"
#include "workloads/suites.hh"

namespace {

using namespace mg;

// kernelProgram caches; the microbenchmark wants the raw path.
Program
assembleForBench(const Kernel &k)
{
    return assemble(k.source, k.name);
}

void
BM_Assemble(benchmark::State &state)
{
    const Kernel &k = findKernel("sha");
    for (auto _ : state) {
        Program p = assembleForBench(k);
        benchmark::DoNotOptimize(p.text.size());
    }
}

void
BM_EmulationRate(benchmark::State &state)
{
    BoundKernel bk = bindKernel(findKernel("crc"));
    std::uint64_t work = 0;
    for (auto _ : state) {
        Emulator emu(*bk.program);
        bk.kernel->setup(emu, 0);
        work += emu.run().dynWork;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(work));
}

void
BM_EnumerateAndSelect(benchmark::State &state)
{
    BoundKernel bk = bindKernel(findKernel("gzip"));
    BlockProfile prof = collectProfile(*bk.program, bk.setup, 200000);
    Cfg cfg(*bk.program);
    Liveness live(cfg);
    for (auto _ : state) {
        Selection sel = selectMiniGraphs(cfg, live, prof,
                                         SelectionPolicy{},
                                         MgtMachine{});
        benchmark::DoNotOptimize(sel.instances.size());
    }
}

void
BM_CacheAccess(benchmark::State &state)
{
    Cache c({32 * 1024, 2, 32}, "bm");
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.access(a, false).hit);
        a += 32;
        if (a > 256 * 1024)
            a = 0;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
BM_BranchPredict(benchmark::State &state)
{
    BranchPredictor bp;
    Addr pc = textBase;
    bool taken = false;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bp.predictDirection(pc));
        bp.updateDirection(pc, taken);
        taken = !taken;
        pc += 4;
        if (pc > textBase + 4096)
            pc = textBase;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
BM_CycleSimRate(benchmark::State &state)
{
    BoundKernel bk = bindKernel(findKernel("bitcount"));
    std::uint64_t work = 0;
    for (auto _ : state) {
        CoreStats st = runCell(*bk.program, nullptr,
                               SimConfig::baseline(), bk.setup);
        work += st.committedWork;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(work));
}

void
BM_CycleSimRateMiniGraph(benchmark::State &state)
{
    ExperimentEngine engine;
    EngineWorkload w = workload(bindKernel(findKernel("bitcount")));
    SimConfig sc = SimConfig::intMemMg();
    auto prep = engine.prepare(w, sc);     // amortised, as in a sweep
    std::uint64_t work = 0;
    for (auto _ : state) {
        CoreStats st = runCell(*w.program, prep.get(), sc, w.setup);
        work += st.committedWork;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(work));
}

/** Sampled-cell rate against BM_CycleSimRate: the raw win of
 *  fast-forward + measurement intervals on one kernel. */
void
BM_SampledSimRate(benchmark::State &state)
{
    ExperimentEngine engine;
    EngineWorkload w = workload(bindKernel(findKernel("bitcount")));
    SimConfig sc = SimConfig::baseline();
    sc.sampling.enabled = true;
    sc.sampling.interval = static_cast<std::uint64_t>(state.range(0));
    sc.sampling.period = 10 * sc.sampling.interval;
    sc.sampling.warmup = sc.sampling.interval / 4;
    auto sum = engine.summary(w, sc);      // amortised, as in a sweep
    std::uint64_t work = 0;
    for (auto _ : state) {
        SampledStats st = runCellSampled(*w.program, nullptr, sc,
                                         w.setup, *sum);
        work += st.totalWork;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(work));
}

/**
 * Sliding-window check-and-reserve on the packed-bitmask fast path:
 * the per-handle cost of the select stage's FUBMP test. Templates
 * mirror common integer-memory shapes (load + ALU chain + store).
 */
void
BM_WindowConflictReserve(benchmark::State &state)
{
    WindowResources res;
    SlidingWindow w(res, 16);
    const std::vector<std::vector<FuKind>> shapes = {
        {FuKind::LoadPort, FuKind::None, FuKind::IntAlu, FuKind::IntAlu},
        {FuKind::IntAlu, FuKind::IntAlu, FuKind::StorePort},
        {FuKind::LoadPort, FuKind::None, FuKind::IntAlu, FuKind::None,
         FuKind::IntAlu, FuKind::StorePort},
        {FuKind::AluPipe, FuKind::IntAlu},
    };
    std::vector<PackedFubmp> packed;
    for (const auto &s : shapes)
        packed.push_back(packFubmp(s));
    Cycle now = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        const PackedFubmp &p = packed[i];
        if (!w.conflicts(p, now))
            w.reserve(p, now);
        i = (i + 1) % packed.size();
        ++now;
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

/** The same sequence through the unpacked convenience overload:
 *  packs the FUBMP vector on every call, approximating the replaced
 *  per-entry vector-scan cost for a before/after read. */
void
BM_WindowConflictReserveUnpacked(benchmark::State &state)
{
    WindowResources res;
    SlidingWindow w(res, 16);
    const std::vector<std::vector<FuKind>> shapes = {
        {FuKind::LoadPort, FuKind::None, FuKind::IntAlu, FuKind::IntAlu},
        {FuKind::IntAlu, FuKind::IntAlu, FuKind::StorePort},
        {FuKind::LoadPort, FuKind::None, FuKind::IntAlu, FuKind::None,
         FuKind::IntAlu, FuKind::StorePort},
        {FuKind::AluPipe, FuKind::IntAlu},
    };
    Cycle now = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &s = shapes[i];
        if (!w.conflicts(s, now))
            w.reserve(s, now);
        i = (i + 1) % shapes.size();
        ++now;
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

/**
 * Select-stage cost on a dense high-IPC mini-graph kernel: whole
 * detailed cells of jpeg.dct under the int-mem configuration. The
 * handles_per_s counter inverts to ns/handle; items count committed
 * slots (every slot crosses select at least once).
 */
void
BM_SelectStageDense(benchmark::State &state)
{
    ExperimentEngine engine;
    EngineWorkload w = workload(bindKernel(findKernel("jpeg.dct")));
    SimConfig sc = SimConfig::intMemMg();
    auto prep = engine.prepare(w, sc);
    std::uint64_t slots = 0, handles = 0;
    for (auto _ : state) {
        CoreStats st = runCell(*w.program, prep.get(), sc, w.setup);
        slots += st.committedSlots;
        handles += st.committedHandles;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(slots));
    state.counters["handles_per_s"] = benchmark::Counter(
        static_cast<double>(handles), benchmark::Counter::kIsRate);
}

/** Artifact-cache hit path: the per-cell overhead of a warm sweep. */
void
BM_EngineCacheHit(benchmark::State &state)
{
    ExperimentEngine engine;
    EngineWorkload w = workload(bindKernel(findKernel("crc")));
    SimConfig sc = SimConfig::intMemMg();
    benchmark::DoNotOptimize(engine.prepare(w, sc));
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.prepare(w, sc));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

/** One-kernel standard sweep on a cold engine (fresh artifact caches
 *  every iteration), range(0) worker threads; wall time, since the
 *  cells run off the timing thread. BM_EngineCacheHit times the warm
 *  path. */
void
BM_EngineSweep(benchmark::State &state)
{
    SweepSpec spec;
    spec.workloads = {workload(bindKernel(findKernel("bitcount")))};
    spec.columns = standardColumns();
    spec.baselineColumn = 0;
    for (auto _ : state) {
        ExperimentEngine engine(static_cast<int>(state.range(0)));
        SweepResult r = engine.sweep(spec);
        benchmark::DoNotOptimize(r.cells.size());
    }
}

/**
 * Warm-checkpoint store round trip on a long-tier kernel: one warm
 * record through serializeWarm -> CheckpointStore::store -> load ->
 * tryRestoreWarm, the path a sampled cell takes once per fast-forward
 * gap (writing in a cold session, restoring in a warm one), with the
 * memory section a delta against the post-setup image as a sampled
 * run writes it. The MB
 * counter is the rate in decoded record megabytes (1e6 bytes) per
 * second through the whole cycle, record_KB the record's size; the
 * record lives in a scratch store under the temp directory.
 */
void
BM_WarmRecordRoundTrip(benchmark::State &state)
{
    BoundKernel bk = bindKernel(findKernel("gap"), Scale::Long);
    CoreConfig cfg;
    Core src(*bk.program, nullptr, cfg);
    bk.setup(src.oracle());
    const WarmBase base(src.oracle().memory());   // post-setup image
    src.fastForward(1000000, /*ipcEst=*/1.0);
    Core dst(*bk.program, nullptr, cfg);
    bk.setup(dst.oracle());

    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
        ("mg-bench-store-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    std::uint64_t bytes = 0;
    std::size_t recordBytes = 0;
    {
        CheckpointStore store({dir.string()});
        std::vector<std::uint8_t> loaded;
        for (auto _ : state) {
            SerialWriter w;
            src.serializeWarm(w, base);
            store.store("warm|bench|p0", w.data());
            if (!store.load("warm|bench|p0", loaded) ||
                !dst.tryRestoreWarm(loaded, base)) {
                state.SkipWithError("warm record did not round-trip");
                break;
            }
            benchmark::DoNotOptimize(loaded.data());
            bytes += loaded.size();
            recordBytes = loaded.size();
        }
    }
    fs::remove_all(dir);
    state.counters["MB"] = benchmark::Counter(
        static_cast<double>(bytes) / 1e6, benchmark::Counter::kIsRate);
    state.counters["record_KB"] = static_cast<double>(recordBytes) / 1e3;
}

BENCHMARK(BM_Assemble);
BENCHMARK(BM_EmulationRate);
BENCHMARK(BM_EnumerateAndSelect);
BENCHMARK(BM_CacheAccess);
BENCHMARK(BM_BranchPredict);
BENCHMARK(BM_CycleSimRate);
BENCHMARK(BM_CycleSimRateMiniGraph);
BENCHMARK(BM_SampledSimRate)->Arg(1000)->Arg(4000);
BENCHMARK(BM_WindowConflictReserve);
BENCHMARK(BM_WindowConflictReserveUnpacked);
BENCHMARK(BM_SelectStageDense);
BENCHMARK(BM_EngineCacheHit);
BENCHMARK(BM_EngineSweep)->Arg(1)->Arg(4)->UseRealTime();
BENCHMARK(BM_WarmRecordRoundTrip);

} // namespace

BENCHMARK_MAIN();
