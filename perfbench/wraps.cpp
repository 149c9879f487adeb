/**
 * @file
 * Spans around the library's layer entry points, added from outside
 * the library at link time. The driver is linked with
 * `-Wl,--wrap=<symbol>` for every function below, so each call the
 * engine makes into another module's translation unit lands here
 * first, opens a span, and forwards to the real function. The mangled
 * names are listed once, in CMakeLists.txt, which passes them to the
 * linker and writes them into perfbench_wrapped.hh as the MANGLED_*
 * macros used below.
 * Calls inside one translation unit are not redirected, which is why
 * the checkpoint-store traffic is timed through a decorator around the
 * client makeCellClient returns rather than inside the store.
 *
 * If a signature changes, the `__real_` reference no longer resolves
 * and the driver fails to link, instead of silently losing a layer.
 */

#include <memory>

#include "engine/checkpoint_store.hh"
#include "perfbench_wrapped.hh"   // MANGLED_*, generated by CMakeLists.txt
#include "sim/simulator.hh"
#include "spans.hh"

using namespace mg;
using perfbench::Scope;

#define REAL(sym) __asm__("__real_" sym)
#define WRAP(sym) __asm__("__wrap_" sym)

using ViolPairs = std::vector<std::pair<Addr, Addr>>;

// ---- the real functions (resolved by the linker's --wrap)
BlockProfile realCollectProfile(const Program &, const SetupFn &,
                                std::uint64_t)
    REAL(MANGLED_COLLECT_PROFILE);
PreparedMg realPrepare(const Program &, const BlockProfile &,
                       const SelectionPolicy &, const MgtMachine &, bool)
    REAL(MANGLED_PREPARE);
CoreStats realRunCell(const Program &, const PreparedMg *,
                      const SimConfig &, const SetupFn &,
                      const std::atomic<bool> *) REAL(MANGLED_RUN_CELL);
SampleSummary realCollectSummary(const Program &, const MgTable *,
                                 const SetupFn &, const SamplingParams &,
                                 std::uint64_t, const std::atomic<bool> *)
    REAL(MANGLED_COLLECT_SUMMARY);
SampledStats realRunCellSampled(const Program &, const PreparedMg *,
                                const SimConfig &, const SetupFn &,
                                const SampleSummary &,
                                CellCheckpointClient *,
                                const std::atomic<bool> *)
    REAL(MANGLED_RUN_CELL_SAMPLED);
CoreStats realCoreRun(Core *, std::uint64_t) REAL(MANGLED_CORE_RUN);
SampledStats realCoreRunSampled(Core *, const SamplingParams &,
                                const SampleSummary &, std::uint64_t,
                                WarmStoreIf *, const ViolPairs *)
    REAL(MANGLED_CORE_RUN_SAMPLED);
std::unique_ptr<CellCheckpointClient>
realMakeCellClient(CheckpointStore &, const std::string &)
    REAL(MANGLED_MAKE_CLIENT);
bool realStoreLoad(CheckpointStore *, const std::string &,
                   std::vector<std::uint8_t> &) REAL(MANGLED_STORE_LOAD);
void realStoreStore(CheckpointStore *, const std::string &,
                    const std::vector<std::uint8_t> &)
    REAL(MANGLED_STORE_STORE);

// ---- the wrappers
BlockProfile wrapCollectProfile(const Program &, const SetupFn &,
                                std::uint64_t)
    WRAP(MANGLED_COLLECT_PROFILE);
PreparedMg wrapPrepare(const Program &, const BlockProfile &,
                       const SelectionPolicy &, const MgtMachine &, bool)
    WRAP(MANGLED_PREPARE);
CoreStats wrapRunCell(const Program &, const PreparedMg *,
                      const SimConfig &, const SetupFn &,
                      const std::atomic<bool> *) WRAP(MANGLED_RUN_CELL);
SampleSummary wrapCollectSummary(const Program &, const MgTable *,
                                 const SetupFn &, const SamplingParams &,
                                 std::uint64_t, const std::atomic<bool> *)
    WRAP(MANGLED_COLLECT_SUMMARY);
SampledStats wrapRunCellSampled(const Program &, const PreparedMg *,
                                const SimConfig &, const SetupFn &,
                                const SampleSummary &,
                                CellCheckpointClient *,
                                const std::atomic<bool> *)
    WRAP(MANGLED_RUN_CELL_SAMPLED);
CoreStats wrapCoreRun(Core *, std::uint64_t) WRAP(MANGLED_CORE_RUN);
SampledStats wrapCoreRunSampled(Core *, const SamplingParams &,
                                const SampleSummary &, std::uint64_t,
                                WarmStoreIf *, const ViolPairs *)
    WRAP(MANGLED_CORE_RUN_SAMPLED);
std::unique_ptr<CellCheckpointClient>
wrapMakeCellClient(CheckpointStore &, const std::string &)
    WRAP(MANGLED_MAKE_CLIENT);
bool wrapStoreLoad(CheckpointStore *, const std::string &,
                   std::vector<std::uint8_t> &) WRAP(MANGLED_STORE_LOAD);
void wrapStoreStore(CheckpointStore *, const std::string &,
                    const std::vector<std::uint8_t> &)
    WRAP(MANGLED_STORE_STORE);

BlockProfile
wrapCollectProfile(const Program &prog, const SetupFn &setup,
                   std::uint64_t budget)
{
    Scope s("cfg.profile");
    return realCollectProfile(prog, setup, budget);
}

PreparedMg
wrapPrepare(const Program &prog, const BlockProfile &prof,
            const SelectionPolicy &policy, const MgtMachine &machine,
            bool compress)
{
    Scope s("mg.prepare");
    PreparedMg out = realPrepare(prog, prof, policy, machine, compress);
    s.attr("templates", static_cast<double>(out.table.size()));
    return out;
}

CoreStats
wrapRunCell(const Program &prog, const PreparedMg *prep,
            const SimConfig &cfg, const SetupFn &setup,
            const std::atomic<bool> *cancel)
{
    Scope s("sim.cell");
    return realRunCell(prog, prep, cfg, setup, cancel);
}

SampleSummary
wrapCollectSummary(const Program &prog, const MgTable *mgt,
                   const SetupFn &setup, const SamplingParams &sp,
                   std::uint64_t maxWork, const std::atomic<bool> *cancel)
{
    Scope s("sim.sample_summary");
    SampleSummary out =
        realCollectSummary(prog, mgt, setup, sp, maxWork, cancel);
    s.attr("work", static_cast<double>(out.totalWork));
    return out;
}

SampledStats
wrapRunCellSampled(const Program &prog, const PreparedMg *prep,
                   const SimConfig &cfg, const SetupFn &setup,
                   const SampleSummary &sum, CellCheckpointClient *store,
                   const std::atomic<bool> *cancel)
{
    Scope s("sim.sampled_cell");
    return realRunCellSampled(prog, prep, cfg, setup, sum, store, cancel);
}

CoreStats
wrapCoreRun(Core *core, std::uint64_t maxWork)
{
    Scope s("uarch.core_run");
    CoreStats out = realCoreRun(core, maxWork);
    s.attr("work", static_cast<double>(out.committedWork));
    s.attr("cycles", static_cast<double>(out.cycles));
    return out;
}

SampledStats
wrapCoreRunSampled(Core *core, const SamplingParams &sp,
                   const SampleSummary &sum, std::uint64_t maxWork,
                   WarmStoreIf *warm, const ViolPairs *seed)
{
    Scope s("uarch.core_run_sampled");
    SampledStats out =
        realCoreRunSampled(core, sp, sum, maxWork, warm, seed);
    s.attr("work", static_cast<double>(out.detailedWork + out.ffWork));
    s.attr("cycles", static_cast<double>(out.est.cycles));
    return out;
}

namespace {

/** Times every record a sampled cell exchanges with the store. */
class TimedClient : public CellCheckpointClient
{
  public:
    explicit TimedClient(std::unique_ptr<CellCheckpointClient> real)
        : real_(std::move(real))
    {}

    bool
    loadWarm(std::uint64_t pos, std::uint64_t seedHash,
             std::vector<std::uint8_t> &bytes) override
    {
        Scope s("engine.store.load");
        bool hit = real_->loadWarm(pos, seedHash, bytes);
        s.attr("bytes", hit ? static_cast<double>(bytes.size()) : 0.0);
        s.attr("hit", hit);
        return hit;
    }

    void
    storeWarm(std::uint64_t pos, std::uint64_t seedHash,
              const std::vector<std::uint8_t> &bytes) override
    {
        Scope s("engine.store.store");
        real_->storeWarm(pos, seedHash, bytes);
        s.attr("bytes", static_cast<double>(bytes.size()));
    }

    // Violation-pair records count as their pair payload: two
    // addresses per pair.
    bool
    loadViolPairs(ViolPairs &out) override
    {
        Scope s("engine.store.load");
        bool hit = real_->loadViolPairs(out);
        s.attr("bytes", hit ? 16.0 * static_cast<double>(out.size()) : 0.0);
        s.attr("hit", hit);
        return hit;
    }

    void
    storeViolPairs(const ViolPairs &pairs) override
    {
        Scope s("engine.store.store");
        real_->storeViolPairs(pairs);
        s.attr("bytes", 16.0 * static_cast<double>(pairs.size()));
    }

  private:
    std::unique_ptr<CellCheckpointClient> real_;
};

} // namespace

std::unique_ptr<CellCheckpointClient>
wrapMakeCellClient(CheckpointStore &store, const std::string &cellKey)
{
    auto real = realMakeCellClient(store, cellKey);
    if (!perfbench::tracing())
        return real;
    return std::make_unique<TimedClient>(std::move(real));
}

bool
wrapStoreLoad(CheckpointStore *store, const std::string &key,
              std::vector<std::uint8_t> &payload)
{
    Scope s("engine.store.load");
    bool hit = realStoreLoad(store, key, payload);
    s.attr("bytes", hit ? static_cast<double>(payload.size()) : 0.0);
    s.attr("hit", hit);
    return hit;
}

void
wrapStoreStore(CheckpointStore *store, const std::string &key,
               const std::vector<std::uint8_t> &payload)
{
    Scope s("engine.store.store");
    realStoreStore(store, key, payload);
    s.attr("bytes", static_cast<double>(payload.size()));
}
