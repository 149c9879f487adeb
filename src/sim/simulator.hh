/**
 * @file
 * High-level experiment driver: profile a program, select mini-graphs,
 * rewrite, and run the timing core — the complete paper flow in four
 * calls (or one).
 */

#ifndef MG_SIM_SIMULATOR_HH
#define MG_SIM_SIMULATOR_HH

#include <atomic>
#include <functional>

#include "analysis/critpath.hh"
#include "cfg/profile.hh"
#include "mg/rewriter.hh"
#include "sim/config.hh"
#include "uarch/core.hh"

namespace mg {

/** Callback that plants workload inputs into a fresh emulator. */
using SetupFn = std::function<void(Emulator &)>;

/** Rewritten program plus everything needed to execute it. */
struct PreparedMg
{
    Program program;
    MgTable table;
    Selection selection;        ///< against the original program
    double staticCoverage = 0;  ///< estimated from the profile
};

/** Profile @p prog by functional execution. */
BlockProfile collectProfile(const Program &prog, const SetupFn &setup,
                            std::uint64_t budget);

/** Select + rewrite @p prog for the given policy/machine/layout. */
PreparedMg prepareMiniGraphs(const Program &prog,
                             const BlockProfile &prof,
                             const SelectionPolicy &policy,
                             const MgtMachine &machine,
                             bool compress = false);

/**
 * The experiment engine's single-cell primitive: time one
 * (program, config) cell from already-computed artifacts. For a
 * mini-graph config @p prep must be the PreparedMg derived from
 * (@p prog, @p cfg) — its rewritten program and table are what run;
 * for a baseline config @p prep is null and @p prog runs unmodified.
 * Reads only const state, so concurrent cells may share @p prog and
 * @p prep freely. A non-null @p cancel attaches the engine's
 * cooperative deadline flag (Core::setCancel); the run then throws
 * CellTimeout once the flag fires.
 */
CoreStats runCell(const Program &prog, const PreparedMg *prep,
                  const SimConfig &cfg, const SetupFn &setup,
                  const std::atomic<bool> *cancel = nullptr);

/**
 * Critical-path analysis of one cell: re-run the cell's timing core
 * with a retired-event trace ring attached (capacity cfg.traceDepth,
 * 0 = TraceBuffer::defaultCapacity) and run the dependence-graph
 * analyzer over the captured window, including the cfg.whatIf
 * re-weighting when set. Trace capture is observational, so the
 * traced run's CoreStats are bit-identical to runCell's; the ring is
 * preallocated, so full-length runs stay allocation-free.
 */
CritPathSummary runCellTraced(const Program &prog, const PreparedMg *prep,
                              const SimConfig &cfg, const SetupFn &setup,
                              const std::atomic<bool> *cancel = nullptr);

/**
 * Functional pre-pass for sampled cells: run the executed binary (the
 * rewritten program for a mini-graph config) to completion once,
 * recording total work/slots and the phase clustering of the @p sp
 * chunk grid. The result depends only on the binary, the inputs, and
 * the sampling grid — never on the machine configuration — so the
 * engine shares it across all sweep columns that execute the same
 * binary.
 */
SampleSummary collectSampleSummary(const Program &prog, const MgTable *mgt,
                                   const SetupFn &setup,
                                   const SamplingParams &sp,
                                   std::uint64_t maxWork = ~0ull,
                                   const std::atomic<bool> *cancel =
                                       nullptr);

/**
 * A cell's view of the warm-checkpoint store: the per-chunk warm
 * records Core::runSampled exchanges (the WarmStoreIf base) plus the
 * cell's discovered store-set violation pairs. The engine implements
 * this over the on-disk CheckpointStore with keys derived from the
 * cell fingerprint.
 */
class CellCheckpointClient : public WarmStoreIf
{
  public:
    /** Fetch the cell's discovery-pass violation pairs (sorted).
     *  @return true when a stored (possibly empty) set exists. */
    virtual bool
    loadViolPairs(std::vector<std::pair<Addr, Addr>> &out) = 0;

    /** Persist the discovery-pass violation pairs — written exactly
     *  once per cell and never updated, so every later session seeds
     *  the same generation and reproduces the same stats. */
    virtual void
    storeViolPairs(const std::vector<std::pair<Addr, Addr>> &pairs) = 0;
};

/**
 * Sampled counterpart of runCell: alternate functionally-warmed
 * fast-forward with cycle-accurate measurement intervals and
 * extrapolate whole-run statistics (see Core::runSampled). @p sum
 * must come from collectSampleSummary for the same binary, inputs,
 * and sampling grid. @p cancel as in runCell.
 *
 * With a @p store, two-pass violation-seeded sampling. The documented
 * accuracy failure of warm-through sampling (reed@long/int-mem, ~26%
 * IPC error) is duty-limited store-set discovery: ordering violations
 * are only observable inside detailed intervals, so the predictor
 * state the fast-forwarded majority of the run carries is permanently
 * under-trained. With a store attached, the cell first runs a
 * *discovery* pass (identical to the storeless run) to collect the
 * violating pair set V, persists V, and — when V is nonempty — reruns
 * with the shadow seeded by V (seeded pairs wake where the dependence
 * first becomes violable; see ViolationShadow). Warm sessions load V
 * directly and run the seeded pass
 * alone, restoring per-chunk warm records instead of re-warming: cold
 * and warm sessions return bit-identical stats (the warm pass replays
 * the exact states the cold pass wrote).
 *
 * A null @p store (or degenerate sampling parameters) runs the single
 * storeless pass.
 */
SampledStats runCellSampled(const Program &prog, const PreparedMg *prep,
                            const SimConfig &cfg, const SetupFn &setup,
                            const SampleSummary &sum,
                            CellCheckpointClient *store = nullptr,
                            const std::atomic<bool> *cancel = nullptr);

/** Append @p sum to @p w (the checkpoint store's summary record). */
void serializeSampleSummary(const SampleSummary &sum, SerialWriter &w);

/** Parse a serializeSampleSummary record. @return false (leaving
 *  @p sum unspecified) on malformed input. */
bool deserializeSampleSummary(SerialReader &r, SampleSummary &sum);

/** One-call flow: returns the end-to-end stats for @p cfg. */
CoreStats simulate(const Program &prog, const SimConfig &cfg,
                   const SetupFn &setup);

} // namespace mg

#endif // MG_SIM_SIMULATOR_HH
