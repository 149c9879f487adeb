/**
 * @file
 * The cycle-level out-of-order core.
 *
 * The model follows the SimpleScalar sim-outorder methodology the
 * paper used: a functional oracle (the Emulator) executes the program
 * in fetch order while this core models timing — branch prediction,
 * renaming, the issue queue, functional-unit and register-port
 * structural hazards, the load/store queue with store-sets scheduling
 * and ordering-violation squashes, cache latencies, and retirement.
 *
 * Mini-graph awareness (paper Section 4):
 *  - a handle is one slot at fetch/rename/dispatch/issue/commit;
 *  - integer handles issue to ALU pipelines; integer-memory handles
 *    issue through the sliding-window scheduler (<= 1 per cycle);
 *  - issuing a handle claims one MGST sequencer for its total latency;
 *  - interior values never allocate physical registers;
 *  - a handle's scheduler entry is held until its terminal bank;
 *  - interior-load misses replay the entire mini-graph.
 */

#ifndef MG_UARCH_CORE_HH
#define MG_UARCH_CORE_HH

#include <atomic>
#include <cmath>
#include <memory>
#include <vector>

#include "emu/emulator.hh"
#include "memsys/hierarchy.hh"
#include "uarch/branch_pred.hh"
#include "uarch/dyninst.hh"
#include "uarch/fu_pool.hh"
#include "uarch/issue_queue.hh"
#include "uarch/lsq.hh"
#include "uarch/regfile.hh"
#include "uarch/rename.hh"
#include "uarch/ring.hh"
#include "uarch/rob.hh"
#include "uarch/sampling.hh"
#include "uarch/sequencer.hh"
#include "uarch/sliding_window.hh"
#include "uarch/store_sets.hh"
#include "uarch/trace.hh"

namespace mg {

class ViolationShadow;

/**
 * The memory image a warm record's memory section is a delta against
 * (Core::serializeWarm): the post-setup image a store-backed sampled
 * run captures once, before it executes anything, tagged with its
 * Memory::checksum(). A default-constructed base is empty, so the
 * delta is the full image.
 */
struct WarmBase
{
    Memory mem;
    std::uint64_t tag = Memory().checksum();

    WarmBase() = default;
    explicit WarmBase(const Memory &m) : mem(m), tag(m.checksum()) {}
};

/** Machine configuration (defaults = the paper's baseline). */
struct CoreConfig
{
    // Bandwidths.
    int fetchWidth = 6;
    int renameWidth = 6;
    int issueWidth = 6;
    int commitWidth = 6;

    // Capacities.
    int robSize = 128;
    int iqSize = 50;
    int lsqSize = 64;
    int physRegs = 164;
    int fetchQueueSize = 24;

    // Latencies.
    int frontendDepth = 8;      ///< fetch-to-dispatch stages
    int regReadLat = 2;
    int schedulerCycles = 1;    ///< 1 = single-cycle, 2 = pipelined
    int misfetchPenalty = 3;    ///< BTB-miss-on-taken bubble
    int bypassWindow = 3;       ///< cycles a value rides the bypass

    // Execution resources.
    FuPoolConfig fu;            ///< 4 int ALUs baseline

    // Mini-graph machinery.
    bool mgEnabled = false;
    bool slidingWindow = false; ///< integer-memory handles issue
    int sequencers = 6;
    int maxIntMemHandlesPerCycle = 1;

    HierarchyConfig mem;
    BranchPredConfig bp;
    StoreSetsConfig ss;

    /** Derive the paper's mini-graph configuration: two of the four
     *  integer ALUs become ALU pipelines. */
    void
    enableMiniGraphs(bool intMem, int pipeDepth = 4)
    {
        mgEnabled = true;
        slidingWindow = intMem;
        fu.intAlus = 2;
        fu.aluPipes = 2;
        fu.aluPipeDepth = pipeDepth;
    }
};

/** Every CoreStats counter, for the delta/scale arithmetic the
 *  sampled-measurement bookkeeping needs. */
#define MG_CORE_STATS_COUNTERS(X)                                        \
    X(cycles) X(committedSlots) X(committedWork) X(committedHandles)     \
    X(fetchedSlots) X(branches) X(mispredicts) X(misfetches)             \
    X(loadReplays) X(handleReplays) X(ordViolations) X(squashedSlots)    \
    X(icacheMisses) X(dcacheMisses) X(iqFullStalls) X(robFullStalls)     \
    X(regFullStalls) X(lsqFullStalls) X(intMemIssueConflicts)

/** End-of-run statistics. */
struct CoreStats
{
    Cycle cycles = 0;
    std::uint64_t committedSlots = 0;   ///< handles count once
    std::uint64_t committedWork = 0;    ///< constituent instructions
    std::uint64_t committedHandles = 0;
    std::uint64_t fetchedSlots = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t misfetches = 0;
    std::uint64_t loadReplays = 0;      ///< singleton load-miss waits
    std::uint64_t handleReplays = 0;    ///< interior-load mini-graph
                                        ///< replays
    std::uint64_t ordViolations = 0;
    std::uint64_t squashedSlots = 0;
    std::uint64_t icacheMisses = 0;
    std::uint64_t dcacheMisses = 0;
    std::uint64_t iqFullStalls = 0;
    std::uint64_t robFullStalls = 0;
    std::uint64_t regFullStalls = 0;
    std::uint64_t lsqFullStalls = 0;
    std::uint64_t intMemIssueConflicts = 0;

    /** Bit-identical comparison (the engine's determinism contract). */
    bool operator==(const CoreStats &) const = default;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(committedWork) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** Fraction of committed work removed from pipeline slots. */
    double
    dynamicCoverage() const
    {
        return committedWork
            ? 1.0 - static_cast<double>(committedSlots) /
                  static_cast<double>(committedWork)
            : 0.0;
    }

    /** Counter-wise accumulation (sampled-interval aggregation). */
    CoreStats &
    operator+=(const CoreStats &o)
    {
#define MG_ADD(f) f += o.f;
        MG_CORE_STATS_COUNTERS(MG_ADD)
#undef MG_ADD
        return *this;
    }

    /** Counter-wise delta against an earlier snapshot of this run. */
    CoreStats
    operator-(const CoreStats &o) const
    {
        CoreStats d;
#define MG_SUB(f) d.f = f - o.f;
        MG_CORE_STATS_COUNTERS(MG_SUB)
#undef MG_SUB
        return d;
    }

    /** Counter-wise scaling (sampled-run extrapolation). */
    CoreStats
    scaled(double factor) const
    {
        CoreStats s;
#define MG_SCALE(f)                                                      \
    s.f = static_cast<std::uint64_t>(                                    \
        std::llround(static_cast<double>(f) * factor));
        MG_CORE_STATS_COUNTERS(MG_SCALE)
#undef MG_SCALE
        return s;
    }
};

/**
 * Result of a sampled run: whole-run statistics extrapolated from the
 * measured intervals, plus the error-bound bookkeeping. @c est scales
 * every event counter by totalWork / measuredWork (committedWork is
 * pinned to the known totalWork), so downstream consumers — speedup
 * tables, JSON reports — read it exactly like a full run's CoreStats.
 */
struct SampledStats
{
    CoreStats est;                      ///< extrapolated full-run stats
    std::uint64_t totalWork = 0;        ///< functional whole-run work
    std::uint64_t prefixWork = 0;       ///< exactly-measured cold work
    std::uint64_t measuredWork = 0;     ///< work inside measurements
                                        ///< (cold prefix included)
    std::uint64_t measuredCycles = 0;   ///< cycles inside measurements
    std::uint64_t detailedWork = 0;     ///< all cycle-accurate work
                                        ///< (measure + warmup + drain)
    std::uint64_t ffWork = 0;           ///< work fast-forwarded
    std::uint32_t intervals = 0;        ///< measurement intervals taken
    double ipcHat = 0;                  ///< ratio-estimator IPC
    double ipcRelCi95 = 0;              ///< 95% CI half-width / mean of
                                        ///< per-interval IPC
    bool exact = false;                 ///< degenerated to a full run;
                                        ///< est is bit-exact
    /** Warm-checkpoint store traffic of this run: fast-forward gaps
     *  served by restoring a stored record vs gaps warmed through
     *  functionally and written back. Zero without a store. */
    std::uint32_t ckptRestores = 0;
    std::uint32_t ckptWritebacks = 0;
};

/** The core. */
class Core
{
  public:
    /**
     * @param prog program (handles allowed when @p mgt is given)
     * @param mgt  mini-graph table or null
     * @param cfg  machine configuration
     */
    Core(const Program &prog, const MgTable *mgt, const CoreConfig &cfg);
    ~Core();

    /**
     * Run until the oracle halts (and the pipeline drains) or
     * @p maxWork constituent instructions have committed.
     */
    CoreStats run(std::uint64_t maxWork = ~0ull);

    /**
     * Sampled run (see uarch/sampling.hh for the interval scheme),
     * the sampler's one entry point: defined in uarch/sampled_run.cpp,
     * it attaches a fresh ViolationShadow and steers this core through
     * runDetailedUntil, drainPipeline, fastForward and the warm-record
     * pair below. @p sum supplies the extrapolation denominator and
     * the phase clustering that places measurements. Degenerate
     * parameters reproduce run() bit-exactly.
     *
     * @p warmStore serves fast-forward gaps from stored warm records
     * (see WarmStoreIf); a run served from the store is bit-identical
     * to the run that populated it. @p seedViol pre-seeds the shadow
     * with the sorted violating (load PC, store PC) pairs a discovery
     * run learned; the seed set keys the store's record generation.
     */
    SampledStats runSampled(
        const SamplingParams &sp, const SampleSummary &sum,
        std::uint64_t maxWork = ~0ull, WarmStoreIf *warmStore = nullptr,
        const std::vector<std::pair<Addr, Addr>> *seedViol = nullptr);

    /** The violation shadow the last runSampled attached (null
     *  before any; run() never attaches one). */
    const ViolationShadow *shadow() const { return shadow_.get(); }

    /** Step the pipeline until @p targetWork constituent instructions
     *  have committed (counting from the last stats reset) or the
     *  program has halted and drained. */
    void runDetailedUntil(std::uint64_t targetWork);

    /** Retire everything in flight without admitting new oracle
     *  slots, leaving the pipeline empty at a committed boundary. */
    void drainPipeline();

    /**
     * Functionally execute the oracle until its constituent work
     * reaches @p workTarget (or it halts). The pipeline must be empty.
     * Fetched lines touch the I-cache, memory accesses touch the
     * D-cache hierarchy, and control ops train the branch predictor —
     * functional warming — while the core clock advances virtually at
     * @p ipcEst (> 0) work per cycle, so warming runs through the
     * *timed* hierarchy paths and bus queueing (the dominant
     * cold-phase effect) keeps evolving across the gap. An attached
     * shadow re-trains the store sets (ViolationShadow::warm).
     * Contributes nothing to stats() but the clock.
     */
    void fastForward(std::uint64_t workTarget, double ipcEst);

    /** Serialize the complete warm state at a drained-pipeline
     *  fast-forward boundary (the warm-checkpoint store's record):
     *  @p base's tag, clocks, the functional oracle with only the
     *  memory pages that differ from @p base, the trained
     *  hierarchy/predictor/store-set contents, and the shadow's
     *  section (empty without a shadow). */
    void serializeWarm(SerialWriter &w, const WarmBase &base) const;

    /** Parse + validate a serializeWarm record and, only if every
     *  piece is well-formed, compatible with this configuration, and
     *  written against a base with @p base's tag, atomically adopt it
     *  (never partially mutates on failure; the shadow section goes
     *  to the attached shadow, if any, through ViolationShadow::adopt).
     *  Memory becomes @p base plus the record's pages. The pipeline
     *  must be empty. Like fastForward, a restore leaves stats()
     *  untouched but the clock. */
    bool tryRestoreWarm(const std::vector<std::uint8_t> &bytes,
                        const WarmBase &base);

    /** Access the oracle (for architectural state checks in tests). */
    Emulator &oracle() { return emu; }

    /**
     * Attach a cooperative cancellation flag (null detaches). The
     * run loops poll it every few hundred iterations and throw
     * CellTimeout once it reads true, abandoning the run — the
     * engine's watchdog sets it when a cell's wall-clock deadline
     * fires. A cancelled core is dead: the pipeline is mid-flight,
     * so the caller must discard it rather than resume.
     */
    void setCancel(const std::atomic<bool> *c) { cancel_ = c; }

    /**
     * Attach a retired-event trace ring (null detaches). Capture is
     * observational: timestamps the timing model already computed are
     * copied into @p t at retirement, so an attached trace never
     * changes stats() — the determinism contract the critical-path
     * analyzer relies on. Attach before run(); the producer-tracking
     * table it enables is maintained from the next dispatch on.
     */
    void
    setTrace(TraceBuffer *t)
    {
        trace_ = t;
        if (t && physWriterSeq_.empty())
            physWriterSeq_.assign(
                static_cast<std::size_t>(cfg.physRegs), 0);
    }

    /** Free physical registers (rename-resource checks in tests). */
    int regFreeCount() const { return regs.freeCount(); }

    /** In-flight DynInst slots currently allocated from the slab. */
    std::size_t liveInsts() const { return slab.live(); }

    /** High-water mark of liveInsts() — the eager-reclamation bound
     *  (<= ROB + fetch-queue capacity regardless of squash rate). */
    std::size_t peakLiveInsts() const { return slab.peakLive(); }

    const CoreStats &stats() const { return stats_; }

  private:
    const Program &prog;
    const MgTable *mgt;
    CoreConfig cfg;

    Emulator emu;
    Hierarchy mem;
    BranchPredictor bp;
    StoreSets ss;
    PhysRegFile regs;
    RenameMap rmap;
    Rob rob;
    IssueQueue iq;
    Lsq lsq;
    FuPool fu;
    SequencerPool seqs;
    SlidingWindow window;

    Cycle now = 0;
    std::uint64_t nextSeq = 1;
    CoreStats stats_;
    int fetchLineShift = -1;    ///< log2(l1i line) when a power of two

    // Cooperative cancellation (per-cell deadlines). The flag is
    // sampled every pollEvery loop iterations so the hot loop pays
    // one counter increment, not an atomic load, per cycle.
    const std::atomic<bool> *cancel_ = nullptr;
    std::uint32_t cancelPoll_ = 0;
    static constexpr std::uint32_t cancelPollMask = 1023;
    void pollCancel();

    // Retired-event trace capture (observational; null = off). The
    // phys-writer table maps each physical register to the seq of the
    // in-flight slot that produces it, giving the trace its register
    // dependence edges without touching the rename map's hot path.
    TraceBuffer *trace_ = nullptr;
    std::vector<std::uint64_t> physWriterSeq_;
    void traceRetire(const DynInst *d);

    // Allocation-free instruction lifecycle: every DynInst lives in
    // the slab from fetch to retirement/squash; squashed slots are
    // reset in place and re-fed through the replay queue.
    DynInstSlab slab;

    // Oracle stream with squash-replay support.
    RingDeque<DynInst *> replayQueue;
    bool oracleDone = false;
    bool draining = false;   ///< stop pulling new oracle slots

    // Fetch state.
    RingDeque<DynInst *> fetchQueue;
    std::uint64_t fetchBlockedBySeq = 0;  ///< unresolved mispredict
    Cycle fetchStalledUntil = 0;          ///< misfetch / icache miss
    Addr lastFetchLine = ~Addr(0);

    // In-flight directory: a seq-indexed ring over the ROB contents
    // (ring[seq & mask], validated by inWindow + exact seq), replacing
    // the per-dispatch hash-map insert/erase/find.
    std::vector<DynInst *> window_;
    std::uint64_t windowMask = 0;

    // Per-cycle mini-graph issue throttle.
    int intMemIssuedThisCycle = 0;

    // Reusable per-cycle scratch (hoisted out of the cycle loop).
    std::vector<std::pair<DynInst *, std::uint64_t>> memOps;
    std::vector<DynInst *> replayScratch;


    // Issued-but-unresolved memory operations, so neither the resolve
    // stage nor the idle-skip event scan walks the whole LSQ each
    // cycle. Entries self-expire (seq mismatch or memDone) and are
    // compacted in doMemAndResolve.
    std::vector<std::pair<DynInst *, std::uint64_t>> pendingMem;

    // Store-set violation shadow of a sampled run (null = none).
    std::unique_ptr<ViolationShadow> shadow_;

    // --- pipeline stages (called youngest-stage-last each cycle) ---
    void doMemAndResolve();
    void doCommit();
    void doIssue();
    void doDispatch();
    void doFetch();

    // --- run-loop plumbing ---
    void stepCycle();
    bool pipelineEmpty() const;
    void warmControl(const Instruction &in, const ExecRecord &rec);

    /**
     * Event-aware idle skipping: when the coming cycle provably does
     * nothing — nothing ready or waking in the scheduler, no memory
     * access or commit or branch resolution due, fetch stalled or
     * starved, dispatch blocked — return the next cycle at which any
     * of those events fires (0 = cannot skip). @p stallCounter
     * receives the dispatch-stall statistic the skipped cycles must
     * still accumulate (one bump per idle cycle, as in stepping).
     */
    Cycle idleSkipTarget(std::uint64_t **stallCounter);

    // --- helpers ---
    DynInst *pullOracle();
    void windowInsert(DynInst *d);
    DynInst *findInWindow(std::uint64_t seq) const;
    RegId renameDstOf(const DynInst *d) const;
    void predictControl(DynInst *d);
    bool issueHandle(DynInst *d, int ports);
    bool issueSingleton(DynInst *d, int ports);
    void publishDest(DynInst *d, int effLat, Cycle value);
    void executeLoad(DynInst *d);
    void executeStore(DynInst *d);
    void squashFrom(std::uint64_t fromSeq);
    void retire(DynInst *d);
    Addr lineOf(Addr pc) const;
};

} // namespace mg

#endif // MG_UARCH_CORE_HH
