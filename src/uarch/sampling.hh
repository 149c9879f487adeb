/**
 * @file
 * Sampled-simulation parameters and the functional pre-pass summary.
 *
 * A sampled run (Core::runSampled, implemented in uarch/sampled_run)
 * measures a set of cycle-accurate intervals and extrapolates
 * whole-run statistics. Placement is phase-driven (SimPoint-style):
 * the functional pre-pass splits the run into @c period -work chunks,
 * fingerprints each with a PC-histogram signature and clusters
 * equal-phase chunks. The timing run then
 *
 *   1. measures the first period exactly (cold caches, bus backlog,
 *      and queue fill-up are real but unrepresentative; extrapolating
 *      them is the dominant error source for short programs),
 *   2. fast-forwards chunk to chunk by warming through: every skipped
 *      instruction is emulated with functional warming (I-cache,
 *      D-cache/L2, branch predictor all trained; the clock advances
 *      virtually at the last measured IPC so bus queueing keeps
 *      evolving; the store-set shadow re-trains the violation pairs
 *      detailed intervals observed), then @c warmup work runs
 *      cycle-accurate to restore queue back-pressure,
 *   3. measures quantile-spread occurrences of every cluster —
 *      settling for one @c interval, then averaging three — and keeps
 *      sampling clusters whose error bound has not converged, within
 *      the @c maxDuty budget, and
 *   4. scales each cluster's measured rates by the cluster's total
 *      work — plus the exact prefix — into whole-run estimates with a
 *      within-cluster 95% confidence bound.
 *
 * Runs shorter than 33 periods degrade to exact full simulation.
 * The MGT itself is a static, read-only table and needs no warming;
 * the emulator's block profile (which drives MGT selection) keeps
 * accumulating through fast-forward because profiling is part of
 * functional execution.
 */

#ifndef MG_UARCH_SAMPLING_HH
#define MG_UARCH_SAMPLING_HH

#include <cstdint>
#include <vector>

namespace mg {

/** Knobs of one sampled run (all lengths in constituent work units). */
struct SamplingParams
{
    bool enabled = false;
    std::uint64_t interval = 1000;  ///< detailed work measured per period
    std::uint64_t period = 12000;   ///< work between measurement starts
    std::uint64_t warmup = 2000;    ///< detailed pre-measurement work
    double targetCi = 0.01;         ///< keep sampling a cluster while
                                    ///< its weighted 95% CI share
                                    ///< exceeds this (0 = fixed two
                                    ///< samples per cluster)
    double maxDuty = 0.50;          ///< cap on the cycle-accurate
                                    ///< share of the run (coverage
                                    ///< beyond one sample per cluster
                                    ///< stops at this spend)
    /** Measurement-phase perturbation seed (0 = legacy grid-aligned
     *  placement, bit-exact with salt-less builds). When set, each
     *  measured chunk's span starts at a deterministic offset hashed
     *  from (salt, chunk start) instead of always at the chunk start:
     *  period-aligned placement samples one fixed phase of any rate
     *  oscillation commensurate with the period, which read a
     *  systematic ~2% bias on huge-tier jpeg.dct. The engine derives
     *  the salt from the cell fingerprint, so it is stable across
     *  sessions (warm-store records and resumed journals stay
     *  coherent) while de-correlating placement between cells. Not
     *  part of the cell fingerprint: the same cell key always maps to
     *  the same salt, so keying it would be redundant. */
    std::uint64_t phaseSalt = 0;

    /** Sampling degenerates to a full detailed run. A zero interval
     *  has nothing to measure (and would divide the measured-span
     *  floor), so it degenerates too. */
    bool
    degenerate() const
    {
        return !enabled || interval == 0 ||
            period <= interval + warmup;
    }

    bool operator==(const SamplingParams &) const = default;
};

/**
 * Hook a sampled run uses to skip functional re-warming: before each
 * fast-forward gap, Core::runSampled asks for the warm-state record
 * captured at the coming chunk's start (a serialized CoreWarmState:
 * emulator checkpoint + cache/predictor/store-set contents + clocks);
 * on a miss it warms through functionally as always and offers the
 * state it computed for writeback. @p seedHash identifies the
 * violation-pair seeding generation (see docs/ARCHITECTURE.md): runs
 * seeded with different store-set violation sets follow different
 * state trajectories and must never share records.
 *
 * Implementations are engine-side adapters over the on-disk
 * CheckpointStore; a null WarmStoreIf reproduces the storeless run
 * bit-exactly.
 */
class WarmStoreIf
{
  public:
    virtual ~WarmStoreIf() = default;

    /** Fetch the record for chunk-start @p pos, generation
     *  @p seedHash. @return true and fill @p bytes on a verified hit. */
    virtual bool loadWarm(std::uint64_t pos, std::uint64_t seedHash,
                          std::vector<std::uint8_t> &bytes) = 0;

    /** Persist @p bytes as the record for (@p pos, @p seedHash).
     *  Must never fail the run (degrade internally). */
    virtual void storeWarm(std::uint64_t pos, std::uint64_t seedHash,
                           const std::vector<std::uint8_t> &bytes) = 0;
};

/** PC-signature sketch width for phase clustering. */
constexpr int sampleSigDims = 64;

/** Normalized-L1 distance above which two chunks are distinct phases. */
constexpr double sampleClusterTheta = 0.25;

/** One period-sized region of the functional execution. */
struct SampleChunk
{
    std::uint64_t start = 0;     ///< work position of the chunk start
    std::uint64_t work = 0;      ///< actual work (last chunk: partial)
    std::uint32_t cluster = 0;   ///< phase cluster id
};

/**
 * Config-independent functional summary of one (program, inputs) pair:
 * the total dynamic work (the extrapolation denominator) and the phase
 * clustering of its period-grid chunks. Computed once per binary by
 * collectSampleSummary() and shared by every machine configuration
 * running that binary.
 */
struct SampleSummary
{
    std::uint64_t totalWork = 0;
    std::uint64_t totalSlots = 0;
    std::uint32_t clusters = 0;
    std::vector<SampleChunk> chunks;    ///< ascending start positions
};

} // namespace mg

#endif // MG_UARCH_SAMPLING_HH
