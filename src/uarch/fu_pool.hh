/**
 * @file
 * Per-cycle functional-unit and register-port budgets. The paper's
 * baseline executes up to 6 operations per cycle with composition
 * limits of 4 integer, 2 floating-point, 2 load, and 1 store, backed
 * by a 5-read/4-write-port register file. Mini-graph configurations
 * replace two plain integer ALUs with ALU pipelines (Section 6.2).
 */

#ifndef MG_UARCH_FU_POOL_HH
#define MG_UARCH_FU_POOL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mg/mgt.hh"
#include "uarch/alu_pipeline.hh"

namespace mg {

/** Static FU pool configuration. */
struct FuPoolConfig
{
    int intAlus = 4;        ///< plain single-cycle integer ALUs
    int aluPipes = 0;       ///< ALU pipelines (each replaces one ALU)
    int aluPipeDepth = 4;
    int fpUnits = 2;
    int loadPorts = 2;
    int storePorts = 1;
    int issueWidth = 6;     ///< total ops per cycle
    int regReadPorts = 5;
    int regWritePorts = 4;
};

/**
 * Cycle-granular issue-slot arbiter. All units are fully pipelined:
 * each accepts one new operation per cycle.
 */
class FuPool
{
  public:
    explicit FuPool(const FuPoolConfig &cfg);

    /** Start a new cycle: reset per-cycle slot counters.
     *  (Inline: runs once every simulated cycle.) */
    void
    beginCycle(Cycle c)
    {
        now = c;
        slideTo(c);
        for (AluPipeline &p : pipes_)
            p.advanceTo(c);
        totalUsed = intUsed = fpUsed = loadUsed = storeUsed = multUsed = 0;
        readUsed = 0;
    }

    /**
     * Pre-claim @p n units of @p fu for this cycle without consuming
     * issue slots — used to honour sliding-window FUBMP reservations
     * made by earlier integer-memory handles.
     */
    void preClaim(FuKind fu, int n);

    /**
     * Batched pre-claim of a SlidingWindow::usedNow() readout:
     * @p res[0..3] = IntAlu, LoadPort, StorePort, AluPipe units firing
     * this cycle. One call per select cycle instead of four kind
     * dispatches.
     */
    void
    preClaimUsed(const int res[4])
    {
        intUsed += res[0] + res[3];   // IntAlu + AluPipe: grouped slots
        loadUsed += res[1];
        storeUsed += res[2];
    }

    /** Issue slots still available this cycle. */
    bool issueSlotFree() const { return totalUsed < cfg.issueWidth; }

    /**
     * Try to claim a singleton-op slot of kind @p fu. Integer ops
     * fall back to an ALU pipeline stage-0 slot when the plain ALUs
     * are exhausted (outLat = 1, no pipeline penalty).
     */
    bool tryIssueSingleton(FuKind fu);

    /** Probe: would tryIssueSingleton(@p fu) succeed right now?
     *  (Inline: every select attempt probes before claiming.) */
    bool
    canIssueSingleton(FuKind fu) const
    {
        if (!issueSlotFree())
            return false;
        switch (fu) {
          case FuKind::IntAlu:
          case FuKind::IntMult: {
              // The paper's composition limit groups all integer ops.
              if (intUsed >= cfg.intAlus + cfg.aluPipes)
                  return false;
              if (intUsed < cfg.intAlus)
                  return true;
              for (const AluPipeline &p : pipes_) {
                  if (p.entryFree(now) && p.outputFree(now + 1))
                      return true;
              }
              return false;
          }
          case FuKind::FpAlu:
            return fpUsed < cfg.fpUnits;
          case FuKind::LoadPort:
            return loadUsed < cfg.loadPorts;
          case FuKind::StorePort:
            return storeUsed < cfg.storePorts;
          default:
            return false;
        }
    }

    /**
     * Claim a singleton slot after a successful canIssueSingleton(@p
     * fu) probe this cycle: the mutation half of tryIssueSingleton,
     * without re-validating capacity.
     * (Inline: one call per issued singleton op.)
     */
    void
    claimSingleton(FuKind fu)
    {
        switch (fu) {
          case FuKind::IntAlu:
          case FuKind::IntMult:
            if (intUsed < cfg.intAlus) {
                ++intUsed;
                ++totalUsed;
                return;
            }
            // Spill onto an ALU pipeline stage 0, as tryIssueSingleton
            // would (the probe guaranteed one is free).
            for (AluPipeline &p : pipes_) {
                if (p.tryIssue(now, 1)) {
                    ++intUsed;
                    ++totalUsed;
                    return;
                }
            }
            claimFailed();
          case FuKind::FpAlu:
            ++fpUsed;
            ++totalUsed;
            return;
          case FuKind::LoadPort:
            ++loadUsed;
            ++totalUsed;
            return;
          case FuKind::StorePort:
            ++storeUsed;
            ++totalUsed;
            return;
          default:
            claimFailed();
        }
    }

    /**
     * Try to claim an ALU pipeline for a whole integer mini-graph
     * whose output emerges after @p outLat cycles.
     */
    bool tryIssueAluPipe(int outLat);

    /** Probe: would tryIssueAluPipe(@p outLat) succeed right now?
     *  (Inline: handle attempts probe this every select pass.) */
    bool
    canIssueAluPipe(int outLat) const
    {
        if (!issueSlotFree())
            return false;
        if (intUsed >= cfg.intAlus + cfg.aluPipes)
            return false;
        for (const AluPipeline &p : pipes_) {
            if (p.entryFree(now) &&
                p.outputFree(now + static_cast<Cycle>(outLat)))
                return true;
        }
        return false;
    }

    /** Probe: is a write port free at completion cycle @p cycle? */
    bool
    writePortFree(Cycle cycle) const
    {
        return writeUsed[static_cast<std::size_t>(cycle) % window] <
            cfg.regWritePorts;
    }

    /** Register read ports remaining this cycle. */
    int readPortsFree() const { return cfg.regReadPorts - readUsed; }

    /** Claim @p n read ports; @return false if unavailable. */
    bool
    claimReadPorts(int n)
    {
        if (readUsed + n > cfg.regReadPorts)
            return false;
        readUsed += n;
        return true;
    }

    /**
     * Claim a write port at completion cycle @p cycle (write-port
     * arbitration happens at issue using the known latency).
     */
    bool
    claimWritePort(Cycle cycle)
    {
        auto s = static_cast<std::size_t>(cycle) % window;
        if (writeUsed[s] >= cfg.regWritePorts)
            return false;
        ++writeUsed[s];
        return true;
    }

    const FuPoolConfig &config() const { return cfg; }

  private:
    FuPoolConfig cfg;
    Cycle now = 0;
    int totalUsed = 0;
    int intUsed = 0;
    int fpUsed = 0;
    int loadUsed = 0;
    int storeUsed = 0;
    int multUsed = 0;
    int readUsed = 0;
    std::vector<AluPipeline> pipes_;

    /** Write-port reservations over a future window. Inline array:
     *  writePortFree() runs ~3x per select cycle and the vector's
     *  pointer chase showed up in profiles. */
    static constexpr int window = 64;
    std::array<std::uint8_t, window> writeUsed{};
    Cycle lastSlide = 0;

    [[noreturn]] static void claimFailed();

    void
    slideTo(Cycle c)
    {
        if (c <= lastSlide)
            return;
        Cycle steps = c - lastSlide;
        if (steps >= window) {
            writeUsed.fill(0);
        } else {
            for (Cycle s = 0; s < steps; ++s)
                writeUsed[static_cast<std::size_t>(lastSlide + s) %
                          window] = 0;
        }
        lastSlide = c;
    }
};

} // namespace mg

#endif // MG_UARCH_FU_POOL_HH
