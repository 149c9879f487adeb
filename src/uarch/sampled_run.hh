/**
 * @file
 * The sampler (Core::runSampled, defined in sampled_run.cpp with the
 * plan, measurement and extrapolation of uarch/sampling.hh) and the
 * one piece of its state a Core carries: the store-set violation
 * shadow. The core calls the shadow on every oracle pull (observe),
 * ordering violation (recordViolation) and fast-forwarded memory
 * access (warm). Only runSampled attaches one: a core driven by run()
 * alone makes none of these calls.
 */

#ifndef MG_UARCH_SAMPLED_RUN_HH
#define MG_UARCH_SAMPLED_RUN_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/serial.hh"
#include "common/types.hh"
#include "emu/emulator.hh"
#include "uarch/store_sets.hh"

namespace mg {

/**
 * Functional store-set shadow of a sampled run. Which store->load
 * pairs actually violate is a timing property a functional pass
 * cannot predict (most same-address pairs issue in order and never
 * violate, and pairing them anyway merges unrelated store PCs into
 * giant sets that serialize the machine), so the shadow only
 * *re-trains* exact pairs detailed intervals have already seen
 * violate: during warm fast-forward, a load whose PC is a known
 * violator re-merges its recorded store partners, carrying the
 * learned dependence across fast-forward gaps and the predictor's
 * periodic table clears.
 *
 * The state is a violation graph: per load PC, every store PC it has
 * violated against. Keeping the full partner set (not just the latest
 * partner) matters: the predictor's trained behavior is the
 * *connected components* of the violation graph, and replaying all
 * edges reconstructs the same components in any order — a
 * last-partner-only map loses edges and under-serializes. Edges a
 * detailed interval records are active immediately; *seeded* edges
 * (prior-run discoveries) start dormant and activate only once the
 * functional stream shows the pair could violate here — the first
 * store->load RAW through memory within aliasSpan work. Activating on
 * functional evidence instead of at work 0 keeps a seeded run from
 * serializing program phases the discovery run measured as
 * violation-free (the dependence may only exist in a later phase),
 * and the evidence is a pure function of the instruction stream, so
 * cold and warm sessions activate at identical positions.
 */
class ViolationShadow
{
  public:
    /** RAW span (work units) within which a seeded pair counts as
     *  violable: both ends must plausibly coexist in the instruction
     *  window, so a couple of ROB depths. */
    static constexpr std::uint64_t aliasSpan = 256;

    /** Add sortedPairs()-ordered @p pairs as dormant edges (the order
     *  rebuilds per-load partner lists identically in every session:
     *  replay order is part of the cold-vs-warm contract). */
    void seed(const std::vector<std::pair<Addr, Addr>> &pairs);

    /** Feed one functional record retired at work position @p work to
     *  the seeded-edge RAW scan (detailed oracle pulls). Free while no
     *  edge is dormant. */
    void
    observe(const ExecRecord &rec, std::uint64_t work)
    {
        if (dormant_ != 0 && rec.isMem)
            scan(rec, work);
    }

    /** Fast-forward hook for one memory record: the RAW scan, then,
     *  for a load, re-merge all its *active* partners into @p ss, so
     *  the whole component survives fast-forward gaps and table
     *  clears (idempotent once the component is in one set). */
    void warm(const ExecRecord &rec, std::uint64_t work, StoreSets &ss);

    /** Record a detailed-interval violation edge (new edges active;
     *  a dormant seeded edge the machine actually violated wakes). */
    void recordViolation(Addr loadPc, Addr storePc);

    /** Every edge as a (load PC, store PC) pair, sorted: the
     *  discovery-pass output that seeds final passes and warm
     *  sessions. */
    std::vector<std::pair<Addr, Addr>> sortedPairs() const;

    /** Seeded edges still waiting for their first violable RAW. */
    std::uint64_t dormantEdges() const { return dormant_; }

    /** Append the shadow's section of a warm record: the edges (with
     *  activation bits) and the RAW-scan alias map, in canonical
     *  sorted order so the bytes — and the store's checksums — are
     *  session-independent. A restored record skips the fast-forward
     *  gap that built this state, so it rides in the record. */
    void serialize(SerialWriter &w) const;

    /** Parse a serialize() section. On malformed input return false
     *  and leave the shadow unchanged. The scan gate is not in the
     *  section: a parsed shadow is meant for adopt(). */
    bool deserialize(SerialReader &r);

    /** Take @p restored's edges and alias map (a deserialize()d
     *  warm-record section), keeping this shadow's scan gate — the
     *  seed's store PCs, fixed for the whole run — so a restored
     *  shadow scans exactly the stores the live one would. */
    void adopt(ViolationShadow &&restored);

  private:
    struct Partner
    {
        Addr storePc = 0;
        bool active = true;
    };
    /** Load PC -> the store PCs it violated against. */
    std::unordered_map<Addr, std::vector<Partner>> edges_;
    /** The seeded store PCs (scan gate): seed() adds them and nothing
     *  removes them, so a store PC stays gated after its edges wake. */
    std::unordered_set<Addr> partnerStores_;
    /** 8-byte word -> (partner store PC, work position) of the most
     *  recent partner store touching it; the load side of the RAW
     *  scan reads this. */
    std::unordered_map<Addr, std::pair<Addr, std::uint64_t>> aliasLast_;
    std::uint64_t dormant_ = 0;

    void addEdge(Addr loadPc, Addr storePc, bool active);
    void scan(const ExecRecord &rec, std::uint64_t work);
};

} // namespace mg

#endif // MG_UARCH_SAMPLED_RUN_HH
