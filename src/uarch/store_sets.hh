/**
 * @file
 * Store-sets memory dependence predictor in the style of Chrysos &
 * Emer (ISCA-25): a Store Set ID Table (SSIT) indexed by instruction
 * PC and a Last Fetched Store Table (LFST) indexed by store set.
 * Loads wait for the last in-flight store of their set; violations
 * merge the load's and store's sets. For mini-graphs the handle PC
 * identifies embedded loads and stores (paper Section 4.3).
 */

#ifndef MG_UARCH_STORE_SETS_HH
#define MG_UARCH_STORE_SETS_HH

#include <cstdint>
#include <vector>

#include "common/serial.hh"
#include "common/types.hh"

namespace mg {

/** Store-sets configuration. */
struct StoreSetsConfig
{
    std::uint32_t ssitEntries = 4096;
    std::uint32_t lfstEntries = 1024;
    /** Clear the tables every N accesses to bound stale pairings. */
    std::uint64_t clearInterval = 262144;
};

/** One SSIT entry holding a store set (index into the table). */
struct SsitEntryState
{
    std::uint32_t index = 0;
    std::int32_t set = 0;
};

/** One LFST slot with a live store (index into the table). */
struct LfstEntryState
{
    std::uint32_t index = 0;
    std::uint64_t seq = 0;
    Addr pc = 0;
};

/**
 * Complete trained state of the predictor: the table sizes, and only
 * the entries away from their reset value (an SSIT entry holding a
 * set; an LFST slot with a nonzero sequence number or PC), each list
 * in ascending index. LFST sequence numbers reference the core's
 * global sequence space, so the warm-checkpoint record that carries
 * this state also carries the core's nextSeq.
 */
struct StoreSetsState
{
    std::uint32_t ssitEntries = 0;
    std::uint32_t lfstEntries = 0;
    std::vector<SsitEntryState> ssit;
    std::vector<LfstEntryState> lfst;
    std::uint64_t accesses = 0;
    std::uint64_t violations = 0;
    std::int32_t nextSet = 0;

    void serialize(SerialWriter &w) const;
    bool deserialize(SerialReader &r);
};

/** The predictor. */
class StoreSets
{
  public:
    explicit StoreSets(const StoreSetsConfig &cfg = {});

    /**
     * A store is dispatched.
     *
     * @param pc       store (or handle) PC
     * @param storeSeq global sequence number of the store
     * @return sequence number of an older store this store must order
     *         behind, or 0 (stores in one set issue in order)
     */
    std::uint64_t dispatchStore(Addr pc, std::uint64_t storeSeq);

    /**
     * A load is dispatched.
     *
     * @param pc load (or handle) PC
     * @return sequence number of the store the load must wait for,
     *         or 0 when unconstrained
     */
    std::uint64_t dispatchLoad(Addr pc);

    /** A store left the window; drop it from the LFST. */
    void completeStore(Addr pc, std::uint64_t storeSeq);

    /**
     * A memory-ordering violation between @p loadPc and @p storePc
     * was detected: assign both to a common set.
     */
    void recordViolation(Addr loadPc, Addr storePc);

    std::uint64_t violations() const { return violations_; }

    /** Snapshot the full trained state (checkpoint store). */
    StoreSetsState exportState() const;

    /** @return true when @p s matches this predictor's table sizes
     *  and its entry lists are well formed: ascending indices inside
     *  the tables, no entry at its reset value. */
    bool stateCompatible(const StoreSetsState &s) const;

    /** Reset the tables, then apply @p s (requires stateCompatible). */
    void adoptState(const StoreSetsState &s);

  private:
    StoreSetsConfig cfg;
    static constexpr std::int32_t noSet = -1;
    std::vector<std::int32_t> ssit;       ///< PC -> store set id
    std::vector<std::uint64_t> lfst;      ///< set id -> last store seq
    std::vector<Addr> lfstPc;             ///< set id -> last store pc
    std::uint64_t accesses = 0;
    std::uint64_t violations_ = 0;
    std::int32_t nextSet = 0;
    std::uint32_t ssitMask = 0;   ///< power-of-two fast path (0 = use %)
    std::uint32_t lfstMask = 0;

    std::uint32_t idx(Addr pc) const;
    std::uint32_t lfstIdx(std::int32_t set) const;
    void maybeClear();
};

} // namespace mg

#endif // MG_UARCH_STORE_SETS_HH
