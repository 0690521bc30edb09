/**
 * @file
 * The Constant Verification Unit (paper Section 3.3).
 *
 * A small fully-associative table (CAM) of (data address, LVPT index)
 * pairs. When a constant-classified load executes, its data address
 * concatenated with its LVPT index is searched in the CAM; a match
 * guarantees the LVPT entry's value is coherent with main memory, so
 * the load need not access the memory hierarchy at all. Entries are
 * invalidated by any store whose address range overlaps, and by LVPT
 * displacement (an aliasing load overwriting the entry's value).
 *
 * As a design-space ablation the unit can also be built
 * set-associative (ways > 0): entries then live in the set selected
 * by their address's 8-byte granule, trading the full CAM's cost for
 * possible conflict evictions. Coherence is preserved: a store probes
 * every set its byte range can overlap.
 *
 * The model finds entries the way the CAM does, in O(1) expected time
 * rather than by scanning: entries live in a fixed slab, each set
 * keeps an intrusive MRU-first list (its LRU order), and two hash
 * chains index the entries by the 8-byte granule of their address
 * and by their LVPT index. Lookups, inserts and both invalidations
 * walk one or a few short chains; the results (hits, LRU victims,
 * invalidation counts, corruptEvict's choice) are those of a linear
 * scan of MRU-first lists.
 */

#ifndef LVPLIB_CORE_CVU_HH
#define LVPLIB_CORE_CVU_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace lvplib::core
{

class Cvu
{
  public:
    /**
     * @param entries Total capacity; 0 disables the unit.
     * @param ways Associativity; 0 (the paper's design) means fully
     * associative. Otherwise entries/ways must be a power of two.
     */
    explicit Cvu(std::uint32_t entries, std::uint32_t ways = 0);

    /**
     * CAM search for a constant load: true when (addr, lvpt_index) is
     * present, meaning the LVPT value is guaranteed coherent. A hit
     * refreshes the entry's LRU position.
     */
    bool lookup(Addr addr, std::uint32_t lvpt_index);

    /**
     * Install a verified constant. Called after a constant-classified
     * load missed the CAM, fell back to the memory hierarchy, and its
     * prediction verified correct. Evicts the LRU entry (of the set,
     * when set-associative) when full.
     *
     * @param size Access size in bytes (at most 8, a VLISA load),
     * retained so stores can detect partial overlap.
     */
    void insert(Addr addr, std::uint32_t lvpt_index, unsigned size);

    /**
     * Store-side invalidation: remove every entry whose [addr,
     * addr+size) range overlaps the store's range (paper: "all
     * matching entries are removed from the CVU").
     *
     * @return Number of entries invalidated.
     */
    unsigned storeInvalidate(Addr store_addr, unsigned store_size);

    /**
     * LVPT-displacement invalidation: the LVPT entry at @p lvpt_index
     * changed its MRU value, so any constant verified against it would
     * be stale. Removes every entry with that index.
     *
     * @return Number of entries invalidated.
     */
    unsigned displaceInvalidate(std::uint32_t lvpt_index);

    /**
     * Fault injection (lvpchaos): evict entry number (@p which mod
     * size()), counting sets in order and MRU first within a set,
     * modelling a parity-detected corrupt CAM entry. A real
     * CVU must treat an entry that fails parity as absent — anything
     * else could vouch for a stale value — so the fault only costs a
     * verified constant, never correctness.
     *
     * @return false when the unit is empty (nothing to evict).
     */
    bool corruptEvict(std::uint64_t which);

    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t ways() const { return ways_; }
    std::size_t size() const { return live_; }
    bool enabled() const { return capacity_ != 0; }

    /** One resident entry, as contents() lists it. */
    struct Resident
    {
        Addr addr;
        std::uint32_t lvptIndex;
        unsigned size;
        bool operator==(const Resident &) const = default;
    };

    /** Every entry in corruptEvict's numbering: sets in order, MRU
     *  first within a set. */
    std::vector<Resident> contents() const;

    void reset();

  private:
    /** Slab slot number; Nil ends a list or chain. */
    using Slot = std::int32_t;
    static constexpr Slot Nil = -1;

    struct Entry
    {
        Addr addr;
        std::uint32_t lvptIndex;
        std::uint32_t size;
        std::uint32_t set;
        Slot prev, next;   ///< set list, MRU first (next: free list)
        Slot gPrev, gNext; ///< chain of the address granule's bucket
        Slot iPrev, iNext; ///< chain of the LVPT index's bucket
    };

    struct Set
    {
        Slot head = Nil; ///< MRU entry
        Slot tail = Nil; ///< LRU entry
        std::uint32_t count = 0;
    };

    /** Set holding entries whose base address is @p addr. */
    std::size_t setOf(Addr addr) const;
    /** Hash bucket of an 8-byte granule (address >> 3). */
    std::size_t granuleBucket(Addr granule) const;
    /** Hash bucket of an LVPT index. */
    std::size_t indexBucket(std::uint32_t lvpt_index) const;

    /** The entry holding (@p addr, @p lvpt_index), or Nil. */
    Slot find(Addr addr, std::uint32_t lvpt_index) const;
    void pushFront(Slot e);
    void unlinkFromSet(Slot e);
    /** Unlink @p e from its set and both chains and free its slot. */
    void remove(Slot e);
    /** Remove the entries of granule bucket @p b that overlap the
     *  store [@p addr, @p addr + @p size). */
    unsigned purgeBucket(std::size_t b, Addr addr, unsigned size);

    std::uint32_t capacity_;
    std::uint32_t ways_;     ///< entries per set (capacity_ when FA)
    std::uint32_t numSets_;  ///< 1 when fully associative
    unsigned bucketBits_;    ///< log2 of each hash table's buckets
    std::uint32_t live_ = 0; ///< entries in use
    Slot free_ = Nil;        ///< free-slot stack, linked by next
    std::vector<Entry> slab_;
    std::vector<Set> sets_;
    std::vector<Slot> byGranule_; ///< bucket heads, keyed by granule
    std::vector<Slot> byIndex_;   ///< bucket heads, keyed by index
};

} // namespace lvplib::core

#endif // LVPLIB_CORE_CVU_HH
