/**
 * @file
 * Unit tests for the Constant Verification Unit (paper Section 3.3):
 * fully-associative (address, LVPT-index) matching, store-side
 * invalidation of every overlapping entry, LVPT-displacement
 * invalidation, and LRU capacity management; and the slab-and-hash
 * Cvu against the list-scanning unit it replaced, kept here as the
 * oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/cvu.hh"
#include "util/rng.hh"

namespace lvplib::core
{
namespace
{

TEST(Cvu, LookupMissesWhenEmpty)
{
    Cvu c(8);
    EXPECT_FALSE(c.lookup(0x1000, 3));
}

TEST(Cvu, InsertThenLookupHits)
{
    Cvu c(8);
    c.insert(0x1000, 3, 8);
    EXPECT_TRUE(c.lookup(0x1000, 3));
    EXPECT_FALSE(c.lookup(0x1000, 4))
        << "the LVPT index is part of the match";
    EXPECT_FALSE(c.lookup(0x1008, 3))
        << "the data address is part of the match";
}

TEST(Cvu, StoreInvalidatesExactAddress)
{
    Cvu c(8);
    c.insert(0x1000, 1, 8);
    EXPECT_EQ(c.storeInvalidate(0x1000, 8), 1u);
    EXPECT_FALSE(c.lookup(0x1000, 1));
}

TEST(Cvu, StoreInvalidatesPartialOverlap)
{
    Cvu c(8);
    c.insert(0x1000, 1, 8); // covers [0x1000, 0x1008)
    // A 1-byte store into the middle of the loaded range.
    EXPECT_EQ(c.storeInvalidate(0x1004, 1), 1u);
    EXPECT_FALSE(c.lookup(0x1000, 1));
}

TEST(Cvu, StoreBelowOrAboveDoesNotInvalidate)
{
    Cvu c(8);
    c.insert(0x1000, 1, 8);
    EXPECT_EQ(c.storeInvalidate(0x0ff8, 8), 0u); // ends at 0x1000
    EXPECT_EQ(c.storeInvalidate(0x1008, 8), 0u); // starts at end
    EXPECT_TRUE(c.lookup(0x1000, 1));
}

TEST(Cvu, StoreInvalidatesAllMatchingEntries)
{
    Cvu c(8);
    // Two different static loads (different LVPT indices) of the same
    // address: the paper says ALL matching entries are removed.
    c.insert(0x2000, 1, 8);
    c.insert(0x2000, 2, 8);
    EXPECT_EQ(c.storeInvalidate(0x2000, 8), 2u);
    EXPECT_FALSE(c.lookup(0x2000, 1));
    EXPECT_FALSE(c.lookup(0x2000, 2));
}

TEST(Cvu, DisplacementInvalidatesByIndex)
{
    Cvu c(8);
    c.insert(0x1000, 5, 8);
    c.insert(0x2000, 5, 8); // same LVPT entry, different address
    c.insert(0x3000, 6, 8);
    EXPECT_EQ(c.displaceInvalidate(5), 2u);
    EXPECT_FALSE(c.lookup(0x1000, 5));
    EXPECT_FALSE(c.lookup(0x2000, 5));
    EXPECT_TRUE(c.lookup(0x3000, 6));
}

TEST(Cvu, CapacityEvictsLru)
{
    Cvu c(2);
    c.insert(0x1000, 1, 8);
    c.insert(0x2000, 2, 8);
    EXPECT_TRUE(c.lookup(0x1000, 1)); // refresh 0x1000 -> MRU
    c.insert(0x3000, 3, 8);           // evicts LRU = 0x2000
    EXPECT_TRUE(c.lookup(0x1000, 1));
    EXPECT_FALSE(c.lookup(0x2000, 2));
    EXPECT_TRUE(c.lookup(0x3000, 3));
    EXPECT_EQ(c.size(), 2u);
}

TEST(Cvu, ReinsertRefreshesInsteadOfDuplicating)
{
    Cvu c(4);
    c.insert(0x1000, 1, 8);
    c.insert(0x1000, 1, 8);
    EXPECT_EQ(c.size(), 1u);
}

TEST(Cvu, ZeroCapacityIsDisabled)
{
    Cvu c(0);
    EXPECT_FALSE(c.enabled());
    c.insert(0x1000, 1, 8);
    EXPECT_FALSE(c.lookup(0x1000, 1));
    EXPECT_EQ(c.size(), 0u);
}

TEST(Cvu, ResetEmpties)
{
    Cvu c(4);
    c.insert(0x1000, 1, 8);
    c.reset();
    EXPECT_EQ(c.size(), 0u);
    EXPECT_FALSE(c.lookup(0x1000, 1));
}


TEST(CvuSetAssoc, LookupAndInsertRespectSets)
{
    Cvu c(8, 2); // 4 sets of 2 ways, indexed by 8-byte granule
    EXPECT_EQ(c.ways(), 2u);
    c.insert(0x1000, 1, 8);
    EXPECT_TRUE(c.lookup(0x1000, 1));
    // Same set (granule differs by numSets * 8 = 32 bytes):
    c.insert(0x1020, 2, 8);
    c.insert(0x1040, 3, 8); // third entry in a 2-way set evicts LRU
    EXPECT_FALSE(c.lookup(0x1000, 1)) << "LRU of the set evicted";
    EXPECT_TRUE(c.lookup(0x1020, 2));
    EXPECT_TRUE(c.lookup(0x1040, 3));
}

TEST(CvuSetAssoc, DifferentSetsDoNotConflict)
{
    Cvu c(8, 2);
    c.insert(0x1000, 1, 8); // set (0x1000>>3) & 3 = 0
    c.insert(0x1008, 2, 8); // set 1
    c.insert(0x1010, 3, 8); // set 2
    c.insert(0x1018, 4, 8); // set 3
    EXPECT_TRUE(c.lookup(0x1000, 1));
    EXPECT_TRUE(c.lookup(0x1008, 2));
    EXPECT_TRUE(c.lookup(0x1010, 3));
    EXPECT_TRUE(c.lookup(0x1018, 4));
}

TEST(CvuSetAssoc, StoreInvalidationStaysCoherentAcrossSets)
{
    Cvu c(8, 2);
    // An entry whose 8-byte range starts just below the store.
    c.insert(0x0ffc, 1, 8); // covers [0xffc, 0x1004): set of 0xffc
    c.insert(0x1000, 2, 8); // set of 0x1000
    // A 1-byte store at 0x1000 overlaps BOTH entries even though
    // their base addresses live in different granule sets.
    EXPECT_EQ(c.storeInvalidate(0x1000, 1), 2u);
    EXPECT_FALSE(c.lookup(0x0ffc, 1));
    EXPECT_FALSE(c.lookup(0x1000, 2));
}

TEST(CvuSetAssoc, CoherencePropertyUnderRandomTraffic)
{
    // The CVU must never "verify" an address a store has touched,
    // regardless of organization. Randomized cross-check of FA vs
    // 2-way: any address the set-assoc unit verifies must also be
    // untouched since its insert.
    Rng rng(99);
    Cvu sa(16, 2);
    std::unordered_map<Addr, int> version; // bumped per store
    std::unordered_map<Addr, int> inserted_at;
    for (int i = 0; i < 4000; ++i) {
        Addr a = 0x2000 + rng.below(32) * 8;
        if (rng.chance(1, 3)) {
            version[a]++;
            sa.storeInvalidate(a, 8);
        } else if (rng.chance(1, 2)) {
            inserted_at[a] = version[a];
            sa.insert(a, static_cast<std::uint32_t>(a >> 3), 8);
        } else {
            if (sa.lookup(a, static_cast<std::uint32_t>(a >> 3))) {
                ASSERT_EQ(version[a], inserted_at[a])
                    << "stale verification at iteration " << i;
            }
        }
    }
}

TEST(CvuSetAssoc, BadGeometryIsFatal)
{
    EXPECT_EXIT(Cvu(12, 5), ::testing::ExitedWithCode(1),
                "power of two");
}

/**
 * The CVU as it was before the slab and hash chains: per-set
 * MRU-first std::lists, searched and purged by linear scans. Kept as
 * the oracle for Cvu's LRU victims, invalidation counts and
 * corruptEvict order.
 */
class ListCvu
{
  public:
    ListCvu(std::uint32_t entries, std::uint32_t ways)
        : capacity_(entries), ways_(ways == 0 ? entries : ways),
          numSets_(ways == 0 || entries == 0 ? 1 : entries / ways),
          sets_(numSets_)
    {}

    bool
    lookup(Addr addr, std::uint32_t idx)
    {
        auto &set = sets_[setOf(addr)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->addr == addr && it->lvptIndex == idx) {
                set.splice(set.begin(), set, it);
                return true;
            }
        }
        return false;
    }

    void
    insert(Addr addr, std::uint32_t idx, unsigned size)
    {
        if (capacity_ == 0)
            return;
        auto &set = sets_[setOf(addr)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->addr == addr && it->lvptIndex == idx) {
                it->size = size;
                set.splice(set.begin(), set, it);
                return;
            }
        }
        if (set.size() == ways_)
            set.pop_back();
        set.push_front({addr, idx, size});
    }

    unsigned
    storeInvalidate(Addr store_addr, unsigned store_size)
    {
        if (capacity_ == 0)
            return 0;
        unsigned n = 0;
        auto purge = [&](std::list<Cvu::Resident> &set) {
            for (auto it = set.begin(); it != set.end();) {
                if (it->addr < store_addr + store_size &&
                    store_addr < it->addr + it->size) {
                    it = set.erase(it);
                    ++n;
                } else {
                    ++it;
                }
            }
        };
        if (numSets_ == 1) {
            purge(sets_[0]);
            return n;
        }
        Addr lo = (store_addr >= 7 ? store_addr - 7 : 0) >> 3;
        Addr hi = (store_addr + store_size - 1) >> 3;
        std::size_t span = static_cast<std::size_t>(hi - lo) + 1;
        if (span >= numSets_) {
            for (auto &set : sets_)
                purge(set);
            return n;
        }
        std::vector<std::size_t> seen;
        for (Addr g = lo; g <= hi; ++g) {
            auto s = static_cast<std::size_t>(g & (numSets_ - 1));
            if (std::find(seen.begin(), seen.end(), s) == seen.end()) {
                seen.push_back(s);
                purge(sets_[s]);
            }
        }
        return n;
    }

    unsigned
    displaceInvalidate(std::uint32_t idx)
    {
        unsigned n = 0;
        for (auto &set : sets_) {
            for (auto it = set.begin(); it != set.end();) {
                if (it->lvptIndex == idx) {
                    it = set.erase(it);
                    ++n;
                } else {
                    ++it;
                }
            }
        }
        return n;
    }

    /** Evict as Cvu::corruptEvict does; returns the evicted entry. */
    std::optional<Cvu::Resident>
    corruptEvict(std::uint64_t which)
    {
        std::size_t total = size();
        if (total == 0)
            return std::nullopt;
        std::size_t target = static_cast<std::size_t>(which % total);
        for (auto &set : sets_) {
            if (target < set.size()) {
                auto it = set.begin();
                std::advance(it, static_cast<std::ptrdiff_t>(target));
                Cvu::Resident gone = *it;
                set.erase(it);
                return gone;
            }
            target -= set.size();
        }
        return std::nullopt;
    }

    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto &s : sets_)
            n += s.size();
        return n;
    }

    std::vector<Cvu::Resident>
    contents() const
    {
        std::vector<Cvu::Resident> out;
        for (const auto &s : sets_)
            out.insert(out.end(), s.begin(), s.end());
        return out;
    }

    void
    reset()
    {
        for (auto &s : sets_)
            s.clear();
    }

  private:
    std::size_t
    setOf(Addr addr) const
    {
        return numSets_ == 1
                   ? 0
                   : static_cast<std::size_t>((addr >> 3) &
                                              (numSets_ - 1));
    }

    std::uint32_t capacity_;
    std::uint32_t ways_;
    std::uint32_t numSets_;
    std::vector<std::list<Cvu::Resident>> sets_;
};

/**
 * Random lookup / insert / storeInvalidate / displaceInvalidate /
 * corruptEvict / reset sequences, run against Cvu and the list
 * oracle: every return value, size(), the entry corruptEvict removes
 * and, periodically, the whole LRU order must agree.
 */
void
checkAgainstOracle(std::uint32_t entries, std::uint32_t ways,
                   std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message() << "entries " << entries
                                      << " ways " << ways << " seed "
                                      << seed);
    Cvu cvu(entries, ways);
    ListCvu oracle(entries, ways);
    Rng rng(seed);
    // A footprint a few times the capacity, so sets fill and evict,
    // at unaligned offsets near address 0 as well as higher up.
    const std::uint64_t span = 8ull * std::max<std::uint32_t>(entries, 4);
    const std::uint32_t indices = std::max<std::uint32_t>(entries, 4);
    auto addr = [&] {
        Addr base = rng.chance(1, 8) ? 0 : 0x10000;
        return base + rng.below(3 * span);
    };
    static const unsigned loadSizes[] = {1, 2, 4, 8};
    for (int op = 0; op < 6000; ++op) {
        std::uint64_t pick = rng.below(100);
        if (pick < 35) {
            Addr a = addr();
            auto idx = static_cast<std::uint32_t>(rng.below(indices));
            // Re-probe a resident entry half the time, so hits (and
            // their LRU refresh) are common.
            auto resident = oracle.contents();
            if (!resident.empty() && rng.chance(1, 2)) {
                const auto &r = resident[rng.below(resident.size())];
                a = r.addr;
                idx = r.lvptIndex;
            }
            ASSERT_EQ(cvu.lookup(a, idx), oracle.lookup(a, idx))
                << "lookup at op " << op;
        } else if (pick < 65) {
            Addr a = addr();
            auto idx = static_cast<std::uint32_t>(rng.below(indices));
            unsigned size = loadSizes[rng.below(4)];
            cvu.insert(a, idx, size);
            oracle.insert(a, idx, size);
        } else if (pick < 85) {
            Addr a = addr();
            // Mostly store-sized writes; sometimes spans wide enough
            // to cover every set or every hash bucket.
            unsigned size = rng.chance(1, 10)
                                ? static_cast<unsigned>(
                                      rng.below(16 * span) + 1)
                                : loadSizes[rng.below(4)];
            ASSERT_EQ(cvu.storeInvalidate(a, size),
                      oracle.storeInvalidate(a, size))
                << "storeInvalidate(" << a << ", " << size
                << ") at op " << op;
        } else if (pick < 93) {
            auto idx = static_cast<std::uint32_t>(rng.below(indices));
            ASSERT_EQ(cvu.displaceInvalidate(idx),
                      oracle.displaceInvalidate(idx))
                << "displaceInvalidate at op " << op;
        } else if (pick < 99) {
            std::uint64_t which = rng.next();
            auto before = cvu.contents();
            auto gone = oracle.corruptEvict(which);
            ASSERT_EQ(cvu.corruptEvict(which), gone.has_value())
                << "corruptEvict at op " << op;
            if (gone) {
                // The same entry went: the survivors, in order, are
                // the oracle's.
                auto after = cvu.contents();
                ASSERT_EQ(after.size() + 1, before.size());
                ASSERT_EQ(after, oracle.contents())
                    << "corruptEvict victim at op " << op;
            }
        } else {
            cvu.reset();
            oracle.reset();
        }
        ASSERT_EQ(cvu.size(), oracle.size()) << "size at op " << op;
        if (op % 61 == 0) {
            ASSERT_EQ(cvu.contents(), oracle.contents())
                << "LRU order at op " << op;
        }
    }
    EXPECT_EQ(cvu.contents(), oracle.contents());
}

TEST(CvuOracle, FullyAssociativeMatchesListScan)
{
    for (std::uint32_t entries : {0u, 1u, 8u, 32u, 128u, 512u})
        for (std::uint64_t seed : {1u, 2u, 3u})
            checkAgainstOracle(entries, 0, seed);
}

TEST(CvuOracle, SetAssociativeMatchesListScan)
{
    // A 4-way unit cannot hold exactly one entry: capacity 1 runs
    // direct-mapped instead.
    for (std::uint32_t entries : {0u, 8u, 32u, 128u, 512u})
        for (std::uint64_t seed : {1u, 2u, 3u})
            checkAgainstOracle(entries, 4, seed);
    for (std::uint32_t entries : {1u, 8u})
        for (std::uint64_t seed : {1u, 2u, 3u})
            checkAgainstOracle(entries, 1, seed);
}

} // namespace
} // namespace lvplib::core
