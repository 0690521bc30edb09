/**
 * @file
 * Scheduling primitives shared by the timing models:
 *
 *  - FuPipe / FuBank: functional-unit occupancy with gap-filling
 *    booking (out-of-order issue can slot a younger ready instruction
 *    into an idle cycle before an older stalled one);
 *  - ResourcePool: bounded resources freed at known future cycles
 *    (reservation stations, rename buffers, completion buffer);
 *  - SlotCounter: per-cycle bandwidth limits (dispatch width,
 *    completion width, memory ops per cycle);
 *  - BankTracker: L1 bank occupancy and conflict-cycle accounting.
 */

#ifndef LVPLIB_UARCH_SCHED_HH
#define LVPLIB_UARCH_SCHED_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace lvplib::uarch
{

/**
 * Busy-interval calendar for one functional-unit instance.
 *
 * Intervals live in a vector sorted by start cycle. Issue cycles are
 * almost always non-decreasing, so book() nearly always appends and
 * queries land at the newest end: lookups scan backward from the last
 * interval, which visits only the intervals that start after the
 * query (about none on average), where a binary search would pay
 * log2 of the whole calendar (over a thousand intervals between the
 * owning FuBank's prunes).
 */
class FuPipe
{
  public:
    /** Earliest start >= @p t where the pipe is idle for @p dur
     *  cycles, without booking it. */
    Cycle
    earliest(Cycle t, unsigned dur) const
    {
        // Below the horizon, pruned intervals would read as idle and
        // the answer would depend on when pruning ran.
        lvp_dassert(t >= horizon_, "FU query below the prune horizon");
        Cycle cand = t;
        auto it = upperBound(cand);
        if (it != busy_.begin()) {
            auto prev = std::prev(it);
            if (prev->second > cand)
                cand = prev->second;
        }
        while (it != busy_.end() && it->first < cand + dur) {
            cand = it->second;
            ++it;
        }
        return cand;
    }

    /** Book [start, start+dur). Caller got @p start from earliest(). */
    void
    book(Cycle start, unsigned dur)
    {
        if (busy_.empty() || busy_.back().first < start) {
            busy_.emplace_back(start, start + dur);
            return;
        }
        busy_.insert(upperBound(start), {start, start + dur});
    }

    /** Drop intervals ending at or before @p before. */
    void
    prune(Cycle before)
    {
        auto it = busy_.begin();
        while (it != busy_.end() && it->second <= before)
            ++it;
        busy_.erase(busy_.begin(), it);
        horizon_ = std::max(horizon_, before);
    }

    /** Intervals currently kept (booked and not yet pruned). */
    std::size_t intervals() const { return busy_.size(); }

  private:
    using Interval = std::pair<Cycle, Cycle>;

    /** First interval whose start is > @p t, found from the back. */
    std::vector<Interval>::const_iterator
    upperBound(Cycle t) const
    {
        auto it = busy_.cend();
        while (it != busy_.cbegin() && std::prev(it)->first > t)
            --it;
        return it;
    }

    std::vector<Interval> busy_;
    Cycle horizon_ = 0; ///< highest cycle prune() has dropped below
};

/** A pool of identical FU instances (e.g. the 620's two SCFX units). */
class FuBank
{
  public:
    explicit FuBank(unsigned instances = 1) : pipes_(instances) {}

    /** Book the earliest available instance at or after @p t for
     *  @p dur cycles; returns the booked start cycle. */
    Cycle
    book(Cycle t, unsigned dur)
    {
        std::size_t best = 0;
        Cycle best_start = pipes_[0].earliest(t, dur);
        for (std::size_t i = 1; i < pipes_.size(); ++i) {
            Cycle s = pipes_[i].earliest(t, dur);
            if (s < best_start) {
                best_start = s;
                best = i;
            }
        }
        pipes_[best].book(best_start, dur);
        maybePrune(t);
        return best_start;
    }

    /** Earliest start >= @p t across instances, without booking. */
    Cycle
    earliestAvailable(Cycle t, unsigned dur) const
    {
        Cycle best = pipes_[0].earliest(t, dur);
        for (std::size_t i = 1; i < pipes_.size(); ++i)
            best = std::min(best, pipes_[i].earliest(t, dur));
        return best;
    }

    /**
     * Book an instance at exactly @p t (an in-order machine cannot
     * slide the booking). @p t must come from earliestAvailable().
     */
    void
    bookAt(Cycle t, unsigned dur)
    {
        for (auto &p : pipes_) {
            if (p.earliest(t, dur) == t) {
                p.book(t, dur);
                maybePrune(t);
                return;
            }
        }
        lvp_panic("bookAt: no instance free at the requested cycle");
    }

  private:
    void
    maybePrune(Cycle t)
    {
        if (++opsSincePrune_ >= 4096) {
            opsSincePrune_ = 0;
            for (auto &p : pipes_)
                p.prune(t > 512 ? t - 512 : 0);
        }
    }

    std::vector<FuPipe> pipes_;
    unsigned opsSincePrune_ = 0;
};

/**
 * A resource with @p capacity units, each claimed until a known
 * release cycle. earliestAvailable() is the first cycle a new claim
 * can coexist with previous ones. Only the largest @p capacity
 * release times can constrain, so older ones are discarded.
 *
 * The kept release times sit in ascending order in a fixed ring, the
 * smallest at its head. A claim evicts the smallest when
 * the pool is full and inserts from the newest end, so a claim no
 * earlier than every kept one (completion-buffer and rename claims,
 * which follow in-order completion) is an append, and any other moves
 * at most @p capacity - 1 entries.
 */
class ResourcePool
{
  public:
    explicit ResourcePool(unsigned capacity)
        : cap_(capacity), mask_(std::bit_ceil(capacity) - 1),
          ring_(std::bit_ceil(capacity))
    {}

    Cycle
    earliestAvailable() const
    {
        if (cap_ == 0)
            return 0; // treated as unlimited
        return size_ < cap_ ? 0 : ring_[head_ & mask_];
    }

    void
    claim(Cycle release)
    {
        if (cap_ == 0)
            return;
        if (size_ == cap_) {
            // Full: the new release replaces the smallest kept one
            // (which can no longer constrain anything) unless it is
            // itself the smallest.
            if (release <= ring_[head_ & mask_])
                return;
            ++head_;
            --size_;
        }
        unsigned i = head_ + size_;
        while (i != head_ && ring_[(i - 1) & mask_] > release) {
            ring_[i & mask_] = ring_[(i - 1) & mask_];
            --i;
        }
        ring_[i & mask_] = release;
        ++size_;
    }

    unsigned capacity() const { return cap_; }

  private:
    unsigned cap_;
    unsigned mask_;            ///< ring size (a power of two) - 1
    unsigned head_ = 0;        ///< free-running index of the smallest
    unsigned size_ = 0;
    std::vector<Cycle> ring_;
};

/** Enforces at most @p width events per cycle, non-decreasing. */
class SlotCounter
{
  public:
    explicit SlotCounter(unsigned width) : width_(width) {}

    /** First cycle >= @p t with a free slot (without claiming). */
    Cycle
    earliest(Cycle t) const
    {
        if (t > cycle_)
            return t;
        return count_ < width_ ? cycle_ : cycle_ + 1;
    }

    /** Claim a slot at @p t; @p t must be >= earliest(t). */
    void
    claim(Cycle t)
    {
        lvp_assert(t >= cycle_, "slot claim in the past");
        if (t > cycle_) {
            cycle_ = t;
            count_ = 1;
        } else {
            ++count_;
            lvp_assert(count_ <= width_, "slot overflow");
        }
    }

    Cycle cycle() const { return cycle_; }

  private:
    unsigned width_;
    Cycle cycle_ = 0;
    unsigned count_ = 0;
};

/**
 * L1 bank occupancy: one access per bank per cycle, loads have
 * priority, stores retry on conflict. Tracks the number of distinct
 * cycles in which at least one conflict occurred (paper Figure 9).
 * Ring-buffered: assumes bookings stay within the horizon of the most
 * recent cycle seen, which holds for bounded-window pipelines.
 *
 * Each (cycle slot, bank) cell packs the occupancy flags with a tag
 * naming which of the cycles sharing the slot (Horizon apart) they
 * belong to, in 32 bits.
 */
class BankTracker
{
  public:
    explicit BankTracker(unsigned banks)
        : banks_(banks), cells_(banks * Horizon), conflictTag_(Horizon)
    {}

    /**
     * Book a load access at the first cycle >= @p t where @p bank has
     * no load yet. A delay counts as a conflict in the cycle where the
     * load was blocked.
     */
    Cycle
    bookLoad(Cycle t, unsigned bank)
    {
        Cycle c = t;
        while (loadBusy(c, bank)) {
            markConflict(c);
            ++c;
        }
        setLoad(c, bank);
        return c;
    }

    /**
     * Try to book a load access at exactly cycle @p t: succeeds and
     * books when the bank is free of loads, otherwise does nothing.
     * Used for CVU-verified constant loads, whose access is cancelled
     * rather than retried when it would conflict (paper Section 3.4).
     */
    bool
    tryBookLoad(Cycle t, unsigned bank)
    {
        if (loadBusy(t, bank))
            return false;
        setLoad(t, bank);
        return true;
    }

    /**
     * Book a store access at the first cycle >= @p t where @p bank is
     * completely free; each blocked cycle is a conflict cycle.
     */
    Cycle
    bookStore(Cycle t, unsigned bank)
    {
        Cycle c = t;
        while (busy(c, bank)) {
            markConflict(c);
            ++c;
        }
        setStore(c, bank);
        return c;
    }

    /** Distinct cycles in which at least one conflict occurred. */
    std::uint64_t conflictCycles() const { return conflictCycles_; }

    unsigned banks() const { return banks_; }

  private:
    static constexpr unsigned HorizonBits = 14;
    static constexpr std::size_t Horizon = std::size_t(1) << HorizonBits;
    static constexpr std::uint32_t LoadBit = 1;
    static constexpr std::uint32_t StoreBit = 2;
    static constexpr std::uint32_t FlagMask = LoadBit | StoreBit;

    /** Tags run from 1 (0 marks a never-written cell) and must fit
     *  beside the flags, which bounds the cycles this can track. */
    static constexpr Cycle MaxCycle =
        (Cycle(1) << (32 - 2 + HorizonBits)) - Horizon;

    /** The tag of cycle @p c: its epoch (c / Horizon) + 1, shifted
     *  past the flag bits. */
    static std::uint32_t
    tag(Cycle c)
    {
        lvp_assert(c < MaxCycle, "bank booking beyond the tracked range");
        return static_cast<std::uint32_t>((c >> HorizonBits) + 1) << 2;
    }

    std::size_t
    cell(Cycle c, unsigned bank) const
    {
        return (c & (Horizon - 1)) * banks_ + bank;
    }

    std::uint32_t
    flags(Cycle c, unsigned bank) const
    {
        std::uint32_t v = cells_[cell(c, bank)];
        return (v & ~FlagMask) == tag(c) ? v & FlagMask : 0;
    }

    void
    orFlags(Cycle c, unsigned bank, std::uint32_t bits)
    {
        std::uint32_t &v = cells_[cell(c, bank)];
        if ((v & ~FlagMask) != tag(c))
            v = tag(c);
        v |= bits;
    }

    bool loadBusy(Cycle c, unsigned b) const
    {
        return (flags(c, b) & LoadBit) != 0;
    }
    bool busy(Cycle c, unsigned b) const { return flags(c, b) != 0; }
    void setLoad(Cycle c, unsigned b) { orFlags(c, b, LoadBit); }
    void setStore(Cycle c, unsigned b) { orFlags(c, b, StoreBit); }

    void
    markConflict(Cycle c)
    {
        std::uint32_t &v = conflictTag_[c & (Horizon - 1)];
        if (v != tag(c)) {
            v = tag(c);
            ++conflictCycles_;
        }
    }

    unsigned banks_;
    std::vector<std::uint32_t> cells_;       ///< tag | flags per slot, bank
    std::vector<std::uint32_t> conflictTag_; ///< tag of each slot's
                                             ///< last conflict cycle
    std::uint64_t conflictCycles_ = 0;
};

} // namespace lvplib::uarch

#endif // LVPLIB_UARCH_SCHED_HH
