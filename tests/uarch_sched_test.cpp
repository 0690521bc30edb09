/**
 * @file
 * Unit tests for the scheduling primitives (FU calendars, resource
 * pools, slot counters, bank tracking) and the branch predictor, with
 * the calendar and the pool checked against their earlier
 * implementations as oracles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "trace/trace.hh"
#include "uarch/bpred.hh"
#include "uarch/sched.hh"
#include "util/rng.hh"

namespace lvplib::uarch
{
namespace
{

TEST(FuPipe, BooksSequentially)
{
    FuPipe p;
    EXPECT_EQ(p.earliest(5, 1), 5u);
    p.book(5, 1);
    EXPECT_EQ(p.earliest(5, 1), 6u);
    p.book(6, 2);
    EXPECT_EQ(p.earliest(5, 1), 8u);
}

TEST(FuPipe, GapFilling)
{
    FuPipe p;
    p.book(10, 5); // busy [10,15)
    EXPECT_EQ(p.earliest(2, 3), 2u) << "gap before the booking";
    p.book(2, 3); // busy [2,5)
    EXPECT_EQ(p.earliest(0, 2), 0u);
    EXPECT_EQ(p.earliest(3, 2), 5u) << "[5,7) fits between bookings";
    EXPECT_EQ(p.earliest(3, 6), 15u) << "6 cycles only fit after";
}

TEST(FuPipe, PruneDropsOldIntervals)
{
    FuPipe p;
    p.book(1, 1);
    p.book(100, 1);
    p.prune(50);
    EXPECT_EQ(p.intervals(), 1u) << "old interval pruned";
    EXPECT_EQ(p.earliest(50, 1), 50u) << "idle from the horizon on";
    EXPECT_EQ(p.earliest(100, 1), 101u) << "recent interval kept";
}

#ifdef LVPLIB_DEVELOPER_CHECKS
TEST(FuPipeDeathTest, QueryBelowPruneHorizonPanics)
{
    // Below the horizon a pruned interval would read as idle, so the
    // answer would depend on when pruning ran.
    FuPipe p;
    p.book(1, 1);
    p.book(100, 1);
    p.prune(50);
    EXPECT_DEATH(p.earliest(49, 1), "prune horizon");
}
#endif

TEST(FuBank, PicksLeastLoadedInstance)
{
    FuBank b(2);
    EXPECT_EQ(b.book(3, 4), 3u); // instance 0 busy [3,7)
    EXPECT_EQ(b.book(3, 4), 3u); // instance 1 busy [3,7)
    EXPECT_EQ(b.book(3, 4), 7u); // both busy: next slot
}

TEST(FuBank, EarliestAvailableAndBookAt)
{
    FuBank b(1);
    b.book(2, 3); // [2,5)
    EXPECT_EQ(b.earliestAvailable(2, 1), 5u);
    b.bookAt(5, 1);
    EXPECT_EQ(b.earliestAvailable(5, 1), 6u);
}

TEST(ResourcePool, UnconstrainedUntilFull)
{
    ResourcePool p(2);
    EXPECT_EQ(p.earliestAvailable(), 0u);
    p.claim(10);
    EXPECT_EQ(p.earliestAvailable(), 0u);
    p.claim(20);
    EXPECT_EQ(p.earliestAvailable(), 10u)
        << "third claimant waits for the earliest release";
    p.claim(15);
    EXPECT_EQ(p.earliestAvailable(), 15u)
        << "10 released; now {15,20} are outstanding";
}

TEST(ResourcePool, ZeroCapacityMeansUnlimited)
{
    ResourcePool p(0);
    p.claim(100);
    EXPECT_EQ(p.earliestAvailable(), 0u);
}

/*
 * Oracles: the calendar and the pool as they were before the
 * back-scan and the sorted ring, driven side by side with the current
 * ones by seeded random sequences. Every return value must agree.
 */
namespace oracle
{

/** FuPipe with the original binary-search lookup. */
class BinarySearchFuPipe
{
  public:
    Cycle
    earliest(Cycle t, unsigned dur) const
    {
        Cycle cand = t;
        auto it = upperBound(t);
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

    void
    book(Cycle start, unsigned dur)
    {
        if (busy_.empty() || busy_.back().first < start) {
            busy_.emplace_back(start, start + dur);
            return;
        }
        busy_.insert(upperBound(start), {start, start + dur});
    }

    void
    prune(Cycle before)
    {
        auto it = busy_.begin();
        while (it != busy_.end() && it->second <= before)
            ++it;
        busy_.erase(busy_.begin(), it);
    }

    std::size_t intervals() const { return busy_.size(); }

  private:
    using Interval = std::pair<Cycle, Cycle>;

    std::vector<Interval>::const_iterator
    upperBound(Cycle t) const
    {
        return std::upper_bound(
            busy_.begin(), busy_.end(), t,
            [](Cycle c, const Interval &iv) { return c < iv.first; });
    }

    std::vector<Interval> busy_;
};

/** ResourcePool as a bounded min-heap of the kept release times. */
class HeapResourcePool
{
  public:
    explicit HeapResourcePool(unsigned capacity) : cap_(capacity) {}

    Cycle
    earliestAvailable() const
    {
        if (cap_ == 0)
            return 0;
        return releases_.size() < cap_ ? 0 : releases_.front();
    }

    void
    claim(Cycle release)
    {
        if (cap_ == 0)
            return;
        if (releases_.size() < cap_) {
            releases_.push_back(release);
            std::push_heap(releases_.begin(), releases_.end(), cmp_);
            return;
        }
        if (release <= releases_.front())
            return;
        std::pop_heap(releases_.begin(), releases_.end(), cmp_);
        releases_.back() = release;
        std::push_heap(releases_.begin(), releases_.end(), cmp_);
    }

  private:
    static constexpr auto cmp_ = [](Cycle a, Cycle b) { return a > b; };

    unsigned cap_;
    std::vector<Cycle> releases_;
};

} // namespace oracle

/**
 * One seeded sequence of earliest/book/prune against both calendars.
 * Queries trail a slowly advancing cursor by up to 64 cycles, so
 * younger bookings fill gaps left before older ones; durations mix
 * the pipelined 1 with the 620's long divides; every prune stays more
 * than 64 cycles behind the cursor, as the owning FuBank's does.
 *
 * Counts the gap-filling bookings (before the newest one) in
 * @p gap_fills.
 */
void
checkCalendarAgainstOracle(std::uint64_t seed, unsigned ops,
                           std::size_t &gap_fills)
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    FuPipe fast;
    oracle::BinarySearchFuPipe ref;
    const unsigned long_durs[] = {2, 3, 18, 35};
    Cycle cursor = 600, newest = 0;
    gap_fills = 0;
    for (unsigned i = 0; i < ops; ++i) {
        // The cursor outruns the booked cycles (about 2.7 cycles per
        // op against 2), so the calendar stays near the cursor.
        cursor += rng.below(4);
        if (rng.below(16) == 0)
            cursor += rng.below(40);
        Cycle t = cursor - rng.below(65);
        if (rng.below(8) == 0)
            t = cursor + rng.below(200);
        unsigned dur = rng.below(8) == 0 ? long_durs[rng.below(4)] : 1;
        Cycle got = fast.earliest(t, dur);
        ASSERT_EQ(got, ref.earliest(t, dur))
            << "op " << i << ": earliest(" << t << ", " << dur << ")";
        if (rng.below(4) != 0) {
            fast.book(got, dur);
            ref.book(got, dur);
            if (got < newest)
                ++gap_fills;
            newest = std::max(newest, got);
        }
        if (rng.below(512) == 0) {
            Cycle before = cursor - 65 - rng.below(512);
            fast.prune(before);
            ref.prune(before);
            ASSERT_EQ(fast.intervals(), ref.intervals()) << "op " << i;
        }
    }
    EXPECT_EQ(fast.intervals(), ref.intervals());
}

TEST(FuPipeOracle, MatchesBinarySearchCalendar)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        std::size_t gap_fills = 0;
        checkCalendarAgainstOracle(seed, 20000, gap_fills);
        // Without mid-calendar inserts the comparison would cover
        // appends only.
        EXPECT_GT(gap_fills, 1000u) << "seed " << seed;
    }
}

/**
 * One seeded claim sequence against both pools. Monotone sequences
 * model completion-buffer and rename claims (complete + 1, in order);
 * non-monotone ones model reservation stations, whose release times
 * jump back and forth, with ties.
 */
void
checkPoolAgainstOracle(unsigned capacity, bool monotone,
                       std::uint64_t seed)
{
    SCOPED_TRACE("capacity " + std::to_string(capacity) +
                 (monotone ? " monotone" : " non-monotone") + " seed " +
                 std::to_string(seed));
    Rng rng(seed);
    ResourcePool fast(capacity);
    oracle::HeapResourcePool ref(capacity);
    EXPECT_EQ(fast.capacity(), capacity);
    Cycle base = 0;
    for (int i = 0; i < 4000; ++i) {
        base += rng.below(3);
        Cycle release = monotone ? base : base + rng.below(48);
        if (!monotone && rng.below(10) == 0)
            release = base > 20 ? base - rng.below(20) : base;
        fast.claim(release);
        ref.claim(release);
        ASSERT_EQ(fast.earliestAvailable(), ref.earliestAvailable())
            << "after claim " << i << " of " << release;
    }
}

TEST(ResourcePoolOracle, MatchesHeapPool)
{
    for (unsigned cap : {0u, 1u, 2u, 8u, 16u, 32u})
        for (bool monotone : {true, false})
            for (std::uint64_t seed = 1; seed <= 8; ++seed)
                checkPoolAgainstOracle(cap, monotone, seed);
}

TEST(SlotCounter, EnforcesPerCycleWidth)
{
    SlotCounter s(2);
    EXPECT_EQ(s.earliest(5), 5u);
    s.claim(5);
    EXPECT_EQ(s.earliest(5), 5u);
    s.claim(5);
    EXPECT_EQ(s.earliest(5), 6u) << "width 2 exhausted at cycle 5";
    s.claim(6);
    EXPECT_EQ(s.earliest(3), 6u) << "cannot claim in the past";
}

TEST(BankTracker, LoadsShareDistinctBanks)
{
    BankTracker b(2);
    EXPECT_EQ(b.bookLoad(10, 0), 10u);
    EXPECT_EQ(b.bookLoad(10, 1), 10u);
    EXPECT_EQ(b.conflictCycles(), 0u);
}

TEST(BankTracker, SecondLoadToSameBankDelays)
{
    BankTracker b(2);
    b.bookLoad(10, 0);
    EXPECT_EQ(b.bookLoad(10, 0), 11u);
    EXPECT_EQ(b.conflictCycles(), 1u);
}

TEST(BankTracker, StoreYieldsToLoad)
{
    BankTracker b(2);
    b.bookLoad(10, 0);
    EXPECT_EQ(b.bookStore(10, 0), 11u)
        << "the store must wait and retry the next cycle";
    EXPECT_EQ(b.conflictCycles(), 1u);
    EXPECT_EQ(b.bookStore(12, 1), 12u) << "other bank is free";
    EXPECT_EQ(b.conflictCycles(), 1u);
}

TEST(BankTracker, ConflictCyclesCountedOnce)
{
    BankTracker b(2);
    b.bookLoad(10, 0);
    b.bookStore(10, 0); // conflict at 10
    b.bookLoad(10, 0);  // also blocked at 10 (and now 11 busy)
    EXPECT_GE(b.conflictCycles(), 1u);
    // cycle 10 counted exactly once even with two conflicts there.
    BankTracker c(2);
    c.bookLoad(10, 0);
    c.bookStore(10, 0);
    auto after_one = c.conflictCycles();
    EXPECT_EQ(after_one, 1u);
}

namespace bp
{

isa::Instruction condBr{.op = isa::Opcode::BC,
                        .rs1 = isa::CrBase,
                        .cond = isa::Cond::LT};
isa::Instruction retBr{.op = isa::Opcode::BLR};

trace::TraceRecord
branchRec(const isa::Instruction &inst, Addr pc, bool taken, Addr next)
{
    trace::TraceRecord r;
    r.pc = pc;
    r.inst = &inst;
    r.taken = taken;
    r.nextPc = next;
    return r;
}

} // namespace bp

TEST(BranchPredictor, LearnsBiasedBranch)
{
    BranchPredictor p;
    Addr pc = isa::layout::CodeBase;
    // Always-taken branch: after warmup it always predicts correctly.
    int wrong = 0;
    for (int i = 0; i < 100; ++i)
        if (!p.predict(bp::branchRec(bp::condBr, pc, true, pc + 64)))
            ++wrong;
    EXPECT_LE(wrong, 1) << "2-bit counter warms up in <= 1 step";
}

TEST(BranchPredictor, LoopExitMispredictsOncePerLoop)
{
    BranchPredictor p;
    Addr pc = isa::layout::CodeBase;
    // 9 taken iterations + 1 not-taken exit, repeated.
    for (int rep = 0; rep < 3; ++rep)
        for (int i = 0; i < 10; ++i)
            p.predict(bp::branchRec(bp::condBr, pc, i != 9, pc + 4));
    // Expect roughly one mispredict per loop execution (the exit),
    // plus at most one retraining mispredict per re-entry.
    EXPECT_LE(p.mispredicts(), 6u);
    EXPECT_GE(p.mispredicts(), 3u);
}

TEST(BranchPredictor, IndirectTargetLearnedByBtb)
{
    BranchPredictor p;
    Addr pc = isa::layout::CodeBase;
    Addr t1 = pc + 100 * 4;
    EXPECT_FALSE(p.predict(bp::branchRec(bp::retBr, pc, true, t1)))
        << "cold BTB cannot know the target";
    EXPECT_TRUE(p.predict(bp::branchRec(bp::retBr, pc, true, t1)));
    Addr t2 = pc + 200 * 4;
    EXPECT_FALSE(p.predict(bp::branchRec(bp::retBr, pc, true, t2)))
        << "target changed";
    EXPECT_TRUE(p.predict(bp::branchRec(bp::retBr, pc, true, t2)));
}

TEST(BranchPredictor, DirectUnconditionalAlwaysCorrect)
{
    BranchPredictor p;
    isa::Instruction b{.op = isa::Opcode::B, .imm = 0x10040};
    isa::Instruction bl{.op = isa::Opcode::BL, .imm = 0x10080};
    EXPECT_TRUE(p.predict(bp::branchRec(b, isa::layout::CodeBase, true,
                                        0x10040)));
    EXPECT_TRUE(p.predict(bp::branchRec(bl, isa::layout::CodeBase,
                                        true, 0x10080)));
    EXPECT_EQ(p.mispredictRate(), 0.0);
}


TEST(BranchPredictor, GshareLearnsAlternatingPattern)
{
    // Period-2 alternation: a bimodal 2-bit counter hovers and
    // mispredicts half the time; gshare with >=1 history bit locks on.
    Addr pc = isa::layout::CodeBase;
    auto run = [&](std::uint32_t bits) {
        BpredConfig cfg;
        cfg.gshareBits = bits;
        BranchPredictor p(cfg);
        std::uint64_t wrong = 0;
        for (int i = 0; i < 400; ++i)
            if (!p.predict(bp::branchRec(bp::condBr, pc, i % 2 == 0,
                                         pc + 4)))
                ++wrong;
        return wrong;
    };
    auto bimodal = run(0);
    auto gshare = run(4);
    EXPECT_GT(bimodal, 100u);
    EXPECT_LT(gshare, 20u);
}

TEST(BranchPredictor, GshareZeroBitsMatchesBimodal)
{
    Addr pc = isa::layout::CodeBase;
    BpredConfig cfg; // gshareBits = 0
    BranchPredictor a(cfg);
    BranchPredictor b;
    for (int i = 0; i < 200; ++i) {
        bool taken = (i * 7) % 3 != 0;
        EXPECT_EQ(a.predict(bp::branchRec(bp::condBr, pc, taken, pc)),
                  b.predict(bp::branchRec(bp::condBr, pc, taken, pc)));
    }
}

TEST(BranchPredictor, ResetForgets)
{
    BranchPredictor p;
    Addr pc = isa::layout::CodeBase;
    Addr t1 = pc + 400;
    p.predict(bp::branchRec(bp::retBr, pc, true, t1));
    p.reset();
    EXPECT_EQ(p.branches(), 0u);
    EXPECT_FALSE(p.predict(bp::branchRec(bp::retBr, pc, true, t1)));
}

} // namespace
} // namespace lvplib::uarch
