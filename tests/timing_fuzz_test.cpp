/**
 * @file
 * Invariant fuzzing of the timing models. Each seed's random program
 * (random_program.hh) is interpreted once; its loads get random
 * PredState annotations, and the trace, repeated until every FU
 * calendar is pruned several times, replays through the 620, the 620+,
 * the 620 with squash recovery and the 21164. The properties hold for
 * any correct model, whatever its data structures:
 *
 *  - no machine beats its dispatch width (cycles >= insts / width);
 *  - each annotated load is predicted at most once;
 *  - a replay is deterministic, and batched replay equals
 *    record-at-a-time replay;
 *  - an LVP machine fed only None annotations times exactly like the
 *    machine without LVP fed the random annotations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "isa/program.hh"
#include "random_program.hh"
#include "trace/trace.hh"
#include "uarch/alpha21164.hh"
#include "uarch/machine_config.hh"
#include "uarch/ppc620.hh"
#include "util/rng.hh"
#include "vm/interpreter.hh"

namespace lvplib::uarch
{
namespace
{

using trace::PredState;
using trace::TraceRecord;

/** Copies of the program's trace, this many times in a row. */
constexpr int Repeats = 48;

struct Capture : trace::TraceSink
{
    std::vector<TraceRecord> recs;

    void
    consume(const TraceRecord &rec) override
    {
        recs.push_back(rec);
    }
};

/** The trace of @p p, repeated, with every load annotated at random;
 *  @p annotated counts the loads not left at None. */
std::vector<TraceRecord>
fuzzTrace(const isa::Program &p, int seed, std::uint64_t &annotated)
{
    vm::Interpreter interp(p);
    Capture cap;
    interp.run(&cap);
    EXPECT_TRUE(interp.halted());

    Rng rng(static_cast<std::uint64_t>(seed) + 0x5eed);
    std::vector<TraceRecord> out;
    out.reserve(cap.recs.size() * Repeats);
    annotated = 0;
    for (int r = 0; r < Repeats; ++r) {
        for (TraceRecord rec : cap.recs) {
            if (rec.inst->load()) {
                rec.pred = static_cast<PredState>(
                    rng.below(trace::NumPredStates));
                if (rec.pred != PredState::None)
                    ++annotated;
            }
            out.push_back(rec);
        }
    }
    return out;
}

std::vector<TraceRecord>
withoutAnnotations(std::vector<TraceRecord> recs)
{
    for (TraceRecord &rec : recs)
        rec.pred = PredState::None;
    return recs;
}

/**
 * Replay @p recs into a fresh @p Model and return its statistics:
 * record at a time when @p chunk_seed is 0, otherwise in batches of
 * random length drawn from it.
 */
template <typename Model, typename Config>
auto
replay(const Config &cfg, bool lvp, const std::vector<TraceRecord> &recs,
       std::uint64_t chunk_seed = 0)
{
    Model m(cfg, lvp);
    if (chunk_seed == 0) {
        for (const TraceRecord &rec : recs)
            m.consume(rec);
    } else {
        Rng rng(chunk_seed);
        std::span<const TraceRecord> rest(recs);
        while (!rest.empty()) {
            std::size_t n = std::min<std::size_t>(rest.size(),
                                                  1 + rng.below(700));
            m.consumeBatch(rest.first(n));
            rest = rest.subspan(n);
        }
    }
    m.finish();
    return m.stats();
}

std::uint64_t
countLoads(const std::vector<TraceRecord> &recs)
{
    return static_cast<std::uint64_t>(
        std::count_if(recs.begin(), recs.end(), [](const TraceRecord &r) {
            return r.inst->load();
        }));
}

class TimingFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(TimingFuzz, OutOfOrderInvariants)
{
    isa::Program p = testutil::randomProgram(GetParam());
    std::uint64_t annotated = 0;
    const auto recs = fuzzTrace(p, GetParam(), annotated);
    const auto plain = withoutAnnotations(recs);
    const std::uint64_t loads = countLoads(recs);
    ASSERT_GT(annotated, 0u);

    Ppc620Config squash = Ppc620Config::base620();
    squash.squashOnValueMispredict = true;
    for (const Ppc620Config &cfg :
         {Ppc620Config::base620(), Ppc620Config::plus620(), squash}) {
        SCOPED_TRACE(cfg.name + (cfg.squashOnValueMispredict
                                     ? " squash"
                                     : " reissue"));
        const OooStats s = replay<Ppc620Model>(cfg, true, recs);
        EXPECT_EQ(s.instructions, recs.size());
        EXPECT_EQ(s.loads, loads);
        EXPECT_GE(s.cycles * cfg.dispatchWidth, s.instructions);
        EXPECT_LE(s.predictedLoads, s.loads);
        EXPECT_EQ(s.predictedLoads, annotated);

        EXPECT_EQ(replay<Ppc620Model>(cfg, true, recs), s)
            << "replay is not deterministic";
        EXPECT_EQ(replay<Ppc620Model>(cfg, true, recs,
                                      1 + GetParam()),
                  s)
            << "batched replay differs";

        const OooStats off = replay<Ppc620Model>(cfg, false, recs);
        EXPECT_EQ(off.predictedLoads, 0u);
        EXPECT_EQ(replay<Ppc620Model>(cfg, true, plain), off)
            << "None annotations with LVP differ from no LVP";
    }
}

TEST_P(TimingFuzz, InOrderInvariants)
{
    isa::Program p = testutil::randomProgram(GetParam());
    std::uint64_t annotated = 0;
    const auto recs = fuzzTrace(p, GetParam(), annotated);
    const auto plain = withoutAnnotations(recs);
    const AlphaConfig cfg = AlphaConfig::base21164();

    const InOrderStats s = replay<Alpha21164Model>(cfg, true, recs);
    EXPECT_EQ(s.instructions, recs.size());
    EXPECT_EQ(s.loads, countLoads(recs));
    EXPECT_GE(s.cycles * cfg.width, s.instructions);
    EXPECT_LE(s.predictedLoads, s.loads);
    // A prediction is used, or dropped on an L1 miss; never both.
    EXPECT_EQ(s.predictedLoads + s.droppedPredictions, annotated);

    EXPECT_EQ(replay<Alpha21164Model>(cfg, true, recs), s)
        << "replay is not deterministic";
    EXPECT_EQ(replay<Alpha21164Model>(cfg, true, recs, 1 + GetParam()),
              s)
        << "batched replay differs";

    const InOrderStats off = replay<Alpha21164Model>(cfg, false, recs);
    EXPECT_EQ(off.predictedLoads, 0u);
    EXPECT_EQ(replay<Alpha21164Model>(cfg, true, plain), off)
        << "None annotations with LVP differ from no LVP";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimingFuzz, ::testing::Range(0, 16));

} // namespace
} // namespace lvplib::uarch
