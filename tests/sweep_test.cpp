/**
 * @file
 * RunCache::sweep against the per-variant in-memory reference runs. A
 * mixed sweep — baseline 620, 620+ and 21164 machines, LVP
 * configurations shared by two machines, every registry predictor
 * alone and in front of a machine, and a duplicated variant — must
 * equal runPredictorOnly / runPpc620 / runAlpha21164 field by field at
 * every shard count, with a cold trace cache, a warm one, and none,
 * reading the trace once per shard group. A run cut short by
 * maxInstructions must give the same results on every path. Also pins
 * the instruction counter (a sweep plus a locality profile count the
 * same records cold or warm), the chaos gate on group sharding, and
 * group-sharded sweeps of the shared RunCache against their serial
 * selves.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <variant>
#include <vector>

#include "chaos/chaos.hh"
#include "core/lvp_unit.hh"
#include "sim/parallel.hh"
#include "sim/pipeline_driver.hh"
#include "sim/run_cache.hh"
#include "trace/trace.hh"
#include "uarch/alpha21164.hh"
#include "uarch/machine_config.hh"
#include "uarch/ppc620.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

namespace lvplib
{
namespace
{

using core::LvpConfig;
using sim::SweepRun;
using sim::SweepVariant;
using uarch::AlphaConfig;
using uarch::Ppc620Config;
using workloads::CodeGen;

/** A sweep variant plus, for an LVP unit, the LvpConfig the
 *  pipeline_driver reference takes. */
struct Case
{
    SweepVariant variant;
    std::optional<LvpConfig> lvp;
};

std::vector<Case>
mixedCases()
{
    const LvpConfig simple = LvpConfig::simple();
    const LvpConfig constant = LvpConfig::constant();
    std::vector<Case> cases = {
        {{std::nullopt, Ppc620Config::base620()}, std::nullopt},
        {{std::nullopt, Ppc620Config::plus620()}, std::nullopt},
        {{std::nullopt, AlphaConfig::base21164()}, std::nullopt},
        {{core::lvpPredictor(simple), Ppc620Config::base620()}, simple},
        {{core::lvpPredictor(simple), Ppc620Config::plus620()}, simple},
        {{core::lvpPredictor(constant), AlphaConfig::base21164()},
         constant},
        {{core::lvpPredictor(constant), Ppc620Config::base620()},
         constant},
    };
    const decltype(SweepVariant::machine) machines[] = {
        Ppc620Config::base620(), Ppc620Config::plus620(),
        AlphaConfig::base21164()};
    std::size_t m = 0;
    for (const auto &info : core::predictorRegistry()) {
        // The registry's "lvp" entry is the Simple unit, so its timed
        // reference can go through runPpc620 / runAlpha21164 too.
        std::optional<LvpConfig> lvp;
        if (info.name == "lvp")
            lvp = simple;
        cases.push_back({{info, {}}, std::nullopt});
        cases.push_back({{info, machines[m++ % 3]}, lvp});
    }
    cases.push_back(cases[3]); // a duplicated variant
    return cases;
}

std::vector<SweepVariant>
variantsOf(const std::vector<Case> &cases)
{
    std::vector<SweepVariant> out;
    for (const auto &c : cases)
        out.push_back(c.variant);
    return out;
}

/**
 * @p v run by hand into one sink chain, cut at @p maxInstructions. A
 * run cut short is finished, as the end of a trace replay finishes
 * it. Also the reference for a registry predictor in front of a
 * machine: pipeline_driver's timed runs take an LvpConfig only.
 */
SweepRun
handRun(const isa::Program &prog, const SweepVariant &v,
        std::uint64_t maxInstructions)
{
    const bool lvp = v.predictor.has_value();
    std::optional<uarch::Ppc620Model> ppc;
    std::optional<uarch::Alpha21164Model> alpha;
    trace::NullSink null;
    trace::TraceSink *head = &null;
    if (const auto *mc = std::get_if<Ppc620Config>(&v.machine))
        head = &ppc.emplace(*mc, lvp);
    else if (const auto *ac = std::get_if<AlphaConfig>(&v.machine))
        head = &alpha.emplace(*ac, lvp);
    std::optional<core::PredictorAnnotator> annot;
    if (lvp)
        head = &annot.emplace(*v.predictor, *head);
    vm::Interpreter interp(prog);
    interp.run(head, maxInstructions);
    if (!interp.halted())
        head->finish();
    SweepRun r;
    if (annot)
        r.lvp = annot->unit().stats();
    if (ppc)
        r.timing = ppc->stats();
    else if (alpha)
        r.timing = alpha->stats();
    return r;
}

/** The per-variant in-memory reference run. */
SweepRun
reference(const isa::Program &prog, const Case &c)
{
    const SweepVariant &v = c.variant;
    SweepRun r;
    if (v.predictor && !c.lvp &&
        !std::holds_alternative<std::monostate>(v.machine))
        return handRun(prog, v, sim::RunConfig{}.maxInstructions);
    if (const auto *mc = std::get_if<Ppc620Config>(&v.machine)) {
        auto run = sim::runPpc620(prog, *mc, c.lvp);
        r.lvp = run.lvp;
        r.timing = run.timing;
    } else if (const auto *ac = std::get_if<AlphaConfig>(&v.machine)) {
        auto run = sim::runAlpha21164(prog, *ac, c.lvp);
        r.lvp = run.lvp;
        r.timing = run.timing;
    } else {
        r.lvp = sim::runPredictorOnly(prog, *v.predictor);
    }
    return r;
}

void
expectSameRun(const SweepRun &got, const SweepRun &want,
              const std::string &what)
{
    EXPECT_TRUE(got.lvp == want.lvp) << what << ": LvpStats differ";
    EXPECT_EQ(got.timing.index(), want.timing.index()) << what;
    EXPECT_TRUE(got.timing == want.timing) << what << ": timing differs";
}

/** A private cache over a fresh trace directory; restores the shard
 *  count on exit. */
struct SweepFixture
{
    std::filesystem::path dir;
    sim::RunCache cache;

    explicit SweepFixture(const char *tag)
        : dir(std::filesystem::temp_directory_path() /
              (std::string("lvplib-sweep-") + tag + "-" +
               std::to_string(::getpid())))
    {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        cache.setTraceDir(dir.string());
    }

    ~SweepFixture()
    {
        sim::setShardJobs(0);
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
};

/**
 * Call @p check(what, state, shards) after setting up each sweep path
 * in turn: shards 1 and 4, each with a cold trace cache, a warm one
 * and none, from a cleared memo.
 */
template <typename Check>
void
forEachPath(SweepFixture &fx, Check check)
{
    for (unsigned shards : {1u, 4u}) {
        sim::setShardJobs(shards);
        for (const std::string state : {"cold", "warm", "no-cache"}) {
            if (state == "cold") {
                std::filesystem::remove_all(fx.dir);
                std::filesystem::create_directories(fx.dir);
            }
            fx.cache.setTraceDir(state == "no-cache" ? ""
                                                     : fx.dir.string());
            fx.cache.clear();
            check(state + " shards=" + std::to_string(shards), state,
                  shards);
        }
    }
}

/** The variants' SweepTree units: distinct predictors plus baseline
 *  machines. */
std::size_t
unitCount(const std::vector<SweepVariant> &variants)
{
    std::set<std::string> preds;
    std::size_t baselines = 0;
    for (const auto &v : variants) {
        if (v.predictor)
            preds.insert(v.predictor->name);
        else
            ++baselines;
    }
    return preds.size() + baselines;
}

TEST(Sweep, MixedSweepMatchesPerVariantRuns)
{
    const auto &w = workloads::findWorkload("grep");
    const auto cases = mixedCases();
    const auto variants = variantsOf(cases);
    const isa::Program prog = w.build(CodeGen::Ppc, 1);
    std::vector<SweepRun> want;
    for (const auto &c : cases)
        want.push_back(reference(prog, c));

    SweepFixture fx("mixed");
    forEachPath(fx, [&](const std::string &what, const std::string &state,
                        unsigned shards) {
        auto got = fx.cache.sweep(w, CodeGen::Ppc, 1, variants,
                                  sim::RunConfig{});
        auto stats = fx.cache.stats();

        ASSERT_EQ(got.size(), cases.size()) << what;
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const auto &v = cases[i].variant;
            expectSameRun(got[i], want[i],
                          what + " variant " + std::to_string(i) + " (" +
                              (v.predictor ? v.predictor->name
                                           : "no predictor") +
                              ")");
        }
        // One annotator per distinct predictor: variants sharing one
        // report the very same unit's stats.
        EXPECT_TRUE(got[3].lvp == got[4].lvp) << what;
        EXPECT_TRUE(got[5].lvp == got[6].lvp) << what;
        for (std::size_t i = 7; i + 1 < cases.size(); i += 2)
            EXPECT_TRUE(got[i].lvp == got[i + 1].lvp)
                << what << " " << cases[i].variant.predictor->name;

        // One trace read per group of units: the whole sweep at
        // shards=1, one read per shard above that.
        const std::size_t reads =
            std::min<std::size_t>(shards, unitCount(variants));
        EXPECT_EQ(stats.traceReplays, state == "no-cache" ? 0u : reads)
            << what;
        EXPECT_EQ(stats.traceWrites, state == "cold" ? 1u : 0u) << what;
    });
}

TEST(Sweep, CutShortRunsMatchOnEveryPath)
{
    // maxInstructions stops grep long before it halts. Trace replay,
    // group sharding and the in-memory fallback must all finish the
    // machines of the cut-short run, as the hand-built chain does.
    const auto &w = workloads::findWorkload("grep");
    const auto variants = variantsOf(mixedCases());
    const isa::Program prog = w.build(CodeGen::Ppc, 1);
    sim::RunConfig rc;
    rc.maxInstructions = 4000;
    ASSERT_GT(sim::runFunctional(prog).stats.instructions(),
              rc.maxInstructions);
    std::vector<SweepRun> want;
    for (const auto &v : variants)
        want.push_back(handRun(prog, v, rc.maxInstructions));

    SweepFixture fx("cut");
    forEachPath(fx, [&](const std::string &what, const std::string &,
                        unsigned) {
        auto got = fx.cache.sweep(w, CodeGen::Ppc, 1, variants, rc);
        ASSERT_EQ(got.size(), variants.size()) << what;
        for (std::size_t i = 0; i < variants.size(); ++i)
            expectSameRun(got[i], want[i],
                          what + " variant " + std::to_string(i));
    });
}

TEST(Sweep, VariantWithoutPredictorOrMachineIsRejected)
{
    sim::RunCache cache;
    cache.setTraceDir("");
    EXPECT_THROW(cache.sweep(workloads::findWorkload("grep"),
                             CodeGen::Ppc, 1, {SweepVariant{}},
                             sim::RunConfig{}),
                 std::invalid_argument);
}

TEST(Sweep, InstructionCounterIsTheSameColdOrWarm)
{
    // Only consumed records count: each record once per computed
    // variant (and once for the locality profile), never the phase-1
    // interpretation that writes the trace.
    const auto &w = workloads::findWorkload("grep");
    const auto variants = variantsOf(mixedCases());
    const std::uint64_t n =
        sim::runFunctional(w.build(CodeGen::Ppc, 1)).stats.instructions();

    SweepFixture fx("counter");
    sim::setShardJobs(1);
    auto run = [&] {
        fx.cache.clear();
        std::uint64_t before = sim::instructionsProcessed();
        fx.cache.sweep(w, CodeGen::Ppc, 1, variants, sim::RunConfig{});
        fx.cache.locality(w, CodeGen::Ppc, 1, sim::RunConfig{});
        return sim::instructionsProcessed() - before;
    };
    const std::uint64_t cold = run();
    EXPECT_EQ(fx.cache.stats().traceWrites, 1u);
    const std::uint64_t warm = run();
    EXPECT_EQ(fx.cache.stats().traceWrites, 0u);
    fx.cache.setTraceDir("");
    const std::uint64_t inMemory = run();

    EXPECT_EQ(cold, warm);
    EXPECT_EQ(inMemory, warm);
    // Every variant but the duplicate is computed, plus the profile.
    EXPECT_EQ(warm, n * variants.size());
}

TEST(Sweep, ChaosArmedSweepDoesNotShard)
{
    // Group sharding is off while chaos is armed: shard tasks would
    // draw from the shard pool's TaskThrow stream. With TaskThrow
    // firing on every submission and four shards, a warm sweep over
    // two distinct predictors must read the trace once, inline,
    // inject nothing and match an unarmed serial sweep.
    const auto &w = workloads::findWorkload("grep");
    const std::vector<SweepVariant> variants = {
        {core::lvpPredictor(LvpConfig::simple()), Ppc620Config::base620()},
        {*core::findPredictor("stride"), {}},
        {*core::findPredictor("fcm"), AlphaConfig::base21164()},
    };

    SweepFixture fx("chaos");
    sim::setShardJobs(1);
    const auto want = fx.cache.sweep(w, CodeGen::Ppc, 1, variants,
                                     sim::RunConfig{});
    ASSERT_EQ(fx.cache.stats().traceWrites, 1u);

    sim::setShardJobs(4);
    fx.cache.clear();
    const std::uint64_t invalidBefore = fx.cache.stats().traceInvalid;
    auto &ce = chaos::engine();
    ce.resetCounts();
    ce.arm({1, chaos::pointBit(chaos::Point::TaskThrow), 1});
    std::vector<SweepRun> got;
    try {
        got = fx.cache.sweep(w, CodeGen::Ppc, 1, variants,
                             sim::RunConfig{});
    } catch (...) {
        ce.disarm();
        throw;
    }
    ce.disarm();
    const std::uint64_t taskThrows = ce.injected(chaos::Point::TaskThrow);
    ce.resetCounts();

    auto stats = fx.cache.stats();
    EXPECT_EQ(taskThrows, 0u);
    EXPECT_EQ(stats.traceInvalid, invalidBefore);
    EXPECT_EQ(stats.traceWrites, 0u);
    EXPECT_EQ(stats.traceReplays, 1u);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        expectSameRun(got[i], want[i],
                      "chaos-armed variant " + std::to_string(i));
}

/** Every field — byte identity, not just the headline counters. */
void
expectSameStats(const core::LvpStats &a, const core::LvpStats &b,
                const std::string &what)
{
    EXPECT_EQ(a.loads, b.loads) << what;
    EXPECT_EQ(a.noPred, b.noPred) << what;
    EXPECT_EQ(a.incorrect, b.incorrect) << what;
    EXPECT_EQ(a.correct, b.correct) << what;
    EXPECT_EQ(a.constants, b.constants) << what;
    EXPECT_EQ(a.actualUnpred, b.actualUnpred) << what;
    EXPECT_EQ(a.actualPred, b.actualPred) << what;
    EXPECT_EQ(a.unpredIdentified, b.unpredIdentified) << what;
    EXPECT_EQ(a.predIdentified, b.predIdentified) << what;
    EXPECT_EQ(a.cvuInsertions, b.cvuInsertions) << what;
    EXPECT_EQ(a.cvuStoreInvalidations, b.cvuStoreInvalidations) << what;
    EXPECT_EQ(a.cvuDisplaceInvalidations, b.cvuDisplaceInvalidations)
        << what;
    EXPECT_EQ(a.cvuStaleHits, b.cvuStaleHits) << what;
}

/** Each variant's LvpStats from one RunCache sweep over grep. */
std::vector<core::LvpStats>
sweepStats(const std::vector<sim::SweepVariant> &variants)
{
    std::vector<core::LvpStats> out;
    for (const auto &r : sim::RunCache::instance().sweep(
             workloads::findWorkload("grep"), workloads::CodeGen::Ppc, 1,
             variants, sim::RunConfig{}))
        out.push_back(r.lvp);
    return out;
}

/** A sweep of @p variants from a cleared memo, with shards forced to
 *  @p shards: the group-sharded run-cache path at shards > 1. */
std::vector<core::LvpStats>
sweepAt(const std::vector<sim::SweepVariant> &variants, unsigned shards)
{
    sim::setShardJobs(shards);
    sim::RunCache::instance().clear();
    return sweepStats(variants);
}

TEST(ShardReplay, RunCachePredictorPathsMatchSerialResults)
{
    // The championship's run-cache path: a group-sharded sweep over
    // the whole registry must agree with its serial (shards=1) self.
    namespace fs = std::filesystem;
    auto &cache = sim::RunCache::instance();
    const std::string savedDir = cache.traceDir();
    fs::path dir =
        fs::path(::testing::TempDir()) / "lvplib_shard_predcache";
    fs::remove_all(dir);
    fs::create_directories(dir);
    cache.setTraceDir(dir.string());

    std::vector<sim::SweepVariant> preds;
    for (const auto &info : core::predictorRegistry())
        preds.push_back({info, {}});

    auto serial = sweepAt(preds, 1);
    auto sharded = sweepAt(preds, 3);

    ASSERT_EQ(serial.size(), sharded.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSameStats(serial[i], sharded[i],
                        "predictor sweep " + preds[i].predictor->name);

    sim::setShardJobs(0);
    cache.clear();
    cache.setTraceDir(savedDir);
    fs::remove_all(dir);
}

TEST(ShardReplay, RunCacheShardedPathsMatchSerialResults)
{
    namespace fs = std::filesystem;
    auto &cache = sim::RunCache::instance();
    const std::string savedDir = cache.traceDir();
    fs::path dir =
        fs::path(::testing::TempDir()) / "lvplib_shard_runcache";
    fs::remove_all(dir);
    fs::create_directories(dir);
    cache.setTraceDir(dir.string());

    std::vector<sim::SweepVariant> sweep;
    for (const auto &cfg :
         {core::LvpConfig::simple(), core::LvpConfig::constant(),
          core::LvpConfig::limit()})
        sweep.push_back({core::lvpPredictor(cfg), {}});

    auto serial = sweepAt(sweep, 1);
    auto sharded = sweepAt(sweep, 3);

    ASSERT_EQ(serial.size(), sharded.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSameStats(serial[i], sharded[i],
                        "sweep variant " + std::to_string(i));

    sim::setShardJobs(0);
    cache.clear();
    cache.setTraceDir(savedDir);
    fs::remove_all(dir);
}

} // namespace
} // namespace lvplib
