/**
 * @file
 * Self-tests of the benchmark itself: its wrappers change no result,
 * its seeds choose its inputs, its gate can fail. Run with
 * `python3 perfbench/run.py --self-test`.
 */

#include <filesystem>
#include <unistd.h>

#include <gtest/gtest.h>

#include "bench.hh"
#include "sim/suite.hh"
#include "trace/trace_file.hh"

namespace fs = std::filesystem;
using namespace perfbench;

namespace
{

/** Small warm traces (scale 1) shared by the tests in this file. */
class Traces : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        dir_ = fs::current_path() /
               ("perfbench-selftest-" + std::to_string(getpid()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        Tracer off(false);
        traces_ = writeTraces(dir_.string(), 1, off);
    }

    static void
    TearDownTestSuite()
    {
        traces_.clear();
        fs::remove_all(dir_);
    }

    static fs::path dir_;
    static std::vector<TraceEntry> traces_;
};

fs::path Traces::dir_;
std::vector<TraceEntry> Traces::traces_;

TEST_F(Traces, SetupWritesEveryWorkloadTwice)
{
    EXPECT_EQ(traces_.size(), 2 * lvplib::workloads::allWorkloads().size());
    for (const auto &e : traces_) {
        EXPECT_GT(e.records, 0u) << e.path;
        EXPECT_GT(e.bytes, 0u) << e.path;
    }
}

TEST_F(Traces, TracedPredictorPassMatchesUntracedAndUnwrapped)
{
    auto variants = predictorVariants(3);
    Tracer off(false), on(true);
    PassResult a = predictorSweepPass(traces_, variants, off);
    PassResult b = predictorSweepPass(traces_, variants, on);
    EXPECT_EQ(a.failed, 0u);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.consumerRecords, b.consumerRecords);

    // Without any wrapper: the registry annotator straight off the trace.
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t v = 0; v < variants.size(); ++v) {
            NullSink null;
            lvplib::core::PredictorAnnotator annot(variants[v].info, null);
            lvplib::trace::TraceFileReader(traces_[i].path,
                                           *traces_[i].program)
                .replay(annot);
            EXPECT_EQ(fieldsOf(annot.unit().stats()), a.stats[i][v])
                << variants[v].info.name;
        }

    // The traced pass accounted time to decode and every family, and
    // none to the timing models.
    const auto &layers = on.layers();
    EXPECT_GT(layers.at("trace.decode").selfNs, 0);
    for (const char *f : {"lvp", "stride", "fcm", "vtage", "skewstride"})
        EXPECT_GT(layers.at(std::string("core.") + f).records, 0u) << f;
    EXPECT_EQ(layers.count("uarch.ppc620"), 0u);
}

TEST_F(Traces, TracedTimingPassMatchesUntracedAndUnwrapped)
{
    TimingPlan plan = timingPlan(5);
    Tracer off(false), on(true);
    PassResult a = timingSweepPass(traces_, plan, off);
    PassResult b = timingSweepPass(traces_, plan, on);
    EXPECT_EQ(a.failed, 0u) << (a.failures.empty() ? "" : a.failures[0]);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.stats, b.stats);

    // Variant 0 of trace 0 (a PowerPC trace) is the bare 620 model.
    lvplib::uarch::Ppc620Model model(plan.ppc620, false);
    lvplib::trace::TraceFileReader(traces_[0].path, *traces_[0].program)
        .replay(model);
    Fields bare = fieldsOf(model.stats());
    ASSERT_GE(a.stats[0][0].size(), bare.size());
    EXPECT_EQ(Fields(a.stats[0][0].begin(),
                     a.stats[0][0].begin() + bare.size()),
              bare);
    EXPECT_GT(on.layers().at("uarch.ppc620").cycles, 0u);
}

TEST_F(Traces, CrossChecksAgreeWithTheInMemoryPipeline)
{
    auto variants = predictorVariants(11);
    Tracer off(false);
    PassResult p = predictorSweepPass(traces_, variants, off);
    crossCheckPredictors(traces_, variants, 11, p);
    EXPECT_EQ(p.failed, 0u) << (p.failures.empty() ? "" : p.failures[0]);

    TimingPlan plan = timingPlan(11);
    PassResult t = timingSweepPass(traces_, plan, off);
    crossCheckTiming(traces_, plan, 11, t);
    EXPECT_EQ(t.failed, 0u) << (t.failures.empty() ? "" : t.failures[0]);
}

TEST_F(Traces, CorruptedResultsAreFailedOperations)
{
    auto variants = predictorVariants(2);
    Tracer off(false);
    PassResult p = predictorSweepPass(traces_, variants, off);
    ASSERT_EQ(p.failed, 0u);
    for (auto &perTrace : p.stats)
        for (auto &fields : perTrace)
            fields[0].second += 1; // one more load than the fresh run saw
    crossCheckPredictors(traces_, variants, 2, p);
    EXPECT_EQ(p.failed, traces_.size());

    TimingPlan plan = timingPlan(2);
    PassResult t = timingSweepPass(traces_, plan, off);
    for (auto &perTrace : t.stats)
        for (auto &fields : perTrace)
            fields[0].second -= 1; // one cycle fewer
    crossCheckTiming(traces_, plan, 2, t);
    EXPECT_EQ(t.failed, traces_.size());
}

TEST_F(Traces, UnreadableTraceFailsItsOperationsOnly)
{
    // A truncated copy of trace 0: its replay throws mid-pass.
    std::vector<TraceEntry> traces(traces_.begin(), traces_.begin() + 2);
    fs::path bad = dir_ / "truncated.trace";
    fs::copy_file(traces[0].path, bad, fs::copy_options::overwrite_existing);
    fs::resize_file(bad, fs::file_size(bad) / 2);
    traces[0].path = bad.string();

    auto variants = predictorVariants(4);
    Tracer off(false);
    PassResult p = predictorSweepPass(traces, variants, off);
    EXPECT_EQ(p.attempted, 2 * variants.size());
    EXPECT_EQ(p.failed, variants.size());
    crossCheckPredictors(traces, variants, 4, p);
    EXPECT_EQ(p.failed, variants.size());

    PassResult t = timingSweepPass(traces, timingPlan(4), off);
    EXPECT_EQ(t.attempted, 8u);
    EXPECT_EQ(t.failed, 4u);
}

TEST(Gate, InvariantsRejectCorruptStatistics)
{
    lvplib::core::LvpStats s;
    s.loads = 10;
    s.noPred = 4;
    s.correct = 5;
    s.incorrect = 1;
    s.actualPred = 6;
    s.actualUnpred = 4;
    EXPECT_EQ(predictorInvariant(s), "");
    s.correct = 6;
    EXPECT_NE(predictorInvariant(s), "");
    s.correct = 5;
    s.cvuStaleHits = 1;
    EXPECT_NE(predictorInvariant(s), "");

    EXPECT_EQ(modelInvariant(25, 100, 100, 4), "");
    EXPECT_NE(modelInvariant(24, 100, 100, 4), "");
    EXPECT_NE(modelInvariant(100, 99, 100, 4), "");
}

std::string
metricsDoc(double fig1Value)
{
    return R"({"schema": "lvplib-metrics-v1",
               "context": {"scale": 4, "max_instructions": 200000000},
               "metrics": {
                 "fig1.grep.d1": {"type": "gauge", "value": )" +
           std::to_string(fig1Value) + R"(},
                 "table3.grep.pred": {"type": "gauge", "value": 2.5}}})";
}

TEST(Gate, GoldenDriftCountsTheDriftedExperiment)
{
    SuitePlan plan = suitePlan();
    GoldenCheck same = checkGolden(plan, metricsDoc(1.0), metricsDoc(1.0));
    EXPECT_EQ(same.compared, 2u);
    EXPECT_TRUE(same.drifted.empty());
    EXPECT_EQ(checkGolden(plan, metricsDoc(1.0), metricsDoc(1.5)).drifted,
              std::vector<std::string>{"fig1"});
    EXPECT_EQ(checkGolden(plan, metricsDoc(1.0), "not json").drifted,
              std::vector<std::string>{"*"});
}

TEST(Seeds, SameSeedSameInputsOtherSeedOtherInputs)
{
    EXPECT_EQ(describe(predictorVariants(7)), describe(predictorVariants(7)));
    EXPECT_NE(describe(predictorVariants(7)), describe(predictorVariants(8)));
    EXPECT_EQ(describe(timingPlan(7)), describe(timingPlan(7)));
    EXPECT_NE(describe(timingPlan(7)), describe(timingPlan(8)));
    for (const auto &name : workloadNames())
        EXPECT_EQ(makeWorkload(name, 7, "").inputs,
                  makeWorkload(name, 7, "").inputs)
            << name;
}

TEST(Seeds, EveryFamilyIsSwept)
{
    std::map<std::string, int> perFamily;
    for (const auto &v : predictorVariants(1))
        ++perFamily[v.family];
    for (const auto &info : lvplib::core::predictorRegistry())
        EXPECT_EQ(perFamily[info.name], 4) << info.name;
}

TEST(Seeds, PaperSuiteDoesNotDependOnTheSeed)
{
    WorkloadSpec a = makeWorkload("paper-suite", 1, "");
    WorkloadSpec b = makeWorkload("paper-suite", 987654321, "");
    EXPECT_EQ(a.inputs, b.inputs);
    EXPECT_EQ(a.scale, 4u);
    EXPECT_EQ(a.inputs.size(), lvplib::sim::experimentSuite().size());
}

TEST(Fingerprint, EveryFieldIsPresent)
{
    auto fp = fingerprint("timing-sweep", 42, SweepScale);
    std::map<std::string, std::string> byKey(fp.begin(), fp.end());
    for (const char *k :
         {"cpu_model", "nproc", "compiler", "build_type", "cmake_options",
          "lvplib_env", "dispatch", "jobs", "shards", "seed", "workload",
          "scale", "cache_state"}) {
        ASSERT_TRUE(byKey.count(k)) << k;
        EXPECT_FALSE(byKey[k].empty()) << k;
    }
    EXPECT_EQ(byKey["seed"], "42");
    EXPECT_NE(byKey["cmake_options"].find("LVPLIB_"), std::string::npos);
}

} // namespace
