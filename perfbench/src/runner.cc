#include <filesystem>
#include <stdexcept>

#include "bench.hh"

namespace perfbench
{

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-suite", "predictor-sweep", "timing-sweep"};
    return names;
}

WorkloadSpec
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &golden)
{
    WorkloadSpec w;
    if (name == "paper-suite") {
        // Fixed by the paper and the golden file: the seed is accepted
        // and ignored.
        SuitePlan plan = suitePlan();
        w.scale = plan.scale;
        w.inputs = plan.experiments;
        w.pass = [plan, golden](const std::vector<TraceEntry> &traces,
                                Tracer &tracer) {
            std::string dir =
                std::filesystem::path(traces.at(0).path).parent_path();
            return paperSuitePass(plan, dir, golden, tracer);
        };
    } else if (name == "predictor-sweep") {
        auto variants = predictorVariants(seed);
        w.scale = SweepScale;
        w.inputs = describe(variants);
        w.pass = [variants](const std::vector<TraceEntry> &traces,
                            Tracer &tracer) {
            return predictorSweepPass(traces, variants, tracer);
        };
        w.crossCheck = [variants, seed](const std::vector<TraceEntry> &traces,
                                        PassResult &r) {
            crossCheckPredictors(traces, variants, seed, r);
        };
    } else if (name == "timing-sweep") {
        TimingPlan plan = timingPlan(seed);
        w.scale = SweepScale;
        w.inputs = describe(plan);
        w.pass = [plan](const std::vector<TraceEntry> &traces,
                        Tracer &tracer) {
            return timingSweepPass(traces, plan, tracer);
        };
        w.crossCheck = [plan, seed](const std::vector<TraceEntry> &traces,
                                    PassResult &r) {
            crossCheckTiming(traces, plan, seed, r);
        };
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

} // namespace perfbench
