#include <algorithm>
#include <set>
#include <sstream>

#include "bench.hh"
#include "obs/check.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "sim/parallel.hh"
#include "sim/report.hh"
#include "sim/run_cache.hh"
#include "sim/suite.hh"

namespace perfbench
{

SuitePlan
suitePlan()
{
    SuitePlan p;
    for (const auto &spec : lv::sim::experimentSuite())
        p.experiments.push_back(spec.id);
    return p;
}

std::string
metricsDump(unsigned scale)
{
    std::ostringstream os;
    lv::obs::JsonWriter w(os);
    w.beginObject();
    w.member("schema", lv::obs::kMetricsSchema);
    w.key("context");
    w.beginObject();
    w.member("scale", static_cast<std::uint64_t>(scale));
    w.member("max_instructions", MaxInstructions);
    w.endObject();
    w.key("metrics");
    lv::obs::metrics().writeJson(w);
    w.endObject();
    os << '\n';
    return os.str();
}

GoldenCheck
checkGolden(const SuitePlan &plan, const std::string &golden,
            const std::string &current)
{
    std::string error;
    auto base = lv::obs::parseJson(golden, error);
    auto cur = lv::obs::parseJson(current, error);
    if (!base || !cur)
        return {0, {"*"}};
    // The same tolerance `lvpbench --check` applies by default.
    auto report = lv::obs::checkMetrics(*base, *cur, 1e-6);
    if (!report.error.empty())
        return {report.compared, {"*"}};
    std::set<std::string> ids;
    for (const auto &d : report.drifts) {
        auto owner = std::find_if(
            plan.experiments.begin(), plan.experiments.end(),
            [&](const std::string &id) {
                return d.name.compare(0, id.size() + 1, id + ".") == 0;
            });
        ids.insert(owner == plan.experiments.end() ? "*" : *owner);
    }
    return {report.compared, {ids.begin(), ids.end()}};
}

PassResult
paperSuitePass(const SuitePlan &plan, const std::string &traceDir,
               const std::string &golden, Tracer &tracer)
{
    lv::sim::setExperimentJobs(1);
    lv::sim::setShardJobs(1);
    auto &cache = lv::sim::RunCache::instance();
    cache.setTraceDir(traceDir);
    cache.clear();
    auto before = cache.stats();
    lv::sim::ExperimentOptions opts;
    opts.scale = plan.scale;
    opts.maxInstructions = MaxInstructions;

    PassResult r;
    std::vector<std::vector<lv::sim::ExperimentSection>> sections;
    auto t0 = Clock::now();
    for (const std::string &id : plan.experiments) {
        ++r.attempted;
        const auto *spec = lv::sim::findExperiment(id);
        const std::string layer = "sim.exp." + id;
        Tracer::Span span(tracer, layer);
        try {
            if (!spec)
                throw std::runtime_error("not in the suite");
            sections.push_back(spec->run(opts));
        } catch (const std::exception &e) {
            noteFailure(r, id + ": " + e.what());
        }
    }
    r.wallS = std::chrono::duration<double>(Clock::now() - t0).count();
    auto after = cache.stats();

    // The printed tables are the pass's digest: every reproduced paper
    // number, rendered exactly as lvpbench prints it.
    Digest dig;
    for (const auto &secs : sections)
        for (const auto &sec : secs) {
            std::ostringstream os;
            lv::sim::printExperiment(os, sec.title, sec.expectation,
                                     sec.table, opts);
            dig.add(os.str());
        }
    r.digest = dig.value();

    GoldenCheck check = checkGolden(plan, golden, metricsDump(plan.scale));
    for (const std::string &id : check.drifted)
        noteFailure(r, "golden drift in " +
                           (id == "*" ? std::string("unowned metrics") : id));
    r.failed = std::min(r.failed, r.attempted);

    r.counts = {
        {"sim.runcache_hits", after.hits - before.hits},
        {"sim.runcache_misses", after.misses - before.misses},
        {"sim.trace_replays", after.traceReplays - before.traceReplays},
        {"sim.trace_invalid", after.traceInvalid - before.traceInvalid},
        {"sim.trace_writes", after.traceWrites - before.traceWrites},
        {"golden_compared", check.compared},
        {"golden_drifted", check.drifted.size()},
    };
    return r;
}

} // namespace perfbench
