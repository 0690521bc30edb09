/**
 * @file
 * perfbench: run one benchmark workload and print its result.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--root DIR] [--work-dir DIR]
 *
 * A run sets up SetupRepetitions times, each into a fresh empty trace
 * directory (program build + trace generation), then runs measured
 * passes over the last setup's warm traces until --seconds have
 * passed; wall_s and sim_mips come from the fastest untraced pass. With --trace 1, untraced and traced passes alternate and
 * the per-layer metrics come from the traced ones; the Chrome
 * trace_event spans go to WORK_DIR/traces/. The last stdout line is
 * the result: {"correct", "attempted", "failed", "metrics"}. Exit 0
 * whenever a result is printed, 1 on a usage or set-up error.
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <sys/resource.h>
#include <unistd.h>

#include "bench.hh"
#include "obs/json.hh"

namespace fs = std::filesystem;
using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string root = ".";
    std::string workDir;
};

/** Set-ups per run; setup_s is their median. */
constexpr unsigned SetupRepetitions = 7;

template <typename T>
bool
parseNumber(const std::string &s, T &out)
{
    auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    return ec == std::errc() && end == s.data() + s.size();
}

bool
parseArgs(int argc, char **argv, Args &a, std::string &error)
{
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc) {
            error = "missing value for " + flag;
            return false;
        }
        std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            haveSeed = parseNumber(v, a.seed);
            if (!haveSeed)
                error = "bad --seed '" + v + "'";
        } else if (flag == "--seconds") {
            haveSeconds = parseNumber(v, a.seconds) && a.seconds > 0;
            if (!haveSeconds)
                error = "bad --seconds '" + v + "'";
        } else if (flag == "--trace") {
            haveTrace = v == "0" || v == "1";
            a.trace = v == "1";
            if (!haveTrace)
                error = "bad --trace '" + v + "' (0 or 1)";
        } else if (flag == "--root") {
            a.root = v;
        } else if (flag == "--work-dir") {
            a.workDir = v;
        } else {
            error = "unknown flag '" + flag + "'";
        }
        if (!error.empty())
            return false;
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        error = "--workload must be one of paper-suite, predictor-sweep, "
                "timing-sweep";
    else if (!haveSeed || !haveSeconds || !haveTrace)
        error = "--seed, --seconds and --trace are required";
    if (a.workDir.empty())
        a.workDir = (fs::path(a.root) / ".bench_build" / "perfbench").string();
    return error.empty();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Removes the run's scratch directory however the run ends. */
struct ScratchDir
{
    fs::path path;
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

/** @p json on one line: JsonWriter indents, and JSON strings hold no
 *  raw newline, so dropping each newline and its indent is lossless. */
std::string
oneLine(const std::string &json)
{
    std::string out;
    for (std::size_t i = 0; i < json.size(); ++i) {
        if (json[i] != '\n') {
            out += json[i];
            continue;
        }
        while (i + 1 < json.size() && json[i + 1] == ' ')
            ++i;
    }
    return out;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** The experiments with a sim.exp.<id>_s metric: the suite this
 *  benchmark was defined on. An experiment added later still counts in
 *  sim.self_s; one removed later reads 0. */
const char *const ReportedExperiments[] = {
    "table1", "fig1", "fig2", "table2", "table3", "table4", "table5",
    "fig6alpha", "fig6ppc", "table6", "fig7", "fig8", "fig9",
    "ablation_predictors", "ablation_lvp_design", "ablation_all_values",
    "ablation_bpred", "sec61", "championship"};

/** Per-layer metrics of a traced run (see perfbench/README.md). */
std::vector<Metric>
layerMetrics(const Tracer &setup, const Tracer &traced,
             const std::vector<PassResult> &tracedPasses,
             const std::vector<PassResult> &untracedPasses,
             std::uint64_t traceBytes)
{
    auto account = [](const Tracer &t, const std::string &layer) {
        auto it = t.layers().find(layer);
        return it == t.layers().end() ? LayerAccount{} : it->second;
    };
    auto perRec = [](const LayerAccount &a) {
        return a.records ? a.selfNs / a.records : 0.0;
    };
    const double passes = tracedPasses.size();
    const unsigned setups = SetupRepetitions;
    std::vector<Metric> m;

    auto build = account(setup, "workloads.build");
    auto interp = account(setup, "vm.interp");
    auto encode = account(setup, "trace.encode");
    m.push_back({"workloads.build_s", build.selfNs / setups / 1e9, "s"});
    m.push_back({"vm.interp_ns_per_rec", perRec(interp), "ns"});
    m.push_back({"vm.records", double(interp.records / setups), "count"});
    m.push_back({"trace.encode_ns_per_rec", perRec(encode), "ns"});
    m.push_back({"trace.bytes_per_rec",
                 encode.records ? double(traceBytes) * setups / encode.records
                                : 0.0,
                 "B"});

    auto decode = account(traced, "trace.decode");
    m.push_back({"trace.decode_ns_per_rec", perRec(decode), "ns"});
    m.push_back({"trace.decode_records", decode.records / passes, "count"});
    double coreNs = 0, uarchNs = 0, simNs = 0;
    for (const char *p : {"lvp", "stride", "fcm", "vtage", "skewstride"}) {
        auto a = account(traced, std::string("core.") + p);
        coreNs += a.selfNs;
        m.push_back({std::string("core.") + p + "_ns_per_rec", perRec(a),
                     "ns"});
        m.push_back({std::string("core.") + p + "_records",
                     a.records / passes, "count"});
    }
    for (const char *p : {"ppc620", "ppc620plus", "alpha21164"}) {
        auto a = account(traced, std::string("uarch.") + p);
        uarchNs += a.selfNs;
        std::string base = std::string("uarch.") + p;
        m.push_back({base + "_ns_per_rec", perRec(a), "ns"});
        m.push_back({base + "_ns_per_cycle",
                     a.cycles ? a.selfNs / a.cycles : 0.0, "ns"});
        m.push_back({base + "_records", a.records / passes, "count"});
        m.push_back({base + "_cycles", a.cycles / passes, "count"});
    }
    for (const auto &[name, a] : traced.layers())
        if (name.rfind("sim.exp.", 0) == 0)
            simNs += a.selfNs;
    for (const char *id : ReportedExperiments) {
        auto a = account(traced, std::string("sim.exp.") + id);
        m.push_back({std::string("sim.exp.") + id + "_s",
                     a.selfNs / passes / 1e9, "s"});
    }
    std::map<std::string, std::uint64_t> counts;
    if (!tracedPasses.empty())
        counts = tracedPasses.back().counts;
    for (const char *c : {"sim.runcache_hits", "sim.runcache_misses",
                          "sim.trace_replays", "sim.trace_invalid",
                          "sim.trace_writes"})
        m.push_back({c, double(counts[c]), "count"});
    std::uint64_t lookups =
        counts["sim.runcache_hits"] + counts["sim.runcache_misses"];
    m.push_back({"sim.runcache_hit_ratio",
                 lookups ? double(counts["sim.runcache_hits"]) / lookups : 0.0,
                 "ratio"});

    // Layer shares of the traced wall time; the remainder is the
    // harness itself (pass bookkeeping, checks, pipeline assembly).
    std::vector<double> tracedWall, untracedWall;
    double tracedTotal = 0;
    for (const auto &p : tracedPasses) {
        tracedWall.push_back(p.wallS);
        tracedTotal += p.wallS;
    }
    for (const auto &p : untracedPasses)
        untracedWall.push_back(p.wallS);
    double wall = tracedTotal / passes;
    double layered = (decode.selfNs + coreNs + uarchNs + simNs) / passes / 1e9;
    m.push_back({"traced_wall_s", wall, "s"});
    m.push_back({"trace.self_s", decode.selfNs / passes / 1e9, "s"});
    m.push_back({"core.self_s", coreNs / passes / 1e9, "s"});
    m.push_back({"uarch.self_s", uarchNs / passes / 1e9, "s"});
    m.push_back({"sim.self_s", simNs / passes / 1e9, "s"});
    m.push_back({"harness.remainder_s", wall - layered, "s"});
    m.push_back({"tracing_overhead_frac",
                 median(tracedWall) / median(untracedWall) - 1, "ratio"});
    return m;
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    lvplib::obs::JsonWriter w(os);
    w.beginObject();
    w.member("correct", correct);
    w.member("attempted", attempted);
    w.member("failed", failed);
    w.key("metrics");
    w.beginObject();
    for (const auto &m : metrics) {
        w.key(m.name);
        w.beginObject();
        w.member("value", m.value);
        w.member("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return oneLine(os.str());
}

int
run(const Args &a)
{
    std::string golden;
    if (a.workload == "paper-suite") {
        fs::path path = fs::path(a.root) / "bench" / "golden" / "metrics.json";
        std::ifstream f(path, std::ios::binary);
        if (!f)
            throw std::runtime_error("cannot read " + path.string());
        std::ostringstream text;
        text << f.rdbuf();
        golden = text.str();
    }
    WorkloadSpec w = makeWorkload(a.workload, a.seed, golden);

    ScratchDir scratch{fs::path(a.workDir) /
                       ("run-" + std::to_string(getpid()))};
    fs::remove_all(scratch.path);
    fs::create_directories(scratch.path);

    // Set-up: program build + trace generation into an empty directory,
    // several times; the last set of traces is the warm cache.
    Tracer setupTracer(a.trace);
    std::vector<double> setupS;
    std::vector<TraceEntry> traces;
    for (unsigned i = 0; i < SetupRepetitions; ++i) {
        fs::path dir = scratch.path / ("cache-" + std::to_string(i));
        fs::remove_all(dir);
        fs::create_directories(dir);
        traces.clear();
        auto t0 = Clock::now();
        traces = writeTraces(dir.string(), w.scale, setupTracer);
        setupS.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
        if (i + 1 < SetupRepetitions)
            fs::remove_all(dir);
    }
    std::uint64_t traceRecords = 0, traceBytes = 0;
    for (const auto &e : traces) {
        traceRecords += e.records;
        traceBytes += e.bytes;
    }

    // Measured phase: passes over the warm traces until --seconds.
    Tracer off(false), on(true);
    std::vector<PassResult> untraced, traced;
    auto start = Clock::now();
    for (unsigned i = 0;; ++i) {
        bool tracePass = a.trace && i % 2 == 1;
        (tracePass ? traced : untraced)
            .push_back(w.pass(traces, tracePass ? on : off));
        double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (elapsed >= a.seconds && (!a.trace || !traced.empty()))
            break;
    }

    // Correctness: every operation's own checks, one determinism rule
    // (each pass reproduces the first pass's digest), and the
    // cross-check against the library's in-memory pipeline.
    PassResult &first = untraced.front();
    if (w.crossCheck)
        w.crossCheck(traces, first);
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    for (auto *set : {&untraced, &traced})
        for (auto &p : *set) {
            if (p.digest != first.digest)
                noteFailure(p, "pass digest differs from the first pass");
            attempted += p.attempted;
            failed += std::min(p.failed, p.attempted);
            for (const auto &f : p.failures)
                if (failures.size() < 8)
                    failures.push_back(f);
        }

    // Other tenants of the host only ever slow a pass down, for tens of
    // seconds at a time, so the fastest pass is the steadiest estimate
    // of the program's own cost; the report keeps every pass time.
    std::vector<double> wall;
    for (const auto &p : untraced)
        wall.push_back(p.wallS);
    const PassResult &fastest = *std::min_element(
        untraced.begin(), untraced.end(),
        [](const PassResult &x, const PassResult &y) {
            return x.wallS < y.wallS;
        });
    // The sweeps count records at their own consumer wrappers; the
    // suite's consumers are inside the library, so its throughput is
    // the warm cache's records per second.
    double records = fastest.consumerRecords ? double(fastest.consumerRecords)
                                             : double(traceRecords);

    // The run report: fingerprint, inputs, digest, per-pass times.
    {
        std::ostringstream os;
        lvplib::obs::JsonWriter r(os);
        r.beginObject();
        r.key("fingerprint");
        r.beginObject();
        for (const auto &[k, v] : fingerprint(a.workload, a.seed, w.scale))
            r.member(k, v);
        r.endObject();
        r.key("inputs");
        r.beginArray();
        for (const auto &s : w.inputs)
            r.value(s);
        r.endArray();
        char digest[20];
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(first.digest));
        r.member("digest", digest);
        r.key("setup_s");
        r.beginArray();
        for (double s : setupS)
            r.value(s);
        r.endArray();
        r.key("pass_wall_s");
        r.beginArray();
        for (double s : wall)
            r.value(s);
        r.endArray();
        r.key("counts");
        r.beginObject();
        for (const auto &[k, v] : first.counts)
            r.member(k, v);
        r.endObject();
        r.key("failures");
        r.beginArray();
        for (const auto &f : failures)
            r.value(f);
        r.endArray();
        r.endObject();
        std::cout << oneLine(os.str()) << '\n';
    }

    std::vector<Metric> metrics;
    if (a.trace) {
        metrics = layerMetrics(setupTracer, on, traced, untraced, traceBytes);
        fs::path out = fs::path(a.workDir) / "traces";
        fs::create_directories(out);
        std::ofstream tf(out / (a.workload + "-seed" +
                                std::to_string(a.seed) + ".json"));
        on.writeChromeJson(tf);
    } else {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        metrics = {
            {"wall_s", fastest.wallS, "s"},
            {"sim_mips", records / fastest.wallS / 1e6, "MIPS"},
            {"setup_s", median(setupS), "s"},
            {"peak_rss_mb", ru.ru_maxrss / 1024.0, "MB"},
            {"trace_cache_mb", traceBytes / 1e6, "MB"},
            {"ops_ok_frac", double(attempted - failed) / attempted, "ratio"},
        };
    }
    std::cout << resultLine(failed == 0, attempted, failed, metrics) << '\n';
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    std::string error;
    if (!parseArgs(argc, argv, a, error)) {
        std::cerr << "perfbench: " << error << '\n';
        return 1;
    }
    try {
        return run(a);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
