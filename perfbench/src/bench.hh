/**
 * @file
 * The lvplib benchmark: three workloads (paper-suite, predictor-sweep,
 * timing-sweep) driven through the library's public API, with every
 * count and span taken by the benchmark's own wrappers around calls
 * into each module. Nothing inside the library is instrumented.
 *
 * Layers carry the module names: workloads (program build), vm
 * (interpreter), trace (v3 encode, decode + verify), core (value
 * predictors), uarch (timing models) and sim (suite and RunCache).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/lvp_unit.hh"
#include "core/value_predictor.hh"
#include "isa/program.hh"
#include "trace/trace.hh"
#include "uarch/alpha21164.hh"
#include "uarch/machine_config.hh"
#include "uarch/ppc620.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace lv = lvplib;
using Clock = std::chrono::steady_clock;

/** Host-time account of one layer, summed over the spans closed on it. */
struct LayerAccount
{
    double selfNs = 0;          ///< span time minus child-span time
    std::uint64_t records = 0;  ///< trace records that entered the layer
    std::uint64_t cycles = 0;   ///< simulated cycles (timing models)
};

/**
 * Spans recorded around calls into the layers: one clock pair per
 * call, kept in memory and written at exit as Chrome trace_event JSON
 * (the format obs::Timeline writes). A disabled tracer reads no clock.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

    bool on() const { return on_; }

    /** The account for @p layer; references stay valid. */
    LayerAccount &layer(const std::string &layer) { return layers_[layer]; }

    const std::map<std::string, LayerAccount> &layers() const
    {
        return layers_;
    }

    /** One span on @p layer, from construction to destruction (a
     *  no-op when the tracer is off). Spans nest: a span's self time
     *  excludes the spans opened inside it. */
    class Span
    {
      public:
        Span(Tracer &t, const std::string &layer, std::uint64_t records = 0)
            : t_(t), layer_(layer), records_(records)
        {
            t_.open();
        }
        ~Span() { t_.close(layer_, records_); }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        /** Records the layer took, when known only at the end. */
        void records(std::uint64_t n) { records_ = n; }

      private:
        Tracer &t_;
        const std::string &layer_;
        std::uint64_t records_;
    };

    /** Chrome trace_event JSON of every span closed so far. */
    void writeChromeJson(std::ostream &os) const;

  private:
    void open();
    void close(const std::string &layer, std::uint64_t records);

    struct Frame
    {
        Clock::time_point start;
        double childNs = 0;
    };
    struct Event
    {
        const std::string *name;
        double startUs;
        double durUs;
    };

    bool on_;
    Clock::time_point origin_;
    std::map<std::string, LayerAccount> layers_;
    std::vector<Frame> stack_;
    std::vector<Event> events_;
};

/**
 * The benchmark's sink wrapper: counts the records a consumer takes
 * and, when tracing, times each consumeBatch/finish call into it. Its
 * record counts are the benchmark's own instruction accounting.
 */
class Probe final : public lv::trace::TraceSink
{
  public:
    Probe(Tracer &tracer, std::string layer, lv::trace::TraceSink &down)
        : tracer_(tracer), layer_(std::move(layer)), down_(down)
    {}

    void
    consume(const lv::trace::TraceRecord &rec) override
    {
        consumeBatch({&rec, 1});
    }

    void consumeBatch(std::span<const lv::trace::TraceRecord> recs) override;
    void finish() override;

    std::uint64_t records() const { return records_; }

  private:
    Tracer &tracer_;
    std::string layer_;
    lv::trace::TraceSink &down_;
    std::uint64_t records_ = 0;
};

/** A sink that drops everything (the end of a predictor-only chain). */
class NullSink final : public lv::trace::TraceSink
{
  public:
    void consume(const lv::trace::TraceRecord &) override {}
    void consumeBatch(std::span<const lv::trace::TraceRecord>) override {}
};

/** 64-bit FNV-1a, used for the per-seed statistics digest. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(const std::string &s);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Deterministic splitmix64 stream: the only source of seeded choices,
 *  so the same seed gives the same inputs on every platform. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next();
    /** Uniform index below @p n (n > 0). */
    std::size_t below(std::size_t n) { return next() % n; }
    /** A seeded permutation of 0..n-1. */
    std::vector<std::size_t> permutation(std::size_t n);

  private:
    std::uint64_t s_;
};

/** Named statistic fields, for digests and field-by-field checks. */
using Fields = std::vector<std::pair<const char *, std::uint64_t>>;
Fields fieldsOf(const lv::core::LvpStats &s);
Fields fieldsOf(const lv::uarch::OooStats &s);
Fields fieldsOf(const lv::uarch::InOrderStats &s);

/** First field where @p a and @p b differ, or "" when equal. */
std::string firstDifference(const Fields &a, const Fields &b);

// ---------------------------------------------------------------- setup

/** One warm trace: a (workload, codegen) program and its trace file. */
struct TraceEntry
{
    const lv::workloads::Workload *workload = nullptr;
    lv::workloads::CodeGen codegen = lv::workloads::CodeGen::Ppc;
    std::shared_ptr<const lv::isa::Program> program;
    std::string path;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
};

/** Trace length cap; the same default RunCache keys its traces on. */
constexpr std::uint64_t MaxInstructions = 200'000'000;

/**
 * Build every (workload, codegen) program at @p scale and write its
 * trace into the empty directory @p dir, under the name and
 * fingerprint the library's RunCache looks for, so a RunCache pointed
 * at @p dir replays them instead of regenerating. Spans: workloads.build
 * around each build, vm.interp around each interpreter run and
 * trace.encode around each call into the writer.
 */
std::vector<TraceEntry> writeTraces(const std::string &dir, unsigned scale,
                                    Tracer &tracer);

// ------------------------------------------------------------ workloads

/** A predictor variant: registry family plus a seed-drawn geometry. */
struct PredictorVariant
{
    std::string family; ///< registry family, e.g. "vtage"
    lv::core::PredictorInfo info;
};

/** Seed-drawn variants for predictor-sweep, four per registry family.
 *  LVP variants change one knob of a paper preset each, as
 *  ablation_lvp_design does; the other families vary their table
 *  sizes and one own knob around the championship presets. */
std::vector<PredictorVariant> predictorVariants(std::uint64_t seed);

/** Seed-drawn machines and LVP configurations for timing-sweep. */
struct TimingPlan
{
    lv::uarch::Ppc620Config ppc620;     ///< derived from base620()
    lv::uarch::Ppc620Config ppc620plus; ///< derived from plus620()
    lv::uarch::AlphaConfig alpha[2];    ///< both derived from base21164()
    /** Trace i is annotated once with lvp[(i / 2) % 2], alternating by
     *  workload, and the annotation feeds both machines of its codegen. */
    lv::core::LvpConfig lvp[2];
};
TimingPlan timingPlan(std::uint64_t seed);

/** One readable line per variant, for the run report and self-tests. */
std::vector<std::string> describe(const std::vector<PredictorVariant> &v);
std::vector<std::string> describe(const TimingPlan &p);

/** Result of one measured pass over a workload. */
struct PassResult
{
    double wallS = 0;
    std::uint64_t consumerRecords = 0; ///< summed over every consumer
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t digest = 0;          ///< every simulated statistic
    std::vector<std::string> failures; ///< first few, for the report
    /** Sweeps: statistics of every operation, [trace][variant]. */
    std::vector<std::vector<Fields>> stats;
    /** paper-suite: RunCache and golden-check counts over the pass. */
    std::map<std::string, std::uint64_t> counts;
};

/** Record a failed operation in @p r, keeping the first few reasons. */
void noteFailure(PassResult &r, const std::string &why);

/** predictor-sweep: replay each trace once into every variant. */
PassResult predictorSweepPass(const std::vector<TraceEntry> &traces,
                              const std::vector<PredictorVariant> &variants,
                              Tracer &tracer);

/** timing-sweep: replay each trace once into its codegen's machines,
 *  without LVP and behind one shared LVP annotation. */
PassResult timingSweepPass(const std::vector<TraceEntry> &traces,
                           const TimingPlan &plan, Tracer &tracer);

/**
 * Cross-check one seed-chosen variant per trace of the sweep pass @p r,
 * field by field, against the library's in-memory pipeline
 * (sim/pipeline_driver), which interprets the program afresh.
 * Mismatches are added to @p r as failed operations.
 */
void crossCheckPredictors(const std::vector<TraceEntry> &traces,
                          const std::vector<PredictorVariant> &variants,
                          std::uint64_t seed, PassResult &r);
void crossCheckTiming(const std::vector<TraceEntry> &traces,
                      const TimingPlan &plan, std::uint64_t seed,
                      PassResult &r);

/** Invariants every predictor result must satisfy; "" when it does. */
std::string predictorInvariant(const lv::core::LvpStats &s);

/** Invariants of a timing-model result over @p records records with
 *  dispatch width @p width; "" when it holds. */
std::string modelInvariant(std::uint64_t cycles, std::uint64_t instructions,
                           std::uint64_t records, unsigned width);

// ---------------------------------------------------------- paper-suite

/** Everything paper-suite runs; it does not depend on the seed. */
struct SuitePlan
{
    unsigned scale = 4; ///< the golden settings
    std::vector<std::string> experiments;
};
SuitePlan suitePlan();

/** paper-suite: every experiment once, on one job and one shard, with
 *  the library's RunCache replaying the warm traces in @p traceDir;
 *  checked against @p golden (the text of bench/golden/metrics.json). */
PassResult paperSuitePass(const SuitePlan &plan, const std::string &traceDir,
                          const std::string &golden, Tracer &tracer);

/** The golden check of one pass. */
struct GoldenCheck
{
    std::size_t compared = 0; ///< golden metrics diffed
    /** Experiments with a drifted metric; "*" marks a drift no
     *  experiment owns, or an input that does not parse. */
    std::vector<std::string> drifted;
};

/** Diff the metrics dump @p current against @p golden (JSON text). */
GoldenCheck checkGolden(const SuitePlan &plan, const std::string &golden,
                        const std::string &current);

/** The metrics dump `lvpbench --metrics-out` writes for @p scale. */
std::string metricsDump(unsigned scale);

// ------------------------------------------------------------- runner

/** Trace scale of the two sweeps: larger than the golden scale 4, so
 *  predictor tables and traces meet working sets unlike the golden's. */
constexpr unsigned SweepScale = 6;

/** One workload, ready to run measured passes over its warm traces. */
struct WorkloadSpec
{
    unsigned scale = 0;
    /** Everything the seed chose, one line each. */
    std::vector<std::string> inputs;
    std::function<PassResult(const std::vector<TraceEntry> &, Tracer &)>
        pass;
    /** Checks made once per run on the first pass (may be empty). */
    std::function<void(const std::vector<TraceEntry> &, PassResult &)>
        crossCheck;
};

/** The names of the benchmark's workloads. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name for @p seed; @p golden is the text of the
 *  golden metrics file (paper-suite only). Throws on an unknown name. */
WorkloadSpec makeWorkload(const std::string &name, std::uint64_t seed,
                          const std::string &golden);

// ---------------------------------------------------------- fingerprint

/** Host and build fingerprint stamped on every result. */
std::vector<std::pair<std::string, std::string>>
fingerprint(const std::string &workload, std::uint64_t seed, unsigned scale);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
