/**
 * @file
 * Process-wide memoizing run-cache for the experiment engine.
 *
 * The paper's evaluation re-runs the same 17 workloads through the
 * same handful of machine/LVP configurations for every table and
 * figure; a whole-suite regeneration used to rebuild and re-simulate
 * each (workload, codegen, scale) program dozens of times. The cache
 * shares, across every experiment runner in the process:
 *
 *  - built Programs, keyed on (workload, codegen, scale);
 *  - functional results, locality profiles, and sweep variants
 *    (predictor-only and timing runs), keyed additionally on
 *    maxInstructions, the predictor name, and a full fingerprint of
 *    the machine configuration (so ablation variants never alias the
 *    paper presets);
 *  - optionally, on-disk phase-1 traces (Section 5's decoupled
 *    methodology): when a trace directory is configured, the
 *    functional interpreter runs once per (workload, codegen, scale,
 *    maxInstructions) to write a binary trace via TraceFileWriter,
 *    and every phase-2/3 run (locality, sweeps) replays that trace
 *    through TraceFileReader instead of re-interpreting.
 *
 * All entries are computed at most once even under concurrent access:
 * the first requester computes, later requesters block on a shared
 * future. Cached values are pure functions of their keys, so cache
 * order (and therefore thread schedule) never changes any result.
 *
 * The trace directory comes from the LVPLIB_TRACE_CACHE environment
 * variable at construction, or setTraceDir(). Trace files are named
 * by workload/codegen/scale/maxInstructions, but reuse is gated on
 * the self-describing trace format (trace/trace_file.hh): before a
 * file is replayed its header fingerprint — a hash of the encoded
 * Program plus the run key — its format version, its footer record
 * count, and its payload checksum are all verified. A stale,
 * truncated, or corrupt file is treated as a cache miss (deleted,
 * regenerated, and counted in Stats::traceInvalid), never as a
 * silent replay and never as a fatal error; there is no need to wipe
 * the directory when workload builders or the interpreter change.
 * Writes go through per-process-unique temp files and an atomic
 * rename, so concurrent processes sharing one directory cannot
 * publish interleaved or partial traces; if the write itself fails
 * (e.g. disk full) the run falls back to in-memory interpretation
 * and the failure is not memoized.
 */

#ifndef LVPLIB_SIM_RUN_CACHE_HH
#define LVPLIB_SIM_RUN_CACHE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/config.hh"
#include "core/locality_profiler.hh"
#include "sim/pipeline_driver.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace lvplib::sim
{

/**
 * One sweep variant: an optional predictor in front of an optional
 * machine. A predictor alone is a predictor-only run; a machine alone
 * is the no-LVP baseline. An LvpConfig enters as
 * core::lvpPredictor(config), a registry predictor as its
 * PredictorInfo.
 */
struct SweepVariant
{
    std::optional<core::PredictorInfo> predictor;
    std::variant<std::monostate, uarch::Ppc620Config, uarch::AlphaConfig>
        machine;
};

/** One sweep variant's result. */
struct SweepRun
{
    core::LvpStats lvp; ///< zeroed without a predictor
    std::variant<std::monostate, uarch::OooStats, uarch::InOrderStats>
        timing;

    /** The 620/620+ timing; throws std::bad_variant_access otherwise. */
    const uarch::OooStats &ppc() const
    {
        return std::get<uarch::OooStats>(timing);
    }

    /** The 21164 timing; throws std::bad_variant_access otherwise. */
    const uarch::InOrderStats &alpha() const
    {
        return std::get<uarch::InOrderStats>(timing);
    }
};

/** Memoizes experiment sub-runs; see file comment. */
class RunCache
{
  public:
    /** The process-wide instance the experiment runners share. */
    static RunCache &instance();

    /**
     * A private cache instance. The experiment engine shares
     * instance(); code that needs its own memoization domain, such as
     * a test isolating cache effects, constructs its own. A fresh
     * instance reads LVPLIB_TRACE_CACHE like the shared one;
     * setTraceDir() overrides per instance.
     */
    RunCache();

    ~RunCache();
    RunCache(const RunCache &) = delete;
    RunCache &operator=(const RunCache &) = delete;

    /** Build (once) and share the program for one workload. */
    std::shared_ptr<const isa::Program>
    program(const workloads::Workload &w, workloads::CodeGen cg,
            unsigned scale);

    /** Cached runFunctional(). */
    FuncResult functional(const workloads::Workload &w,
                          workloads::CodeGen cg, unsigned scale,
                          const RunConfig &rc);

    /** Cached profileLocality(). */
    std::shared_ptr<const core::ValueLocalityProfiler>
    locality(const workloads::Workload &w, workloads::CodeGen cg,
             unsigned scale, const RunConfig &rc);

    /**
     * Run a configuration sweep over one workload: element i of the
     * result is @p variants[i]'s run. Each variant is memoized on its
     * own (keyed on the predictor name and a full fingerprint of the
     * machine), and every variant still missing from the cache is
     * computed in ONE pass over the record stream: one annotator per
     * distinct predictor, fanning out to that predictor's machines,
     * with the baseline machines beside them under one root. The pass
     * replays the verified phase-1 trace, or interprets the program
     * in memory when there is no usable trace. With shardJobs() > 1
     * the pass splits by distinct predictor into up to shardJobs()
     * groups, each reading the trace on the shard pool; this is
     * disabled while chaos is armed. Every path gives the same
     * results as per-variant runPredictorOnly / runPpc620 /
     * runAlpha21164 runs of a program that halts. When
     * maxInstructions cuts the program short, every path finishes the
     * machines, as the end of a trace replay does; runPpc620 /
     * runAlpha21164 leave a cut-short model unfinished.
     *
     * Counts each consumed record once per computed variant in
     * instructionsProcessed(), and one trace replay per trace read
     * (one per group).
     *
     * @throws std::invalid_argument for a variant with neither a
     * predictor nor a machine; whatever the pass throws otherwise
     * (nothing failed is memoized).
     */
    std::vector<SweepRun> sweep(const workloads::Workload &w,
                                workloads::CodeGen cg, unsigned scale,
                                const std::vector<SweepVariant> &variants,
                                const RunConfig &rc);

    /**
     * Enable (non-empty) or disable (empty) the on-disk trace cache.
     * The directory must already exist.
     */
    void setTraceDir(std::string dir);

    /** Current trace-cache directory ("" = disabled). */
    std::string traceDir() const;

    /** Effectiveness counters. */
    struct Stats
    {
        std::uint64_t hits = 0;     ///< memoized results returned
        std::uint64_t misses = 0;   ///< results computed
        std::uint64_t traceWrites = 0;  ///< phase-1 traces written
        std::uint64_t traceReplays = 0; ///< trace files read through
        std::uint64_t traceInvalid = 0; ///< bad traces regenerated
        /** Intact traces from another format version regenerated
         *  (format upgrades, kept apart from corruption). */
        std::uint64_t traceFormatUpgrade = 0;
    };

    Stats stats() const;

    /** Drop every memoized entry (trace files stay on disk). */
    void clear();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace lvplib::sim

#endif // LVPLIB_SIM_RUN_CACHE_HH
