/**
 * @file
 * End-to-end run drivers implementing the paper's three-phase
 * experimental framework (Section 5): functional trace generation,
 * LVP-unit simulation, and timing simulation — composed as streaming
 * trace sinks so no trace is ever materialized.
 */

#ifndef LVPLIB_SIM_PIPELINE_DRIVER_HH
#define LVPLIB_SIM_PIPELINE_DRIVER_HH

#include <cstdint>
#include <optional>

#include "core/config.hh"
#include "core/locality_profiler.hh"
#include "core/lvp_unit.hh"
#include "core/value_profiler.hh"
#include "core/value_predictor.hh"
#include "isa/program.hh"
#include "trace/trace_stats.hh"
#include "uarch/alpha21164.hh"
#include "uarch/ppc620.hh"
#include "workloads/workload.hh"

namespace lvplib::sim
{

/** Common run bounds. */
struct RunConfig
{
    std::uint64_t maxInstructions = 200'000'000; ///< runaway guard

    // Watchdog guards (sim/resilience.hh). Unlike maxInstructions,
    // hitting one is an error: the run throws SimError(Watchdog)
    // instead of ending early with partial results. Both are
    // excluded from RunCache keys — a watchdog-aborted run throws,
    // and thrown runs are never memoized, so the cache only ever
    // holds results the limits did not affect. 0 disables; a zero
    // wallLimitMs falls back to the process default
    // (setDefaultWallLimitMs).
    std::uint64_t wallLimitMs = 0;   ///< wall-clock deadline
    std::uint64_t recordBudget = 0;  ///< max trace records consumed
};

/** Result of a functional (phase-1 only) run. */
struct FuncResult
{
    trace::TraceStats stats;
    Word result = 0;      ///< the program's "__result" checksum
    bool completed = false;
};

/** Run a program functionally, collecting trace statistics. */
FuncResult runFunctional(const isa::Program &prog,
                         const RunConfig &rc = {});

/** Measure load value locality (Figures 1-2). */
core::ValueLocalityProfiler profileLocality(const isa::Program &prog,
                                            const RunConfig &rc = {});

/** Measure all-instruction value locality (Section 7 extension). */
core::AllValueLocalityProfiler
profileAllValues(const isa::Program &prog, const RunConfig &rc = {});

/** Run one predictor alone over a program's trace, interpreting it
 *  in memory: the reference RunCache::sweep is checked against. */
core::LvpStats runPredictorOnly(const isa::Program &prog,
                                const core::PredictorInfo &info,
                                const RunConfig &rc = {});

/** Timing result for the out-of-order machine. */
struct PpcRun
{
    uarch::OooStats timing;
    core::LvpStats lvp; ///< zeroed when no LVP config was given
};

/**
 * Run the PowerPC 620/620+ timing model, optionally with an LVP unit
 * annotating loads ahead of it.
 */
PpcRun runPpc620(const isa::Program &prog,
                 const uarch::Ppc620Config &mc,
                 const std::optional<core::LvpConfig> &lvp,
                 const RunConfig &rc = {});

/** Timing result for the in-order machine. */
struct AlphaRun
{
    uarch::InOrderStats timing;
    core::LvpStats lvp;
};

/** Run the Alpha 21164 timing model, optionally with LVP. */
AlphaRun runAlpha21164(const isa::Program &prog,
                       const uarch::AlphaConfig &mc,
                       const std::optional<core::LvpConfig> &lvp,
                       const RunConfig &rc = {});

/**
 * Publish one finished timing-model run into the process metric
 * registry: pipeline.<model>.{runs,cycles,instructions} counters plus
 * a pipeline.<model>.ipc_x100 distribution (IPC in hundredths).
 * Called by the drivers above and by RunCache's trace-replay paths,
 * which construct the models directly.
 */
void publishModelRun(const uarch::OooStats &s);
void publishModelRun(const uarch::InOrderStats &s);

/**
 * Process-wide count of dynamic instructions pushed through any
 * pipeline (interpreted or replayed from a cached trace). The
 * lvpbench driver differences this around each experiment to report
 * simulation throughput.
 */
std::uint64_t instructionsProcessed();

/** Add @p n to the process-wide instruction counter. */
void addInstructionsProcessed(std::uint64_t n);

} // namespace lvplib::sim

#endif // LVPLIB_SIM_PIPELINE_DRIVER_HH
