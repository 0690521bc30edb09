/**
 * @file
 * Shorthand for the most common sweep in the tests: one predictor-only
 * LVP variant through RunCache::sweep.
 */

#ifndef LVPLIB_TESTS_SWEEP_HELPERS_HH
#define LVPLIB_TESTS_SWEEP_HELPERS_HH

#include "core/lvp_unit.hh"
#include "sim/run_cache.hh"
#include "workloads/workload.hh"

namespace lvplib::testutil
{

/** The memoized LvpStats of @p cfg alone over (w, Ppc, scale, rc). */
inline core::LvpStats
lvpOnly(sim::RunCache &cache, const workloads::Workload &w,
        unsigned scale, const core::LvpConfig &cfg,
        const sim::RunConfig &rc)
{
    return cache
        .sweep(w, workloads::CodeGen::Ppc, scale,
               {{core::lvpPredictor(cfg), {}}}, rc)
        .front()
        .lvp;
}

} // namespace lvplib::testutil

#endif // LVPLIB_TESTS_SWEEP_HELPERS_HH
