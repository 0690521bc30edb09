/**
 * @file
 * The common interface of every load value predictor in the zoo, plus
 * the name-keyed registry behind the championship harness (ROADMAP
 * item 2, realizing paper Section 7's call to move "beyond
 * history-based prediction").
 *
 * Every unit — the paper's LVPT+LCT+CVU, the stride and FCM
 * extensions, and the CVP-style contenders (VTAGE, skewed stride) —
 * exposes the same trace-driven protocol: onLoad / onStore / onBranch
 * in program order and LvpStats accounting. bitBudget() counts every
 * bit of architected table state, making leaderboard comparisons
 * hardware-budget-fair.
 */

#ifndef LVPLIB_CORE_VALUE_PREDICTOR_HH
#define LVPLIB_CORE_VALUE_PREDICTOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.hh"
#include "util/types.hh"

namespace lvplib::core
{

struct LvpStats;

/**
 * Abstract trace-driven value predictor. Concrete units keep their
 * typed interfaces (tests and the paper runners use those); the
 * virtual layer exists so the registry, the championship experiment,
 * and RunCache::sweep can treat the whole zoo uniformly. Deriving adds
 * no state and changes no arithmetic, so the migrated units' outputs
 * stay byte-identical.
 */
class ValuePredictor
{
  public:
    virtual ~ValuePredictor() = default;

    /** Process one dynamic load; returns its prediction state. */
    virtual trace::PredState onLoad(Addr pc, Addr addr, Word value,
                                    unsigned size) = 0;

    /** Process one dynamic store (CVU coherence; no-op for CVU-less
     *  units). */
    virtual void onStore(Addr addr, unsigned size) = 0;

    /** Process one dynamic branch outcome (history-indexed units);
     *  default no-op. */
    virtual void onBranch(bool taken) { (void)taken; }

    virtual const LvpStats &stats() const = 0;

    /** Clear tables and statistics. */
    virtual void reset() = 0;

    /**
     * Bits of architected predictor state: every value, tag, counter,
     * valid bit, and history register a hardware implementation would
     * have to keep. Excludes statistics (measurement, not hardware)
     * and simulation bookkeeping. DESIGN.md documents the counting
     * rules per unit.
     */
    virtual std::uint64_t bitBudget() const = 0;
};

/** One registered predictor: a name, a blurb, and a factory building
 *  a Simple-class-budget instance. */
struct PredictorInfo
{
    std::string name;    ///< registry key, e.g. "vtage"
    std::string summary; ///< one-line description for reports
    std::function<std::unique_ptr<ValuePredictor>()> make;
};

/**
 * Every predictor in the zoo, in fixed leaderboard order. The order
 * is part of the golden-metrics contract: experiments iterate it
 * deterministically.
 */
const std::vector<PredictorInfo> &predictorRegistry();

/** Look up a registered predictor; nullptr when unknown. */
const PredictorInfo *findPredictor(std::string_view name);

/**
 * The trace-pipeline stage driving any value predictor: stamps each
 * load's PredState into the record and forwards everything
 * downstream. Stores reach onStore() and branch records onBranch(),
 * so every unit sees the same protocol whether it runs alone or in
 * front of a timing model.
 */
class PredictorAnnotator : public trace::TraceSink
{
  public:
    PredictorAnnotator(const PredictorInfo &info,
                       trace::TraceSink &downstream)
        : PredictorAnnotator(info.make(), downstream)
    {}

    void consume(const trace::TraceRecord &rec) override;
    void consumeBatch(std::span<const trace::TraceRecord> recs) override;
    void finish() override { downstream_.finish(); }

    const ValuePredictor &unit() const { return *unit_; }

  protected:
    /** Drive an already-built @p unit (typed views such as
     *  LvpAnnotator construct their own). */
    PredictorAnnotator(std::unique_ptr<ValuePredictor> unit,
                       trace::TraceSink &downstream)
        : unit_(std::move(unit)), downstream_(downstream)
    {}

  private:
    /** Records annotated and forwarded per downstream batch: the
     *  copy buffer stays small (74 KB) whatever the producer's batch
     *  size, here a whole 8Ki-record trace block. */
    static constexpr std::size_t ChunkRecords = 1024;

    /** Run the unit over @p out, stamping its pred in place. */
    void annotate(trace::TraceRecord &out);

    std::unique_ptr<ValuePredictor> unit_;
    trace::TraceSink &downstream_;
    std::vector<trace::TraceRecord> batch_; ///< annotated copies
};

} // namespace lvplib::core

#endif // LVPLIB_CORE_VALUE_PREDICTOR_HH
