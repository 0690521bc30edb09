/**
 * @file
 * Finite-context-method (FCM) value prediction — the two-level
 * history-based predictor that the research line opened by this paper
 * converged on (Sazeides & Smith, 1997). Included as a third point in
 * the predictor ablation: level 1 keeps a per-static-load hash of the
 * last `order` values; level 2 maps that context to the value that
 * followed it last time. Where the paper's LVPT answers "what did
 * this load produce last time?", FCM answers "what followed this
 * VALUE SEQUENCE last time?", capturing repeating patterns of any
 * period that fits the table.
 */

#ifndef LVPLIB_CORE_FCM_UNIT_HH
#define LVPLIB_CORE_FCM_UNIT_HH

#include <cstdint>
#include <vector>

#include "core/lct.hh"
#include "core/lvp_unit.hh"
#include "core/value_predictor.hh"
#include "trace/trace.hh"
#include "util/types.hh"

namespace lvplib::core
{

/** Parameters of an FCM prediction unit. */
struct FcmConfig
{
    std::uint32_t level1Entries = 1024; ///< per-pc context hashes
    std::uint32_t level2Entries = 4096; ///< context -> value table
    unsigned order = 2;                 ///< values folded into the context
    std::uint32_t lctEntries = 256;
    std::uint32_t lctBits = 2;

    /** A budget comparable to the paper's Simple configuration. */
    static FcmConfig simple();

    /** lvp_fatal on any parameter the table math cannot support. */
    void validate() const;
};

/**
 * Two-level value predictor with the same gating LCT as the paper's
 * unit. No CVU: a context-based prediction has no single memory
 * location whose coherence a CAM could guarantee, so constants are
 * never identified (stats().constants stays 0).
 */
class FcmUnit : public ValuePredictor
{
  public:
    explicit FcmUnit(const FcmConfig &config);

    /** Process one dynamic load; returns its prediction state. */
    trace::PredState onLoad(Addr pc, Addr addr, Word value,
                            unsigned size) override;

    /** Stores don't affect a CVU-less predictor; kept for interface
     *  symmetry. */
    void onStore(Addr addr, unsigned size) override;

    const FcmConfig &config() const { return config_; }
    const LvpStats &stats() const override { return stats_; }

    void reset() override;

    std::uint64_t bitBudget() const override;

    /** Level-1 folded value history, one context per entry (for the
     *  context-fold regression tests). */
    const std::vector<Word> &contexts() const { return contexts_; }

  private:
    std::uint32_t level1Index(Addr pc) const;
    std::uint32_t level2Index(Addr pc, Word context) const;

    struct L2Entry
    {
        Word value = 0;
        bool valid = false;
    };

    FcmConfig config_;
    std::uint32_t l1Mask_;
    std::uint32_t l2Mask_;
    unsigned foldShift_; ///< ceil(64 / order): context bits per fold
    std::vector<Word> contexts_; ///< level 1: folded value history
    std::vector<L2Entry> values_; ///< level 2
    Lct lct_;
    LvpStats stats_;
};

} // namespace lvplib::core

#endif // LVPLIB_CORE_FCM_UNIT_HH
