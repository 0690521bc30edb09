/**
 * @file
 * VTAGE-style tagged context value prediction (Perais & Seznec,
 * HPCA 2014; the idiom here follows the CVP-1 reference predictor).
 * Where FCM chains per-load value histories, VTAGE indexes a series
 * of tagged banks with geometrically longer slices of the global
 * branch history: bank n hashes the pc with the last len(n) branch
 * outcomes, so the same static load predicts differently down
 * different control paths. The longest-history bank that tag-matches
 * wins; an untagged last-value base bank backstops the misses.
 *
 * Two CVP-bred safeguards gate predictions: a per-entry saturating
 * confidence counter that must be fully saturated before the entry
 * may predict, and a misprediction-burst throttle that suppresses
 * all predictions for a window of loads after any issued
 * misprediction — bursts cluster on context changes, where every
 * bank is cold at once.
 */

#ifndef LVPLIB_CORE_VTAGE_UNIT_HH
#define LVPLIB_CORE_VTAGE_UNIT_HH

#include <cstdint>
#include <vector>

#include "core/lvp_unit.hh"
#include "core/value_predictor.hh"
#include "trace/trace.hh"
#include "util/sat_counter.hh"
#include "util/types.hh"

namespace lvplib::core
{

/** Parameters of a VTAGE prediction unit. */
struct VtageConfig
{
    std::uint32_t baseEntries = 1024; ///< untagged last-value bank
    std::uint32_t bankEntries = 256;  ///< entries per tagged bank
    unsigned banks = 4;               ///< tagged banks (1..8)
    unsigned tagBits = 11;            ///< partial tag width (1..16)
    unsigned confBits = 3;            ///< prediction confidence width
    unsigned minHistory = 2;  ///< branch-history bits, shortest bank
    unsigned throttle = 128;  ///< no-predict window after a mispredict

    /** A budget comparable to the paper's Simple configuration. */
    static VtageConfig simple();

    /** lvp_fatal on any parameter the table math cannot support. */
    void validate() const;

    /** Branch-history bits folded into tagged bank @p b (0-based):
     *  geometric series minHistory * 2^b, capped at 64. */
    unsigned historyBits(unsigned b) const;
};

/**
 * VTAGE unit. No LCT (the per-entry confidence counters replace it)
 * and no CVU (a context prediction has no single coherent memory
 * home), so stats().constants stays 0.
 */
class VtageUnit : public ValuePredictor
{
  public:
    explicit VtageUnit(const VtageConfig &config);

    trace::PredState onLoad(Addr pc, Addr addr, Word value,
                            unsigned size) override;
    void onStore(Addr addr, unsigned size) override;
    void onBranch(bool taken) override;

    const VtageConfig &config() const { return config_; }
    const LvpStats &stats() const override { return stats_; }

    void reset() override;

    std::uint64_t bitBudget() const override;

  private:
    struct Entry
    {
        Word value = 0;
        std::uint16_t tag = 0;
        SatCounter conf{3};
        bool valid = false;
    };

    /** Fold the low historyBits(b) of the history into a hash. */
    Word foldedHistory(unsigned b) const;

    std::uint32_t baseIndex(Addr pc) const;
    std::uint32_t bankIndex(Addr pc, unsigned b) const;
    std::uint16_t bankTag(Addr pc, unsigned b) const;

    VtageConfig config_;
    std::uint32_t baseMask_;
    std::uint32_t bankMask_;
    std::uint16_t tagMask_;
    std::vector<Entry> base_;
    std::vector<std::vector<Entry>> banks_;
    Word history_ = 0;          ///< global branch outcome history
    std::uint64_t sinceMisp_ = 0; ///< loads since last issued mispredict
    LvpStats stats_;
};

} // namespace lvplib::core

#endif // LVPLIB_CORE_VTAGE_UNIT_HH
