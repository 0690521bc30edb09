/**
 * @file
 * The predictor championship's core contract: every contender sits
 * behind the core::ValuePredictor interface and its name-keyed
 * registry, carries an honest hardware bit budget, and rejects
 * impossible table geometries at construction time with a clear
 * fatal message. Also
 * behavior tests for the two CVP-bred contenders (VTAGE and the
 * skewed-associative stride unit).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/config.hh"
#include "core/lvp_unit.hh"
#include "core/skew_stride_unit.hh"
#include "core/stride_unit.hh"
#include "core/value_predictor.hh"
#include "core/vtage_unit.hh"
#include "isa/program.hh"
#include "util/rng.hh"

namespace lvplib::core
{
namespace
{


constexpr Addr Pc0 = isa::layout::CodeBase;
constexpr Addr DataA = 0x100000;

TEST(PredictorRegistry, HoldsEveryContenderInStableOrder)
{
    // Registry order is part of the golden-metrics contract: the
    // championship publishes per-predictor metrics in this order.
    std::vector<std::string> names;
    for (const auto &info : predictorRegistry())
        names.push_back(info.name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "lvp", "stride", "fcm", "vtage", "skewstride"}));
}

TEST(PredictorRegistry, FindsByNameAndRejectsUnknown)
{
    for (const auto &info : predictorRegistry()) {
        const PredictorInfo *found = findPredictor(info.name);
        ASSERT_NE(found, nullptr) << info.name;
        EXPECT_EQ(found, &info);
        EXPECT_FALSE(info.summary.empty()) << info.name;
    }
    EXPECT_EQ(findPredictor("oracle"), nullptr);
    EXPECT_EQ(findPredictor(""), nullptr);
}

TEST(PredictorRegistry, FactoriesMakeWorkingUnits)
{
    for (const auto &info : predictorRegistry()) {
        auto unit = info.make();
        ASSERT_NE(unit, nullptr) << info.name;
        EXPECT_EQ(unit->stats().loads, 0u) << info.name;
        unit->onLoad(Pc0, DataA, 42, 8);
        unit->onStore(DataA, 8);
        unit->onBranch(true);
        EXPECT_EQ(unit->stats().loads, 1u) << info.name;
        unit->reset();
        EXPECT_EQ(unit->stats().loads, 0u) << info.name;
    }
}

TEST(PredictorRegistry, BitBudgetsAreSaneAndDistinct)
{
    // Every budget must be nonzero, constant across a unit's life, and
    // in a hardware-plausible band (the paper's Simple unit is ~68
    // kbit; nothing in the zoo should be a thousand times that).
    for (const auto &info : predictorRegistry()) {
        auto unit = info.make();
        const std::uint64_t bits = unit->bitBudget();
        EXPECT_GT(bits, 1024u) << info.name;
        EXPECT_LT(bits, 64u * 1024 * 1024) << info.name;
        for (int i = 0; i < 100; ++i)
            unit->onLoad(Pc0 + (i % 7) * 4, DataA + i * 8,
                         static_cast<Word>(i), 8);
        EXPECT_EQ(unit->bitBudget(), bits)
            << info.name << ": budget is a property of the config";
    }
}

TEST(VtageUnit, SaturatesOntoConstantsAndStaysAccurate)
{
    VtageUnit u(VtageConfig::simple());
    for (int i = 0; i < 400; ++i)
        u.onLoad(Pc0, DataA, 7, 8);
    const auto &st = u.stats();
    EXPECT_GT(st.correct, 300u)
        << "confidence must saturate onto a constant quickly";
    EXPECT_EQ(st.incorrect, 0u);
    EXPECT_EQ(st.constants, 0u) << "no CVU: never claims constants";
    EXPECT_EQ(st.noPred + st.correct + st.incorrect, st.loads);
    EXPECT_EQ(st.actualPred + st.actualUnpred, st.loads);
}

TEST(VtageUnit, BranchHistorySeparatesContexts)
{
    // One static load whose value is determined by the preceding
    // branch outcome: last-value alone flip-flops, but a tagged bank
    // indexed with branch history can learn both contexts.
    VtageConfig cfg = VtageConfig::simple();
    cfg.throttle = 1; // keep the burst throttle out of this test
    VtageUnit withHistory(cfg);
    for (int i = 0; i < 3000; ++i) {
        bool taken = i % 2 == 0;
        withHistory.onBranch(taken);
        withHistory.onLoad(Pc0, DataA, taken ? 10 : 20, 8);
    }
    const auto &st = withHistory.stats();
    double rate = static_cast<double>(st.correct) /
                  static_cast<double>(st.loads);
    EXPECT_GT(rate, 0.8)
        << "tagged history banks must disambiguate the alternation";
}

TEST(VtageUnit, ThrottleSuppressesPredictionsAfterMisprediction)
{
    VtageConfig cfg = VtageConfig::simple();
    cfg.throttle = 64;
    VtageUnit u(cfg);
    // Saturate onto a constant, then betray it once.
    for (int i = 0; i < 200; ++i)
        u.onLoad(Pc0, DataA, 5, 8);
    ASSERT_GT(u.stats().correct, 0u);
    u.onLoad(Pc0, DataA, 999, 8); // issued mispredict: throttle arms
    const auto afterMisp = u.stats();
    // The next throttle-window loads must not issue predictions even
    // though other entries could be confident.
    for (int i = 0; i < 63; ++i)
        u.onLoad(Pc0 + 4, DataA, 5, 8);
    EXPECT_EQ(u.stats().correct, afterMisp.correct);
    EXPECT_EQ(u.stats().incorrect, afterMisp.incorrect);
    EXPECT_EQ(u.stats().noPred, afterMisp.noPred + 63);
}

TEST(VtageConfigDeathTest, RejectsBadGeometry)
{
    VtageConfig cfg;
    cfg.baseEntries = 1000;
    EXPECT_EXIT(VtageUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
    cfg = VtageConfig::simple();
    cfg.bankEntries = 255;
    EXPECT_EXIT(VtageUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
    cfg = VtageConfig::simple();
    cfg.banks = 0;
    EXPECT_EXIT(VtageUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
    cfg = VtageConfig::simple();
    cfg.tagBits = 17;
    EXPECT_EXIT(VtageUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
}

TEST(SkewStrideUnit, LocksOntoStridesAcrossAliasingLoads)
{
    SkewStrideUnit u(SkewStrideConfig::simple());
    // Three static loads with different strides, pc-spaced so a
    // direct-mapped table of 256 entries would alias two of them.
    const Addr pcs[] = {Pc0, Pc0 + 256 * 4, Pc0 + 512 * 4};
    const Word strides[] = {8, 24, 4096};
    Word bases[] = {0x1000, 0x2000, 0x3000};
    for (int i = 0; i < 500; ++i)
        for (int j = 0; j < 3; ++j) {
            u.onLoad(pcs[j], DataA + j * 64, bases[j], 8);
            bases[j] += strides[j];
        }
    const auto &st = u.stats();
    double rate = static_cast<double>(st.correct) /
                  static_cast<double>(st.loads);
    EXPECT_GT(rate, 0.9)
        << "skewed ways must keep aliasing strides apart";
    EXPECT_EQ(st.constants, 0u);
    EXPECT_EQ(st.noPred + st.correct + st.incorrect, st.loads);
}

TEST(SkewStrideUnit, ConfidenceSuppressesNoise)
{
    SkewStrideUnit u(SkewStrideConfig::simple());
    Rng rng(23);
    for (int i = 0; i < 3000; ++i)
        u.onLoad(Pc0, DataA, rng.next(), 8);
    const auto &st = u.stats();
    EXPECT_GT(st.noPred, 2500u)
        << "random values must not clear the confidence bar";
}

TEST(SkewStrideConfigDeathTest, RejectsBadGeometry)
{
    SkewStrideConfig cfg;
    cfg.entriesPerWay = 300;
    EXPECT_EXIT(SkewStrideUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
    cfg = SkewStrideConfig::simple();
    cfg.ways = 9;
    EXPECT_EXIT(SkewStrideUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
    cfg = SkewStrideConfig::simple();
    cfg.replaceThreshold = 8; // >= 2^confBits
    EXPECT_EXIT(SkewStrideUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
}

TEST(StrideConfigDeathTest, RejectsNonPowerOfTwoTables)
{
    StrideConfig cfg = StrideConfig::simple();
    cfg.entries = 100;
    EXPECT_EXIT(StrideLvpUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
    cfg = StrideConfig::simple();
    cfg.lctEntries = 33;
    EXPECT_EXIT(StrideLvpUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
}

TEST(LvpConfigDeathTest, RejectsNonPowerOfTwoTables)
{
    LvpConfig cfg = LvpConfig::simple();
    cfg.lvptEntries = 1000;
    EXPECT_EXIT(LvpUnit u(cfg), ::testing::ExitedWithCode(1), "fatal:");
    cfg = LvpConfig::simple();
    cfg.lctEntries = 100;
    EXPECT_EXIT(LvpUnit u(cfg), ::testing::ExitedWithCode(1), "fatal:");
    // Set-associative CVU ablation: the set count (entries / ways)
    // must be a power of two, caught at config time.
    cfg = LvpConfig::simple();
    cfg.cvuEntries = 36;
    cfg.cvuWays = 4;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "fatal:");
}

} // namespace
} // namespace lvplib::core
