#include "sim/extensions.hh"

#include <array>
#include <vector>

#include "core/config.hh"
#include "core/lvp_unit.hh"
#include "core/value_profiler.hh"
#include "obs/metrics.hh"
#include "sim/parallel.hh"
#include "sim/pipeline_driver.hh"
#include "sim/run_cache.hh"
#include "uarch/machine_config.hh"
#include "util/stats.hh"
#include "workloads/workload.hh"

namespace lvplib::sim
{

using core::LvpConfig;
using uarch::Ppc620Config;
using workloads::CodeGen;
using workloads::Workload;
using workloads::allWorkloads;

namespace
{

RunConfig
runCfg(const ExperimentOptions &opts)
{
    return {opts.maxInstructions};
}

RunCache &
cache()
{
    return RunCache::instance();
}

/** Publish one headline number, mirroring experiment.cc's helper. */
void
pub(std::initializer_list<std::string_view> parts, double v)
{
    obs::metrics().gauge(obs::metricKey(parts)).set(v);
}

} // namespace

std::vector<ExperimentSection>
ablationPredictors(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Benchmark", "LVP cover", "LVP accur", "LVP good",
              "Stride cover", "Stride accur", "Stride good",
              "FCM cover", "FCM accur", "FCM good"});
    struct PredRow
    {
        core::LvpStats lvp, stride, fcm;
    };
    // The registry's stride and fcm entries are the Simple-budget
    // StrideConfig::simple() and FcmConfig::simple() units.
    const std::vector<SweepVariant> variants = {
        {core::lvpPredictor(LvpConfig::simple()), {}},
        {*core::findPredictor("stride"), {}},
        {*core::findPredictor("fcm"), {}}};
    auto rows = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            auto runs = cache().sweep(w, CodeGen::Ppc, opts.scale,
                                      variants, runCfg(opts));
            return PredRow{runs[0].lvp, runs[1].lvp, runs[2].lvp};
        });
    auto good = [](const core::LvpStats &s) {
        return pct(s.correct + s.constants, s.loads);
    };
    std::vector<double> lvp_good, stride_good, fcm_good;
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &r = rows[i];
        lvp_good.push_back(good(r.lvp));
        stride_good.push_back(good(r.stride));
        fcm_good.push_back(good(r.fcm));
        t.row({suite[i].name, TextTable::fmtPct(r.lvp.predictionRate()),
               TextTable::fmtPct(r.lvp.accuracy()),
               TextTable::fmtPct(good(r.lvp)),
               TextTable::fmtPct(r.stride.predictionRate()),
               TextTable::fmtPct(r.stride.accuracy()),
               TextTable::fmtPct(good(r.stride)),
               TextTable::fmtPct(r.fcm.predictionRate()),
               TextTable::fmtPct(r.fcm.accuracy()),
               TextTable::fmtPct(good(r.fcm))});
        struct PredCol
        {
            const char *key;
            const core::LvpStats *s;
        };
        for (const auto &[key, s] :
             {PredCol{"lvp", &r.lvp}, PredCol{"stride", &r.stride},
              PredCol{"fcm", &r.fcm}}) {
            pub({"ablation_predictors", suite[i].name,
                 std::string(key) + "_cover"},
                s->predictionRate());
            pub({"ablation_predictors", suite[i].name,
                 std::string(key) + "_accur"},
                s->accuracy());
            pub({"ablation_predictors", suite[i].name,
                 std::string(key) + "_good"},
                good(*s));
        }
    }
    t.row({"MEAN", "-", "-", TextTable::fmtPct(mean(lvp_good)), "-",
           "-", TextTable::fmtPct(mean(stride_good)), "-", "-",
           TextTable::fmtPct(mean(fcm_good))});
    pub({"ablation_predictors", "mean", "lvp_good"}, mean(lvp_good));
    pub({"ablation_predictors", "mean", "stride_good"},
        mean(stride_good));
    pub({"ablation_predictors", "mean", "fcm_good"}, mean(fcm_good));

    return {{"Ablation: last-value LVP vs stride vs two-level FCM",
             "the paper's future-work directions, realized: stride "
             "detection matches last-value prediction on constants and "
             "wins on strided streams; the two-level finite-context "
             "method (where the field ended up) dominates both on "
             "patterned values, at the cost of losing the CVU's "
             "bandwidth savings.",
             std::move(t)}};
}

std::vector<ExperimentSection>
ablationLvpDesign(const ExperimentOptions &opts)
{
    // Plan: every section's variants in one list, so each workload's
    // trace is replayed once for all six sections (the memo still
    // shares variants with other experiments). Each section renders
    // from its slice, which starts at the recorded index.
    std::vector<SweepVariant> variants;
    auto addLvp = [&variants](const LvpConfig &cfg) {
        variants.push_back({core::lvpPredictor(cfg), {}});
    };

    static const std::uint32_t entriesSweep[] = {64u, 256u, 1024u,
                                                 4096u};
    const std::size_t entriesAt = variants.size();
    for (std::uint32_t entries : entriesSweep) {
        auto cfg = LvpConfig::simple();
        cfg.lvptEntries = entries;
        addLvp(cfg);
    }

    static const std::uint32_t depthSweep[] = {1u, 2u, 4u, 8u, 16u};
    const std::size_t depthAt = variants.size();
    for (std::uint32_t depth : depthSweep) {
        auto cfg = LvpConfig::limit();
        cfg.historyDepth = depth;
        addLvp(cfg);
    }

    static const std::uint32_t cvuSweep[] = {8u, 32u, 128u, 512u};
    const std::size_t cvuAt = variants.size();
    for (std::uint32_t entries : cvuSweep) {
        auto cfg = LvpConfig::constant();
        cfg.cvuEntries = entries;
        addLvp(cfg);
    }
    // Organization: the paper's full CAM vs a cheaper 4-way
    // set-associative CVU at the Constant config's capacity.
    {
        auto cfg = LvpConfig::constant();
        cfg.cvuWays = 4;
        addLvp(cfg);
    }

    static const std::uint32_t bhrSweep[] = {0u, 2u, 4u, 8u};
    const std::size_t bhrAt = variants.size();
    for (std::uint32_t bits : bhrSweep) {
        auto cfg = LvpConfig::simple();
        cfg.bhrBits = bits;
        addLvp(cfg);
    }

    // Recovery policy: a no-LVP baseline and Simple on each machine.
    const std::size_t recoveryAt = variants.size();
    for (bool squash : {false, true}) {
        auto mc = Ppc620Config::base620();
        mc.squashOnValueMispredict = squash;
        variants.push_back({std::nullopt, mc});
        variants.push_back({core::lvpPredictor(LvpConfig::simple()), mc});
    }

    const std::size_t tagAt = variants.size();
    for (bool tagged : {false, true}) {
        auto cfg = LvpConfig::simple();
        cfg.taggedLvpt = tagged;
        addLvp(cfg);
    }

    const auto runs = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            return cache().sweep(w, CodeGen::Ppc, opts.scale, variants,
                                 runCfg(opts));
        });

    // Render: each section reads its slice, averaging over the suite
    // in suite order.
    auto suiteMean = [&runs](std::size_t v, auto stat) {
        std::vector<double> col;
        col.reserve(runs.size());
        for (const auto &r : runs)
            col.push_back(stat(r[v].lvp));
        return mean(col);
    };
    auto good = [](const core::LvpStats &st) {
        return pct(st.correct + st.constants, st.loads);
    };
    auto constants = [](const core::LvpStats &st) {
        return st.constantRate();
    };
    std::vector<ExperimentSection> sections;

    {
        TextTable t;
        t.header({"LVPT entries", "good predictions"});
        for (std::size_t i = 0; i < std::size(entriesSweep); ++i) {
            double g = suiteMean(entriesAt + i, good);
            t.row({std::to_string(entriesSweep[i]),
                   TextTable::fmtPct(g)});
            pub({"ablation_lvp_design",
                 "lvpt_" + std::to_string(entriesSweep[i]), "good"},
                g);
        }
        sections.push_back(
            {"Ablation 1: LVPT capacity sweep",
             "small tables alias destructively; gains flatten once the "
             "hot static loads fit (the paper picked 1024).",
             std::move(t)});
    }

    {
        TextTable t;
        t.header({"History depth (oracle select)", "good predictions"});
        for (std::size_t i = 0; i < std::size(depthSweep); ++i) {
            double g = suiteMean(depthAt + i, good);
            t.row({std::to_string(depthSweep[i]), TextTable::fmtPct(g)});
            pub({"ablation_lvp_design",
                 "history_" + std::to_string(depthSweep[i]), "good"},
                g);
        }
        sections.push_back(
            {"Ablation 2: history-depth sweep",
             "deeper histories with perfect selection capture "
             "alternating values; most of the benefit arrives by depth "
             "4-8 (the paper's Figure 1 contrasts depths 1 and 16).",
             std::move(t)});
    }

    {
        TextTable t;
        t.header({"CVU entries", "constants (% of loads)"});
        for (std::size_t i = 0; i < std::size(cvuSweep); ++i) {
            double c = suiteMean(cvuAt + i, constants);
            t.row({std::to_string(cvuSweep[i]), TextTable::fmtPct(c)});
            pub({"ablation_lvp_design",
                 "cvu_" + std::to_string(cvuSweep[i]), "constants"},
                c);
        }
        double c4 = suiteMean(cvuAt + std::size(cvuSweep), constants);
        t.row({"128 (4-way set-assoc)", TextTable::fmtPct(c4)});
        pub({"ablation_lvp_design", "cvu_128_4way", "constants"}, c4);
        sections.push_back(
            {"Ablation 3: CVU capacity and organization",
             "more CAM entries keep more constants verified between "
             "stores; returns diminish as the hot constant set fits.",
             std::move(t)});
    }

    {
        TextTable t;
        t.header({"BHR bits in LVPT index", "good predictions"});
        for (std::size_t i = 0; i < std::size(bhrSweep); ++i) {
            double g = suiteMean(bhrAt + i, good);
            t.row({std::to_string(bhrSweep[i]), TextTable::fmtPct(g)});
            pub({"ablation_lvp_design",
                 "bhr_" + std::to_string(bhrSweep[i]), "good"},
                g);
        }
        sections.push_back(
            {"Ablation 4: branch-history-indexed LVPT (paper §7)",
             "hashing global branch history into the lookup index "
             "gives context-dependent loads separate entries (helping "
             "alternating-value loads) at the cost of spreading "
             "context-independent loads across more entries.",
             std::move(t)});
    }

    {
        TextTable t;
        t.header({"Recovery policy", "GM speedup (620, Simple)"});
        for (bool squash : {false, true}) {
            const std::size_t base = recoveryAt + (squash ? 2 : 0);
            std::vector<double> speedups;
            speedups.reserve(runs.size());
            for (const auto &r : runs)
                speedups.push_back(r[base + 1].ppc().ipc() /
                                   r[base].ppc().ipc());
            t.row({squash ? "squash + refetch" : "selective reissue "
                                                 "(paper)",
                   TextTable::fmtDouble(geomean(speedups), 3)});
            pub({"ablation_lvp_design",
                 squash ? "recovery_squash" : "recovery_reissue",
                 "gm_speedup"},
                geomean(speedups));
        }
        sections.push_back(
            {"Ablation 5: value-misprediction recovery policy",
             "the paper's selective reissue keeps the worst-case "
             "penalty at one cycle plus structural hazards; squashing "
             "like a branch mispredict erodes (or inverts) the Simple "
             "configuration's gains, which is why the LCT + selective "
             "recovery combination matters.",
             std::move(t)});
    }

    {
        TextTable t;
        t.header({"LVPT tagging", "good predictions"});
        for (bool tagged : {false, true}) {
            double g = suiteMean(tagAt + (tagged ? 1 : 0), good);
            t.row({tagged ? "tagged" : "untagged (paper)",
                   TextTable::fmtPct(g)});
            pub({"ablation_lvp_design",
                 tagged ? "lvpt_tagged" : "lvpt_untagged", "good"},
                g);
        }
        sections.push_back(
            {"Ablation 6: tagged vs untagged LVPT",
             "tags remove destructive interference but also the "
             "constructive kind, and cost area; at 1024 entries the "
             "difference is small, which is why the paper left the "
             "table untagged.",
             std::move(t)});
    }

    return sections;
}

std::vector<ExperimentSection>
ablationAllValues(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Benchmark", "ALL d=1", "ALL d=16", "SCFX d=1",
              "SCFX d=16", "MCFX d=1", "FPU d=1", "LSU d=1",
              "LSU d=16"});
    auto cell = [](const core::LocalityCounts &c, bool deep) {
        if (c.loads == 0)
            return std::string("-");
        return TextTable::fmtPct(deep ? c.pctDepthN() : c.pctDepth1());
    };
    // All-value profiling is this experiment's private phase (the
    // trace cache only records load values), so it interprets.
    auto profs = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            return profileAllValues(
                *cache().program(w, CodeGen::Ppc, opts.scale),
                runCfg(opts));
        });
    std::vector<double> all1, all16;
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &prof = profs[i];
        all1.push_back(prof.total().pctDepth1());
        all16.push_back(prof.total().pctDepthN());
        t.row({suite[i].name, cell(prof.total(), false),
               cell(prof.total(), true),
               cell(prof.byFu(isa::FuType::SCFX), false),
               cell(prof.byFu(isa::FuType::SCFX), true),
               cell(prof.byFu(isa::FuType::MCFX), false),
               cell(prof.byFu(isa::FuType::FPU), false),
               cell(prof.byFu(isa::FuType::LSU), false),
               cell(prof.byFu(isa::FuType::LSU), true)});
        pub({"ablation_all_values", suite[i].name, "all_d1"},
            all1.back());
        pub({"ablation_all_values", suite[i].name, "all_d16"},
            all16.back());
        struct FuCol
        {
            const char *key;
            isa::FuType fu;
            bool deep;
        };
        for (const auto &[key, fu, deep] :
             {FuCol{"scfx_d1", isa::FuType::SCFX, false},
              FuCol{"scfx_d16", isa::FuType::SCFX, true},
              FuCol{"mcfx_d1", isa::FuType::MCFX, false},
              FuCol{"fpu_d1", isa::FuType::FPU, false},
              FuCol{"lsu_d1", isa::FuType::LSU, false},
              FuCol{"lsu_d16", isa::FuType::LSU, true}}) {
            const auto &c = prof.byFu(fu);
            if (c.loads == 0)
                continue; // rendered as "-": no number to publish
            pub({"ablation_all_values", suite[i].name, key},
                deep ? c.pctDepthN() : c.pctDepth1());
        }
    }
    t.row({"MEAN", TextTable::fmtPct(mean(all1)),
           TextTable::fmtPct(mean(all16)), "-", "-", "-", "-", "-",
           "-"});
    pub({"ablation_all_values", "mean", "all_d1"}, mean(all1));
    pub({"ablation_all_values", "mean", "all_d16"}, mean(all16));

    return {{"Extension: value locality of ALL value-producing "
             "instructions",
             "the follow-up literature (e.g. Lipasti & Shen, MICRO-29) "
             "found that non-load instructions also exhibit substantial "
             "value locality; loads are not special, just the most "
             "latency-critical.",
             std::move(t)}};
}

std::vector<ExperimentSection>
ablationBpred(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Benchmark", "bimodal mispred", "gshare mispred",
              "bimodal IPC", "gshare IPC", "gshare+LVP IPC"});
    auto bimodal_cfg = Ppc620Config::base620();
    auto gshare_cfg = Ppc620Config::base620();
    gshare_cfg.bpred.gshareBits = 8;
    struct BpredRow
    {
        uarch::OooStats bimodal, gshare, gshare_lvp;
    };
    const std::vector<SweepVariant> variants = {
        {std::nullopt, bimodal_cfg},
        {std::nullopt, gshare_cfg},
        {core::lvpPredictor(LvpConfig::simple()), gshare_cfg}};
    auto rows = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            auto runs = cache().sweep(w, CodeGen::Ppc, opts.scale,
                                      variants, runCfg(opts));
            return BpredRow{runs[0].ppc(), runs[1].ppc(), runs[2].ppc()};
        });
    auto mr = [](const uarch::OooStats &r) {
        return pct(r.branchMispredicts, r.instructions);
    };
    std::vector<double> bi, gs, gl;
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &r = rows[i];
        bi.push_back(r.bimodal.ipc());
        gs.push_back(r.gshare.ipc());
        gl.push_back(r.gshare_lvp.ipc());
        t.row({suite[i].name, TextTable::fmtPct(mr(r.bimodal), 2),
               TextTable::fmtPct(mr(r.gshare), 2),
               TextTable::fmtDouble(r.bimodal.ipc(), 3),
               TextTable::fmtDouble(r.gshare.ipc(), 3),
               TextTable::fmtDouble(r.gshare_lvp.ipc(), 3)});
        pub({"ablation_bpred", suite[i].name, "bimodal_mispred"},
            mr(r.bimodal));
        pub({"ablation_bpred", suite[i].name, "gshare_mispred"},
            mr(r.gshare));
        pub({"ablation_bpred", suite[i].name, "bimodal_ipc"},
            r.bimodal.ipc());
        pub({"ablation_bpred", suite[i].name, "gshare_ipc"},
            r.gshare.ipc());
        pub({"ablation_bpred", suite[i].name, "gshare_lvp_ipc"},
            r.gshare_lvp.ipc());
    }
    t.row({"MEAN", "-", "-", TextTable::fmtDouble(mean(bi), 3),
           TextTable::fmtDouble(mean(gs), 3),
           TextTable::fmtDouble(mean(gl), 3)});
    pub({"ablation_bpred", "mean", "bimodal_ipc"}, mean(bi));
    pub({"ablation_bpred", "mean", "gshare_ipc"}, mean(gs));
    pub({"ablation_bpred", "mean", "gshare_lvp_ipc"}, mean(gl));

    return {{"Ablation: bimodal vs gshare front end (with and without "
             "LVP)",
             "value prediction and better branch prediction compose: "
             "LVP collapses the load half of load-compare-branch "
             "chains, so its gains persist under a stronger front end.",
             std::move(t)}};
}

std::vector<ExperimentSection>
sec61MissRates(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Benchmark", "base miss/instr", "Constant miss/instr",
              "miss reduction", "L1 access reduction",
              "const loads"});
    struct MissRow
    {
        uarch::InOrderStats base, with;
    };
    const std::vector<SweepVariant> variants = {
        {std::nullopt, uarch::AlphaConfig::base21164()},
        {core::lvpPredictor(LvpConfig::constant()),
         uarch::AlphaConfig::base21164()}};
    auto rows = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            auto runs = cache().sweep(w, CodeGen::Alpha, opts.scale,
                                      variants, runCfg(opts));
            return MissRow{runs[0].alpha(), runs[1].alpha()};
        });
    std::vector<double> miss_red, acc_red;
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &r = rows[i];
        double mr_base = r.base.missRatePerInst();
        double mr_with = r.with.missRatePerInst();
        double mred = mr_base > 0
                          ? 100.0 * (mr_base - mr_with) / mr_base
                          : 0.0;
        double ared =
            100.0 *
            (static_cast<double>(r.base.l1Accesses) -
             static_cast<double>(r.with.l1Accesses)) /
            static_cast<double>(r.base.l1Accesses);
        miss_red.push_back(mred);
        acc_red.push_back(ared);
        t.row({suite[i].name, TextTable::fmtPct(mr_base, 2),
               TextTable::fmtPct(mr_with, 2),
               TextTable::fmtPct(mred), TextTable::fmtPct(ared),
               std::to_string(r.with.constLoads)});
        pub({"sec61", suite[i].name, "base_miss_per_instr"}, mr_base);
        pub({"sec61", suite[i].name, "constant_miss_per_instr"},
            mr_with);
        pub({"sec61", suite[i].name, "miss_reduction"}, mred);
        pub({"sec61", suite[i].name, "access_reduction"}, ared);
        pub({"sec61", suite[i].name, "const_loads"},
            static_cast<double>(r.with.constLoads));
    }
    t.row({"MEAN", "-", "-", TextTable::fmtPct(mean(miss_red)),
           TextTable::fmtPct(mean(acc_red)), "-"});
    pub({"sec61", "mean", "miss_reduction"}, mean(miss_red));
    pub({"sec61", "mean", "access_reduction"}, mean(acc_red));

    return {{"Section 6.1: 21164 cache-bandwidth reduction from the CVU",
             "constant loads never touch the cache: the paper reports a "
             "20% miss-rate-per-instruction reduction for compress and "
             "~10% for eqntott/gperf, and stresses that LVP REDUCES "
             "bandwidth where other speculation increases it.",
             std::move(t)}};
}

} // namespace lvplib::sim
