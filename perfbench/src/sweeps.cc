#include <sstream>

#include "bench.hh"
#include "core/fcm_unit.hh"
#include "core/skew_stride_unit.hh"
#include "core/stride_unit.hh"
#include "core/vtage_unit.hh"
#include "sim/pipeline_driver.hh"
#include "trace/trace_file.hh"

namespace perfbench
{

namespace
{

using lv::core::LvpConfig;
using lv::workloads::CodeGen;

constexpr std::size_t VariantsPerFamily = 4;

/**
 * One column of a Latin-hypercube draw: @p values in seeded order, so
 * variant v takes column[v]. With a fresh column per parameter, every
 * run holds each value of each parameter exactly once per family: its
 * host cost barely depends on the seed while the combinations do.
 */
template <typename T>
std::vector<T>
latin(Rng &rng, const std::vector<T> &values)
{
    std::vector<T> out;
    for (std::size_t i : rng.permutation(values.size()))
        out.push_back(values[i]);
    return out;
}

template <typename Unit, typename Config>
lv::core::PredictorInfo
infoFor(const std::string &name, const Config &cfg)
{
    return {name, name, [cfg] { return std::make_unique<Unit>(cfg); }};
}

std::string
predictorName(const LvpConfig &c)
{
    std::ostringstream os;
    os << "lvp:" << c.name << ":e" << c.lvptEntries << ":h"
       << c.historyDepth << ":c" << c.cvuEntries << ":w" << c.cvuWays
       << ":b" << c.bhrBits << ":t" << c.taggedLvpt;
    return os.str();
}

/**
 * LVP configurations the way ablation_lvp_design builds them: one knob
 * of a paper preset changed at a time (LVPT capacity, history depth,
 * CVU size or organization, branch-history index or tagging). The
 * variants of a run take distinct knobs in seeded order, each at a
 * seeded value from that knob's sweep.
 */
std::vector<LvpConfig>
lvpConfigs(Rng &rng, std::size_t n)
{
    struct Knob
    {
        std::vector<std::uint32_t> values;
        void (*apply)(LvpConfig &, std::uint32_t);
    };
    static const Knob knobs[] = {
        {{64, 256, 4096},
         [](LvpConfig &c, std::uint32_t v) { c.lvptEntries = v; }},
        {{2, 4, 8, 16},
         [](LvpConfig &c, std::uint32_t v) { c.historyDepth = v; }},
        // The CVU sweep starts from the Constant preset; 0 stands for
        // its 4-way set-associative organization.
        {{8, 32, 512, 0},
         [](LvpConfig &c, std::uint32_t v) {
             c = LvpConfig::constant();
             if (v)
                 c.cvuEntries = v;
             else
                 c.cvuWays = 4;
         }},
        // Branch-history bits in the LVPT index; 0 stands for tagging.
        {{2, 4, 8, 0},
         [](LvpConfig &c, std::uint32_t v) {
             if (v)
                 c.bhrBits = v;
             else
                 c.taggedLvpt = true;
         }},
    };
    constexpr std::size_t NumKnobs = std::size(knobs);
    auto order = rng.permutation(NumKnobs);
    std::vector<LvpConfig> out;
    for (std::size_t v = 0; v < n; ++v) {
        const Knob &k = knobs[order[v % NumKnobs]];
        LvpConfig c = LvpConfig::simple();
        k.apply(c, k.values[rng.below(k.values.size())]);
        c.name = predictorName(c);
        out.push_back(c);
    }
    return out;
}

} // namespace

std::vector<PredictorVariant>
predictorVariants(std::uint64_t seed)
{
    Rng rng(seed ^ 0x7072656469637472ull);
    std::vector<PredictorVariant> out;
    for (const LvpConfig &c : lvpConfigs(rng, VariantsPerFamily))
        out.push_back(
            {"lvp", infoFor<lv::core::LvpUnit>(c.name, c)});

    // The other registry families around their championship (Simple
    // budget) presets: table sizes from a quarter to twice the preset,
    // plus each family's own confidence/order/way knob.
    {
        auto entries = latin<std::uint32_t>(rng, {256, 512, 1024, 2048});
        auto conf = latin<unsigned>(rng, {1, 2, 2, 3});
        auto cvu = latin<std::uint32_t>(rng, {8, 32, 32, 128});
        for (std::size_t v = 0; v < VariantsPerFamily; ++v) {
            auto c = lv::core::StrideConfig::simple();
            c.entries = entries[v];
            c.strideConfBits = conf[v];
            c.cvuEntries = cvu[v];
            std::string name = "stride:e" + std::to_string(c.entries) +
                               ":k" + std::to_string(c.strideConfBits) +
                               ":c" + std::to_string(c.cvuEntries);
            out.push_back(
                {"stride", infoFor<lv::core::StrideLvpUnit>(name, c)});
        }
    }
    {
        auto l1 = latin<std::uint32_t>(rng, {256, 512, 1024, 2048});
        auto l2 = latin<std::uint32_t>(rng, {1024, 2048, 4096, 8192});
        auto order = latin<unsigned>(rng, {1, 2, 3, 4});
        for (std::size_t v = 0; v < VariantsPerFamily; ++v) {
            auto c = lv::core::FcmConfig::simple();
            c.level1Entries = l1[v];
            c.level2Entries = l2[v];
            c.order = order[v];
            std::string name = "fcm:l" + std::to_string(c.level1Entries) +
                               ":L" + std::to_string(c.level2Entries) +
                               ":o" + std::to_string(c.order);
            out.push_back({"fcm", infoFor<lv::core::FcmUnit>(name, c)});
        }
    }
    {
        auto base = latin<std::uint32_t>(rng, {256, 512, 1024, 2048});
        auto bank = latin<std::uint32_t>(rng, {64, 128, 256, 512});
        auto banks = latin<unsigned>(rng, {2, 3, 4, 4});
        auto tag = latin<unsigned>(rng, {8, 10, 11, 12});
        for (std::size_t v = 0; v < VariantsPerFamily; ++v) {
            auto c = lv::core::VtageConfig::simple();
            c.baseEntries = base[v];
            c.bankEntries = bank[v];
            c.banks = banks[v];
            c.tagBits = tag[v];
            std::string name = "vtage:b" + std::to_string(c.baseEntries) +
                               ":k" + std::to_string(c.bankEntries) +
                               "x" + std::to_string(c.banks) + ":t" +
                               std::to_string(c.tagBits);
            out.push_back({"vtage", infoFor<lv::core::VtageUnit>(name, c)});
        }
    }
    {
        auto per = latin<std::uint32_t>(rng, {64, 128, 256, 512});
        auto ways = latin<unsigned>(rng, {2, 3, 3, 4});
        auto tag = latin<unsigned>(rng, {8, 10, 10, 12});
        for (std::size_t v = 0; v < VariantsPerFamily; ++v) {
            auto c = lv::core::SkewStrideConfig::simple();
            c.entriesPerWay = per[v];
            c.ways = ways[v];
            c.tagBits = tag[v];
            std::string name = "skewstride:e" +
                               std::to_string(c.entriesPerWay) + "x" +
                               std::to_string(c.ways) + ":t" +
                               std::to_string(c.tagBits);
            out.push_back({"skewstride",
                           infoFor<lv::core::SkewStrideUnit>(name, c)});
        }
    }
    return out;
}

TimingPlan
timingPlan(std::uint64_t seed)
{
    Rng rng(seed ^ 0x74696d696e67ull);
    TimingPlan p;
    // Front ends from ablation_bpred (bimodal vs 8-bit gshare) and the
    // value-mispredict recovery from the squash ablation; each value
    // appears once per machine pair.
    auto gshare = latin<std::uint32_t>(rng, {0, 8});
    auto squash = latin<bool>(rng, {false, true});
    p.ppc620 = lv::uarch::Ppc620Config::base620();
    p.ppc620.bpred.gshareBits = gshare[0];
    p.ppc620.squashOnValueMispredict = squash[0];
    p.ppc620plus = lv::uarch::Ppc620Config::plus620();
    p.ppc620plus.bpred.gshareBits = gshare[1];
    p.ppc620plus.squashOnValueMispredict = squash[1];

    auto agshare = latin<std::uint32_t>(rng, {0, 8});
    auto l1 = latin<std::uint32_t>(rng, {8 * 1024, 16 * 1024});
    for (int i = 0; i < 2; ++i) {
        p.alpha[i] = lv::uarch::AlphaConfig::base21164();
        p.alpha[i].bpred.gshareBits = agshare[i];
        p.alpha[i].mem.l1.sizeBytes = l1[i];
    }

    auto cfgs = lvpConfigs(rng, 2);
    p.lvp[0] = cfgs[0];
    p.lvp[1] = cfgs[1];
    return p;
}

std::vector<std::string>
describe(const std::vector<PredictorVariant> &v)
{
    std::vector<std::string> out;
    for (const auto &p : v)
        out.push_back(p.info.name);
    return out;
}

std::vector<std::string>
describe(const TimingPlan &p)
{
    auto ppc = [](const lv::uarch::Ppc620Config &m) {
        return m.name + ":gshare" + std::to_string(m.bpred.gshareBits) +
               ":squash" + std::to_string(m.squashOnValueMispredict);
    };
    auto alpha = [](const lv::uarch::AlphaConfig &m) {
        return m.name + ":gshare" + std::to_string(m.bpred.gshareBits) +
               ":l1_" + std::to_string(m.mem.l1.sizeBytes);
    };
    return {ppc(p.ppc620),     ppc(p.ppc620plus), alpha(p.alpha[0]),
            alpha(p.alpha[1]), p.lvp[0].name,     p.lvp[1].name};
}

void
noteFailure(PassResult &r, const std::string &why)
{
    ++r.failed;
    if (r.failures.size() < 8)
        r.failures.push_back(why);
}

std::string
predictorInvariant(const lv::core::LvpStats &s)
{
    // Every load is either not predicted or predicted; predicted =
    // correct + incorrect (+ CVU-verified constants).
    if (s.loads != s.noPred + s.correct + s.incorrect + s.constants)
        return "loads != noPred + correct + incorrect + constants";
    if (s.loads != s.actualPred + s.actualUnpred)
        return "loads != actualPred + actualUnpred";
    if (s.cvuStaleHits != 0)
        return "cvuStaleHits != 0";
    return "";
}

std::string
modelInvariant(std::uint64_t cycles, std::uint64_t instructions,
               std::uint64_t records, unsigned width)
{
    if (instructions != records)
        return "model instructions " + std::to_string(instructions) +
               " != trace records " + std::to_string(records);
    if (cycles * width < records)
        return "cycles " + std::to_string(cycles) +
               " < records / issue width";
    return "";
}

namespace
{

const std::string DecodeLayer = "trace.decode";

/** Replay one trace into @p root under a trace.decode span. */
std::uint64_t
replay(const TraceEntry &e, lv::trace::TraceSink &root, Tracer &tracer)
{
    Tracer::Span span(tracer, DecodeLayer);
    lv::trace::TraceFileReader reader(e.path, *e.program);
    std::uint64_t n = reader.replay(root);
    span.records(n);
    return n;
}

std::string
opName(const TraceEntry &e, const std::string &variant)
{
    return e.workload->name + "-" +
           lv::workloads::codeGenName(e.codegen) + "/" + variant;
}

/** A trace whose replay threw: each of its @p variants is one failed
 *  operation, and it keeps an empty slot in r.stats. */
void
failTrace(PassResult &r, const TraceEntry &e,
          const std::vector<std::string> &variants, const std::exception &ex)
{
    for (const auto &v : variants) {
        ++r.attempted;
        noteFailure(r, opName(e, v) + ": " + ex.what());
    }
    r.stats.emplace_back();
}

} // namespace

namespace
{

/** Replay one trace into every predictor variant, then check and
 *  digest each result. */
void
predictTrace(const TraceEntry &e,
             const std::vector<PredictorVariant> &variants, Tracer &tracer,
             PassResult &r, Digest &dig)
{
    NullSink null;
    std::vector<std::unique_ptr<lv::core::PredictorAnnotator>> annots;
    std::vector<std::unique_ptr<Probe>> probes;
    std::vector<lv::trace::TraceSink *> fan;
    for (const auto &v : variants) {
        annots.push_back(
            std::make_unique<lv::core::PredictorAnnotator>(v.info, null));
        probes.push_back(std::make_unique<Probe>(tracer, "core." + v.family,
                                                 *annots.back()));
        fan.push_back(probes.back().get());
    }
    lv::trace::MultiSink root(fan);
    std::uint64_t n = replay(e, root, tracer);
    std::vector<Fields> perTrace;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        ++r.attempted;
        r.consumerRecords += probes[i]->records();
        const auto &s = annots[i]->unit().stats();
        std::string bad = probes[i]->records() != n
                              ? std::string("records != trace length")
                              : predictorInvariant(s);
        if (!bad.empty())
            noteFailure(r, opName(e, variants[i].info.name) + ": " + bad);
        perTrace.push_back(fieldsOf(s));
        for (const auto &[name, v] : perTrace.back())
            dig.add(v);
    }
    r.stats.push_back(std::move(perTrace));
}

} // namespace

PassResult
predictorSweepPass(const std::vector<TraceEntry> &traces,
                   const std::vector<PredictorVariant> &variants,
                   Tracer &tracer)
{
    PassResult r;
    Digest dig;
    auto t0 = Clock::now();
    for (const TraceEntry &e : traces) {
        try {
            predictTrace(e, variants, tracer, r, dig);
        } catch (const std::exception &ex) {
            failTrace(r, e, describe(variants), ex);
        }
    }
    r.wallS = std::chrono::duration<double>(Clock::now() - t0).count();
    r.digest = dig.value();
    return r;
}

namespace
{

/** One timing-model consumer of a timing-sweep pass. */
template <typename Model>
struct ModelRun
{
    std::string variant;
    std::unique_ptr<Model> model;
    std::unique_ptr<Probe> probe;
    const lv::core::LvpAnnotator *annot = nullptr; ///< null: no LVP
};

template <typename Model, typename Config>
ModelRun<Model>
makeRun(Tracer &tracer, const std::string &layer, const Config &mc,
        const lv::core::LvpConfig *lvp)
{
    ModelRun<Model> m;
    m.variant = mc.name + "/" + (lvp ? lvp->name : std::string("nolvp"));
    m.model = std::make_unique<Model>(mc, lvp != nullptr);
    m.probe = std::make_unique<Probe>(tracer, layer, *m.model);
    return m;
}

/** Width bound of the cycles >= records / width invariant. */
unsigned widthOf(const lv::uarch::Ppc620Config &m) { return m.dispatchWidth; }
unsigned widthOf(const lv::uarch::AlphaConfig &m) { return m.width; }

/** A timing result as digested and cross-checked: the model's
 *  statistics followed by its LVP unit's (zero without LVP). */
template <typename Stats>
Fields
timingFields(const Stats &timing, const lv::core::LvpStats &lvp)
{
    Fields f = fieldsOf(timing);
    for (const auto &kv : fieldsOf(lvp))
        f.push_back(kv);
    return f;
}

/**
 * Feed one trace to two machines, each once without LVP and once
 * behind a single shared annotation with @p lvp (variants 0-1 and
 * 2-3), then check and digest all four.
 */
template <typename Model, typename Config>
void
timeTrace(const TraceEntry &e, const Config *const mc[2],
          const char *const layer[2], const lv::core::LvpConfig &lvp,
          Tracer &tracer, PassResult &r, Digest &dig)
{
    ModelRun<Model> runs[4] = {
        makeRun<Model>(tracer, layer[0], *mc[0], nullptr),
        makeRun<Model>(tracer, layer[1], *mc[1], nullptr),
        makeRun<Model>(tracer, layer[0], *mc[0], &lvp),
        makeRun<Model>(tracer, layer[1], *mc[1], &lvp)};
    lv::trace::MultiSink lvpFan({runs[2].probe.get(), runs[3].probe.get()});
    lv::core::LvpAnnotator annot(lvp, lvpFan);
    Probe annotProbe(tracer, "core.lvp", annot);
    runs[2].annot = runs[3].annot = &annot;
    lv::trace::MultiSink root(
        {runs[0].probe.get(), runs[1].probe.get(), &annotProbe});
    std::uint64_t n = replay(e, root, tracer);

    r.consumerRecords += annotProbe.records();
    std::vector<Fields> perTrace;
    for (int i = 0; i < 4; ++i) {
        const ModelRun<Model> &run = runs[i];
        ++r.attempted;
        r.consumerRecords += run.probe->records();
        const auto &s = run.model->stats();
        if (tracer.on())
            tracer.layer(layer[i % 2]).cycles += s.cycles;
        lv::core::LvpStats lvs;
        if (run.annot)
            lvs = run.annot->unit().stats();
        std::string bad = modelInvariant(s.cycles, s.instructions, n,
                                         widthOf(run.model->config()));
        if (bad.empty() && run.annot)
            bad = predictorInvariant(lvs);
        if (!bad.empty())
            noteFailure(r, opName(e, run.variant) + ": " + bad);
        perTrace.push_back(timingFields(s, lvs));
        for (const auto &[name, v] : perTrace.back())
            dig.add(v);
    }
    r.stats.push_back(std::move(perTrace));
}

} // namespace

PassResult
timingSweepPass(const std::vector<TraceEntry> &traces,
                const TimingPlan &plan, Tracer &tracer)
{
    PassResult r;
    Digest dig;
    const lv::uarch::Ppc620Config *const ppc[2] = {&plan.ppc620,
                                                   &plan.ppc620plus};
    const char *const ppcLayer[2] = {"uarch.ppc620", "uarch.ppc620plus"};
    const lv::uarch::AlphaConfig *const alpha[2] = {&plan.alpha[0],
                                                    &plan.alpha[1]};
    const char *const alphaLayer[2] = {"uarch.alpha21164",
                                       "uarch.alpha21164"};
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < traces.size(); ++i) {
        const TraceEntry &e = traces[i];
        const LvpConfig &lvp = plan.lvp[(i / 2) % 2];
        try {
            if (e.codegen == CodeGen::Ppc)
                timeTrace<lv::uarch::Ppc620Model>(e, ppc, ppcLayer, lvp,
                                                  tracer, r, dig);
            else
                timeTrace<lv::uarch::Alpha21164Model>(e, alpha, alphaLayer,
                                                      lvp, tracer, r, dig);
        } catch (const std::exception &ex) {
            failTrace(r, e, {"nolvp", "nolvp", lvp.name, lvp.name}, ex);
        }
    }
    r.wallS = std::chrono::duration<double>(Clock::now() - t0).count();
    r.digest = dig.value();
    return r;
}

void
crossCheckPredictors(const std::vector<TraceEntry> &traces,
                     const std::vector<PredictorVariant> &variants,
                     std::uint64_t seed, PassResult &r)
{
    Rng rng(seed ^ 0x63726f7373ull);
    for (std::size_t i = 0; i < traces.size() && i < r.stats.size(); ++i) {
        const TraceEntry &e = traces[i];
        std::size_t pick = rng.below(variants.size());
        const auto &v = variants[pick];
        if (r.stats[i].size() <= pick)
            continue; // the pass already failed this trace
        auto fresh = lv::sim::runPredictorOnly(
            *e.program, v.info, {.maxInstructions = MaxInstructions});
        std::string diff = firstDifference(r.stats[i][pick], fieldsOf(fresh));
        if (!diff.empty())
            noteFailure(r, opName(e, v.info.name) +
                               ": differs from pipeline_driver: " + diff);
    }
}

void
crossCheckTiming(const std::vector<TraceEntry> &traces,
                 const TimingPlan &plan, std::uint64_t seed, PassResult &r)
{
    Rng rng(seed ^ 0x63726f7373ull);
    lv::sim::RunConfig rc{.maxInstructions = MaxInstructions};
    for (std::size_t i = 0; i < traces.size() && i < r.stats.size(); ++i) {
        const TraceEntry &e = traces[i];
        std::size_t pick = rng.below(4);
        if (r.stats[i].size() <= pick)
            continue; // the pass already failed this trace
        std::optional<LvpConfig> lvp;
        if (pick >= 2)
            lvp = plan.lvp[(i / 2) % 2];
        Fields fresh;
        std::string variant;
        if (e.codegen == CodeGen::Ppc) {
            const auto &mc = pick % 2 ? plan.ppc620plus : plan.ppc620;
            auto run = lv::sim::runPpc620(*e.program, mc, lvp, rc);
            fresh = timingFields(run.timing, run.lvp);
            variant = mc.name;
        } else {
            const auto &mc = plan.alpha[pick % 2];
            auto run = lv::sim::runAlpha21164(*e.program, mc, lvp, rc);
            fresh = timingFields(run.timing, run.lvp);
            variant = mc.name;
        }
        variant += '/';
        variant += lvp ? lvp->name : "nolvp";
        std::string diff = firstDifference(r.stats[i][pick], fresh);
        if (!diff.empty())
            noteFailure(r, opName(e, variant) +
                               ": differs from pipeline_driver: " + diff);
    }
}

} // namespace perfbench
