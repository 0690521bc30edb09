#include "core/value_predictor.hh"

#include <algorithm>
#include <memory>

#include "core/fcm_unit.hh"
#include "core/lvp_unit.hh"
#include "core/skew_stride_unit.hh"
#include "core/stride_unit.hh"
#include "core/vtage_unit.hh"

namespace lvplib::core
{

const std::vector<PredictorInfo> &
predictorRegistry()
{
    static const std::vector<PredictorInfo> registry = {
        {"lvp", "paper LVPT+LCT+CVU last-value unit (Simple)",
         []() -> std::unique_ptr<ValuePredictor> {
             return std::make_unique<LvpUnit>(LvpConfig::simple());
         }},
        {"stride", "direct-mapped stride unit with LCT gate and CVU",
         []() -> std::unique_ptr<ValuePredictor> {
             return std::make_unique<StrideLvpUnit>(
                 StrideConfig::simple());
         }},
        {"fcm", "two-level finite-context-method unit with LCT gate",
         []() -> std::unique_ptr<ValuePredictor> {
             return std::make_unique<FcmUnit>(FcmConfig::simple());
         }},
        {"vtage",
         "tagged geometric-history context unit with confidence "
         "saturation and mispredict-burst throttling",
         []() -> std::unique_ptr<ValuePredictor> {
             return std::make_unique<VtageUnit>(VtageConfig::simple());
         }},
        {"skewstride",
         "3-way skewed-associative tagged stride unit (SVP training)",
         []() -> std::unique_ptr<ValuePredictor> {
             return std::make_unique<SkewStrideUnit>(
                 SkewStrideConfig::simple());
         }},
    };
    return registry;
}

const PredictorInfo *
findPredictor(std::string_view name)
{
    for (const auto &info : predictorRegistry())
        if (info.name == name)
            return &info;
    return nullptr;
}

void
PredictorAnnotator::annotate(trace::TraceRecord &out)
{
    const auto &inst = *out.inst;
    if (inst.load()) {
        out.pred = unit_->onLoad(out.pc, out.effAddr, out.value,
                                 inst.accessSize());
    } else if (inst.store()) {
        unit_->onStore(out.effAddr, inst.accessSize());
    } else if (inst.branch()) {
        unit_->onBranch(out.taken);
    }
}

void
PredictorAnnotator::consume(const trace::TraceRecord &rec)
{
    trace::TraceRecord out = rec;
    annotate(out);
    downstream_.consume(out);
}

void
PredictorAnnotator::consumeBatch(std::span<const trace::TraceRecord> recs)
{
    while (!recs.empty()) {
        auto chunk = recs.first(std::min(recs.size(), ChunkRecords));
        recs = recs.subspan(chunk.size());
        batch_.assign(chunk.begin(), chunk.end());
        for (trace::TraceRecord &out : batch_)
            annotate(out);
        downstream_.consumeBatch(std::span<const trace::TraceRecord>(
            batch_.data(), batch_.size()));
    }
}

} // namespace lvplib::core
