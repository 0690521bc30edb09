#include "serve/loadgen.hh"

#include <sstream>
#include <utility>

namespace lvplib::serve
{

void
ServeRecordEncoder::consume(const trace::TraceRecord &rec)
{
    const auto &inst = *rec.inst;
    ServeRecord out;
    if (inst.load()) {
        out.kind = static_cast<std::uint8_t>(ServeKind::Load);
        out.size = static_cast<std::uint8_t>(inst.accessSize());
        out.pc = rec.pc;
        out.addr = rec.effAddr;
        out.value = rec.value;
    } else if (inst.store()) {
        out.kind = static_cast<std::uint8_t>(ServeKind::Store);
        out.size = static_cast<std::uint8_t>(inst.accessSize());
        out.pc = rec.pc;
        out.addr = rec.effAddr;
    } else if (inst.branch()) {
        out.kind = static_cast<std::uint8_t>(ServeKind::Branch);
        out.taken = rec.taken ? 1 : 0;
        out.pc = rec.pc;
    } else {
        return; // not predictor-relevant; not part of the stream
    }
    encodeRecord(out, bytes_);
    ++records_;
}

std::shared_ptr<const LoadStream>
StreamLibrary::get(const workloads::Workload &w, workloads::CodeGen cg,
                   unsigned scale, const sim::RunConfig &rc)
{
    std::ostringstream key;
    key << w.name << '|' << workloads::codeGenName(cg) << '|' << scale
        << '|' << rc.maxInstructions;

    std::shared_future<std::shared_ptr<const LoadStream>> fut;
    bool owner = false;
    std::promise<std::shared_ptr<const LoadStream>> prom;
    {
        std::lock_guard<std::mutex> lock(m_);
        auto it = streams_.find(key.str());
        if (it == streams_.end()) {
            owner = true;
            fut = prom.get_future().share();
            streams_.emplace(key.str(), fut);
        } else {
            fut = it->second;
        }
    }
    if (owner) {
        try {
            ServeRecordEncoder enc;
            cache_.replayShared(w, cg, scale, rc, enc);
            auto stream = std::make_shared<LoadStream>();
            stream->workload = w.name;
            stream->records = enc.records();
            stream->bytes = enc.takeBytes();
            stream->fingerprint = streamFingerprint(stream->bytes);
            prom.set_value(std::move(stream));
        } catch (...) {
            // Do not memoize the failure: drop the entry so a later
            // request retries, then propagate to current waiters.
            prom.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(m_);
            streams_.erase(key.str());
        }
    }
    return fut.get();
}

core::LvpStats
expectedStats(sim::RunCache &cache, const workloads::Workload &w,
              workloads::CodeGen cg, unsigned scale,
              const sim::RunConfig &rc, const core::PredictorInfo &info)
{
    return cache.sweep(w, cg, scale, {{info, {}}}, rc).front().lvp;
}

} // namespace lvplib::serve
