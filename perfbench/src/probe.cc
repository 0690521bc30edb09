#include "bench.hh"
#include "obs/json.hh"

namespace perfbench
{

void
Tracer::open()
{
    if (on_)
        stack_.push_back({Clock::now(), 0});
}

void
Tracer::close(const std::string &layer, std::uint64_t records)
{
    if (!on_)
        return;
    auto end = Clock::now();
    Frame f = stack_.back();
    stack_.pop_back();
    double dur = std::chrono::duration<double, std::nano>(end - f.start)
                     .count();
    auto it = layers_.try_emplace(layer).first;
    it->second.selfNs += dur - f.childNs;
    it->second.records += records;
    if (!stack_.empty())
        stack_.back().childNs += dur;
    double startUs =
        std::chrono::duration<double, std::micro>(f.start - origin_)
            .count();
    events_.push_back({&it->first, startUs, dur / 1e3});
}

void
Tracer::writeChromeJson(std::ostream &os) const
{
    lv::obs::JsonWriter w(os);
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    for (const auto &e : events_) {
        w.beginObject();
        w.member("name", *e.name);
        w.member("cat", e.name->substr(0, e.name->find('.')));
        w.member("ph", "X");
        w.member("ts", e.startUs);
        w.member("dur", e.durUs);
        w.member("pid", 1);
        w.member("tid", 1);
        w.endObject();
    }
    w.endArray();
    w.member("displayTimeUnit", "ms");
    w.endObject();
    os << '\n';
}

void
Probe::consumeBatch(std::span<const lv::trace::TraceRecord> recs)
{
    records_ += recs.size();
    Tracer::Span span(tracer_, layer_, recs.size());
    down_.consumeBatch(recs);
}

void
Probe::finish()
{
    Tracer::Span span(tracer_, layer_);
    down_.finish();
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ull;
    }
}

void
Digest::add(const std::string &s)
{
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 0x100000001b3ull;
    }
    add(s.size());
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<std::size_t>
Rng::permutation(std::size_t n)
{
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[below(i)]);
    return p;
}

Fields
fieldsOf(const lv::core::LvpStats &s)
{
    return {{"loads", s.loads},
            {"noPred", s.noPred},
            {"incorrect", s.incorrect},
            {"correct", s.correct},
            {"constants", s.constants},
            {"actualUnpred", s.actualUnpred},
            {"actualPred", s.actualPred},
            {"unpredIdentified", s.unpredIdentified},
            {"predIdentified", s.predIdentified},
            {"cvuInsertions", s.cvuInsertions},
            {"cvuStoreInvalidations", s.cvuStoreInvalidations},
            {"cvuDisplaceInvalidations", s.cvuDisplaceInvalidations},
            {"cvuStaleHits", s.cvuStaleHits}};
}

Fields
fieldsOf(const lv::uarch::OooStats &s)
{
    Fields f{{"cycles", s.cycles},
             {"instructions", s.instructions},
             {"loads", s.loads},
             {"stores", s.stores},
             {"bankConflictCycles", s.bankConflictCycles},
             {"l1Misses", s.l1Misses},
             {"l1Accesses", s.l1Accesses},
             {"constMissesAvoided", s.constMissesAvoided},
             {"branchMispredicts", s.branchMispredicts},
             {"predictedLoads", s.predictedLoads},
             {"reissuedInsts", s.reissuedInsts},
             {"verifyLatency.total", s.verifyLatency.total()},
             {"verifyLatency.overflow", s.verifyLatency.overflow()}};
    for (std::size_t b = 0; b < s.verifyLatency.buckets(); ++b)
        f.push_back({"verifyLatency.bucket", s.verifyLatency.bucket(b)});
    for (std::size_t t = 0; t < s.rsWaitCycles.size(); ++t) {
        f.push_back({"rsWaitCycles", s.rsWaitCycles[t]});
        f.push_back({"rsWaitInsts", s.rsWaitInsts[t]});
    }
    return f;
}

Fields
fieldsOf(const lv::uarch::InOrderStats &s)
{
    return {{"cycles", s.cycles},
            {"instructions", s.instructions},
            {"loads", s.loads},
            {"stores", s.stores},
            {"l1Accesses", s.l1Accesses},
            {"l1Misses", s.l1Misses},
            {"predictedLoads", s.predictedLoads},
            {"droppedPredictions", s.droppedPredictions},
            {"constLoads", s.constLoads},
            {"squashes", s.squashes},
            {"branchMispredicts", s.branchMispredicts}};
}

std::string
firstDifference(const Fields &a, const Fields &b)
{
    if (a.size() != b.size())
        return "field count";
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].second != b[i].second)
            return std::string(a[i].first) + " " +
                   std::to_string(a[i].second) +
                   " != " + std::to_string(b[i].second);
    return "";
}

} // namespace perfbench
