#include "sim/run_cache.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "chaos/chaos.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "sim/parallel.hh"
#include "sim/resilience.hh"
#include "trace/trace_file.hh"
#include "uarch/alpha21164.hh"
#include "uarch/ppc620.hh"
#include "util/logging.hh"
#include "vm/interpreter.hh"

namespace lvplib::sim
{

namespace
{

using workloads::CodeGen;
using workloads::Workload;

/** Append one key component with a separator that never occurs in
 *  benchmark or configuration names. */
template <typename T>
void
keyPart(std::ostringstream &os, const T &v)
{
    os << '|' << v;
}

std::string
baseKey(const Workload &w, CodeGen cg, unsigned scale)
{
    std::ostringstream os;
    os << w.name;
    keyPart(os, workloads::codeGenName(cg));
    keyPart(os, scale);
    return os.str();
}

std::string
runKey(const Workload &w, CodeGen cg, unsigned scale,
       const RunConfig &rc)
{
    std::ostringstream os;
    os << baseKey(w, cg, scale);
    keyPart(os, rc.maxInstructions);
    return os.str();
}

/** Full-field fingerprints: ablation variants that tweak any knob of
 *  a preset must never alias the preset's cache entries. */
std::string
fp(const mem::HierarchyConfig &h)
{
    std::ostringstream os;
    for (auto v : {h.l1.sizeBytes, h.l1.assoc, h.l1.lineBytes,
                   h.l2.sizeBytes, h.l2.assoc, h.l2.lineBytes,
                   h.banks, h.l2Latency, h.memLatency})
        keyPart(os, v);
    return os.str();
}

std::string
fp(const uarch::BpredConfig &b)
{
    std::ostringstream os;
    keyPart(os, b.bhtEntries);
    keyPart(os, b.btbEntries);
    keyPart(os, b.gshareBits);
    return os.str();
}

std::string
fp(const uarch::Ppc620Config &m)
{
    std::ostringstream os;
    os << m.name;
    for (auto v : {m.fetchWidth, m.fetchBuffer, m.dispatchWidth,
                   m.completeWidth, m.rsPerUnit, m.gprRename,
                   m.fprRename, m.completionEntries, m.numScfx,
                   m.numMcfx, m.numFpu, m.numLsu, m.numBru,
                   m.memOpsPerCycle, m.mshrs})
        keyPart(os, v);
    keyPart(os, m.squashOnValueMispredict);
    os << fp(m.mem) << fp(m.bpred);
    return os.str();
}

std::string
fp(const uarch::AlphaConfig &m)
{
    std::ostringstream os;
    os << m.name;
    for (auto v :
         {m.width, m.intPipes, m.fpPipes, m.inflight})
        keyPart(os, v);
    os << fp(m.mem) << fp(m.bpred);
    return os.str();
}

/** A sweep variant's memo-key suffix: predictor name plus machine
 *  fingerprint. */
std::string
variantKey(const SweepVariant &v)
{
    std::ostringstream os;
    keyPart(os, v.predictor ? v.predictor->name : "-");
    if (const auto *mc = std::get_if<uarch::Ppc620Config>(&v.machine))
        os << "|ppc" << fp(*mc);
    else if (const auto *ac = std::get_if<uarch::AlphaConfig>(&v.machine))
        os << "|alpha" << fp(*ac);
    else if (!v.predictor)
        throw std::invalid_argument(
            "sweep variant has neither a predictor nor a machine");
    return os.str();
}

} // namespace

struct RunCache::Impl
{
    mutable std::mutex m;
    std::string traceDir;

    std::map<std::string,
             std::shared_future<std::shared_ptr<const isa::Program>>>
        programs;
    std::map<std::string, std::shared_future<FuncResult>> funcs;
    std::map<std::string,
             std::shared_future<
                 std::shared_ptr<const core::ValueLocalityProfiler>>>
        localities;
    std::map<std::string, std::shared_future<SweepRun>> runs;
    /** Value: trace-file path ("" when generation was skipped). */
    std::map<std::string, std::shared_future<std::string>> traces;

    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> traceWrites{0};
    std::atomic<std::uint64_t> traceReplays{0};
    std::atomic<std::uint64_t> traceInvalid{0};
    std::atomic<std::uint64_t> traceFormatUpgrade{0};

    // Obs mirrors of the counters above, resolved once: registry
    // references stay valid for its lifetime, so the hot path never
    // re-looks-up by name. All volatile — cache effectiveness depends
    // on which experiments ran and in what order.
    obs::Counter &obsHits = obs::metrics().counter("runcache.hits");
    obs::Counter &obsMisses = obs::metrics().counter("runcache.misses");
    obs::Counter &obsTraceWrites =
        obs::metrics().counter("runcache.trace_writes");
    obs::Counter &obsTraceReplays =
        obs::metrics().counter("runcache.trace_replays");
    obs::Counter &obsTraceInvalid =
        obs::metrics().counter("runcache.trace_invalid");
    obs::Counter &obsTraceFormatUpgrade =
        obs::metrics().counter("runcache.trace_format_upgrade");
    obs::Counter &obsFanoutPasses =
        obs::metrics().counter("runcache.fanout.passes");
    obs::Counter &obsFanoutSinks =
        obs::metrics().counter("runcache.fanout.sinks");

    /** Consecutive failed trace writes before degrading to
     *  cache-less in-memory replay (clearing traceDir). */
    static constexpr unsigned DegradeThreshold = 3;
    std::atomic<unsigned> consecutiveTraceFailures{0};

    std::string ensureTrace(RunCache &cache, const Workload &w,
                            CodeGen cg, unsigned scale,
                            const RunConfig &rc);

    void
    noteTraceSuccess()
    {
        consecutiveTraceFailures.store(0, std::memory_order_relaxed);
    }

    /** One trace replay served @p sinks variants. */
    void
    noteReplay(std::size_t sinks)
    {
        traceReplays.fetch_add(1, std::memory_order_relaxed);
        obsTraceReplays.add();
        obsFanoutPasses.add();
        obsFanoutSinks.add(sinks);
    }

    /**
     * A trace write or publish failed (the run itself fell back to
     * in-memory interpretation, so this is recovered, not fatal). A
     * persistently failing disk degrades the cache: after
     * DegradeThreshold consecutive failures the trace directory is
     * dropped and every later run interprets in memory.
     */
    void
    noteTraceFailure()
    {
        chaos::engine().recordRecovered("trace_write");
        unsigned n = consecutiveTraceFailures.fetch_add(
                         1, std::memory_order_relaxed) +
                     1;
        if (n < DegradeThreshold)
            return;
        std::lock_guard<std::mutex> lock(m);
        if (traceDir.empty())
            return;
        lvp_warn("trace cache: %u consecutive write failures, "
                 "degrading to in-memory replay (disabling '%s')",
                 n, traceDir.c_str());
        traceDir.clear();
        obs::metrics().counter("runcache.degraded").add();
    }

    /**
     * A persisted trace failed mid-replay (corrupt payload, vanished
     * file, injected bit flip). Discard the file and its memo so the
     * caller's in-memory fallback — and any later request — starts
     * clean.
     */
    void
    onReplayError(const std::string &path, const SimError &e)
    {
        lvp_warn("trace cache: replay of '%s' failed (%s), falling "
                 "back to in-memory run: %s",
                 path.c_str(), errorKindName(e.kind()), e.what());
        traceInvalid.fetch_add(1, std::memory_order_relaxed);
        obsTraceInvalid.add();
        std::remove(path.c_str());
        {
            std::lock_guard<std::mutex> lock(m);
            traces.erase(path);
        }
        chaos::engine().recordRecovered("trace_replay");
    }

    /**
     * Return the memoized value for @p key, computing it with
     * @p make exactly once: the first requester publishes a future
     * under the lock and computes outside it; concurrent requesters
     * block on that future.
     */
    template <typename V>
    V
    getOrCompute(std::map<std::string, std::shared_future<V>> &map,
                 const std::string &key,
                 const std::function<V()> &make)
    {
        return fanOutCompute<V>(map, {key}, [&](const auto &) {
                   return std::vector<V>{make()};
               }).front();
    }

    /**
     * Resolve @p keys together. Already-memoized keys are hits; the
     * rest are claimed under one lock (so concurrent requesters block
     * on our futures instead of recomputing) and handed as one index
     * list to @p compute, which returns their values in that order.
     * Every claimed promise is settled before results are collected;
     * if @p compute throws, the claimed keys are erased first, so
     * failures are never memoized and current waiters see the
     * exception while a later request recomputes from scratch.
     */
    template <typename V>
    std::vector<V>
    fanOutCompute(
        std::map<std::string, std::shared_future<V>> &map,
        const std::vector<std::string> &keys,
        const std::function<std::vector<V>(
            const std::vector<std::size_t> &)> &compute)
    {
        std::vector<std::shared_future<V>> futs(keys.size());
        std::vector<std::promise<V>> proms(keys.size());
        std::vector<std::size_t> owned;
        {
            std::lock_guard<std::mutex> lock(m);
            for (std::size_t i = 0; i < keys.size(); ++i) {
                auto it = map.find(keys[i]);
                if (it != map.end()) {
                    // Includes duplicate keys earlier in this call:
                    // the first occurrence owns, the rest wait.
                    futs[i] = it->second;
                } else {
                    futs[i] = proms[i].get_future().share();
                    map.emplace(keys[i], futs[i]);
                    owned.push_back(i);
                }
            }
        }
        std::size_t nHits = keys.size() - owned.size();
        if (nHits > 0) {
            hits.fetch_add(nHits, std::memory_order_relaxed);
            obsHits.add(nHits);
        }
        if (!owned.empty()) {
            misses.fetch_add(owned.size(), std::memory_order_relaxed);
            obsMisses.add(owned.size());
            try {
                std::vector<V> vals = compute(owned);
                for (std::size_t k = 0; k < owned.size(); ++k)
                    proms[owned[k]].set_value(std::move(vals[k]));
            } catch (...) {
                auto e = std::current_exception();
                {
                    std::lock_guard<std::mutex> lock(m);
                    for (std::size_t i : owned)
                        map.erase(keys[i]);
                }
                for (std::size_t i : owned)
                    proms[i].set_exception(e);
            }
        }
        std::vector<V> out;
        out.reserve(keys.size());
        for (auto &f : futs)
            out.push_back(f.get());
        return out;
    }
};

RunCache::RunCache() : impl_(std::make_unique<Impl>())
{
    if (const char *dir = std::getenv("LVPLIB_TRACE_CACHE"))
        impl_->traceDir = dir;
}

RunCache::~RunCache() = default;

RunCache &
RunCache::instance()
{
    static RunCache cache;
    return cache;
}

std::shared_ptr<const isa::Program>
RunCache::program(const Workload &w, CodeGen cg, unsigned scale)
{
    return impl_->getOrCompute<std::shared_ptr<const isa::Program>>(
        impl_->programs, baseKey(w, cg, scale), [&] {
            return std::make_shared<const isa::Program>(
                w.build(cg, scale));
        });
}

namespace
{

/**
 * Contiguous near-equal partition of [0, n) into at most @p g
 * non-empty [lo, hi) groups, for fanning one sweep's predictors out
 * across the shard pool.
 */
std::vector<std::pair<std::size_t, std::size_t>>
partitionGroups(std::size_t n, std::size_t g)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    out.reserve(g);
    for (std::size_t i = 0; i < g; ++i) {
        std::size_t lo = i * n / g;
        std::size_t hi = (i + 1) * n / g;
        if (lo != hi)
            out.emplace_back(lo, hi);
    }
    return out;
}

bool
fileExists(const std::string &path)
{
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        std::fclose(f);
        return true;
    }
    return false;
}

/**
 * A temp name no other writer can collide with: trace directories may
 * be shared by concurrent lvpbench processes, so the name carries the
 * pid plus a process-local counter.
 */
std::string
uniqueTempName(const std::string &path)
{
    static std::atomic<unsigned> seq{0};
    std::ostringstream os;
    os << path << ".tmp." << ::getpid() << '.'
       << seq.fetch_add(1, std::memory_order_relaxed);
    return os.str();
}

/**
 * Interpret @p prog into @p sink under the same watchdog envelope as
 * the in-memory drivers (replays are bounded by the verified file).
 * The sink sees finish() exactly once, as it does at the end of a
 * replay, even when maxInstructions cuts the run short. Returns the
 * records fed.
 */
std::uint64_t
interpret(const isa::Program &prog, const RunConfig &rc,
          trace::TraceSink &sink)
{
    vm::Interpreter interp(prog);
    std::uint64_t wallMs =
        rc.wallLimitMs != 0 ? rc.wallLimitMs : defaultWallLimitMs();
    if (wallMs != 0 || rc.recordBudget != 0) {
        WatchdogSink wd(&sink, wallMs, rc.recordBudget);
        interp.run(&wd, rc.maxInstructions);
    } else {
        interp.run(&sink, rc.maxInstructions);
    }
    if (!interp.halted())
        sink.finish();
    return interp.retired();
}

/**
 * The sink tree of one pass over a slice of a sweep's variants. Each
 * unit is either the variants sharing one predictor — one annotator,
 * fanning out to their machines (or into a NullSink when none has
 * one) — or a single baseline machine; the units' heads sit side by
 * side under the root. Built fresh for every pass: a pass that fails
 * midway leaves its sinks half-fed.
 */
class SweepTree
{
  public:
    SweepTree(const std::vector<const SweepVariant *> &vs,
              std::span<const std::vector<std::size_t>> units)
    {
        std::vector<trace::TraceSink *> heads;
        for (const auto &unit : units) {
            std::vector<trace::TraceSink *> machines;
            for (std::size_t i : unit) {
                Leaf &leaf = leaves_.emplace_back();
                leaf.variant = i;
                const bool lvp = vs[i]->predictor.has_value();
                if (const auto *mc = std::get_if<uarch::Ppc620Config>(
                        &vs[i]->machine)) {
                    leaf.ppc =
                        std::make_unique<uarch::Ppc620Model>(*mc, lvp);
                    machines.push_back(leaf.ppc.get());
                } else if (const auto *ac =
                               std::get_if<uarch::AlphaConfig>(
                                   &vs[i]->machine)) {
                    leaf.alpha = std::make_unique<uarch::Alpha21164Model>(
                        *ac, lvp);
                    machines.push_back(leaf.alpha.get());
                }
            }
            const auto &pred = vs[unit.front()]->predictor;
            if (!pred) {
                heads.push_back(machines.front());
                continue;
            }
            trace::TraceSink *down = &null_;
            if (!machines.empty()) {
                fans_.push_back(
                    std::make_unique<trace::MultiSink>(machines));
                down = fans_.back().get();
            }
            annots_.push_back(
                std::make_unique<core::PredictorAnnotator>(*pred, *down));
            heads.push_back(annots_.back().get());
            for (std::size_t k = leaves_.size() - unit.size();
                 k < leaves_.size(); ++k)
                leaves_[k].annot = annots_.back().get();
        }
        root_ = std::make_unique<trace::MultiSink>(std::move(heads));
    }

    // The annotators hold references into the tree.
    SweepTree(const SweepTree &) = delete;
    SweepTree &operator=(const SweepTree &) = delete;

    trace::TraceSink &root() { return *root_; }

    /** Store each variant's run at @p out[its index]. */
    void
    collect(std::vector<SweepRun> &out) const
    {
        for (const Leaf &leaf : leaves_) {
            SweepRun &r = out[leaf.variant];
            if (leaf.annot)
                r.lvp = leaf.annot->unit().stats();
            if (leaf.ppc) {
                r.timing = leaf.ppc->stats();
                publishModelRun(r.ppc());
            } else if (leaf.alpha) {
                r.timing = leaf.alpha->stats();
                publishModelRun(r.alpha());
            }
        }
    }

  private:
    struct Leaf
    {
        std::size_t variant = 0;
        const core::PredictorAnnotator *annot = nullptr;
        std::unique_ptr<uarch::Ppc620Model> ppc;
        std::unique_ptr<uarch::Alpha21164Model> alpha;
    };

    trace::NullSink null_;
    std::vector<Leaf> leaves_;
    std::vector<std::unique_ptr<trace::MultiSink>> fans_;
    std::vector<std::unique_ptr<core::PredictorAnnotator>> annots_;
    std::unique_ptr<trace::MultiSink> root_;
};

/** Group @p vs into SweepTree units, in first-appearance order: one
 *  per distinct predictor name, one per baseline machine. */
std::vector<std::vector<std::size_t>>
sweepUnits(const std::vector<const SweepVariant *> &vs)
{
    std::vector<std::vector<std::size_t>> units;
    std::map<std::string, std::size_t> unitOf;
    for (std::size_t i = 0; i < vs.size(); ++i) {
        if (!vs[i]->predictor) {
            units.push_back({i});
            continue;
        }
        auto [it, fresh] =
            unitOf.emplace(vs[i]->predictor->name, units.size());
        if (fresh)
            units.emplace_back();
        units[it->second].push_back(i);
    }
    return units;
}

/**
 * One sweep pass over the verified trace @p tr, storing each variant's
 * run at @p out[its index in @p vs]. Counts the records it feeds.
 * Returns how many variants each trace read served, one entry per
 * read.
 */
std::vector<std::size_t>
replaySweep(const std::string &tr, const isa::Program &prog,
            const std::vector<const SweepVariant *> &vs,
            const std::vector<std::vector<std::size_t>> &units,
            std::vector<SweepRun> &out)
{
    // Group-sharded replay is byte-identical to the serial pass
    // (sweep_test), but it is disabled while chaos is armed: shard
    // tasks would consume the shard pool's TaskThrow stream, changing
    // which faults later campaign runs see.
    const unsigned shards = chaos::engine().enabled() ? 1 : shardJobs();
    // Each group of units reads the trace on its own, so groups share
    // nothing and fill disjoint slots of out.
    auto replayGroup = [&](const std::pair<std::size_t, std::size_t> &g) {
        SweepTree tree(vs, std::span(units).subspan(g.first,
                                                    g.second - g.first));
        trace::TraceFileReader reader(tr, prog);
        std::uint64_t n = reader.replay(tree.root());
        tree.collect(out);
        return n;
    };
    auto groups = partitionGroups(
        units.size(), std::min<std::size_t>(shards, units.size()));
    std::uint64_t n = groups.size() > 1
                          ? shardPool().map(groups, replayGroup).front()
                          : replayGroup(groups.front());
    addInstructionsProcessed(n * vs.size());
    std::vector<std::size_t> served;
    for (const auto &g : groups) {
        std::size_t k = 0;
        for (std::size_t u = g.first; u < g.second; ++u)
            k += units[u].size();
        served.push_back(k);
    }
    return served;
}

} // namespace

/**
 * Phase 1, once per (workload, codegen, scale, maxInstructions):
 * interpret the program and persist its dynamic trace. Returns the
 * trace path, or "" when the trace cache is disabled or the write
 * failed (callers then fall back to in-memory interpretation; the
 * failure itself is never memoized, so a later request retries).
 *
 * An existing file is fully verified (envelope, checksum, and the
 * fingerprint of the program + run key) before reuse; any mismatch —
 * stale fingerprint, old format version, truncation, bit flip — is
 * treated as a cache miss: the bad file is deleted, counted in
 * Stats::traceInvalid, and regenerated.
 *
 * Writing the trace is not counted in instructionsProcessed(): only
 * the records a run consumes are, so the counter reads the same with
 * a cold cache as with a warm one.
 */
std::string
RunCache::Impl::ensureTrace(RunCache &cache, const Workload &w,
                            CodeGen cg, unsigned scale,
                            const RunConfig &rc)
{
    std::string dir;
    {
        std::lock_guard<std::mutex> lock(m);
        dir = traceDir;
    }
    if (dir.empty())
        return "";
    std::ostringstream name;
    name << dir << '/' << w.name << '-' << workloads::codeGenName(cg)
         << "-s" << scale << "-m" << rc.maxInstructions << ".trace";
    std::string result = getOrCompute<std::string>(
        traces, name.str(), [&, path = name.str()] {
            auto prog = cache.program(w, cg, scale);
            std::ostringstream salt;
            salt << baseKey(w, cg, scale);
            keyPart(salt, rc.maxInstructions);
            std::uint64_t fp = trace::mixFingerprint(
                trace::programFingerprint(*prog), salt.str());
            if (fileExists(path)) {
                // Reuse a previous process's phase 1 — but only
                // after it proves it matches this program and run.
                auto rep = trace::verifyTraceFile(path, fp);
                if (rep.ok())
                    return path;
                if (rep.status == trace::TraceFileStatus::BadVersion) {
                    // An intact file from another format generation is
                    // a format upgrade, not corruption; count it apart
                    // so metrics can tell the two stories.
                    lvp_warn("trace cache: '%s' is format v%u, "
                             "regenerating as v%u",
                             path.c_str(), rep.version,
                             trace::TraceFormatVersion);
                    traceFormatUpgrade.fetch_add(
                        1, std::memory_order_relaxed);
                    obsTraceFormatUpgrade.add();
                } else {
                    lvp_warn("trace cache: '%s' invalid (%s%s%s), "
                             "regenerating",
                             path.c_str(),
                             trace::traceFileStatusName(rep.status),
                             rep.detail.empty() ? "" : ": ",
                             rep.detail.c_str());
                    traceInvalid.fetch_add(1,
                                           std::memory_order_relaxed);
                    obsTraceInvalid.add();
                }
                std::remove(path.c_str());
            }
            std::string tmp = uniqueTempName(path);
            bool written;
            {
                obs::Timeline::Scope span("trace:" + w.name, "trace");
                trace::TraceFileWriter writer(tmp, fp);
                try {
                    interpret(*prog, rc, writer);
                } catch (const SimError &) {
                    writer.close();
                    std::remove(tmp.c_str());
                    throw;
                }
                written = writer.close();
                if (!written)
                    lvp_warn("trace cache: cannot write '%s' (%s)",
                             tmp.c_str(), writer.error().c_str());
            }
            bool renameFailed =
                written &&
                (chaos::engine().shouldInject(
                     chaos::Point::CacheRename,
                     trace::mixFingerprint(0, path), 0) ||
                 std::rename(tmp.c_str(), path.c_str()) != 0);
            if (!written || renameFailed) {
                if (renameFailed)
                    lvp_warn("cannot rename trace '%s'", tmp.c_str());
                std::remove(tmp.c_str());
                noteTraceFailure();
                return std::string();
            }
            noteTraceSuccess();
            traceWrites.fetch_add(1, std::memory_order_relaxed);
            obsTraceWrites.add();
            return path;
        });
    if (result.empty()) {
        // Do not memoize the failure: let a later request retry
        // (disk pressure and permission problems are transient).
        std::lock_guard<std::mutex> lock(m);
        traces.erase(name.str());
    }
    return result;
}

FuncResult
RunCache::functional(const Workload &w, CodeGen cg, unsigned scale,
                     const RunConfig &rc)
{
    return impl_->getOrCompute<FuncResult>(
        impl_->funcs, runKey(w, cg, scale, rc), [&] {
            obs::Timeline::Scope span("functional:" + w.name, "sim");
            // Functional runs need the final memory image (the
            // "__result" checksum), so they always interpret.
            return runFunctional(*program(w, cg, scale), rc);
        });
}

std::shared_ptr<const core::ValueLocalityProfiler>
RunCache::locality(const Workload &w, CodeGen cg, unsigned scale,
                   const RunConfig &rc)
{
    return impl_->getOrCompute<
        std::shared_ptr<const core::ValueLocalityProfiler>>(
        impl_->localities, runKey(w, cg, scale, rc), [&] {
            auto prog = program(w, cg, scale);
            std::string tr =
                impl_->ensureTrace(*this, w, cg, scale, rc);
            obs::Timeline::Scope span("locality:" + w.name, "sim");
            if (!tr.empty()) {
                try {
                    auto prof = std::make_shared<
                        core::ValueLocalityProfiler>();
                    trace::TraceFileReader reader(tr, *prog);
                    addInstructionsProcessed(reader.replay(*prof));
                    impl_->noteReplay(1);
                    return std::shared_ptr<
                        const core::ValueLocalityProfiler>(prof);
                } catch (const SimError &e) {
                    impl_->onReplayError(tr, e);
                }
            }
            return std::shared_ptr<
                const core::ValueLocalityProfiler>(
                std::make_shared<core::ValueLocalityProfiler>(
                    profileLocality(*prog, rc)));
        });
}

std::vector<SweepRun>
RunCache::sweep(const Workload &w, CodeGen cg, unsigned scale,
                const std::vector<SweepVariant> &variants,
                const RunConfig &rc)
{
    std::string base = runKey(w, cg, scale, rc);
    std::vector<std::string> keys;
    keys.reserve(variants.size());
    for (const auto &v : variants)
        keys.push_back(base + variantKey(v));
    return impl_->fanOutCompute<SweepRun>(
        impl_->runs, keys, [&](const std::vector<std::size_t> &owned) {
            std::vector<const SweepVariant *> vs;
            for (std::size_t i : owned)
                vs.push_back(&variants[i]);
            const auto units = sweepUnits(vs);
            auto prog = program(w, cg, scale);
            std::string tr =
                impl_->ensureTrace(*this, w, cg, scale, rc);
            obs::Timeline::Scope span("sweep:" + w.name, "sim");
            std::vector<SweepRun> out(vs.size());
            if (!tr.empty()) {
                try {
                    for (std::size_t k :
                         replaySweep(tr, *prog, vs, units, out))
                        impl_->noteReplay(k);
                    return out;
                } catch (const SimError &e) {
                    impl_->onReplayError(tr, e);
                    out.assign(vs.size(), SweepRun{});
                }
            }
            SweepTree tree(vs, units);
            std::uint64_t n = interpret(*prog, rc, tree.root());
            addInstructionsProcessed(n * vs.size());
            tree.collect(out);
            return out;
        });
}

void
RunCache::setTraceDir(std::string dir)
{
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->traceDir = std::move(dir);
}

std::string
RunCache::traceDir() const
{
    std::lock_guard<std::mutex> lock(impl_->m);
    return impl_->traceDir;
}

RunCache::Stats
RunCache::stats() const
{
    Stats s;
    s.hits = impl_->hits.load(std::memory_order_relaxed);
    s.misses = impl_->misses.load(std::memory_order_relaxed);
    s.traceWrites =
        impl_->traceWrites.load(std::memory_order_relaxed);
    s.traceReplays =
        impl_->traceReplays.load(std::memory_order_relaxed);
    s.traceInvalid =
        impl_->traceInvalid.load(std::memory_order_relaxed);
    s.traceFormatUpgrade =
        impl_->traceFormatUpgrade.load(std::memory_order_relaxed);
    return s;
}

void
RunCache::clear()
{
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->programs.clear();
    impl_->funcs.clear();
    impl_->localities.clear();
    impl_->runs.clear();
    impl_->traces.clear();
    impl_->hits = 0;
    impl_->misses = 0;
    impl_->traceWrites = 0;
    impl_->traceReplays = 0;
    impl_->traceInvalid = 0;
    impl_->traceFormatUpgrade = 0;
    impl_->consecutiveTraceFailures = 0;
}

} // namespace lvplib::sim
