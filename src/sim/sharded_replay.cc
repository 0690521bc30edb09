#include "sim/sharded_replay.hh"

#include <algorithm>
#include <any>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/parallel.hh"
#include "sim/pipeline_driver.hh"
#include "trace/trace_file.hh"
#include "util/logging.hh"

namespace lvplib::sim
{

namespace
{

/**
 * One record's predictor protocol, exactly as PredictorAnnotator runs
 * it: loads, stores, and branches all reach the unit, which ignores
 * what it doesn't use. Byte identity of the stitched stats depends on
 * the two staying in lockstep.
 */
inline void
drive(core::ValuePredictor &u, const trace::TraceRecord &rec)
{
    const auto &inst = *rec.inst;
    if (inst.load())
        u.onLoad(rec.pc, rec.effAddr, rec.value, inst.accessSize());
    else if (inst.store())
        u.onStore(rec.effAddr, inst.accessSize());
    else if (inst.branch())
        u.onBranch(rec.taken);
}

} // namespace

core::LvpStats
shardedPredictorReplay(const std::string &path,
                       const isa::Program &prog,
                       const core::PredictorInfo &info, unsigned shards)
{
    trace::TraceFileReader leader(path, prog);
    const std::uint64_t total = leader.records();
    // Snapshot count is bounded by the shard count; cap it at the
    // LVPLIB_SHARDS / --shards ceiling so a wild caller value cannot
    // balloon checkpoint memory.
    shards = std::min(shards, 1024u);
    if (shards < 2 || total < 2) {
        // Serial degenerate case: one unit over the whole file, the
        // shard pool untouched.
        auto unit = info.make();
        trace::TraceRecord rec;
        std::uint64_t n = 0;
        while (leader.next(rec)) {
            drive(*unit, rec);
            ++n;
        }
        addInstructionsProcessed(n);
        return unit->stats();
    }

    const std::uint64_t slice =
        (total + shards - 1) / shards; // >= 1 since total >= 2
    const auto nShards =
        static_cast<std::size_t>((total + slice - 1) / slice);

    // Leader pass: drive a scout unit over the full trace, capturing
    // the predictor state entering each slice. The scout's stats are
    // deliberately discarded — the returned stats come only from the
    // stitched shard replays, so a checkpoint missing any replayable
    // state shows up as a stats mismatch, never as a silent pass.
    std::vector<std::any> snaps;
    snaps.reserve(nShards);
    {
        auto scout = info.make();
        snaps.push_back(scout->snapshotState());
        trace::TraceRecord rec;
        std::uint64_t i = 0;
        while (leader.next(rec)) {
            drive(*scout, rec);
            ++i;
            if (i % slice == 0 && i < total)
                snaps.push_back(scout->snapshotState());
        }
        lvp_assert(i == total && snaps.size() == nShards,
                   "leader pass saw %llu of %llu records",
                   static_cast<unsigned long long>(i),
                   static_cast<unsigned long long>(total));
    }

    std::vector<trace::TraceFileReader::Window> windows;
    windows.reserve(nShards);
    for (std::size_t k = 0; k < nShards; ++k) {
        std::uint64_t first = k * slice;
        windows.push_back({first, std::min(slice, total - first)});
    }
    std::vector<core::LvpStats> partials = shardPool().map(
        windows, [&](const trace::TraceFileReader::Window &w) {
            auto unit = info.make();
            unit->restoreState(snaps[w.first / slice]);
            trace::TraceFileReader reader(path, prog, std::nullopt, w);
            trace::TraceRecord rec;
            std::uint64_t n = 0;
            while (reader.next(rec)) {
                drive(*unit, rec);
                ++n;
            }
            if (n != w.count)
                throw SimError(
                    ErrorKind::TraceCorrupt,
                    "sharded replay: window delivered fewer records "
                    "than promised");
            return unit->stats();
        });

    addInstructionsProcessed(total);
    core::LvpStats out;
    for (const auto &p : partials)
        out += p;
    return out;
}

} // namespace lvplib::sim
