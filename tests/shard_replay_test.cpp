/**
 * @file
 * Byte-identity proof for sharded intra-experiment replay: the
 * time-slice checkpoint engine (sim/sharded_replay.hh) must stitch
 * per-shard predictor statistics back into EXACTLY the stats one
 * serial PredictorAnnotator pass produces — for every predictor family
 * (paper LVP unit in all its presets and the BHR extension, stride,
 * FCM, and the rest of the registry), for any shard count, and with
 * chaos predictor faults armed (the snapshot carries the unit's
 * fault-stream position). Also covers the
 * windowed TraceFileReader the shards are built on and the RunCache
 * wiring (group-sharded sweeps).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "chaos/chaos.hh"
#include "core/lvp_unit.hh"
#include "core/value_predictor.hh"
#include "sim/parallel.hh"
#include "sim/run_cache.hh"
#include "sim/sharded_replay.hh"
#include "trace/trace_file.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

namespace lvplib
{
namespace
{

using trace::TraceFileReader;
using trace::TraceFileWriter;
using trace::TraceRecord;
using trace::TraceSink;

struct TempPath
{
    std::string path;
    explicit TempPath(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {}
    ~TempPath() { std::remove(path.c_str()); }
};

isa::Program
demoProgram()
{
    return workloads::findWorkload("grep").build(workloads::CodeGen::Ppc,
                                                 1);
}

std::uint64_t
writeTrace(const std::string &path, const isa::Program &prog,
           std::uint64_t limit,
           const trace::TraceWriterOptions &opts = {})
{
    TraceFileWriter writer(path, 0, opts);
    vm::Interpreter interp(prog);
    interp.run(&writer, limit);
    writer.finish();
    EXPECT_TRUE(writer.close()) << writer.error();
    return writer.recordsWritten();
}

/** Serial reference for any predictor: one PredictorAnnotator pass
 *  over the whole file. */
core::LvpStats
serialPredictor(const std::string &path, const isa::Program &prog,
                const core::PredictorInfo &info)
{
    trace::NullSink null_sink;
    core::PredictorAnnotator annot(info, null_sink);
    TraceFileReader reader(path, prog);
    reader.replay(annot);
    return annot.unit().stats();
}

/** Every field — byte identity, not just the headline counters. */
void
expectSameStats(const core::LvpStats &a, const core::LvpStats &b,
                const std::string &what)
{
    EXPECT_EQ(a.loads, b.loads) << what;
    EXPECT_EQ(a.noPred, b.noPred) << what;
    EXPECT_EQ(a.incorrect, b.incorrect) << what;
    EXPECT_EQ(a.correct, b.correct) << what;
    EXPECT_EQ(a.constants, b.constants) << what;
    EXPECT_EQ(a.actualUnpred, b.actualUnpred) << what;
    EXPECT_EQ(a.actualPred, b.actualPred) << what;
    EXPECT_EQ(a.unpredIdentified, b.unpredIdentified) << what;
    EXPECT_EQ(a.predIdentified, b.predIdentified) << what;
    EXPECT_EQ(a.cvuInsertions, b.cvuInsertions) << what;
    EXPECT_EQ(a.cvuStoreInvalidations, b.cvuStoreInvalidations) << what;
    EXPECT_EQ(a.cvuDisplaceInvalidations, b.cvuDisplaceInvalidations)
        << what;
    EXPECT_EQ(a.cvuStaleHits, b.cvuStaleHits) << what;
}

TEST(ShardReplay, WindowedReaderDeliversExactSlices)
{
    TempPath tmp("lvplib_shard_window.trace");
    auto prog = demoProgram();
    const std::uint64_t n = writeTrace(tmp.path, prog, 10000);
    ASSERT_EQ(n, 10000u);

    std::vector<TraceRecord> full;
    {
        TraceFileReader reader(tmp.path, prog);
        TraceRecord rec;
        while (reader.next(rec))
            full.push_back(rec);
    }
    ASSERT_EQ(full.size(), n);

    // Windows at the start, in the middle, spanning the reader's
    // block buffer, and ending exactly at the last record.
    const TraceFileReader::Window windows[] = {
        {0, 1}, {0, 4096}, {1, 4096}, {4095, 4099}, {9999, 1}, {3000, 7000}};
    for (const auto &w : windows) {
        TraceFileReader reader(tmp.path, prog, std::nullopt, w);
        TraceRecord rec;
        std::uint64_t i = 0;
        while (reader.next(rec)) {
            ASSERT_LT(i, w.count);
            const TraceRecord &want = full[w.first + i];
            ASSERT_EQ(rec.seq, want.seq) << "absolute seq preserved";
            ASSERT_EQ(rec.pc, want.pc);
            ASSERT_EQ(rec.inst, want.inst);
            ASSERT_EQ(rec.effAddr, want.effAddr);
            ASSERT_EQ(rec.value, want.value);
            ASSERT_EQ(rec.taken, want.taken);
            ASSERT_EQ(rec.nextPc, want.nextPc);
            ++i;
        }
        EXPECT_EQ(i, w.count);
    }
}

TEST(ShardReplay, WindowedReaderStraddlesV3BlockBoundaries)
{
    // Same exact-slice contract, but against a v3 file with 64-record
    // blocks so every window below crosses at least one compressed
    // block boundary (the default 64Ki blocks never straddle in a
    // 10000-record trace).
    TempPath tmp("lvplib_shard_tinywin.trace");
    auto prog = demoProgram();
    trace::TraceWriterOptions opts;
    opts.blockRecords = 64;
    const std::uint64_t n = writeTrace(tmp.path, prog, 10000, opts);
    ASSERT_EQ(n, 10000u);

    std::vector<TraceRecord> full;
    {
        TraceFileReader reader(tmp.path, prog);
        TraceRecord rec;
        while (reader.next(rec))
            full.push_back(rec);
    }
    ASSERT_EQ(full.size(), n);

    const TraceFileReader::Window windows[] = {
        {63, 2},     // straddles the first boundary
        {64, 64},    // exactly the second block
        {127, 130},  // mid-block across three boundaries
        {0, 4096},   // 64 whole blocks from the start
        {4095, 4099}, // unaligned, spans 65 blocks
        {9999, 1}};  // last record, last block
    for (const auto &w : windows) {
        TraceFileReader reader(tmp.path, prog, std::nullopt, w);
        TraceRecord rec;
        std::uint64_t i = 0;
        while (reader.next(rec)) {
            ASSERT_LT(i, w.count);
            const TraceRecord &want = full[w.first + i];
            ASSERT_EQ(rec.seq, want.seq) << "absolute seq preserved";
            ASSERT_EQ(rec.pc, want.pc);
            ASSERT_EQ(rec.inst, want.inst);
            ASSERT_EQ(rec.effAddr, want.effAddr);
            ASSERT_EQ(rec.value, want.value);
            ASSERT_EQ(rec.taken, want.taken);
            ASSERT_EQ(rec.nextPc, want.nextPc);
            ++i;
        }
        EXPECT_EQ(i, w.count)
            << "window [" << w.first << "," << w.count << ")";
    }
}

TEST(ShardReplay, TinyBlockShardingMatchesSerialAtEveryCount)
{
    // Shard windows over 64-record compressed blocks: every shard
    // boundary lands mid-block, so each shard decodes a partial lead
    // block — the seek path the block index exists for.
    TempPath tmp("lvplib_shard_tinyblock.trace");
    auto prog = demoProgram();
    trace::TraceWriterOptions opts;
    opts.blockRecords = 64;
    ASSERT_EQ(writeTrace(tmp.path, prog, 10000, opts), 10000u);

    const auto lvp = core::lvpPredictor(core::LvpConfig::simple());
    core::LvpStats serial = serialPredictor(tmp.path, prog, lvp);
    for (unsigned shards : {1u, 2u, 3u, 7u, 16u, 64u}) {
        expectSameStats(
            serial, sim::shardedPredictorReplay(tmp.path, prog, lvp, shards),
            "tiny-block lvp shards=" + std::to_string(shards));
    }

    const auto &stride = *core::findPredictor("stride");
    core::LvpStats sSerial = serialPredictor(tmp.path, prog, stride);
    const auto &fcm = *core::findPredictor("fcm");
    core::LvpStats fSerial = serialPredictor(tmp.path, prog, fcm);
    for (unsigned shards : {2u, 5u, 32u}) {
        expectSameStats(
            sSerial,
            sim::shardedPredictorReplay(tmp.path, prog, stride, shards),
            "tiny-block stride shards=" + std::to_string(shards));
        expectSameStats(
            fSerial,
            sim::shardedPredictorReplay(tmp.path, prog, fcm, shards),
            "tiny-block fcm shards=" + std::to_string(shards));
    }
}

TEST(ShardReplay, WindowBeyondFooterCountThrows)
{
    TempPath tmp("lvplib_shard_badwindow.trace");
    auto prog = demoProgram();
    const std::uint64_t n = writeTrace(tmp.path, prog, 100);
    ASSERT_EQ(n, 100u);
    EXPECT_THROW(TraceFileReader(tmp.path, prog, std::nullopt,
                                 TraceFileReader::Window{100, 1}),
                 SimError);
    EXPECT_THROW(TraceFileReader(tmp.path, prog, std::nullopt,
                                 TraceFileReader::Window{50, 51}),
                 SimError);
    // A zero-count window at the end is legal and empty.
    TraceFileReader reader(tmp.path, prog, std::nullopt,
                           TraceFileReader::Window{100, 0});
    TraceRecord rec;
    EXPECT_FALSE(reader.next(rec));
}

TEST(ShardReplay, LvpShardingMatchesSerialAcrossConfigsAndCounts)
{
    TempPath tmp("lvplib_shard_lvp.trace");
    auto prog = demoProgram();
    ASSERT_EQ(writeTrace(tmp.path, prog, 10000), 10000u);

    core::LvpConfig bhr = core::LvpConfig::simple();
    bhr.name = "simple+bhr";
    bhr.bhrBits = 4;
    const core::LvpConfig cfgs[] = {
        core::LvpConfig::simple(), core::LvpConfig::constant(),
        core::LvpConfig::limit(), core::LvpConfig::perfect(), bhr};
    const unsigned shardCounts[] = {1, 2, 3, 7, 16, 64};

    for (const auto &cfg : cfgs) {
        const auto info = core::lvpPredictor(cfg);
        core::LvpStats serial = serialPredictor(tmp.path, prog, info);
        for (unsigned shards : shardCounts) {
            core::LvpStats sharded =
                sim::shardedPredictorReplay(tmp.path, prog, info, shards);
            expectSameStats(serial, sharded,
                            cfg.name + " shards=" +
                                std::to_string(shards));
        }
    }
}

TEST(ShardReplay, StrideAndFcmShardingMatchSerial)
{
    TempPath tmp("lvplib_shard_sf.trace");
    auto prog = demoProgram();
    ASSERT_EQ(writeTrace(tmp.path, prog, 10000), 10000u);

    const auto &stride = *core::findPredictor("stride");
    core::LvpStats sSerial = serialPredictor(tmp.path, prog, stride);
    const auto &fcm = *core::findPredictor("fcm");
    core::LvpStats fSerial = serialPredictor(tmp.path, prog, fcm);
    for (unsigned shards : {2u, 5u, 32u}) {
        expectSameStats(
            sSerial,
            sim::shardedPredictorReplay(tmp.path, prog, stride, shards),
            "stride shards=" + std::to_string(shards));
        expectSameStats(
            fSerial,
            sim::shardedPredictorReplay(tmp.path, prog, fcm, shards),
            "fcm shards=" + std::to_string(shards));
    }
}

TEST(ShardReplay, EveryRegistryPredictorShardsMatchSerial)
{
    // The championship's correctness bedrock: the type-erased
    // snapshot path (shardedPredictorReplay) must be
    // byte-identical to a serial pass for EVERY registered predictor —
    // including the history-indexed VTAGE, whose snapshot carries the
    // global branch history and the mispredict-throttle position, and
    // the skewed stride unit — for any shard count.
    TempPath tmp("lvplib_shard_registry.trace");
    auto prog = demoProgram();
    ASSERT_EQ(writeTrace(tmp.path, prog, 10000), 10000u);

    const unsigned shardCounts[] = {1, 2, 3, 7, 16, 64};
    for (const auto &info : core::predictorRegistry()) {
        core::LvpStats serial = serialPredictor(tmp.path, prog, info);
        EXPECT_GT(serial.loads, 0u) << info.name;
        for (unsigned shards : shardCounts) {
            core::LvpStats sharded = sim::shardedPredictorReplay(
                tmp.path, prog, info, shards);
            expectSameStats(serial, sharded,
                            info.name + " shards=" +
                                std::to_string(shards));
        }
    }
}

TEST(ShardReplay, LvpStatsMergeSumsEveryField)
{
    // Guard for the stitching step: a field added to LvpStats but
    // forgotten in operator+= would silently corrupt every sharded
    // run. The static_assert pins the struct layout; adding a field
    // breaks this test until the merge (and this fill pattern) learn
    // about it.
    static_assert(sizeof(core::LvpStats) == 13 * sizeof(std::uint64_t),
                  "LvpStats changed: update operator+= and this test");
    core::LvpStats a, b;
    std::uint64_t *fa = reinterpret_cast<std::uint64_t *>(&a);
    std::uint64_t *fb = reinterpret_cast<std::uint64_t *>(&b);
    const std::size_t n = sizeof(core::LvpStats) / sizeof(std::uint64_t);
    for (std::size_t i = 0; i < n; ++i) {
        fa[i] = 1000 + i;
        fb[i] = 1;
    }
    a += b;
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(fa[i], 1001 + i) << "LvpStats field " << i
                                   << " not summed by operator+=";
}

/** Each variant's LvpStats from one RunCache sweep over grep. */
std::vector<core::LvpStats>
sweepStats(const std::vector<sim::SweepVariant> &variants)
{
    std::vector<core::LvpStats> out;
    for (const auto &r : sim::RunCache::instance().sweep(
             workloads::findWorkload("grep"), workloads::CodeGen::Ppc, 1,
             variants, sim::RunConfig{}))
        out.push_back(r.lvp);
    return out;
}

/** A sweep of @p variants from a cleared memo, with shards forced to
 *  @p shards: the group-sharded run-cache path at shards > 1. */
std::vector<core::LvpStats>
sweepAt(const std::vector<sim::SweepVariant> &variants, unsigned shards)
{
    sim::setShardJobs(shards);
    sim::RunCache::instance().clear();
    return sweepStats(variants);
}

TEST(ShardReplay, RunCachePredictorPathsMatchSerialResults)
{
    // The championship's run-cache path: a group-sharded sweep over
    // the whole registry must agree with its serial (shards=1) self.
    namespace fs = std::filesystem;
    auto &cache = sim::RunCache::instance();
    const std::string savedDir = cache.traceDir();
    fs::path dir =
        fs::path(::testing::TempDir()) / "lvplib_shard_predcache";
    fs::remove_all(dir);
    fs::create_directories(dir);
    cache.setTraceDir(dir.string());

    std::vector<sim::SweepVariant> preds;
    for (const auto &info : core::predictorRegistry())
        preds.push_back({info, {}});

    auto serial = sweepAt(preds, 1);
    auto sharded = sweepAt(preds, 3);

    ASSERT_EQ(serial.size(), sharded.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSameStats(serial[i], sharded[i],
                        "predictor sweep " + preds[i].predictor->name);

    sim::setShardJobs(0);
    cache.clear();
    cache.setTraceDir(savedDir);
    fs::remove_all(dir);
}

TEST(ShardReplay, ChaosArmedShardingMatchesSerial)
{
    TempPath tmp("lvplib_shard_chaos.trace");
    auto prog = demoProgram();
    ASSERT_EQ(writeTrace(tmp.path, prog, 10000), 10000u);

    // Predictor faults are keyed on (config name, per-unit load
    // counter); the snapshot carries that counter, so shard units
    // must resume the exact fault stream the serial unit sees. The
    // mask arms ONLY predictor points: TaskThrow would kill shard
    // tasks and TraceReadFlip is exercised by batch_replay_test.
    auto &ce = chaos::engine();
    const auto lvp = core::lvpPredictor(core::LvpConfig::simple());
    ce.arm({99, chaos::PredictorPoints, 512});
    core::LvpStats serial;
    core::LvpStats sharded;
    try {
        serial = serialPredictor(tmp.path, prog, lvp);
        sharded = sim::shardedPredictorReplay(tmp.path, prog, lvp, 5);
    } catch (...) {
        ce.disarm();
        throw;
    }
    std::uint64_t faults = ce.injectedTotal();
    ce.disarm();
    EXPECT_GT(faults, 0u) << "predictor faults must actually fire";
    expectSameStats(serial, sharded, "chaos-armed shards=5");
}

TEST(ShardReplay, RunCacheShardedPathsMatchSerialResults)
{
    namespace fs = std::filesystem;
    auto &cache = sim::RunCache::instance();
    const std::string savedDir = cache.traceDir();
    fs::path dir =
        fs::path(::testing::TempDir()) / "lvplib_shard_runcache";
    fs::remove_all(dir);
    fs::create_directories(dir);
    cache.setTraceDir(dir.string());

    std::vector<sim::SweepVariant> sweep;
    for (const auto &cfg :
         {core::LvpConfig::simple(), core::LvpConfig::constant(),
          core::LvpConfig::limit()})
        sweep.push_back({core::lvpPredictor(cfg), {}});

    auto serial = sweepAt(sweep, 1);
    auto sharded = sweepAt(sweep, 3);

    ASSERT_EQ(serial.size(), sharded.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSameStats(serial[i], sharded[i],
                        "sweep variant " + std::to_string(i));

    sim::setShardJobs(0);
    cache.clear();
    cache.setTraceDir(savedDir);
    fs::remove_all(dir);
}

} // namespace
} // namespace lvplib
