/**
 * @file
 * Error-path tests. Programmer errors (malformed assembly, bad
 * configurations, undefined symbols) stay fatal: lvp_fatal exits with
 * status 1 and prints a diagnostic, pinned by death tests. Runtime
 * faults the engine can survive (unreadable or corrupt traces, disk
 * full, watchdog expiry, exhausted retries) throw typed SimError
 * exceptions instead, and the recovery paths must leave results
 * byte-identical to a fault-free run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/config.hh"
#include "isa/assembler.hh"
#include "isa/text_asm.hh"
#include "mem/cache.hh"
#include "sim/resilience.hh"
#include "sim/run_cache.hh"
#include "trace/trace_file.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"
#include "sweep_helpers.hh"

namespace lvplib
{
namespace
{

using ::testing::ExitedWithCode;
using testutil::lvpOnly;

TEST(ErrorPaths, UndefinedLabelIsFatal)
{
    EXPECT_EXIT(
        {
            isa::Assembler a;
            a.b("nowhere");
            a.halt();
            a.finish();
        },
        ExitedWithCode(1), "undefined label 'nowhere'");
}

TEST(ErrorPaths, DuplicateLabelIsFatal)
{
    EXPECT_EXIT(
        {
            isa::Assembler a;
            a.label("x");
            a.label("x");
        },
        ExitedWithCode(1), "duplicate label 'x'");
}

TEST(ErrorPaths, ImmediateRangeIsFatal)
{
    EXPECT_EXIT(
        {
            isa::Assembler a;
            a.addi(3, 0, 99999);
        },
        ExitedWithCode(1), "out of 16-bit range");
    EXPECT_EXIT(
        {
            isa::Assembler a;
            a.ori(3, 3, -1);
        },
        ExitedWithCode(1), "unsigned 16-bit");
}

TEST(ErrorPaths, UnknownSymbolIsFatal)
{
    EXPECT_EXIT(
        {
            isa::Assembler a;
            a.la(3, "missing");
        },
        ExitedWithCode(1), "unknown symbol 'missing'");
}

TEST(ErrorPaths, TextAsmReportsLineNumbers)
{
    EXPECT_EXIT(isa::assembleText("\n\n  frobnicate r1\n"),
                ExitedWithCode(1), "asm line 3: unknown mnemonic");
    EXPECT_EXIT(isa::assembleText("add r3, r4\n"), ExitedWithCode(1),
                "expects 3 operands");
    EXPECT_EXIT(isa::assembleText("ld r3, r4\n"), ExitedWithCode(1),
                "expected disp\\(base\\)");
    EXPECT_EXIT(isa::assembleText("bc xx, cr0, somewhere\n"),
                ExitedWithCode(1), "bad condition 'xx'");
    EXPECT_EXIT(isa::assembleText(".data\nx: .dword nosuch\n"),
                ExitedWithCode(1), "unknown symbol 'nosuch'");
}

TEST(ErrorPaths, BadRegistersAreFatal)
{
    EXPECT_EXIT(isa::assembleText("add r3, r4, r99\n"),
                ExitedWithCode(1), "expected a GPR");
    EXPECT_EXIT(isa::assembleText("fadd f1, f2, r3\n"),
                ExitedWithCode(1), "expected an FPR");
    EXPECT_EXIT(isa::assembleText("cmp cr9, r1, r2\n"),
                ExitedWithCode(1), "expected a cr field");
}

TEST(ErrorPaths, BadLvpConfigIsFatal)
{
    EXPECT_EXIT(
        {
            core::LvpConfig cfg;
            cfg.lvptEntries = 1000; // not a power of two
            cfg.validate();
        },
        ExitedWithCode(1), "power of two");
    EXPECT_EXIT(
        {
            core::LvpConfig cfg;
            cfg.lctBits = 0;
            cfg.validate();
        },
        ExitedWithCode(1), "lctBits");
}

TEST(ErrorPaths, BadCacheGeometryIsFatal)
{
    EXPECT_EXIT(
        {
            mem::CacheConfig cfg;
            cfg.sizeBytes = 1000; // 1000 % (3*64) != 0
            cfg.assoc = 3;
            cfg.lineBytes = 64;
            cfg.validate();
        },
        ExitedWithCode(1), "not divisible");
    EXPECT_EXIT(
        {
            mem::CacheConfig cfg;
            cfg.sizeBytes = 1024;
            cfg.assoc = 2;
            cfg.lineBytes = 48; // not a power of two
            cfg.validate();
        },
        ExitedWithCode(1), "bad lineBytes");
}

/** Run @p fn and require a SimError of @p kind whose message contains
 *  @p needle. */
template <typename Fn>
void
expectSimError(Fn &&fn, ErrorKind kind, const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected SimError(" << errorKindName(kind) << ")";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), kind) << e.what();
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << e.what();
    }
}

TEST(ErrorPaths, MissingTraceFileThrowsTraceIo)
{
    isa::Program prog = isa::assembleText("halt\n");
    expectSimError(
        [&] { trace::TraceFileReader r("/no/such/file.trace", prog); },
        ErrorKind::TraceIo, "cannot open trace file");
}

TEST(ErrorPaths, GarbageTraceFileThrowsWithReason)
{
    isa::Program prog = isa::assembleText("halt\n");
    std::string path =
        std::string(::testing::TempDir()) + "lvplib_garbage.trace";
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace file, not even close to one....";
    }
    expectSimError([&] { trace::TraceFileReader r(path, prog); },
                   ErrorKind::TraceCorrupt, "bad-magic");
    std::remove(path.c_str());
}

TEST(ErrorPaths, TinyTraceFileThrowsWithReason)
{
    isa::Program prog = isa::assembleText("halt\n");
    std::string path =
        std::string(::testing::TempDir()) + "lvplib_tiny.trace";
    {
        std::ofstream out(path, std::ios::binary);
        out << "short";
    }
    expectSimError([&] { trace::TraceFileReader r(path, prog); },
                   ErrorKind::TraceCorrupt, "too-small");
    std::remove(path.c_str());
}

TEST(ErrorPaths, TruncatedTraceMidSuiteFallsBackByteIdentical)
{
    namespace fs = std::filesystem;
    auto &cache = sim::RunCache::instance();
    const std::string saved = cache.traceDir();
    fs::path dir =
        fs::path(::testing::TempDir()) / "lvplib_trunc_fallback";
    fs::remove_all(dir);
    fs::create_directories(dir);
    cache.clear();
    cache.setTraceDir(dir.string());

    const auto &w = workloads::findWorkload("grep");
    core::LvpConfig cfg = core::LvpConfig::simple();
    sim::RunConfig rc;
    core::LvpStats ref =
        lvpOnly(cache, w, 1, cfg, rc);
    cache.clear(); // drop the memo, keep the trace file

    // Truncate the just-written trace as an interrupted writer would.
    fs::path traceFile;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".trace")
            traceFile = e.path();
    ASSERT_FALSE(traceFile.empty());
    fs::resize_file(traceFile, fs::file_size(traceFile) - 13);

    // The damage must be detected up front, the file regenerated, and
    // the run's statistics stay byte-identical to the fault-free run.
    core::LvpStats got =
        lvpOnly(cache, w, 1, cfg, rc);
    EXPECT_EQ(got.loads, ref.loads);
    EXPECT_EQ(got.correct, ref.correct);
    EXPECT_EQ(got.incorrect, ref.incorrect);
    EXPECT_EQ(got.cvuInsertions, ref.cvuInsertions);
    EXPECT_GE(cache.stats().traceInvalid, 1u)
        << "the truncation must be detected and counted";
    EXPECT_TRUE(trace::verifyTraceFile(traceFile.string()).ok())
        << "the corrupt trace must have been replaced, not replayed";

    cache.clear();
    cache.setTraceDir(saved);
    fs::remove_all(dir);
}

TEST(ErrorPaths, UnwritableTraceDirDuringRegenerateFallsBack)
{
    // Regeneration onto a device/directory that refuses the write
    // (ENOSPC, read-only, missing) must degrade to in-memory runs,
    // never crash or publish a partial trace.
    auto &cache = sim::RunCache::instance();
    const std::string saved = cache.traceDir();
    cache.clear();
    cache.setTraceDir("/nonexistent-lvplib-dir");

    const auto &w = workloads::findWorkload("grep");
    core::LvpConfig cfg = core::LvpConfig::simple();
    sim::RunConfig rc;
    core::LvpStats got =
        lvpOnly(cache, w, 1, cfg, rc);

    cache.clear();
    cache.setTraceDir("");
    core::LvpStats ref =
        lvpOnly(cache, w, 1, cfg, rc);
    EXPECT_EQ(got.loads, ref.loads);
    EXPECT_EQ(got.correct, ref.correct);
    EXPECT_EQ(got.incorrect, ref.incorrect);

    cache.clear();
    cache.setTraceDir(saved);
}

TEST(ErrorPaths, EnospcOnAnnotationSaveThrowsTraceIo)
{
    // Linux /dev/full: every flush fails with ENOSPC.
    if (std::FILE *probe = std::fopen("/dev/full", "wb")) {
        std::fclose(probe);
        trace::AnnotationStream stream;
        for (int i = 0; i < 64; ++i)
            stream.append(trace::PredState::None);
        expectSimError([&] { stream.save("/dev/full"); },
                       ErrorKind::TraceIo, "write failed");
    }
}

TEST(ErrorPaths, WatchdogBudgetThrowsTypedError)
{
    isa::Program prog = workloads::findWorkload("grep").build(
        workloads::CodeGen::Ppc, 1);
    expectSimError(
        [&] {
            vm::Interpreter interp(prog);
            sim::WatchdogSink wd(nullptr, /*wallLimitMs=*/0,
                                 /*recordBudget=*/100);
            interp.run(&wd);
        },
        ErrorKind::Watchdog, "record budget");
}

// The watchdog must also cover phase-1 trace *generation* inside the
// run cache — the unbounded interpretation path when the disk cache
// is enabled — and an over-budget run must not leave a partial trace
// or temp file behind, nor poison the memo for a later retry.
TEST(ErrorPaths, WatchdogGuardsTraceCacheGeneration)
{
    namespace fs = std::filesystem;
    auto &cache = sim::RunCache::instance();
    const std::string saved = cache.traceDir();
    fs::path dir =
        fs::path(::testing::TempDir()) / "lvplib_watchdog_trace";
    fs::remove_all(dir);
    fs::create_directories(dir);
    cache.clear();
    cache.setTraceDir(dir.string());

    const auto &w = workloads::findWorkload("grep");
    core::LvpConfig cfg = core::LvpConfig::simple();
    sim::RunConfig tight;
    tight.recordBudget = 100;
    expectSimError(
        [&] {
            lvpOnly(cache, w, 1, cfg, tight);
        },
        ErrorKind::Watchdog, "record budget");
    EXPECT_TRUE(fs::is_empty(dir)) << "partial trace left behind";

    // The failure is not memoized: the same run with a sane budget
    // succeeds and writes its trace.
    sim::RunConfig rc;
    core::LvpStats got =
        lvpOnly(cache, w, 1, cfg, rc);
    EXPECT_GT(got.loads, 0u);
    EXPECT_FALSE(fs::is_empty(dir));

    cache.clear();
    cache.setTraceDir(saved);
    fs::remove_all(dir);
}

TEST(ErrorPaths, RetryExhaustedThrowsTypedError)
{
    sim::RetryPolicy policy;
    policy.attempts = 3;
    policy.sleep = false;
    int calls = 0;
    expectSimError(
        [&] {
            sim::runWithRetry("doomed", policy, [&]() -> int {
                ++calls;
                throw SimError(ErrorKind::TraceIo, "disk on fire");
            });
        },
        ErrorKind::RetryExhausted, "giving up after 3");
    EXPECT_EQ(calls, 3);
}

TEST(TextAsmSymbols, DwordSymbolEmitsAddress)
{
    isa::Program p = isa::assembleText(R"(
        .data
        node: .dword 7
        ptr:  .dword node
        .text
        la r10, ptr
        ld r3, 0(r10) @data
        ld r4, 0(r3)
        halt
    )");
    vm::Interpreter in(p);
    in.run();
    EXPECT_EQ(in.reg(3), p.symbol("node"));
    EXPECT_EQ(in.reg(4), 7u);
}

} // namespace
} // namespace lvplib
