/**
 * @file
 * Tests for the columnar trace machinery: the shared column codecs
 * (trace/columnar.hh) under round-trip fuzz and adversarial inputs,
 * the word-wise block checksum, and block-structured v4 files with
 * tiny blocks, corrupted bit by bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "sim/pipeline_driver.hh"
#include "trace/columnar.hh"
#include "trace/trace_file.hh"
#include "trace/trace_stats.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

namespace lvplib
{
namespace
{

using trace::decodeDeltaColumn;
using trace::decodeSparseColumn;
using trace::encodeDeltaColumn;
using trace::encodeSparseColumn;
using trace::getVarint;
using trace::putVarint;
using trace::TraceFileReader;
using trace::TraceFileStatus;
using trace::TraceFileWriter;
using trace::zigzagDecode;
using trace::zigzagEncode;

struct TempPath
{
    std::string path;
    explicit TempPath(const char *name)
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

template <typename Fn>
void
expectSimError(Fn &&fn, ErrorKind kind, const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected SimError containing '" << needle << "'";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), kind) << e.what();
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << e.what();
    }
}

// ---- varint / zigzag ----------------------------------------------

TEST(Varint, RoundTripFuzz)
{
    std::mt19937_64 rng(0xc0dec);
    std::vector<std::uint64_t> vals = {0, 1, 127, 128, 16383, 16384,
                                       ~0ull, 1ull << 63};
    for (int i = 0; i < 2000; ++i) {
        // Skew toward small values: shift a random u64 right by a
        // random amount so every encoded length is exercised.
        vals.push_back(rng() >> (rng() % 64));
    }

    std::vector<std::uint8_t> buf;
    for (auto v : vals)
        putVarint(buf, v);

    const std::uint8_t *p = buf.data();
    const std::uint8_t *end = p + buf.size();
    for (std::size_t i = 0; i < vals.size(); ++i) {
        std::uint64_t v = 0;
        ASSERT_TRUE(getVarint(p, end, v)) << "value " << i;
        EXPECT_EQ(v, vals[i]) << "value " << i;
    }
    EXPECT_EQ(p, end) << "decode must consume every byte";
}

TEST(Varint, RejectsTruncation)
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, ~0ull);
    ASSERT_EQ(buf.size(), trace::VarintMaxBytes);
    for (std::size_t keep = 0; keep < buf.size(); ++keep) {
        const std::uint8_t *p = buf.data();
        std::uint64_t v;
        EXPECT_FALSE(getVarint(p, p + keep, v))
            << keep << " byte(s) kept";
    }
}

TEST(Varint, RejectsOverlongAndOverflow)
{
    // 11 continuation bytes: longer than any legal u64 encoding.
    std::vector<std::uint8_t> overlong(11, 0x80);
    overlong.push_back(0x00);
    const std::uint8_t *p = overlong.data();
    std::uint64_t v;
    EXPECT_FALSE(getVarint(p, p + overlong.size(), v));

    // Ten bytes whose final byte spills past bit 63.
    std::vector<std::uint8_t> spill(9, 0x80);
    spill.push_back(0x02);
    p = spill.data();
    EXPECT_FALSE(getVarint(p, p + spill.size(), v));

    // The largest legal 10-byte encoding still decodes.
    std::vector<std::uint8_t> max(9, 0xff);
    max.push_back(0x01);
    p = max.data();
    ASSERT_TRUE(getVarint(p, p + max.size(), v));
    EXPECT_EQ(v, ~0ull);
}

TEST(Zigzag, RoundTripEdges)
{
    for (std::int64_t s : {std::int64_t(0), std::int64_t(-1),
                           std::int64_t(1), std::int64_t(63),
                           std::int64_t(-64),
                           std::numeric_limits<std::int64_t>::max(),
                           std::numeric_limits<std::int64_t>::min()}) {
        EXPECT_EQ(zigzagDecode(zigzagEncode(s)), s) << s;
    }
    // Small magnitudes map to small codes (the property delta coding
    // relies on).
    EXPECT_EQ(zigzagEncode(0), 0u);
    EXPECT_EQ(zigzagEncode(-1), 1u);
    EXPECT_EQ(zigzagEncode(1), 2u);
}

// ---- columns ------------------------------------------------------

TEST(DeltaColumn, RoundTripFuzzWithStride)
{
    std::mt19937_64 rng(0xde17a);
    for (std::size_t n : {std::size_t(0), std::size_t(1),
                          std::size_t(7), std::size_t(1000)}) {
        // A random walk with occasional wild jumps: pc-like data.
        std::vector<std::uint64_t> vals(n);
        std::uint64_t cur = 0x10000;
        for (auto &v : vals) {
            cur += (rng() % 64) * 4;
            if (rng() % 100 == 0)
                cur = rng();
            v = cur;
        }
        std::vector<std::uint8_t> enc;
        encodeDeltaColumn(vals.data(), n, enc);

        std::vector<std::uint64_t> out(n);
        ASSERT_TRUE(
            decodeDeltaColumn(enc.data(), enc.size(), out.data(), n));
        EXPECT_EQ(out, vals) << "n=" << n;

        // Stride 4: every fourth u64 slot, one field of an array of
        // structs.
        constexpr std::size_t Stride = 4;
        std::vector<std::uint64_t> strided(n * Stride, 0xaa);
        ASSERT_TRUE(decodeDeltaColumn(enc.data(), enc.size(),
                                      strided.data(), n, Stride));
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(strided[i * Stride], vals[i]) << i;
            if (Stride > 1 && i * Stride + 1 < strided.size()) {
                EXPECT_EQ(strided[i * Stride + 1], 0xaau)
                    << "slot " << i << " overwrote a neighbour";
            }
        }

        // Exact-length contract: one byte short or long must fail.
        if (!enc.empty()) {
            EXPECT_FALSE(decodeDeltaColumn(enc.data(), enc.size() - 1,
                                           out.data(), n));
        }
        enc.push_back(0);
        EXPECT_FALSE(decodeDeltaColumn(enc.data(), enc.size(),
                                       out.data(), n));
    }
}

TEST(SparseColumn, RoundTripFuzz)
{
    std::mt19937_64 rng(0x5bab5e);
    for (std::size_t n : {std::size_t(0), std::size_t(1),
                          std::size_t(8), std::size_t(9),
                          std::size_t(1000)}) {
        // ~70% zeros with locality in the nonzero run: value-like
        // data (most records carry no value).
        std::vector<std::uint64_t> vals(n);
        std::uint64_t cur = 0x8000;
        for (auto &v : vals) {
            if (rng() % 10 < 7) {
                v = 0;
            } else {
                cur += rng() % 256;
                v = cur;
            }
        }
        std::vector<std::uint8_t> enc;
        encodeSparseColumn(vals.data(), n, enc);

        std::vector<std::uint64_t> out(n, 0xbb);
        ASSERT_TRUE(
            decodeSparseColumn(enc.data(), enc.size(), out.data(), n));
        EXPECT_EQ(out, vals) << "n=" << n;

        if (!enc.empty()) {
            EXPECT_FALSE(decodeSparseColumn(enc.data(), enc.size() - 1,
                                            out.data(), n));
        }
        enc.push_back(0);
        EXPECT_FALSE(decodeSparseColumn(enc.data(), enc.size(),
                                        out.data(), n));
    }
}

TEST(SparseColumn, RejectsPresentZero)
{
    // Presence bit set but the delta decodes the value back to zero:
    // an encoding our encoder never emits, so strict decode rejects
    // it (a zero must cost one clear bit, not a varint).
    std::vector<std::uint8_t> enc = {0x01 /* bitmap: bit 0 set */,
                                     0x00 /* zigzag(0): delta 0 */};
    std::uint64_t out = 0;
    EXPECT_FALSE(decodeSparseColumn(enc.data(), enc.size(), &out, 1));
}

TEST(SparseColumn, RejectsTruncatedBitmap)
{
    // 9 values need 2 bitmap bytes; provide only 1 (all-zero values
    // so no varints follow).
    std::vector<std::uint8_t> enc = {0x00};
    std::vector<std::uint64_t> out(9);
    EXPECT_FALSE(decodeSparseColumn(enc.data(), enc.size(), out.data(),
                                    out.size()));
}

TEST(PackedFlags, BitsAndCrumbsRoundTrip)
{
    std::mt19937_64 rng(0xb175);
    for (std::size_t n : {std::size_t(0), std::size_t(1),
                          std::size_t(8), std::size_t(77)}) {
        std::vector<std::uint8_t> bits(n), crumbs(n);
        for (std::size_t i = 0; i < n; ++i) {
            bits[i] = rng() % 2;
            crumbs[i] = rng() % 4;
        }
        std::vector<std::uint8_t> pb, pc;
        trace::packBits(bits.data(), n, pb);
        trace::packCrumbs(crumbs.data(), n, pc);
        EXPECT_EQ(pb.size(), (n + 7) / 8);
        EXPECT_EQ(pc.size(), (n + 3) / 4);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(trace::unpackBit(pb.data(), i), bits[i] != 0)
                << i;
            EXPECT_EQ(trace::unpackCrumb(pc.data(), i), crumbs[i])
                << i;
        }
    }
}

// ---- block checksum ------------------------------------------------

TEST(BlockChecksum, EveryChangeWithinOneWordIsCaught)
{
    std::mt19937_64 rng(17);
    for (std::size_t n : {1u, 7u, 8u, 9u, 31u, 32u, 33u, 100u, 257u}) {
        std::vector<std::uint8_t> buf(n);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng());
        const std::uint64_t h = trace::blockChecksum(buf.data(), n);
        EXPECT_EQ(trace::blockChecksum(buf.data(), n), h);
        EXPECT_NE(trace::blockChecksum(buf.data(), n, 1), h)
            << "the seed is mixed in";
        // Every single-bit flip.
        for (std::size_t bit = 0; bit < n * 8; ++bit) {
            buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            EXPECT_NE(trace::blockChecksum(buf.data(), n), h)
                << "n " << n << " bit " << bit;
            buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        // Random rewrites of whole 8-byte words (the tail word only
        // over its bytes): a bijective lane step cannot map two
        // different words to one lane value.
        for (std::size_t w = 0; w < n; w += 8) {
            std::size_t len = std::min<std::size_t>(8, n - w);
            std::vector<std::uint8_t> saved(buf.begin() + w,
                                            buf.begin() + w + len);
            for (int k = 0; k < 64; ++k) {
                std::vector<std::uint8_t> next(len);
                for (auto &b : next)
                    b = static_cast<std::uint8_t>(rng());
                if (next == saved)
                    continue;
                std::copy(next.begin(), next.end(), buf.begin() + w);
                EXPECT_NE(trace::blockChecksum(buf.data(), n), h)
                    << "n " << n << " word " << w / 8;
            }
            std::copy(saved.begin(), saved.end(), buf.begin() + w);
        }
        ASSERT_EQ(trace::blockChecksum(buf.data(), n), h);
    }
    // Length is part of the hash: zero bytes that extend the tail
    // word are not padding.
    std::vector<std::uint8_t> zeros(16, 0);
    EXPECT_NE(trace::blockChecksum(zeros.data(), 9),
              trace::blockChecksum(zeros.data(), 12));
    EXPECT_NE(trace::blockChecksum(zeros.data(), 8),
              trace::blockChecksum(zeros.data(), 9));
}

// ---- v4 files with tiny blocks ------------------------------------

/** Interpret demoProgram() into @p path in 64-record blocks, so a
 *  small trace still spans many blocks; returns records written. */
std::uint64_t
writeTinyBlockTrace(const std::string &path, const isa::Program &prog,
                    std::uint64_t fingerprint)
{
    TraceFileWriter writer(path, fingerprint, /*blockRecords=*/64);
    vm::Interpreter interp(prog);
    interp.run(&writer);
    EXPECT_TRUE(writer.close()) << writer.error();
    return writer.recordsWritten();
}

TEST(TraceV3, TinyBlockFileRoundTripsAndCompresses)
{
    TempPath tmp("lvplib_v3_tiny.trace");
    auto prog = demoProgram();
    std::uint64_t fp = trace::programFingerprint(prog);
    std::uint64_t n = writeTinyBlockTrace(tmp.path, prog, fp);
    ASSERT_GT(n, 1000u) << "need enough records for many blocks";

    auto rep = trace::verifyTraceFile(tmp.path, fp);
    ASSERT_TRUE(rep.ok()) << rep.detail;
    EXPECT_EQ(rep.version, trace::TraceFormatVersion);
    EXPECT_EQ(rep.records, n);
    EXPECT_GT(rep.compressionRatio(), 3.0)
        << rep.fileBytes << " bytes for " << n << " records";

    auto live = sim::runFunctional(prog);
    trace::TraceStats replayed;
    TraceFileReader reader(tmp.path, prog, fp);
    EXPECT_EQ(reader.replay(replayed), n);
    EXPECT_EQ(replayed.instructions(), live.stats.instructions());
    EXPECT_EQ(replayed.loads(), live.stats.loads());
    EXPECT_EQ(replayed.stores(), live.stats.stores());
    EXPECT_EQ(replayed.takenBranches(), live.stats.takenBranches());
}

TEST(TraceV3, FlippedCompressedByteDetected)
{
    TempPath tmp("lvplib_v3_flip.trace");
    auto prog = demoProgram();
    writeTinyBlockTrace(tmp.path, prog, 7);

    // Flip one bit in the middle of the file: inside some block's
    // compressed payload, caught by that block's checksum.
    {
        std::fstream f(tmp.path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(0, std::ios::end);
        auto size = static_cast<std::uint64_t>(f.tellg());
        f.seekp(static_cast<std::streamoff>(size / 2));
        char b;
        f.seekg(static_cast<std::streamoff>(size / 2));
        f.read(&b, 1);
        b ^= 0x10;
        f.seekp(static_cast<std::streamoff>(size / 2));
        f.write(&b, 1);
    }

    auto rep = trace::verifyTraceFile(tmp.path);
    EXPECT_TRUE(rep.status == TraceFileStatus::ChecksumMismatch ||
                rep.status == TraceFileStatus::BadBlock)
        << trace::traceFileStatusName(rep.status);
    expectSimError(
        [&] {
            TraceFileReader r(tmp.path, prog);
            trace::TraceStats sink;
            r.replay(sink);
        },
        ErrorKind::TraceCorrupt, "at block");
}

/** Byte range [begin, end) of one block of an on-disk trace. */
struct BlockSpan
{
    std::size_t begin, end;
};

/** Every block's byte range, read back from the file's index. */
std::vector<BlockSpan>
blockSpans(const std::vector<std::uint8_t> &bytes,
           std::uint32_t blockRecords)
{
    auto u64 = [&bytes](std::size_t at) {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
        return v;
    };
    std::size_t footer = bytes.size() - trace::TraceFooterBytes;
    std::uint64_t records = u64(footer + 8);
    std::size_t blocks = (records + blockRecords - 1) / blockRecords;
    std::size_t index = footer - blocks * 8;
    std::vector<BlockSpan> spans;
    for (std::size_t b = 0; b < blocks; ++b)
        spans.push_back({static_cast<std::size_t>(u64(index + b * 8)),
                         b + 1 < blocks
                             ? static_cast<std::size_t>(
                                   u64(index + (b + 1) * 8))
                             : index});
    return spans;
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f), {}};
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &b)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char *>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

/** Replay @p path fully; the SimError message, or "" when clean. */
std::string
replayError(const std::string &path, const isa::Program &prog)
{
    try {
        TraceFileReader r(path, prog);
        trace::TraceStats sink;
        r.replay(sink);
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::TraceCorrupt) << e.what();
        return e.what();
    }
    return "";
}

TEST(TraceChecksum, EveryPayloadBitFlipIsCaughtAtItsBlock)
{
    TempPath tmp("lvplib_v4_bitflip.trace");
    auto prog = demoProgram();
    writeTinyBlockTrace(tmp.path, prog, 7);
    const auto clean = readBytes(tmp.path);
    const auto spans = blockSpans(clean, 64);
    ASSERT_GT(spans.size(), 8u);
    // A block from the middle of a real trace.
    const std::size_t b = spans.size() / 2;
    const std::string at = "block " + std::to_string(b);
    const std::size_t first = spans[b].begin + trace::TraceBlockHeaderBytes;
    ASSERT_LT(first, spans[b].end);
    for (std::size_t byte = first; byte < spans[b].end; ++byte) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            auto bytes = clean;
            bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
            writeBytes(tmp.path, bytes);
            SCOPED_TRACE(::testing::Message()
                         << "payload byte " << byte - first << " bit "
                         << bit);
            auto rep = trace::verifyTraceFile(tmp.path);
            ASSERT_EQ(rep.status, TraceFileStatus::ChecksumMismatch)
                << rep.detail;
            ASSERT_NE(rep.detail.find(at + " "), std::string::npos)
                << rep.detail;
            std::string err = replayError(tmp.path, prog);
            ASSERT_NE(err.find("checksum-mismatch at " + at),
                      std::string::npos)
                << err;
        }
    }
}

TEST(TraceChecksum, FlippedBlockHeaderByteIsCaught)
{
    TempPath tmp("lvplib_v4_hdrflip.trace");
    auto prog = demoProgram();
    writeTinyBlockTrace(tmp.path, prog, 7);
    const auto clean = readBytes(tmp.path);
    const auto spans = blockSpans(clean, 64);
    const std::size_t b = spans.size() / 2;
    // Count, column sizes and checksum: each byte, low and high bit.
    for (std::size_t i = 0; i < trace::TraceBlockHeaderBytes; ++i) {
        for (std::uint8_t mask : {0x01, 0x80}) {
            auto bytes = clean;
            bytes[spans[b].begin + i] ^= mask;
            writeBytes(tmp.path, bytes);
            SCOPED_TRACE(::testing::Message()
                         << "header byte " << i << " mask "
                         << int(mask));
            auto rep = trace::verifyTraceFile(tmp.path);
            EXPECT_TRUE(rep.status == TraceFileStatus::BadBlock ||
                        rep.status == TraceFileStatus::ChecksumMismatch)
                << trace::traceFileStatusName(rep.status);
            EXPECT_NE(replayError(tmp.path, prog).find(
                          "at block " + std::to_string(b)),
                      std::string::npos);
        }
    }
}

TEST(TraceChecksum, FooterChainCatchesARewrittenBlockHeader)
{
    // Corrupt one payload bit and re-stamp the block's own checksum to
    // match: the block verifies on its own, so only the footer's chain
    // of block headers can catch it. The bit is in the packed pred
    // column (the block's last byte), so the block still decodes.
    TempPath tmp("lvplib_v4_chain.trace");
    auto prog = demoProgram();
    writeTinyBlockTrace(tmp.path, prog, 7);
    auto bytes = readBytes(tmp.path);
    const auto spans = blockSpans(bytes, 64);
    const BlockSpan blk = spans[spans.size() / 2];
    const std::size_t payload = blk.begin + trace::TraceBlockHeaderBytes;
    bytes[blk.end - 1] ^= 0x01;
    std::uint64_t sum = trace::blockChecksum(bytes.data() + payload,
                                             blk.end - payload);
    for (unsigned i = 0; i < 8; ++i)
        bytes[blk.begin + 16 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
    writeBytes(tmp.path, bytes);

    auto rep = trace::verifyTraceFile(tmp.path);
    EXPECT_EQ(rep.status, TraceFileStatus::ChecksumMismatch);
    EXPECT_NE(rep.detail.find("footer"), std::string::npos) << rep.detail;
    EXPECT_NE(replayError(tmp.path, prog).find("checksum-mismatch"),
              std::string::npos);
}

TEST(TraceV3, TruncationDetected)
{
    TempPath tmp("lvplib_v3_trunc.trace");
    auto prog = demoProgram();
    writeTinyBlockTrace(tmp.path, prog, 7);

    auto size = std::filesystem::file_size(tmp.path);
    std::filesystem::resize_file(tmp.path, size - 13);

    auto rep = trace::verifyTraceFile(tmp.path);
    EXPECT_FALSE(rep.ok());
    expectSimError([&] { TraceFileReader r(tmp.path, prog); },
                   ErrorKind::TraceCorrupt, "invalid trace file");
}

} // namespace
} // namespace lvplib
