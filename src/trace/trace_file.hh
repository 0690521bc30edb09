/**
 * @file
 * Binary trace serialization, mirroring the paper's decoupled
 * experimental flow (Section 5): phase 1 writes a full dynamic trace
 * to disk; phase 2 runs the LVP unit over it and emits a compact
 * annotation stream of TWO BITS PER LOAD ("to conserve trace
 * bandwidth by passing only two bits of state per load to the
 * microarchitectural simulator"); phase 3 replays the trace merged
 * with the annotations into a timing model.
 *
 * On-disk layout, format version 4 (little-endian throughout):
 *
 *   header (24 bytes)
 *     [ 0.. 8)  magic "LVPTRACE"
 *     [ 8..12)  u32 format version (TraceFormatVersion)
 *     [12..16)  u32 records per block (header blockRecords)
 *     [16..24)  u64 fingerprint of the generating program + run key
 *   payload: ceil(N / blockRecords) column-major, delta-compressed
 *   blocks, each
 *     block header (24 bytes)
 *       u32 record count n | u32 pcBytes | u32 addrBytes
 *       | u32 valueBytes | u64 blockChecksum() of the column payload
 *     column payload
 *       pc column:    n delta+zigzag+varint values (trace/columnar.hh)
 *       addr column:  sparse (presence bitmap + nonzero deltas)
 *       value column: sparse
 *       taken column: n bits, packed
 *       pred column:  n two-bit PredStates, packed
 *   block index: one u64 absolute file offset per block, from which
 *     the reader sizes each block's single fread
 *   footer (24 bytes)
 *     [ 0.. 8)  magic "ECARTPVL"
 *     [ 8..16)  u64 record count N
 *     [16..24)  u64 blockChecksum() chained over the block headers in
 *               order (each carries its payload's checksum, so the
 *               chain covers every payload byte; the index is
 *               validated structurally)
 *
 * Version 4 has version 3's layout and sizes; only the checksums
 * changed. v3 hashed every block byte twice with byte-serial FNV-1a
 * (once per block, once more for the footer); v4's four-lane
 * word-at-a-time hash (trace/columnar.hh) catches any change confined
 * to one 8-byte word, as FNV-1a catches any one-byte change, and the
 * footer re-hashes 24 header bytes per block instead of the payload.
 *
 * The columns exploit the paper's value locality on our own
 * storage: pc deltas are one instruction stride for straight-line
 * code, effective addresses and loaded values are absent (zero) for
 * most records and strongly local when present, so a record costs a
 * few bytes instead of 26. Bit-packing taken/pred makes every decoded
 * enum legal by construction — corruption detection rests on the
 * per-block checksum instead of per-record enum range checks.
 *
 * The reader reconstructs nextPc and the static instruction from the
 * Program at read time; seq is implicit in record order. Memory ops
 * use the addr slot for their effective address; indirect branches
 * reuse it for their target.
 *
 * The fingerprint (programFingerprint() mixed with a caller-chosen
 * salt, e.g. workload|codegen|scale|maxInstructions) ties a trace to
 * the exact program it was generated from: a cache that stores traces
 * can detect stale files after a workload-builder or codegen change
 * without any out-of-band bookkeeping. Bump TraceFormatVersion when
 * the record encoding or the interpreter's observable semantics
 * change; a file of any other version is BadVersion, which the
 * run-cache regenerates and counts as a format upgrade.
 *
 * verifyTraceFile() is the non-fatal integrity check (used by the
 * run-cache and by `lvpbench --verify-trace-cache`): it validates the
 * envelope, the block structure and per-block checksums, and the
 * whole-payload checksum, and reports a TraceFileStatus instead of
 * exiting. TraceFileReader is strict: it is for files that are
 * expected to be valid and throws
 * SimError(TraceCorrupt) — or SimError(TraceIo) for an unopenable
 * file — on corruption, naming the reason (never silently truncating
 * a replay). The run-cache catches the exception and falls back to
 * in-memory interpretation.
 */

#ifndef LVPLIB_TRACE_TRACE_FILE_HH
#define LVPLIB_TRACE_TRACE_FILE_HH

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "trace/trace.hh"

namespace lvplib::trace
{

/** The one format written and read; any other version is BadVersion. */
constexpr std::uint32_t TraceFormatVersion = 4;

/** Raw bytes per record (u64 pc|effAddr|value + u8 taken|pred): the
 *  uncompressed baseline against which compression ratios are
 *  quoted. */
constexpr std::size_t TraceRecordBytes = 8 + 8 + 8 + 1 + 1;

/** Encoded header / footer sizes (see file comment for layout). */
constexpr std::size_t TraceHeaderBytes = 8 + 4 + 4 + 8;
constexpr std::size_t TraceFooterBytes = 8 + 8 + 8;

/** Per-block header: u32 n | u32 colBytes x3 | u64 checksum. */
constexpr std::size_t TraceBlockHeaderBytes = 4 * 4 + 8;

/** Default records per block (the writer's blockRecords). Sized
 *  so one decoded block (~sizeof(TraceRecord) * blockRecords, about
 *  half a MiB) stays L2-resident: the reader's decode pass and the
 *  sink's consume pass walk the same block buffer, and a buffer
 *  bigger than the cache turns every pass into memory traffic (a
 *  64Ki-record block measured ~10% slower suite-wide). Tests shrink
 *  it further to exercise block-boundary seams on small traces. */
constexpr std::uint32_t TraceBlockRecords = 8 * 1024;

/** Largest blockRecords a reader will accept (bounds per-block
 *  allocations against hostile headers). */
constexpr std::uint32_t TraceMaxBlockRecords = 1u << 24;

/**
 * Stable fingerprint of a program image (instructions, data image,
 * symbols). Two programs that could produce different traces hash
 * differently; rebuilding the same workload hashes identically.
 */
std::uint64_t programFingerprint(const isa::Program &prog);

/** Fold @p salt (e.g. a run-cache key) into fingerprint @p fp. */
std::uint64_t mixFingerprint(std::uint64_t fp, const std::string &salt);

/** Why a trace file failed (or passed) verification. */
enum class TraceFileStatus
{
    Ok,
    OpenFailed,       ///< cannot open for reading
    TooSmall,         ///< shorter than header + footer
    BadMagic,         ///< header magic mismatch (not a trace file)
    BadVersion,       ///< written by a different format version
    BadRecordSize,    ///< header blockRecords field out of range
    BadFingerprint,   ///< stale: generating program/run key changed
    BadFooter,        ///< footer magic missing (interrupted write)
    BadBlock,         ///< block header/index/column malformed
    ChecksumMismatch, ///< payload bytes corrupted
    ReadFailed,       ///< I/O error while scanning
};

const char *traceFileStatusName(TraceFileStatus s);

/** Result of verifyTraceFile(). */
struct TraceVerifyReport
{
    TraceFileStatus status = TraceFileStatus::Ok;
    std::uint64_t records = 0;     ///< footer count (when readable)
    std::uint64_t fingerprint = 0; ///< header fingerprint (when readable)
    std::uint32_t version = 0;     ///< header format version
    std::uint64_t fileBytes = 0;   ///< on-disk size (when stat-able)
    std::string detail;            ///< human-readable specifics

    bool ok() const { return status == TraceFileStatus::Ok; }

    /** Raw bytes (TraceRecordBytes per record) per on-disk byte. */
    double
    compressionRatio() const
    {
        return fileBytes > 0
                   ? static_cast<double>(records) * TraceRecordBytes /
                         static_cast<double>(fileBytes)
                   : 0.0;
    }
};

/**
 * Fully verify @p path: envelope, block walk with per-block
 * checksums, whole-payload checksum, and (when given) the expected
 * fingerprint. Never fatal; a missing or corrupt file is reported in
 * the returned status.
 */
TraceVerifyReport
verifyTraceFile(const std::string &path,
                std::optional<std::uint64_t> expectFingerprint =
                    std::nullopt);

/**
 * A sink that streams records into a binary trace file.
 *
 * Records are staged column-wise and encoded one block at a time;
 * encoded blocks are written with one fwrite per buffer-full rather
 * than one per record. A latched write failure still poisons the
 * whole file, so buffering does not change what callers can observe
 * (a file is either complete and verified or discarded).
 *
 * I/O errors (open, write, flush, close) are latched instead of
 * fatal: good() turns false, further records are dropped, and close()
 * reports overall success so callers can discard the file and fall
 * back rather than publish a truncated trace. A file is only valid
 * once finish() has written the footer and close() returned true.
 */
class TraceFileWriter : public TraceSink
{
  public:
    /**
     * Open @p path for writing; failure is latched, not fatal.
     * @p blockRecords, in [1, TraceMaxBlockRecords], is the records
     * per block; tests shrink it to exercise block seams.
     */
    explicit TraceFileWriter(const std::string &path,
                             std::uint64_t fingerprint = 0,
                             std::uint32_t blockRecords =
                                 TraceBlockRecords);
    ~TraceFileWriter() override;

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    void consume(const TraceRecord &rec) override;
    void consumeBatch(std::span<const TraceRecord> recs) override;

    /** Write the block index and footer, then flush (idempotent). */
    void finish() override;

    /**
     * finish() if needed, then fclose.
     * @return true when every write (records, footer, flush, close)
     * succeeded; on false the file must not be used.
     */
    bool close();

    /** False once any I/O error has occurred. */
    bool good() const { return !failed_; }

    /** First I/O error message ("" when good()). */
    const std::string &error() const { return error_; }

    std::uint64_t recordsWritten() const { return written_; }

  private:
    void fail(const std::string &what);
    void encodeBlock(); ///< drain the staged columns into wbuf_
    void flushBuffer();

    std::FILE *file_;
    std::string path_;
    std::uint64_t fingerprint_;
    std::uint32_t blockRecords_;
    std::uint64_t checksum_ = 0; ///< footer chain of block headers
    std::uint64_t written_ = 0;
    bool finished_ = false;
    bool closed_ = false;
    bool failed_ = false;
    std::string error_;
    std::vector<std::uint8_t> wbuf_; ///< encoded-byte block buffer

    /** @{ Column staging for the open block. */
    std::vector<std::uint64_t> stagePc_, stageAddr_, stageVal_;
    std::vector<std::uint8_t> stageTaken_, stagePred_;
    std::vector<std::uint8_t> colBuf_;   ///< per-block scratch
    std::vector<std::uint64_t> index_;   ///< block file offsets
    std::uint64_t fileOffset_ = 0;       ///< next block's offset
    /** @} */
};

/**
 * Replays a binary trace file into a sink, re-binding each record to
 * its static instruction in @p prog. The program must be the one the
 * trace was generated from (pass @p expectFingerprint to enforce it).
 *
 * The reader is strict: a malformed envelope, a truncated payload, a
 * corrupt block, an out-of-range pc or a checksum mismatch throws
 * SimError(TraceCorrupt) with a diagnostic — corruption is never
 * reported as a clean end-of-trace. An unopenable file throws SimError(TraceIo). Callers that must survive corrupt
 * files catch SimError and discard the partial replay (the run-cache
 * falls back to in-memory interpretation and deletes the file).
 *
 * I/O is block-buffered: the reader reads one compressed block per
 * fread and decodes its columns straight into an in-memory
 * TraceRecord block; replay() hands spans of that same block buffer to
 * TraceSink::consumeBatch() with no further copy, while the next
 * compressed block is read and software-prefetched behind the decode.
 * Validation is strictly in block order — a corrupt block throws
 * before any of its records is observed by the sink.
 */
class TraceFileReader
{
  public:
    TraceFileReader(const std::string &path, const isa::Program &prog,
                    std::optional<std::uint64_t> expectFingerprint =
                        std::nullopt);

    ~TraceFileReader();

    TraceFileReader(const TraceFileReader &) = delete;
    TraceFileReader &operator=(const TraceFileReader &) = delete;

    /**
     * Read one record into @p rec.
     * @return false at the end of the trace (checksum-verified).
     */
    bool next(TraceRecord &rec);

    /** Stream the whole file into @p sink (calls finish()). */
    std::uint64_t replay(TraceSink &sink);

    /** Total records promised by the footer. */
    std::uint64_t records() const { return records_; }

    /** Fingerprint stored in the header. */
    std::uint64_t fingerprint() const { return fingerprint_; }

  private:
    [[noreturn]] void corrupt(const std::string &what) const;

    std::uint64_t blockBytes(std::uint64_t b) const;
    /** Read, verify and decode block @p b; the replay resumes at
     *  its first record (every reader is sequential). */
    void loadBlock(std::uint64_t b);
    void decodeBlock(std::uint64_t b, std::uint8_t *data,
                     std::size_t len);

    std::FILE *file_;
    const isa::Program &prog_;
    std::string path_;
    SeqNum seq_ = 0;
    std::uint64_t records_ = 0;
    std::uint64_t fingerprint_ = 0;
    std::uint64_t expectChecksum_ = 0;
    std::uint64_t checksum_ = 0; ///< footer chain of block headers
    std::uint32_t blockRecords_ = 0;
    std::uint64_t indexStart_ = 0;      ///< file offset of the index
    std::vector<std::uint64_t> index_;  ///< block file offsets
    std::uint64_t filePos_ = 0;         ///< current stream position
    std::vector<std::uint8_t> cblock_;  ///< current compressed block
    std::vector<std::uint8_t> pblock_;  ///< prefetched next block
    std::size_t pblockLen_ = 0;         ///< valid bytes in pblock_
    std::uint64_t pblockBlock_ = 0;     ///< block number in pblock_
    std::vector<TraceRecord> decoded_;  ///< decoded current block
    std::size_t decPos_ = 0;            ///< next record in decoded_
};

/**
 * The paper's compact annotation stream: two bits per dynamic load,
 * in load order. Produced by the LVP phase and merged back into a
 * trace by AnnotationMerger.
 */
class AnnotationStream
{
  public:
    /** Append one load's prediction state. */
    void append(PredState s);

    /** Prediction state of load number @p i. */
    PredState at(std::uint64_t i) const;

    /** Number of loads annotated. */
    std::uint64_t size() const { return count_; }

    /** Bytes of storage used (4 loads per byte). */
    std::size_t storageBytes() const { return bits_.size(); }

    /** Serialize to / deserialize from a file. */
    void save(const std::string &path) const;
    static AnnotationStream load(const std::string &path);

  private:
    std::vector<std::uint8_t> bits_; ///< 2 bits per load, packed
    std::uint64_t count_ = 0;
};

/**
 * A sink that records each load's PredState into an AnnotationStream
 * and forwards nothing (use behind an LvpAnnotator).
 */
class AnnotationRecorder : public TraceSink
{
  public:
    void consume(const TraceRecord &rec) override;
    void consumeBatch(std::span<const TraceRecord> recs) override;

    const AnnotationStream &stream() const { return stream_; }
    AnnotationStream takeStream() { return std::move(stream_); }

  private:
    AnnotationStream stream_;
};

/**
 * A pass-through stage that stamps each load's PredState from an
 * AnnotationStream (phase 3's input: raw trace + 2-bit annotations).
 */
class AnnotationMerger : public TraceSink
{
  public:
    AnnotationMerger(const AnnotationStream &stream, TraceSink &down)
        : stream_(stream), down_(down)
    {}

    void consume(const TraceRecord &rec) override;
    void consumeBatch(std::span<const TraceRecord> recs) override;
    void finish() override { down_.finish(); }

  private:
    const AnnotationStream &stream_;
    TraceSink &down_;
    std::uint64_t loadIndex_ = 0;
    std::vector<TraceRecord> batch_; ///< stamped copies for batches
};

} // namespace lvplib::trace

#endif // LVPLIB_TRACE_TRACE_FILE_HH
