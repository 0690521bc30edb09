/**
 * @file
 * Column codecs and the block checksum of the v4 trace file format
 * (trace/trace_file.hh):
 * the paper's value-locality observation applied to our own storage
 * layer. Dynamic pc / effective-address / value columns vary slowly,
 * so delta + zigzag + LEB128 varint shrinks them from 8 bytes to ~1
 * byte per record, and the mostly-zero columns (addresses of
 * non-memory records, values of non-loads) collapse further behind a
 * one-bit presence bitmap.
 *
 * Encoders are infallible; decoders are strict and total: every read
 * is bounds-checked against the payload, a varint longer than
 * VarintMaxBytes or overflowing 64 bits is rejected, and a column
 * that does not consume exactly its declared byte length fails.
 * Failure is a `false` return — callers (which know the file and block
 * context) turn it into a typed SimError(TraceCorrupt).
 */

#ifndef LVPLIB_TRACE_COLUMNAR_HH
#define LVPLIB_TRACE_COLUMNAR_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lvplib::trace
{

/**
 * The block checksum: a four-lane, word-at-a-time 64-bit hash of
 * [@p data, @p data + @p n) under @p seed. Word i of the input (8
 * little-endian bytes; the tail word zero-padded) goes to lane i mod
 * 4, whose step is a bijection in the word and in the lane, and the
 * lanes merge through bijective steps into a bijective finalizer. So
 * a change confined to one 8-byte word always changes the result, as
 * a one-byte change always changes FNV-1a. Four independent lanes let
 * the multiplies overlap, where FNV-1a waits on one per byte.
 */
std::uint64_t blockChecksum(const void *data, std::size_t n,
                            std::uint64_t seed = 0);

/** Longest legal LEB128 encoding of a u64 (10 * 7 bits >= 64). */
constexpr std::size_t VarintMaxBytes = 10;

/** Append the LEB128 varint encoding of @p v to @p out. */
void putVarint(std::vector<std::uint8_t> &out, std::uint64_t v);

/**
 * Decode one LEB128 varint from [@p p, @p end), advancing @p p.
 * @return false on truncation, an encoding longer than
 * VarintMaxBytes, or 64-bit overflow in the final byte.
 * Inline: the column decoders call it once per nonzero value.
 */
inline bool
getVarint(const std::uint8_t *&p, const std::uint8_t *end,
          std::uint64_t &v)
{
    // Most deltas fit in one byte.
    if (p != end && *p < 0x80) {
        v = *p++;
        return true;
    }
    std::uint64_t acc = 0;
    unsigned shift = 0;
    for (std::size_t i = 0; i < VarintMaxBytes; ++i) {
        if (p == end)
            return false; // truncated
        std::uint8_t byte = *p++;
        // The 10th byte may only contribute the top bit of a u64:
        // anything else is a 64-bit overflow from hostile input.
        if (i == VarintMaxBytes - 1 && byte > 1)
            return false;
        acc |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80)) {
            v = acc;
            return true;
        }
        shift += 7;
    }
    return false; // longer than any canonical u64 encoding
}

/** @{ Zigzag: map small-magnitude signed deltas to small varints. */
constexpr std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}
/** @} */

/**
 * Dense delta column: each value is encoded as the zigzagged
 * difference from its predecessor (the first from 0). Used for pc,
 * whose deltas are one instruction-size stride for straight-line
 * code.
 */
void encodeDeltaColumn(const std::uint64_t *vals, std::size_t n,
                       std::vector<std::uint8_t> &out);

/**
 * Decode @p n values of a dense delta column occupying exactly
 * [@p p, @p p + @p len). Writes into @p out[0..n) with stride
 * @p stride u64 slots (stride > 1 writes one field of an array of
 * structs).
 */
bool decodeDeltaColumn(const std::uint8_t *p, std::size_t len,
                       std::uint64_t *out, std::size_t n,
                       std::size_t stride = 1);

/**
 * Sparse column: a presence bitmap of (n+7)/8 bytes (bit i set when
 * vals[i] != 0), then one zigzagged delta varint per nonzero value,
 * each relative to the PREVIOUS NONZERO value (first from 0). Zeros
 * cost one bit; nonzero runs exploit the paper's address/value
 * locality. Used for effAddr and value, which are zero for most
 * non-memory records.
 */
void encodeSparseColumn(const std::uint64_t *vals, std::size_t n,
                        std::vector<std::uint8_t> &out);

/** Decode a sparse column (see encodeSparseColumn); exact-length and
 *  stride semantics as decodeDeltaColumn. */
bool decodeSparseColumn(const std::uint8_t *p, std::size_t len,
                        std::uint64_t *out, std::size_t n,
                        std::size_t stride = 1);

/** Pack n one-bit flags (vals[i] != 0) into (n+7)/8 bytes. */
void packBits(const std::uint8_t *vals, std::size_t n,
              std::vector<std::uint8_t> &out);

/** Bit i of a packBits() column. */
inline bool
unpackBit(const std::uint8_t *p, std::size_t i)
{
    return (p[i >> 3] >> (i & 7)) & 1;
}

/** Pack n two-bit codes (vals[i] & 3) into (n+3)/4 bytes. */
void packCrumbs(const std::uint8_t *vals, std::size_t n,
                std::vector<std::uint8_t> &out);

/** Two-bit code i of a packCrumbs() column. */
inline std::uint8_t
unpackCrumb(const std::uint8_t *p, std::size_t i)
{
    return (p[i >> 2] >> ((i & 3) * 2)) & 3;
}

/**
 * Reads a dense delta column (see encodeDeltaColumn) one value at a
 * time, so a block decoder can fill each record in one pass over
 * every column; decodeDeltaColumn() is a loop over it.
 */
class DeltaColumnReader
{
  public:
    DeltaColumnReader(const std::uint8_t *p, std::size_t len)
        : p_(p), end_(p + len)
    {}

    /** The next value; false on a malformed or exhausted column. */
    bool
    next(std::uint64_t &v)
    {
        std::uint64_t z;
        if (!getVarint(p_, end_, z))
            return false;
        prev_ += static_cast<std::uint64_t>(zigzagDecode(z));
        v = prev_;
        return true;
    }

    /** True when every byte was read: a column must consume exactly
     *  its bytes. */
    bool done() const { return p_ == end_; }

  private:
    const std::uint8_t *p_;
    const std::uint8_t *end_;
    std::uint64_t prev_ = 0;
};

/**
 * Reads a sparse column of @p n values (see encodeSparseColumn) one
 * value at a time; decodeSparseColumn() is a loop over it.
 */
class SparseColumnReader
{
  public:
    SparseColumnReader(const std::uint8_t *p, std::size_t len,
                       std::size_t n)
        : bitmap_(p), cur_(p + std::min(len, (n + 7) / 8)),
          end_(p + len), fits_(len >= (n + 7) / 8)
    {}

    /** False when the column is too short for its bitmap. */
    bool valid() const { return fits_; }

    /** Value @p i (values are read in order); false on a malformed
     *  column. */
    bool
    next(std::size_t i, std::uint64_t &v)
    {
        if (!unpackBit(bitmap_, i)) {
            v = 0;
            return true;
        }
        std::uint64_t z;
        if (!getVarint(cur_, end_, z))
            return false;
        prev_ += static_cast<std::uint64_t>(zigzagDecode(z));
        // A "present" zero is an encoding our writer never produces
        // (zeros go in the bitmap); reject rather than round-trip
        // ambiguously.
        v = prev_;
        return prev_ != 0;
    }

    /** True when every byte was read. */
    bool done() const { return cur_ == end_; }

  private:
    const std::uint8_t *bitmap_;
    const std::uint8_t *cur_;
    const std::uint8_t *end_;
    bool fits_;
    std::uint64_t prev_ = 0;
};

} // namespace lvplib::trace

#endif // LVPLIB_TRACE_COLUMNAR_HH
