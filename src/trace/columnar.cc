#include "trace/columnar.hh"

#include <bit>
#include <cstring>

namespace lvplib::trace
{

namespace
{

/** @{ Odd 64-bit multipliers (xxHash64's primes): multiplying by an
 *  odd constant is a bijection modulo 2^64. */
constexpr std::uint64_t K1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t K2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t K3 = 0x165667b19e3779f9ull;
/** @} */

/** Little-endian u64 at @p p (@p len <= 8 bytes, zero-padded). */
std::uint64_t
loadWord(const std::uint8_t *p, std::size_t len = 8)
{
    std::uint64_t w = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&w, p, len);
    } else {
        for (std::size_t i = 0; i < len; ++i)
            w |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return w;
}

/** One lane step: for a fixed lane, a bijection in the word (odd
 *  multiply, add, rotate, odd multiply), and for a fixed word, a
 *  bijection in the lane. */
inline std::uint64_t
laneStep(std::uint64_t lane, std::uint64_t word)
{
    return std::rotl(lane + word * K2, 31) * K1;
}

/** Fold @p lane into @p h: a bijection in each argument. */
inline std::uint64_t
mergeLane(std::uint64_t h, std::uint64_t lane)
{
    return std::rotl(h ^ lane, 27) * K1 + K3;
}

/** MurmurHash3's fmix64: xor-shifts and odd multiplies, a bijection. */
inline std::uint64_t
finalize(std::uint64_t h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

} // namespace

std::uint64_t
blockChecksum(const void *data, std::size_t n, std::uint64_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t lane[4] = {seed + K1 + K2, seed + K2, seed,
                             seed - K1};
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        lane[0] = laneStep(lane[0], loadWord(p + i));
        lane[1] = laneStep(lane[1], loadWord(p + i + 8));
        lane[2] = laneStep(lane[2], loadWord(p + i + 16));
        lane[3] = laneStep(lane[3], loadWord(p + i + 24));
    }
    // Word i still goes to lane i mod 4: the tail starts at lane 0.
    std::size_t l = 0;
    for (; i + 8 <= n; i += 8, ++l)
        lane[l] = laneStep(lane[l], loadWord(p + i));
    if (i < n)
        lane[l] = laneStep(lane[l], loadWord(p + i, n - i));
    std::uint64_t h = seed + static_cast<std::uint64_t>(n) * K3;
    for (std::uint64_t v : lane)
        h = mergeLane(h, v);
    return finalize(h);
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

void
encodeDeltaColumn(const std::uint64_t *vals, std::size_t n,
                  std::vector<std::uint8_t> &out)
{
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        // Wrapping subtraction keeps the transform lossless for any
        // 64-bit pattern; zigzag keeps +/- strides equally short.
        putVarint(out,
                  zigzagEncode(
                      static_cast<std::int64_t>(vals[i] - prev)));
        prev = vals[i];
    }
}

bool
decodeDeltaColumn(const std::uint8_t *p, std::size_t len,
                  std::uint64_t *out, std::size_t n,
                  std::size_t stride)
{
    DeltaColumnReader col(p, len);
    for (std::size_t i = 0; i < n; ++i)
        if (!col.next(out[i * stride]))
            return false;
    return col.done();
}

void
encodeSparseColumn(const std::uint64_t *vals, std::size_t n,
                   std::vector<std::uint8_t> &out)
{
    std::size_t bitmapAt = out.size();
    out.resize(bitmapAt + (n + 7) / 8, 0);
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (vals[i] == 0)
            continue;
        out[bitmapAt + (i >> 3)] |=
            static_cast<std::uint8_t>(1u << (i & 7));
        putVarint(out,
                  zigzagEncode(
                      static_cast<std::int64_t>(vals[i] - prev)));
        prev = vals[i];
    }
}

bool
decodeSparseColumn(const std::uint8_t *p, std::size_t len,
                   std::uint64_t *out, std::size_t n,
                   std::size_t stride)
{
    SparseColumnReader col(p, len, n);
    if (!col.valid())
        return false;
    for (std::size_t i = 0; i < n; ++i)
        if (!col.next(i, out[i * stride]))
            return false;
    return col.done();
}

void
packBits(const std::uint8_t *vals, std::size_t n,
         std::vector<std::uint8_t> &out)
{
    std::size_t at = out.size();
    out.resize(at + (n + 7) / 8, 0);
    for (std::size_t i = 0; i < n; ++i)
        if (vals[i])
            out[at + (i >> 3)] |=
                static_cast<std::uint8_t>(1u << (i & 7));
}

void
packCrumbs(const std::uint8_t *vals, std::size_t n,
           std::vector<std::uint8_t> &out)
{
    std::size_t at = out.size();
    out.resize(at + (n + 3) / 4, 0);
    for (std::size_t i = 0; i < n; ++i)
        out[at + (i >> 2)] |= static_cast<std::uint8_t>(
            (vals[i] & 3) << ((i & 3) * 2));
}

} // namespace lvplib::trace
