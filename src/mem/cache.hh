/**
 * @file
 * A generic set-associative cache model with LRU replacement. Only
 * tags are modeled (the functional interpreter holds the data); the
 * timing models query hit/miss and latency.
 */

#ifndef LVPLIB_MEM_CACHE_HH
#define LVPLIB_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace lvplib::mem
{

/** Geometry of one cache level. */
struct CacheConfig
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 8;
    std::uint32_t lineBytes = 64;

    std::uint32_t numSets() const { return sizeBytes / (assoc * lineBytes); }
    void validate() const;
};

/** Tag-only set-associative cache with true-LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access the line containing @p addr, allocating it on a miss
     * (write-allocate, fetch-on-write). Inline (below the class):
     * every timing-model load and store calls it.
     *
     * @return true on hit.
     */
    bool access(Addr addr);

    /** Hit/miss check without any state change. */
    bool probe(Addr addr) const;

    /** Invalidate the line containing @p addr if present. */
    void invalidate(Addr addr);

    const CacheConfig &config() const { return config_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t accesses() const { return hits_ + misses_; }

    /** Miss ratio in percent. */
    double missRate() const;

    void reset();

  private:
    struct Line
    {
        Addr tag = 0;
        std::uint64_t lastUse = 0; ///< LRU stamp (from 1); 0 = invalid
        bool valid() const { return lastUse != 0; }
    };

    std::uint32_t
    setIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>(addr >> setShift_) & setMask_;
    }

    Addr tagOf(Addr addr) const { return addr >> setShift_; }

    CacheConfig config_;
    std::uint32_t setShift_;   ///< log2(lineBytes)
    std::uint32_t setMask_;
    std::vector<Line> lines_;  ///< sets * assoc, row-major by set
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

inline bool
Cache::access(Addr addr)
{
    ++clock_;
    const Addr tag = tagOf(addr);
    Line *set = &lines_[static_cast<std::size_t>(setIndex(addr)) *
                        config_.assoc];
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        Line &line = set[w];
        if (line.valid() && line.tag == tag) {
            line.lastUse = clock_;
            ++hits_;
            return true;
        }
    }
    // Miss: fill an invalid way, else the least-recently-used way.
    Line *victim = &set[0];
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        Line &line = set[w];
        if (!line.valid()) {
            victim = &line;
            break;
        }
        if (line.lastUse < victim->lastUse)
            victim = &line;
    }
    ++misses_;
    victim->tag = tag;
    victim->lastUse = clock_;
    return false;
}

} // namespace lvplib::mem

#endif // LVPLIB_MEM_CACHE_HH
