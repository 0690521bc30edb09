#include "mem/cache.hh"

#include <bit>

#include "util/logging.hh"
#include "util/stats.hh"

namespace lvplib::mem
{

void
CacheConfig::validate() const
{
    auto pow2 = [](std::uint32_t v) {
        return v != 0 && (v & (v - 1)) == 0;
    };
    if (!pow2(lineBytes) || lineBytes < 8)
        lvp_fatal("bad lineBytes %u", lineBytes);
    if (assoc == 0 || sizeBytes % (assoc * lineBytes) != 0)
        lvp_fatal("cache size %u not divisible by assoc*line", sizeBytes);
    if (!pow2(numSets()))
        lvp_fatal("cache sets (%u) must be a power of two", numSets());
}

Cache::Cache(const CacheConfig &config) : config_(config)
{
    config_.validate();
    setShift_ = static_cast<std::uint32_t>(
        std::countr_zero(config_.lineBytes));
    setMask_ = config_.numSets() - 1;
    lines_.assign(static_cast<std::size_t>(config_.numSets()) *
                      config_.assoc,
                  Line());
}

bool
Cache::probe(Addr addr) const
{
    const Addr tag = tagOf(addr);
    const Line *set = &lines_[static_cast<std::size_t>(setIndex(addr)) *
                              config_.assoc];
    for (std::uint32_t w = 0; w < config_.assoc; ++w)
        if (set[w].valid() && set[w].tag == tag)
            return true;
    return false;
}

void
Cache::invalidate(Addr addr)
{
    const Addr tag = tagOf(addr);
    Line *set = &lines_[static_cast<std::size_t>(setIndex(addr)) *
                        config_.assoc];
    for (std::uint32_t w = 0; w < config_.assoc; ++w)
        if (set[w].valid() && set[w].tag == tag)
            set[w].lastUse = 0;
}

double
Cache::missRate() const
{
    return pct(misses_, accesses());
}

void
Cache::reset()
{
    for (auto &l : lines_)
        l = Line();
    clock_ = 0;
    hits_ = 0;
    misses_ = 0;
}

} // namespace lvplib::mem
