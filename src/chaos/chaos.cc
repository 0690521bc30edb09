#include "chaos/chaos.hh"

#include <string>

#include "obs/metrics.hh"

namespace lvplib::chaos
{

namespace
{

/** 64-bit finalizer (MurmurHash3 fmix64): full avalanche. */
std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

std::uint64_t
decision(std::uint64_t seed, Point p, std::uint64_t streamKey,
         std::uint64_t n, std::uint64_t salt)
{
    std::uint64_t h = seed + salt;
    h = mix(h ^ (static_cast<std::uint64_t>(p) + 1) *
                    0x9e3779b97f4a7c15ull);
    h = mix(h ^ streamKey);
    h = mix(h ^ n * 0xbf58476d1ce4e5b9ull);
    return h;
}

} // namespace

const char *
pointName(Point p)
{
    switch (p) {
      case Point::TraceWriteRecord: return "trace_write_record";
      case Point::TraceWriteFooter: return "trace_write_footer";
      case Point::TraceReadFlip: return "trace_read_flip";
      case Point::CacheRename: return "cache_rename";
      case Point::TaskThrow: return "task_throw";
      case Point::LvptValue: return "lvpt_value";
      case Point::LctCounter: return "lct_counter";
      case Point::CvuEntry: return "cvu_entry";
      case Point::NumPoints: break;
    }
    return "?";
}

void
ChaosEngine::arm(const ChaosConfig &cfg)
{
    std::lock_guard<std::mutex> lock(m_);
    seed_.store(cfg.seed, std::memory_order_relaxed);
    period_.store(cfg.period == 0 ? 1 : cfg.period,
                  std::memory_order_relaxed);
    points_.store(cfg.points, std::memory_order_relaxed);
    // Resolve the obs mirrors now (registry get-or-create, stable
    // references) so the injection fast path never allocates. Lazy on
    // purpose: a run that never arms never registers chaos.* metrics.
    for (unsigned i = 0; i < NumChaosPoints; ++i) {
        if (cfg.points & (1u << i)) {
            obsInjected_[i].store(
                &obs::metrics().counter(
                    std::string("chaos.injected.") +
                    pointName(static_cast<Point>(i))),
                std::memory_order_release);
        }
    }
    armed_.store(true, std::memory_order_release);
}

void
ChaosEngine::disarm()
{
    armed_.store(false, std::memory_order_relaxed);
}

ChaosConfig
ChaosEngine::config() const
{
    ChaosConfig cfg;
    cfg.seed = seed_.load(std::memory_order_relaxed);
    cfg.period = period_.load(std::memory_order_relaxed);
    cfg.points = points_.load(std::memory_order_relaxed);
    return cfg;
}

bool
ChaosEngine::shouldInjectSlow(Point p, std::uint64_t streamKey,
                              std::uint64_t n)
{
    unsigned idx = static_cast<unsigned>(p);
    if (!(points_.load(std::memory_order_relaxed) & (1u << idx)))
        return false;
    std::uint64_t h = decision(seed_.load(std::memory_order_relaxed),
                               p, streamKey, n, /*salt=*/0);
    if (h % period_.load(std::memory_order_relaxed) != 0)
        return false;
    injected_[idx].fetch_add(1, std::memory_order_relaxed);
    if (auto *c = obsInjected_[idx].load(std::memory_order_acquire))
        c->add();
    return true;
}

std::uint64_t
ChaosEngine::faultHash(Point p, std::uint64_t streamKey,
                       std::uint64_t n) const
{
    return decision(seed_.load(std::memory_order_relaxed), p,
                    streamKey, n, /*salt=*/0x5fau);
}

void
ChaosEngine::recordRecovered(const char *site)
{
    recovered_.fetch_add(1, std::memory_order_relaxed);
    // Rare path (a fault actually happened): a by-name registry
    // lookup is fine, and keeps chaos.recovered.* out of fault-free
    // metric dumps.
    obs::metrics()
        .counter(std::string("chaos.recovered.") + site)
        .add();
}

std::uint64_t
ChaosEngine::injected(Point p) const
{
    return injected_[static_cast<unsigned>(p)].load(
        std::memory_order_relaxed);
}

std::uint64_t
ChaosEngine::injectedTotal() const
{
    std::uint64_t total = 0;
    for (const auto &c : injected_)
        total += c.load(std::memory_order_relaxed);
    return total;
}

std::uint64_t
ChaosEngine::recoveredTotal() const
{
    return recovered_.load(std::memory_order_relaxed);
}

void
ChaosEngine::resetCounts()
{
    for (auto &c : injected_)
        c.store(0, std::memory_order_relaxed);
    recovered_.store(0, std::memory_order_relaxed);
}

ChaosEngine &
engine()
{
    static ChaosEngine e;
    return e;
}

std::uint64_t
streamKey(std::string_view name)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : name) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x00000100000001b3ull;
    }
    return h;
}

} // namespace lvplib::chaos
