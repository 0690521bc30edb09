/**
 * @file
 * lvpchaos: deterministic, seeded fault injection for the experiment
 * engine and the predictor structures.
 *
 * The engine is a process-wide singleton guarded by one relaxed
 * atomic load (the same near-zero-cost-when-off pattern as
 * obs::Timeline): when disarmed, every injection site costs a single
 * branch and touches no shared state. When armed, each site asks
 * shouldInject(point, streamKey, n) whether fault number @p n of its
 * decision stream fires. Decisions are STATELESS — a pure hash of
 * (seed, point, streamKey, n) — so they do not depend on thread
 * scheduling or on how many other sites ran first: the same seed
 * replays the same faults at the same places, which is what lets the
 * chaos campaign compare a faulted run against a fault-free reference
 * bit for bit.
 *
 * Stream keys name an independent decision stream per site instance
 * (a trace file's fingerprint, a predictor's config name, a cache
 * path); @p n is the site's own monotonic event counter (record
 * number, load number, submission number).
 *
 * Injected/recovered events publish as volatile chaos.* counters via
 * the PR 3 MetricRegistry, registered lazily (at arm() or on the
 * first recovery) so a fault-free run's metric dump is byte-identical
 * to a build without chaos.
 */

#ifndef LVPLIB_CHAOS_CHAOS_HH
#define LVPLIB_CHAOS_CHAOS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string_view>

namespace lvplib::obs
{
class Counter;
} // namespace lvplib::obs

namespace lvplib::chaos
{

/** Every place a fault can be injected. */
enum class Point : unsigned
{
    TraceWriteRecord, ///< trace writer: one record fwrite fails (short
                      ///< write / ENOSPC)
    TraceWriteFooter, ///< trace writer: the footer write fails
    TraceReadFlip,    ///< trace reader: one bit of a record flips
    CacheRename,      ///< run cache: publishing rename fails
    TaskThrow,        ///< task pool: a worker task dies with SimError
    LvptValue,        ///< predictor: XOR one bit into an LVPT MRU value
    LctCounter,       ///< predictor: flip the low bit of an LCT counter
    CvuEntry,         ///< predictor: parity-detected CVU entry eviction
    NumPoints,
};

constexpr unsigned NumChaosPoints = static_cast<unsigned>(Point::NumPoints);

const char *pointName(Point p);

constexpr std::uint32_t
pointBit(Point p)
{
    return 1u << static_cast<unsigned>(p);
}

/** Engine faults: I/O and scheduling, recovered by the engine. */
constexpr std::uint32_t EnginePoints =
    pointBit(Point::TraceWriteRecord) | pointBit(Point::TraceWriteFooter) |
    pointBit(Point::TraceReadFlip) | pointBit(Point::CacheRename) |
    pointBit(Point::TaskThrow);

/** Predictor-state faults: must never change architectural results. */
constexpr std::uint32_t PredictorPoints = pointBit(Point::LvptValue) |
                                          pointBit(Point::LctCounter) |
                                          pointBit(Point::CvuEntry);

constexpr std::uint32_t AllPoints = EnginePoints | PredictorPoints;

/** What to inject, where, and how often. */
struct ChaosConfig
{
    std::uint64_t seed = 1;
    std::uint32_t points = AllPoints; ///< pointBit() mask of armed sites
    std::uint64_t period = 4096; ///< one fault per this many decisions
};

/**
 * The process-wide injection engine. All methods are thread-safe;
 * enabled() and a disarmed shouldInject() are a single relaxed load.
 */
class ChaosEngine
{
  public:
    /** Fast guard for call sites that do setup work before deciding. */
    bool
    enabled() const
    {
        return armed_.load(std::memory_order_relaxed);
    }

    /** Arm injection with @p cfg (period 0 is clamped to 1). */
    void arm(const ChaosConfig &cfg);

    /** Disarm every injection point. */
    void disarm();

    /** The armed configuration (meaningful while enabled()). */
    ChaosConfig config() const;

    /**
     * Should fault number @p n of stream (@p p, @p streamKey) fire?
     * Counts the fault (injected counters) when it does.
     */
    bool
    shouldInject(Point p, std::uint64_t streamKey, std::uint64_t n)
    {
        if (!armed_.load(std::memory_order_relaxed))
            return false;
        return shouldInjectSlow(p, streamKey, n);
    }

    /**
     * A deterministic 64-bit value for shaping an injected fault
     * (which bit to flip, which entry to evict); independent of the
     * shouldInject() decision hash.
     */
    std::uint64_t faultHash(Point p, std::uint64_t streamKey,
                            std::uint64_t n) const;

    /**
     * Record that a fault (injected or real) was absorbed by a
     * recovery path; publishes chaos.recovered.<site>.
     */
    void recordRecovered(const char *site);

    std::uint64_t injected(Point p) const;
    std::uint64_t injectedTotal() const;
    std::uint64_t recoveredTotal() const;

    /** Zero the injected/recovered counts (obs counters keep going). */
    void resetCounts();

  private:
    bool shouldInjectSlow(Point p, std::uint64_t streamKey,
                          std::uint64_t n);

    std::atomic<bool> armed_{false};
    std::atomic<std::uint64_t> seed_{1};
    std::atomic<std::uint64_t> period_{4096};
    std::atomic<std::uint32_t> points_{AllPoints};

    std::array<std::atomic<std::uint64_t>, NumChaosPoints> injected_{};
    std::atomic<std::uint64_t> recovered_{0};
    /** chaos.injected.<point> mirrors, registered at arm() time. */
    std::array<std::atomic<obs::Counter *>, NumChaosPoints> obsInjected_{};
    mutable std::mutex m_;
};

/** The process-wide engine (Meyers singleton, like Timeline). */
ChaosEngine &engine();

/** Stable stream key for a named site instance (FNV-1a of @p name). */
std::uint64_t streamKey(std::string_view name);

} // namespace lvplib::chaos

#endif // LVPLIB_CHAOS_CHAOS_HH
