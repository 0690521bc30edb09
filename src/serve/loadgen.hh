/**
 * @file
 * Load-generation building blocks for lvpload and the serve tests:
 * turning the benchmark suite into wire-ready ServeRecord streams,
 * sharing them across simulated users, and computing the offline
 * statistics every server session must match byte for byte.
 *
 * The per-session/shared split, client side: the expensive artifacts
 * (interpreting a workload, encoding its stream) are produced once per
 * process in a StreamLibrary and shared read-only by every user
 * thread; each user's connection, sessions, and verification state are
 * its own. The byte-identity oracle is a predictor-only RunCache::sweep
 * — the exact memoized path lvpbench uses — so "the server agrees with
 * lvpload" means "the server agrees with the paper pipeline".
 */

#ifndef LVPLIB_SERVE_LOADGEN_HH
#define LVPLIB_SERVE_LOADGEN_HH

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "sim/run_cache.hh"
#include "workloads/workload.hh"

namespace lvplib::serve
{

/** One workload's encoded, fingerprinted wire stream. */
struct LoadStream
{
    std::string workload;             ///< source benchmark name
    std::vector<std::uint8_t> bytes;  ///< encoded ServeRecords
    std::uint64_t records = 0;
    std::uint64_t fingerprint = 0;    ///< streamFingerprint(bytes)
};

/**
 * TraceSink encoding the predictor-relevant projection of a dynamic
 * trace (loads, stores, branches) into ServeRecord wire bytes —
 * the exact event sequence core::PredictorAnnotator would feed a
 * predictor, which is what makes server-side stats byte-identical to
 * the offline run.
 */
class ServeRecordEncoder : public trace::TraceSink
{
  public:
    void consume(const trace::TraceRecord &rec) override;

    std::uint64_t records() const { return records_; }
    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::vector<std::uint8_t> takeBytes() { return std::move(bytes_); }

  private:
    std::vector<std::uint8_t> bytes_;
    std::uint64_t records_ = 0;
};

/**
 * Process-wide once-per-workload stream builder. get() interprets and
 * encodes on first request (via RunCache::replayShared) and returns
 * the shared immutable stream to every later requester; concurrent
 * first requests block on one computation, mirroring RunCache's
 * memoization discipline.
 */
class StreamLibrary
{
  public:
    /** @param cache Supplies programs/traces; typically
     *  RunCache::instance(), or a local instance in tests. */
    explicit StreamLibrary(sim::RunCache &cache) : cache_(cache) {}

    std::shared_ptr<const LoadStream>
    get(const workloads::Workload &w, workloads::CodeGen cg,
        unsigned scale, const sim::RunConfig &rc);

  private:
    sim::RunCache &cache_;
    std::mutex m_;
    std::map<std::string,
             std::shared_future<std::shared_ptr<const LoadStream>>>
        streams_;
};

/**
 * The offline answer a served session must reproduce exactly:
 * a predictor-only RunCache::sweep for the same (workload, codegen,
 * scale, run-config, predictor).
 */
core::LvpStats expectedStats(sim::RunCache &cache,
                             const workloads::Workload &w,
                             workloads::CodeGen cg, unsigned scale,
                             const sim::RunConfig &rc,
                             const core::PredictorInfo &info);

} // namespace lvplib::serve

#endif // LVPLIB_SERVE_LOADGEN_HH
