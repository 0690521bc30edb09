/**
 * @file
 * Time-slice sharded replay of one phase-1 trace through one value
 * predictor: the trace's record range [0, N) is cut into
 * ceil(N/shards)-record slices, a serial leader pass drives a scout
 * unit across the file capturing a predictor-state checkpoint
 * (ValuePredictor::snapshotState) at every slice boundary, and the
 * slices are then replayed concurrently on shardPool(), each shard
 * restoring its boundary checkpoint first. Per-slice LvpStats are
 * plain event counts, so summing them in slice order reproduces, bit
 * for bit, the stats of one serial pass — the stitched result is
 * byte-identical by construction, and shard_replay_test proves it
 * against a serial PredictorAnnotator pass for every registered
 * predictor and LVP configuration (including chaos-armed runs: the
 * snapshot carries the unit's fault-stream position, and windowed
 * readers key read-flip decisions by absolute record number).
 *
 * The leader pass costs one full serial drive, so this engine cannot
 * make a single replay faster than serial — its job is to make
 * checkpointed replay *correct*. RunCache does not use it: its sweeps
 * shard by predictor group instead. With shards <= 1
 * (or a trace too small to cut) the engine degrades to a plain serial
 * replay and never touches the shard pool.
 *
 * Errors surface exactly like a serial replay's: trace corruption
 * (including injected read flips) throws SimError(TraceCorrupt), an
 * unopenable file SimError(TraceIo), an injected shard-task failure
 * SimError(Injected) — callers fall back the same way they do for
 * TraceFileReader.
 */

#ifndef LVPLIB_SIM_SHARDED_REPLAY_HH
#define LVPLIB_SIM_SHARDED_REPLAY_HH

#include <string>

#include "core/value_predictor.hh"
#include "isa/program.hh"

namespace lvplib::sim
{

/**
 * Replay the trace at @p path through the predictor @p info builds, in
 * @p shards time slices; see the file comment. Checkpoints travel as
 * type-erased snapshots (snapshotState / restoreState), so every unit
 * shards with the same guarantee: the returned stats are
 * byte-identical to a serial PredictorAnnotator replay. Counts the
 * trace's records via addInstructionsProcessed() exactly once.
 */
core::LvpStats shardedPredictorReplay(const std::string &path,
                                      const isa::Program &prog,
                                      const core::PredictorInfo &info,
                                      unsigned shards);

} // namespace lvplib::sim

#endif // LVPLIB_SIM_SHARDED_REPLAY_HH
