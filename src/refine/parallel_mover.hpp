// The parallel BSP variant of the gain-heap refinement engine: concurrent
// positive-gain edge moves in super-steps, bit-identical across worker
// counts — the same invariance contract docs/THREADING.md specifies for
// multi_tlp growth, applied to refinement (docs/REFINEMENT.md).
//
// The edge set is sharded e % H into H gain-heap shards (H is an OPTION,
// never the worker count — the shard structure must not know how many
// threads ran it). Each super-step:
//
//   A. propose (parallel, per shard): every shard pops up to
//      proposals_per_shard admissible positive-gain moves from its own
//      heap, validated against the FROZEN pre-step state.
//   B. barrier (serial): every requested endpoint vertex is awarded to the
//      LOWEST requesting shard id (a first-writer scan in ascending shard
//      order). Proposals are then committed in canonical order (ascending
//      shard id, proposal order within a shard): a proposal commits iff it
//      owns BOTH endpoint awards, neither endpoint was consumed by an
//      earlier commit this step, and the move still fits under the balance
//      ceiling; everything else is a conflict, re-queued for the next step.
//   C. reindex (parallel, per shard): each shard rekeys its own edges
//      among those incident to this step's moved endpoints (an edge move
//      only changes the replicas of its two endpoints), plus its
//      conflicted proposals.
//
// Super-steps repeat until no shard can propose; then the heaps are fully
// rebuilt (loads drift can unblock cap-filtered moves that touched-edge
// reindexing cannot see) and the whole cycle repeats until a rebuild finds
// nothing — at quiescence NO positive-gain admissible move exists, the
// same fixed point the greedy oracle reaches.
//
// Escape moves and rollback are deliberately absent here: negative-gain
// walks are inherently sequential (the walk's value is only known at its
// end). The serial engine (refine/engine.hpp) is the quality reference;
// this mover trades escape depth for concurrent throughput, and every
// committed move strictly reduces replicas, so RF never worsens.
#pragma once

#include <cstddef>
#include <cstdint>

#include "partition/edge_partition.hpp"
#include "partition/run_context.hpp"

namespace tlp::refine {

struct ParallelOptions {
  /// Load ceiling as a multiple of m/p (hard constraint).
  double balance_slack = 1.05;
  /// Worker threads for the parallel phases. 1 (default) runs inline on
  /// the calling thread without a pool; 0 means hardware_concurrency;
  /// capped at heap_shards. The result is bit-identical for every value.
  std::size_t num_threads = 1;
  /// Gain-heap shards (edges live in heap e % H). Part of the ALGORITHM
  /// (changing it changes the move schedule), so it is a fixed option,
  /// never derived from the thread count.
  std::uint32_t heap_shards = 8;
  /// Max admissible proposals a shard brings to one barrier.
  std::uint32_t proposals_per_shard = 4;
};

struct ParallelStats {
  std::size_t moves = 0;
  /// Net replica reduction == sum of committed gains (every committed move
  /// has strictly positive gain).
  std::size_t replicas_removed = 0;
  std::size_t super_steps = 0;
  /// Heap-rebuild rounds (>= 1) — the outer quiescence loop.
  std::size_t rounds = 0;
  /// Proposals bounced at a barrier (lost award, consumed endpoint, or
  /// ceiling tightened) and re-queued. Worker-count-invariant.
  std::size_t conflicts = 0;
  /// Full heap rebuilds (one per round) + in-heap compaction events.
  std::size_t heap_rebuilds = 0;
};

/// Refines `partition` in place with concurrent positive-gain moves.
/// Scratch comes from ctx (per-shard state from ctx.child(h)'s arenas);
/// cancellation is polled once per super-step.
ParallelStats refine_parallel(const Graph& g, EdgePartition& partition,
                              const ParallelOptions& options, RunContext& ctx);

}  // namespace tlp::refine
