#include "refine/parallel_mover.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "refine/gain_heap.hpp"
#include "refine/move_state.hpp"
#include "util/thread_pool.hpp"

namespace tlp::refine {
namespace {

/// An admissible positive-gain move a shard brings to the barrier,
/// validated against the frozen pre-step state.
struct Proposal {
  EdgeId edge;
  PartitionId from;
  PartitionId to;
  int gain;
};

class ParallelRun {
 public:
  ParallelRun(const Graph& g, EdgePartition& partition,
              const ParallelOptions& options, RunContext& ctx,
              ThreadPool* pool, std::uint32_t num_heap_shards)
      : g_(g),
        partition_(partition),
        options_(options),
        ctx_(ctx),
        pool_(pool),
        h_(num_heap_shards),
        cap_(MoveState::cap_for(g.num_edges(), partition.num_partitions(),
                                options.balance_slack)),
        state_(g, partition, ctx.arena()),
        award_(ctx.arena().acquire<std::uint32_t>(g.num_vertices(), 0)),
        award_epoch_(ctx.arena().acquire<std::uint32_t>(g.num_vertices(), 0)),
        consumed_epoch_(
            ctx.arena().acquire<std::uint32_t>(g.num_vertices(), 0)),
        touched_mark_(ctx.arena().acquire<std::uint32_t>(g.num_vertices(), 0)),
        touched_(ctx.arena().acquire<VertexId>(0)) {
    // Per-SHARD state lives in per-shard child arenas (multi_tlp's rule:
    // an arena only its own shard touches is race-free, whichever worker
    // owns the shard).
    shards_.reserve(h_);
    for (std::uint32_t h = 0; h < h_; ++h) {
      ScratchArena& arena = ctx.child(h).arena();
      shards_.emplace_back(arena, local_count(h));
    }
  }

  ParallelStats run() {
    ParallelStats stats;
    if (partition_.num_partitions() < 2 || g_.num_edges() == 0) return stats;
    for (;;) {
      ++stats.rounds;
      ++stats.heap_rebuilds;
      if (!rebuild_heaps()) break;  // quiescent: no positive move anywhere
      for (;;) {
        ctx_.check_cancelled();
        ++step_;
        run_phase([&](std::uint32_t h) { propose(h); });
        std::size_t proposed = 0;
        for (const Shard& shard : shards_) proposed += shard.proposals->size();
        if (proposed == 0) break;
        ++stats.super_steps;
        barrier_commit(stats);
        run_phase([&](std::uint32_t h) { reindex(h); });
      }
    }
    for (const Shard& shard : shards_) {
      stats.heap_rebuilds += shard.heap.rebuilds();
    }
    return stats;
  }

 private:
  /// Gain-heap shard state: edge e lives in shard e % H at local index
  /// e / H.
  struct Shard {
    Shard(ScratchArena& arena, std::size_t capacity)
        : heap(arena, capacity),
          proposals(arena.acquire<Proposal>(0)),
          retry(arena.acquire<EdgeId>(0)) {}

    GainHeap heap;
    ScratchArena::Lease<Proposal> proposals;
    /// Proposals bounced at the barrier, re-evaluated in phase C.
    ScratchArena::Lease<EdgeId> retry;
  };

  [[nodiscard]] std::size_t local_count(std::uint32_t h) const {
    const EdgeId m = g_.num_edges();
    return m > h ? static_cast<std::size_t>((m - 1 - h) / h_ + 1) : 0;
  }
  [[nodiscard]] EdgeId to_global(std::uint32_t h, std::uint64_t local) const {
    return static_cast<EdgeId>(local) * h_ + h;
  }
  [[nodiscard]] std::uint64_t to_local(EdgeId e) const { return e / h_; }

  /// Fans task(h) out over the H shards — inline, or statically strided
  /// (shard h on worker h % W), exactly like multi_tlp's phases: the
  /// schedule moves wall-clock time, never a task's effect, because every
  /// shard-task reads only frozen shared state and writes only its own
  /// shard.
  void run_phase(const std::function<void(std::uint32_t)>& task) {
    if (pool_ == nullptr) {
      for (std::uint32_t h = 0; h < h_; ++h) task(h);
      return;
    }
    pool_->run_strided(h_, [&](std::size_t /*w*/, std::size_t h) {
      task(static_cast<std::uint32_t>(h));
    });
  }

  /// Full reindex of every shard's heap from the current state (parallel).
  /// Only admissible strictly-positive moves are pushed — the mover never
  /// walks downhill. Returns whether ANY shard found an entry.
  bool rebuild_heaps() {
    run_phase([&](std::uint32_t h) {
      Shard& shard = shards_[h];
      shard.heap.clear();
      for (EdgeId e = h; e < g_.num_edges(); e += h_) {
        const PartitionId from = partition_.partition_of(e);
        if (from == kNoPartition) continue;
        const MoveState::Candidate cand =
            state_.best_move(g_.edge(e), from, cap_);
        if (cand.to != kNoPartition && cand.gain > 0) {
          shard.heap.update(to_local(e), cand.gain);
        }
      }
    });
    for (const Shard& shard : shards_) {
      if (shard.heap.live() > 0) return true;
    }
    return false;
  }

  /// Super-step phase A for one shard: pop up to proposals_per_shard
  /// moves, each revalidated against the frozen pre-step state (stale
  /// gains are re-ranked, non-positive or inadmissible ones dropped — the
  /// round's rebuild or a touched-reindex will resurrect them if they
  /// come back).
  void propose(std::uint32_t h) {
    Shard& shard = shards_[h];
    shard.proposals->clear();
    std::uint32_t budget = options_.proposals_per_shard;
    while (budget > 0) {
      const GainHeap::Top top = shard.heap.pop_best();
      if (top.id == kInvalidEdge) break;
      const EdgeId e = to_global(h, top.id);
      const PartitionId from = partition_.partition_of(e);
      const Edge& edge = g_.edge(e);
      const MoveState::Candidate cand = state_.best_move(edge, from, cap_);
      if (cand.to == kNoPartition || cand.gain <= 0) continue;
      if (cand.gain != top.gain) {
        shard.heap.update(top.id, cand.gain);
        continue;
      }
      shard.proposals->push_back(Proposal{e, from, cand.to, cand.gain});
      --budget;
    }
  }

  /// Super-step barrier (serial): award endpoints lowest-shard-id-wins,
  /// then commit proposals in canonical order (ascending shard id,
  /// proposal order within a shard). Awards are NOT released when their
  /// proposal bounces — the award map is a pure function of the request
  /// set.
  void barrier_commit(ParallelStats& stats) {
    for (std::uint32_t h = 0; h < h_; ++h) {
      for (const Proposal& proposal : *shards_[h].proposals) {
        const Edge& edge = g_.edge(proposal.edge);
        for (const VertexId x : {edge.u, edge.v}) {
          if (award_epoch_[x] != step_) {
            award_epoch_[x] = step_;
            award_[x] = h;
          }
          if (edge.u == edge.v) break;
        }
      }
    }
    touched_->clear();
    for (std::uint32_t h = 0; h < h_; ++h) {
      Shard& shard = shards_[h];
      for (const Proposal& proposal : *shard.proposals) {
        const Edge& edge = g_.edge(proposal.edge);
        const bool owns_u =
            award_epoch_[edge.u] == step_ && award_[edge.u] == h;
        const bool owns_v =
            award_epoch_[edge.v] == step_ && award_[edge.v] == h;
        const bool consumed = consumed_epoch_[edge.u] == step_ ||
                              consumed_epoch_[edge.v] == step_;
        // Endpoints untouched this step mean the frozen gain is still the
        // true gain; only the ceiling can have tightened under it.
        if (!owns_u || !owns_v || consumed ||
            state_.load(proposal.to) + 1 > cap_) {
          ++stats.conflicts;
          shard.retry->push_back(proposal.edge);
          continue;
        }
        assert(state_.gain(edge, proposal.from, proposal.to) == proposal.gain);
        const int applied = state_.apply(proposal.edge, proposal.to,
                                         partition_);
        (void)applied;
        assert(applied == proposal.gain);
        ++stats.moves;
        stats.replicas_removed += static_cast<std::size_t>(proposal.gain);
        for (const VertexId x : {edge.u, edge.v}) {
          consumed_epoch_[x] = step_;
          if (touched_mark_[x] != step_) {
            touched_mark_[x] = step_;
            touched_->push_back(x);
          }
          if (edge.u == edge.v) break;
        }
      }
    }
  }

  /// Super-step phase C for one shard: re-evaluate the shard's bounced
  /// proposals, then rekey the shard's edges incident to this step's moved
  /// endpoints (the only edges whose gains can have changed — plus
  /// ceiling-blocked ones, which the round rebuild covers). Reads the
  /// frozen post-commit state; writes only the shard's own heap, in a
  /// fixed order — worker-count-invariant.
  void reindex(std::uint32_t h) {
    Shard& shard = shards_[h];
    const auto rekey = [&](EdgeId f) {
      const PartitionId from = partition_.partition_of(f);
      if (from == kNoPartition) return;
      const MoveState::Candidate cand =
          state_.best_move(g_.edge(f), from, cap_);
      if (cand.to != kNoPartition && cand.gain > 0) {
        shard.heap.update(to_local(f), cand.gain);
      } else {
        shard.heap.remove(to_local(f));
      }
    };
    for (const EdgeId e : *shard.retry) rekey(e);
    shard.retry->clear();
    for (const VertexId x : *touched_) {
      for (const Neighbor& nb : g_.neighbors(x)) {
        if (nb.edge % h_ == h) rekey(nb.edge);
      }
    }
  }

  const Graph& g_;
  EdgePartition& partition_;
  const ParallelOptions& options_;
  RunContext& ctx_;
  ThreadPool* pool_;  ///< nullptr = inline single-worker execution
  const std::uint32_t h_;  ///< gain-heap shard count
  const EdgeId cap_;

  MoveState state_;
  /// Step's vertex awards: award_[v] is the winning heap shard, valid iff
  /// award_epoch_[v] == step_.
  ScratchArena::Lease<std::uint32_t> award_;
  ScratchArena::Lease<std::uint32_t> award_epoch_;
  /// Vertices consumed by a committed move this step.
  ScratchArena::Lease<std::uint32_t> consumed_epoch_;
  ScratchArena::Lease<std::uint32_t> touched_mark_;
  /// This step's moved endpoints, deduped, in commit order.
  ScratchArena::Lease<VertexId> touched_;

  std::vector<Shard> shards_;
  std::uint32_t step_ = 0;
};

}  // namespace

ParallelStats refine_parallel(const Graph& g, EdgePartition& partition,
                              const ParallelOptions& options,
                              RunContext& ctx) {
  const std::uint32_t heap_shards = std::max<std::uint32_t>(
      1, options.heap_shards);
  std::size_t requested = options.num_threads;
  if (requested == 0) {
    requested = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::size_t workers = std::max<std::size_t>(
      1, std::min<std::size_t>(requested, heap_shards));
  if (workers == 1) {
    ParallelRun run(g, partition, options, ctx, nullptr, heap_shards);
    return run.run();
  }
  ThreadPool pool(workers);
  ParallelRun run(g, partition, options, ctx, &pool, heap_shards);
  return run.run();
}

}  // namespace tlp::refine
