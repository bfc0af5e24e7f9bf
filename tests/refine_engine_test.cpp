// Tests for the gain-heap refinement engine (src/refine/engine.hpp) and
// the parallel BSP mover (src/refine/parallel_mover.hpp): the differential
// suite against the greedy oracle, the bit-identity sweep across worker
// counts, and the RF / balance invariants on
// randomized partitions.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/refine_rf.hpp"
#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "partition/metrics.hpp"
#include "partition/validator.hpp"
#include "refine/engine.hpp"
#include "refine/move_state.hpp"
#include "refine/parallel_mover.hpp"

namespace tlp {
namespace {

PartitionConfig config_for(PartitionId p) {
  PartitionConfig config;
  config.num_partitions = p;
  return config;
}

EdgePartition random_partition(const Graph& g, PartitionId p,
                               std::uint64_t seed) {
  PartitionConfig config = config_for(p);
  config.seed = seed;
  return baselines::RandomPartitioner{}.partition(g, config);
}

/// The greedy oracle finding ZERO moves is the shared fixed-point check:
/// both engines stop only when no strictly positive admissible move exists,
/// which is exactly greedy's termination condition (same gain model, same
/// cap).
std::size_t greedy_moves_left(const Graph& g, EdgePartition& part,
                              double slack) {
  RefineOptions oracle;
  oracle.engine = RefineEngine::kGreedy;
  oracle.max_passes = 1;
  oracle.balance_slack = slack;
  return refine_replication(g, part, oracle).moves;
}

TEST(RefineEngine, ConvergesToGreedyFixedPoint) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = gen::chung_lu_power_law(400, 2000, 2.1, seed);
    EdgePartition part = random_partition(g, 6, seed);
    refine::EngineOptions options;
    options.max_passes = 64;  // run to convergence, not a pass budget
    (void)refine::refine_gain(g, part, options);
    EXPECT_EQ(greedy_moves_left(g, part, options.balance_slack), 0u)
        << "seed " << seed;
  }
}

TEST(RefineEngine, MatchesOrBeatsGreedyOracle) {
  // Same gain model + an ordering + escapes: the engine must never end up
  // worse than the oracle from the same start.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = gen::sbm(500, 4000, 10, 0.9, seed);
    EdgePartition greedy_part = random_partition(g, 6, seed);
    EdgePartition engine_part = greedy_part;

    RefineOptions oracle;
    oracle.engine = RefineEngine::kGreedy;
    oracle.max_passes = 64;
    (void)refine_replication(g, greedy_part, oracle);

    refine::EngineOptions options;
    options.max_passes = 64;
    (void)refine::refine_gain(g, engine_part, options);

    EXPECT_LE(replication_factor(g, engine_part),
              replication_factor(g, greedy_part))
        << "seed " << seed;
  }
}

TEST(RefineEngine, EscapeMovesNeverWorsenASinglePass) {
  // Within one pass the pure hill-climb walk is a prefix of the escape
  // walk, and rollback keeps only the best prefix — so escapes can only
  // help (or tie).
  const Graph g = gen::chung_lu_power_law(500, 2500, 2.2, 11);
  EdgePartition pure = random_partition(g, 5, 11);
  EdgePartition escape = pure;

  refine::EngineOptions options;
  options.max_passes = 1;
  options.escape_budget = 0;
  (void)refine::refine_gain(g, pure, options);

  options.escape_budget = 64;
  (void)refine::refine_gain(g, escape, options);

  EXPECT_LE(replication_factor(g, escape), replication_factor(g, pure));
}

TEST(RefineEngine, NeverWorsensRfAndStaysValid) {
  const auto config = config_for(6);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = gen::chung_lu_power_law(500, 2500, 2.1, seed);
    EdgePartition part = random_partition(g, 6, seed);
    const double before = replication_factor(g, part);
    const refine::EngineStats stats = refine::refine_gain(g, part);
    EXPECT_LE(replication_factor(g, part), before) << "seed " << seed;
    EXPECT_TRUE(validate(g, part, config).ok()) << "seed " << seed;
    EXPECT_GE(stats.passes, 1);
  }
}

TEST(RefineEngine, RespectsBalanceCeiling) {
  const Graph g = gen::caveman_graph(4, 10);
  EdgePartition part = random_partition(g, 4, 3);
  refine::EngineOptions options;
  options.balance_slack = 1.05;
  options.escape_budget = 64;  // escapes must respect the ceiling too
  (void)refine::refine_gain(g, part, options);
  EXPECT_LE(balance_factor(part), 1.15);  // 1.05 cap + integer rounding
}

TEST(RefineEngine, ReplicaAccountingMatchesMetrics) {
  const Graph g = gen::erdos_renyi(300, 1500, 9);
  EdgePartition part = random_partition(g, 5, 9);
  const auto count_replicas = [&] {
    std::size_t total = 0;
    for (const auto c : replica_counts(g, part)) total += c;
    return total;
  };
  const std::size_t before = count_replicas();
  const refine::EngineStats stats = refine::refine_gain(g, part);
  EXPECT_EQ(before - count_replicas(), stats.replicas_removed);
}

TEST(RefineEngine, NoOpOnSinglePartitionOrEmpty) {
  const Graph g = gen::path_graph(5);
  EdgePartition one(1, g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) one.assign(e, 0);
  EXPECT_EQ(refine::refine_gain(g, one).moves, 0u);

  EdgePartition empty(3, EdgeId{0});
  const Graph none;
  EXPECT_EQ(refine::refine_gain(none, empty).moves, 0u);
}

TEST(RefineEngine, DeterministicAcrossRuns) {
  const Graph g = gen::sbm(400, 3200, 8, 0.85, 5);
  EdgePartition a = random_partition(g, 6, 5);
  EdgePartition b = a;
  const refine::EngineStats sa = refine::refine_gain(g, a);
  const refine::EngineStats sb = refine::refine_gain(g, b);
  EXPECT_EQ(a.raw(), b.raw());
  EXPECT_EQ(sa.moves, sb.moves);
  EXPECT_EQ(sa.escape_moves, sb.escape_moves);
}

TEST(RefineEngine, TelemetryKeysAlwaysPresent) {
  const Graph g = gen::erdos_renyi(200, 800, 7);
  const auto config = config_for(4);
  for (const RefineEngine engine :
       {RefineEngine::kGainHeap, RefineEngine::kGreedy,
        RefineEngine::kParallel}) {
    RefineOptions options;
    options.engine = engine;
    RefinedPartitioner refined(
        std::make_unique<baselines::RandomPartitioner>(), options);
    RunContext ctx;
    const EdgePartition part = refined.partition(g, config, ctx);
    EXPECT_TRUE(validate(g, part, config).ok());
    const auto& counters = ctx.telemetry().counters();
    for (const char* key :
         {"refine_moves", "refine_replicas_removed", "refine_passes",
          "refine_gain_applied", "refine_escape_moves", "refine_rollbacks",
          "refine_heap_rebuilds", "refine_super_steps",
          "refine_move_conflicts"}) {
      EXPECT_TRUE(counters.contains(key))
          << key << " missing for engine " << static_cast<int>(engine);
    }
    EXPECT_GT(ctx.telemetry().timers().at("refine_s"), 0.0);
  }
}

TEST(RefineParallel, ImprovesRfAndStaysValid) {
  const auto config = config_for(6);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = gen::sbm(500, 4000, 10, 0.9, seed);
    EdgePartition part = random_partition(g, 6, seed);
    const double before = replication_factor(g, part);
    RunContext ctx;
    refine::ParallelOptions options;
    const refine::ParallelStats stats =
        refine::refine_parallel(g, part, options, ctx);
    EXPECT_LT(replication_factor(g, part), before) << "seed " << seed;
    EXPECT_TRUE(validate(g, part, config).ok()) << "seed " << seed;
    EXPECT_GT(stats.moves, 0u);
    EXPECT_GE(stats.rounds, 1u);
  }
}

TEST(RefineParallel, QuiescesToGreedyFixedPoint) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = gen::chung_lu_power_law(400, 2000, 2.1, seed);
    EdgePartition part = random_partition(g, 6, seed);
    RunContext ctx;
    refine::ParallelOptions options;
    (void)refine::refine_parallel(g, part, options, ctx);
    EXPECT_EQ(greedy_moves_left(g, part, options.balance_slack), 0u)
        << "seed " << seed;
  }
}

TEST(RefineParallel, RespectsBalanceCeiling) {
  const Graph g = gen::caveman_graph(4, 10);
  EdgePartition part = random_partition(g, 4, 3);
  RunContext ctx;
  refine::ParallelOptions options;
  options.balance_slack = 1.05;
  (void)refine::refine_parallel(g, part, options, ctx);
  EXPECT_LE(balance_factor(part), 1.15);
}

TEST(RefineParallel, BitIdenticalAcrossThreads) {
  const Graph g = gen::chung_lu_power_law(600, 3600, 2.1, 13);
  const EdgePartition start = random_partition(g, 8, 13);

  // Reference: inline.
  refine::ParallelOptions reference_options;
  reference_options.num_threads = 1;
  EdgePartition reference = start;
  RunContext reference_ctx;
  const refine::ParallelStats reference_stats =
      refine::refine_parallel(g, reference, reference_options, reference_ctx);
  EXPECT_GT(reference_stats.moves, 0u);

  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (const std::size_t threads : std::vector<std::size_t>{1, 2, 8, hw}) {
    refine::ParallelOptions options;
    options.num_threads = threads;
    EdgePartition part = start;
    RunContext ctx;
    const refine::ParallelStats stats =
        refine::refine_parallel(g, part, options, ctx);
    const auto label = ::testing::Message() << "threads=" << threads;
    EXPECT_EQ(part.raw(), reference.raw()) << label;
    EXPECT_EQ(stats.moves, reference_stats.moves) << label;
    EXPECT_EQ(stats.replicas_removed, reference_stats.replicas_removed)
        << label;
    EXPECT_EQ(stats.super_steps, reference_stats.super_steps) << label;
    EXPECT_EQ(stats.rounds, reference_stats.rounds) << label;
    EXPECT_EQ(stats.conflicts, reference_stats.conflicts) << label;
    EXPECT_EQ(stats.heap_rebuilds, reference_stats.heap_rebuilds) << label;
  }
}

TEST(RefineParallel, HeapShardCountIsPartOfTheAlgorithm) {
  // Different H may legally produce different (still valid, still
  // improving) schedules — but each H must be self-consistent across
  // thread counts. Spot-check H=3 against its own reference.
  const Graph g = gen::sbm(400, 3200, 8, 0.85, 17);
  const EdgePartition start = random_partition(g, 6, 17);
  refine::ParallelOptions options;
  options.heap_shards = 3;
  options.num_threads = 1;
  EdgePartition reference = start;
  RunContext reference_ctx;
  (void)refine::refine_parallel(g, reference, options, reference_ctx);

  options.num_threads = 3;
  EdgePartition part = start;
  RunContext ctx;
  (void)refine::refine_parallel(g, part, options, ctx);
  EXPECT_EQ(part.raw(), reference.raw());
}

TEST(RefineParallel, NoOpOnSinglePartitionOrEmpty) {
  const Graph g = gen::path_graph(5);
  EdgePartition one(1, g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) one.assign(e, 0);
  RunContext ctx1;
  refine::ParallelOptions options;
  EXPECT_EQ(refine::refine_parallel(g, one, options, ctx1).moves, 0u);

  EdgePartition empty(3, EdgeId{0});
  const Graph none;
  RunContext ctx2;
  EXPECT_EQ(refine::refine_parallel(none, empty, options, ctx2).moves, 0u);
}

}  // namespace
}  // namespace tlp
