// Tests for RF, balance, modularity, and the paper's Claim-1 identity.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>

#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "partition/metrics.hpp"

namespace tlp {
namespace {

/// Path 0-1-2-3 with edges e0=(0,1), e1=(1,2), e2=(2,3) split [e0 | e1,e2].
EdgePartition path_split() {
  EdgePartition p(2, 3);
  p.assign(0, 0);
  p.assign(1, 1);
  p.assign(2, 1);
  return p;
}

TEST(ReplicationFactor, PathSplit) {
  const Graph g = gen::path_graph(4);
  const EdgePartition p = path_split();
  // P0 = {0,1}, P1 = {1,2,3}; vertex 1 replicated twice.
  const auto replicas = replica_counts(g, p);
  EXPECT_EQ(replicas[0], 1u);
  EXPECT_EQ(replicas[1], 2u);
  EXPECT_EQ(replicas[2], 1u);
  EXPECT_EQ(replicas[3], 1u);
  const auto vcounts = vertex_counts(g, p);
  EXPECT_EQ(vcounts[0], 2u);
  EXPECT_EQ(vcounts[1], 3u);
  EXPECT_DOUBLE_EQ(replication_factor(g, p), 5.0 / 4.0);
}

TEST(ReplicationFactor, SinglePartitionIsOne) {
  const Graph g = gen::complete_graph(5);
  EdgePartition p(1, g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) p.assign(e, 0);
  EXPECT_DOUBLE_EQ(replication_factor(g, p), 1.0);
}

TEST(ReplicationFactor, IsolatedVerticesExcluded) {
  // 1 edge + 2 isolated vertices: RF over covered vertices only.
  const Graph g = Graph::from_edges(4, {{0, 1}});
  EdgePartition p(2, 1);
  p.assign(0, 0);
  EXPECT_DOUBLE_EQ(replication_factor(g, p), 1.0);
}

TEST(ReplicationFactor, WorstCaseStarAllPartitionsDistinct) {
  const Graph g = gen::star_graph(4);  // center 0, leaves 1..4
  EdgePartition p(4, 4);
  for (EdgeId e = 0; e < 4; ++e) p.assign(e, static_cast<PartitionId>(e));
  // Center replicated 4x, each leaf once: RF = (4 + 4) / 5.
  EXPECT_DOUBLE_EQ(replication_factor(g, p), 8.0 / 5.0);
}

/// Replica sets from per-vertex std::set membership over the adjacency:
/// the oracle for the edge-order bitset scan.
struct ReplicaOracle {
  std::vector<PartitionId> replicas;
  std::vector<std::size_t> vertex_counts;
  double rf = 1.0;
};

ReplicaOracle replica_oracle(const Graph& g, const EdgePartition& part) {
  ReplicaOracle oracle;
  oracle.vertex_counts.assign(part.num_partitions(), 0);
  std::size_t replicas = 0;
  std::size_t covered = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::set<PartitionId> seen;
    for (const Neighbor& nb : g.neighbors(v)) {
      const PartitionId k = part.partition_of(nb.edge);
      if (k != kNoPartition) seen.insert(k);
    }
    for (const PartitionId k : seen) ++oracle.vertex_counts[k];
    oracle.replicas.push_back(static_cast<PartitionId>(seen.size()));
    replicas += seen.size();
    covered += seen.empty() ? 0 : 1;
  }
  if (covered > 0) {
    oracle.rf = static_cast<double>(replicas) / static_cast<double>(covered);
  }
  return oracle;
}

// Random partitions across the bitset word boundaries (p = 63, 64, 65, and
// three words at 130), with unassigned edges and isolated vertices.
TEST(ReplicationFactor, MatchesSetOracleOnRandomPartitions) {
  const Graph base = gen::chung_lu_power_law(900, 5000, 2.1, 17);
  // 60 isolated vertices past the generated ones.
  const Graph g = Graph::from_edges(
      base.num_vertices() + 60,
      EdgeList(base.edges().begin(), base.edges().end()));
  std::mt19937_64 rng(29);
  for (const PartitionId p : {1u, 2u, 63u, 64u, 65u, 130u}) {
    for (const double unassigned : {0.0, 0.2}) {
      SCOPED_TRACE("p=" + std::to_string(p) +
                   " unassigned=" + std::to_string(unassigned));
      std::uniform_int_distribution<PartitionId> pick(0, p - 1);
      std::bernoulli_distribution skip(unassigned);
      EdgePartition part(p, g.num_edges());
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (!skip(rng)) part.assign(e, pick(rng));
      }
      const ReplicaOracle oracle = replica_oracle(g, part);
      EXPECT_EQ(replica_counts(g, part), oracle.replicas);
      EXPECT_EQ(vertex_counts(g, part), oracle.vertex_counts);
      EXPECT_EQ(replication_factor(g, part), oracle.rf);
    }
  }
}

TEST(ReplicationFactor, AllUnassignedIsNeutral) {
  const Graph g = gen::path_graph(5);
  const EdgePartition part(3, g.num_edges());
  EXPECT_EQ(replica_counts(g, part), std::vector<PartitionId>(5, 0));
  EXPECT_EQ(vertex_counts(g, part), std::vector<std::size_t>(3, 0));
  EXPECT_EQ(replication_factor(g, part), 1.0);
}

// Out-of-range ids (an invalid partition; the validator reports them) are
// skipped like kNoPartition rather than indexing past the bitsets.
TEST(ReplicationFactor, SkipsOutOfRangeIds) {
  const Graph g = gen::path_graph(3);  // e0=(0,1), e1=(1,2)
  const EdgePartition part(2, std::vector<PartitionId>{1, 7});
  EXPECT_EQ(replica_counts(g, part), (std::vector<PartitionId>{1, 1, 0}));
  EXPECT_EQ(vertex_counts(g, part), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(replication_factor(g, part), 1.0);
}

TEST(BalanceFactor, PerfectAndSkewed) {
  EdgePartition even(2, 4);
  even.assign(0, 0);
  even.assign(1, 0);
  even.assign(2, 1);
  even.assign(3, 1);
  EXPECT_DOUBLE_EQ(balance_factor(even), 1.0);

  EdgePartition skew(2, 4);
  for (EdgeId e = 0; e < 4; ++e) skew.assign(e, 0);
  EXPECT_DOUBLE_EQ(balance_factor(skew), 2.0);
}

TEST(BalanceFactor, EmptyPartitionIsNeutral) {
  EXPECT_DOUBLE_EQ(balance_factor(EdgePartition(3, EdgeId{0})), 1.0);
}

TEST(Modularity, PathSplitValues) {
  const Graph g = gen::path_graph(4);
  const auto mods = partition_modularity(g, path_split());
  // P0 = {e0}: V(P0)={0,1}; external = e1 (touches vertex 1). M = 1/1.
  EXPECT_EQ(mods[0].internal_edges, 1u);
  EXPECT_EQ(mods[0].external_edges, 1u);
  EXPECT_DOUBLE_EQ(mods[0].value(), 1.0);
  // P1 = {e1,e2}: V(P1)={1,2,3}; external = e0. M = 2/1.
  EXPECT_EQ(mods[1].internal_edges, 2u);
  EXPECT_EQ(mods[1].external_edges, 1u);
  EXPECT_DOUBLE_EQ(mods[1].value(), 2.0);
}

TEST(Modularity, InfiniteWhenIsolatedPartition) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  EdgePartition p(2, 2);
  p.assign(0, 0);
  p.assign(1, 1);
  const auto mods = partition_modularity(g, p);
  EXPECT_TRUE(std::isinf(mods[0].value()));
  EXPECT_TRUE(std::isinf(mods[1].value()));
}

TEST(Modularity, EmptyPartitionIsZero) {
  const Graph g = gen::path_graph(3);
  EdgePartition p(2, 2);
  p.assign(0, 0);
  p.assign(1, 0);
  const auto mods = partition_modularity(g, p);
  EXPECT_DOUBLE_EQ(mods[1].value(), 0.0);
}

// Claim 1 (Eq. 6): on a d-regular graph with an exactly balanced partition,
// RF = 1 + (1/p) * sum 1/M(P_k) holds exactly when every external edge has
// exactly one endpoint in V(P_k) (true for contiguous arcs of a cycle).
TEST(Claim1, ExactOnCycleArcs) {
  const VertexId n = 12;
  const Graph g = gen::cycle_graph(n);
  const PartitionId p = 3;
  EdgePartition part(p, g.num_edges());
  // Cycle edges from gen: (i, i+1) for i<n-1, then (0, n-1). Assign arcs of
  // 4 consecutive path edges per partition; the closing edge joins the last.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    part.assign(e, static_cast<PartitionId>(std::min<EdgeId>(e / 4, p - 1)));
  }
  const double rf = replication_factor(g, part);
  const double predicted = claim1_predicted_rf(g, part);
  EXPECT_NEAR(rf, predicted, 1e-12);
}

// On irregular graphs the identity is an averaging approximation; it must
// still track the true RF closely and preserve ordering.
TEST(Claim1, ApproximatesOnIrregularGraphs) {
  const Graph g = gen::barabasi_albert(400, 3, /*seed=*/21);
  PartitionConfig config;
  config.num_partitions = 8;
  const TlpPartitioner tlp;
  const EdgePartition part = tlp.partition(g, config);
  const double rf = replication_factor(g, part);
  const double predicted = claim1_predicted_rf(g, part);
  EXPECT_GT(predicted, 1.0);
  EXPECT_LT(std::abs(rf - predicted) / rf, 0.5);  // same ballpark
}

// Negative correlation direction of Claim 1: higher modularity partitions
// (TLP) must predict and achieve lower RF than hash partitions (Random).
TEST(Claim1, ModularityOrderingMatchesRfOrdering) {
  const Graph g = gen::sbm(600, 4000, 12, 0.9, /*seed=*/33);
  PartitionConfig config;
  config.num_partitions = 6;
  const TlpPartitioner tlp;
  const EdgePartition good = tlp.partition(g, config);

  EdgePartition bad(6, g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    bad.assign(e, static_cast<PartitionId>(e % 6));
  }

  const auto mean_inverse_modularity = [&](const EdgePartition& part) {
    const auto mods = partition_modularity(g, part);
    double sum = 0.0;
    for (const auto& m : mods) {
      if (m.value() > 0.0) sum += 1.0 / m.value();
    }
    return sum / static_cast<double>(mods.size());
  };

  EXPECT_LT(replication_factor(g, good), replication_factor(g, bad));
  EXPECT_LT(mean_inverse_modularity(good), mean_inverse_modularity(bad));
}

TEST(EdgeCut, CountsCrossPartEdges) {
  const Graph g = gen::path_graph(4);
  EXPECT_EQ(edge_cut(g, {0, 0, 1, 1}), 1u);
  EXPECT_EQ(edge_cut(g, {0, 1, 0, 1}), 3u);
  EXPECT_EQ(edge_cut(g, {0, 0, 0, 0}), 0u);
}

}  // namespace
}  // namespace tlp
