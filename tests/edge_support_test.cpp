// Tests for edge_support (graph/algorithms.hpp), the per-edge triangle
// support that Stage I reads as its Eq. 7 numerator: exact against a
// std::set_intersection count on every edge of every fixture and storage
// tier, consistent with triangle_counts, allocation-free on a warm arena,
// and reported as its own `support_s` layer by both growth partitioners.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/multi_tlp.hpp"
#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "graph/algorithms.hpp"
#include "graph/io.hpp"
#include "graph/storage.hpp"
#include "partition/run_context.hpp"

namespace tlp {
namespace {

std::vector<std::pair<std::string, Graph>> fixtures() {
  std::vector<std::pair<std::string, Graph>> out;
  out.emplace_back("chung_lu", gen::chung_lu_power_law(1500, 7000, 2.1, 3));
  out.emplace_back("sbm", gen::sbm(1200, 7200, 12, 0.85, 4));
  out.emplace_back("dcsbm", gen::dcsbm(1500, 8000, 2.2, 6, 0.6, 5));
  out.emplace_back("star", gen::star_graph(50));
  out.emplace_back("clique", gen::complete_graph(24));
  out.emplace_back("cliques_with_bridges", gen::caveman_graph(8, 7));
  out.emplace_back("path", gen::path_graph(30));
  out.emplace_back("empty", Graph::from_edges(0, {}));
  // Isolated vertices around a triangle and a pendant edge.
  out.emplace_back("isolated", Graph::from_edges(12, {{2, 5}, {5, 9}, {2, 9},
                                                      {9, 11}}));
  return out;
}

std::vector<std::pair<std::string, StorageOptions>> tiers() {
  return {{"in_memory", StorageOptions::parse("in_memory")},
          {"mmap", StorageOptions::parse("mmap")},
          {"hybrid:4", StorageOptions::parse("hybrid:4")}};
}

std::uint32_t oracle(const Graph& g, VertexId u, VertexId v) {
  const auto a = g.neighbor_ids(u);
  const auto b = g.neighbor_ids(v);
  std::vector<VertexId> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(common));
  return static_cast<std::uint32_t>(common.size());
}

TEST(EdgeSupport, MatchesSetIntersectionOnEveryEdgeAndTier) {
  for (const auto& [name, reference] : fixtures()) {
    for (const auto& [tier, options] : tiers()) {
      SCOPED_TRACE(name + " tier=" + tier);
      const Graph g = io::with_tier(reference, options);
      const std::vector<std::uint32_t> support = edge_support(g);
      ASSERT_EQ(support.size(), g.num_edges());
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const Edge& edge = g.edge(e);
        ASSERT_EQ(support[e], oracle(g, edge.u, edge.v))
            << "edge " << e << " = (" << edge.u << ", " << edge.v << ")";
      }
    }
  }
}

TEST(EdgeSupport, SumEqualsTriangleCountSum) {
  // Both sums are 3 x the triangle count: a triangle adds one to each of
  // its three edges, and one to each of its three vertices. Equality means
  // the listing found every triangle exactly once per edge.
  for (const auto& [name, g] : fixtures()) {
    SCOPED_TRACE(name);
    const std::vector<std::uint32_t> support = edge_support(g);
    const std::vector<std::size_t> triangles = triangle_counts(g);
    const std::uint64_t by_edge =
        std::accumulate(support.begin(), support.end(), std::uint64_t{0});
    const std::uint64_t by_vertex =
        std::accumulate(triangles.begin(), triangles.end(), std::uint64_t{0});
    EXPECT_EQ(by_edge, by_vertex);
    EXPECT_EQ(by_edge % 3, 0u);
  }
  // Closed forms: K_n has C(n, 3) triangles and support n - 2 per edge;
  // stars and paths have none.
  const std::vector<std::uint32_t> clique = edge_support(gen::complete_graph(9));
  EXPECT_TRUE(std::all_of(clique.begin(), clique.end(),
                          [](std::uint32_t s) { return s == 7; }));
  for (const Graph& g : {gen::star_graph(20), gen::path_graph(20)}) {
    const std::vector<std::uint32_t> none = edge_support(g);
    EXPECT_TRUE(std::all_of(none.begin(), none.end(),
                            [](std::uint32_t s) { return s == 0; }));
  }
}

TEST(EdgeSupport, WarmArenaServesTheSupportWithoutMissing) {
  const Graph g = gen::chung_lu_power_law(1500, 7000, 2.1, 3);
  ScratchArena arena;
  std::vector<std::uint32_t> first;
  {
    const auto support = edge_support(g, arena);
    first = *support;
  }
  const std::uint64_t misses = arena.misses();
  EXPECT_GT(misses, 0u);
  {
    const auto support = edge_support(g, arena);
    EXPECT_EQ(*support, first);  // a reused buffer is re-zeroed
  }
  EXPECT_EQ(arena.misses(), misses) << "second pass allocated";
}

TEST(EdgeSupport, WarmRunContextReusesTheSupportLease) {
  // Through the partitioners: a second run on the same context finds the
  // support array in the arena.
  const Graph g = gen::chung_lu_power_law(1500, 7000, 2.1, 3);
  PartitionConfig config;
  config.num_partitions = 6;
  RunContext tlp_ctx;
  (void)TlpPartitioner{}.partition(g, config, tlp_ctx);
  const std::uint64_t tlp_misses = tlp_ctx.arena().misses();
  (void)TlpPartitioner{}.partition(g, config, tlp_ctx);
  EXPECT_EQ(tlp_ctx.arena().misses(), tlp_misses);

  RunContext multi_ctx;
  (void)MultiTlpPartitioner{}.partition(g, config, multi_ctx);
  const std::uint64_t multi_misses = multi_ctx.arena().misses();
  (void)MultiTlpPartitioner{}.partition(g, config, multi_ctx);
  EXPECT_EQ(multi_ctx.arena().misses(), multi_misses);
}

TEST(EdgeSupport, SupportLayerIsTimedAndHookedByBothGrowthPartitioners) {
  const Graph g = gen::sbm(1200, 7200, 12, 0.85, 4);
  PartitionConfig config;
  config.num_partitions = 6;
  for (const bool multi : {false, true}) {
    SCOPED_TRACE(multi ? "multi_tlp" : "tlp");
    RunContext ctx;
    std::vector<std::pair<std::string, double>> events;
    ctx.telemetry().set_phase_hook(
        [&events](std::string_view phase, double seconds) {
          if (phase == "support_s") events.emplace_back(phase, seconds);
        });
    if (multi) {
      (void)MultiTlpPartitioner{}.partition(g, config, ctx);
    } else {
      (void)TlpPartitioner{}.partition(g, config, ctx);
    }
    const auto& timers = ctx.telemetry().timers();
    ASSERT_TRUE(timers.contains("support_s"));
    EXPECT_GE(timers.at("support_s"), 0.0);
    EXPECT_LE(timers.at("support_s"), ctx.telemetry().timer_seconds("total_s"));
    // One enter (seconds < 0) and one exit event per run.
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].second, Telemetry::kPhaseEnter);
    EXPECT_GE(events[1].second, 0.0);
  }
}

}  // namespace
}  // namespace tlp
