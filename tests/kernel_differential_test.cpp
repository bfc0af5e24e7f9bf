// Differential suite on a hub-heavy power-law graph: partitions are
// byte-identical across thread counts, storage tiers and warm/cold run
// contexts, and the intersection counts on the hubs match a brute-force
// oracle. The suite once also swept runtime-dispatched SIMD intersection
// kernels; Stage I now reads a per-edge support computed once per run
// (edge_support), and the kernel axis is gone with the kernels.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "core/multi_tlp.hpp"
#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "graph/algorithms.hpp"
#include "graph/io.hpp"
#include "graph/storage.hpp"

namespace tlp {
namespace {

namespace fs = std::filesystem;
class KernelDifferential : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Power-law graph: hubs give the support pass long out-lists and the
    // growth loops highly skewed Eq. 7 terms.
    graph_ = new Graph(gen::chung_lu_power_law(2000, 9000, 2.1, 97));
    // PID-unique: ctest -j runs each test row as its own process, and
    // concurrent rows sharing one spill path race write/map/unlink.
    csr_path_ = new fs::path(
        fs::temp_directory_path() /
        ("tlp_kernel_differential_" + std::to_string(::getpid()) + ".tlpc"));
    io::write_csr_file(*graph_, *csr_path_);
  }
  static void TearDownTestSuite() {
    fs::remove(*csr_path_);
    delete csr_path_;
    csr_path_ = nullptr;
    delete graph_;
    graph_ = nullptr;
  }

  static const Graph& reference() { return *graph_; }
  static const fs::path& csr_path() { return *csr_path_; }

  static Graph* graph_;
  static fs::path* csr_path_;
};

Graph* KernelDifferential::graph_ = nullptr;
fs::path* KernelDifferential::csr_path_ = nullptr;

TEST_F(KernelDifferential, SequentialTlpKernelInvariant) {
  PartitionConfig config;
  config.num_partitions = 10;
  const std::vector<TlpPartitioner> algos = {TlpPartitioner{},
                                             make_tlp_r(0.5)};
  std::vector<EdgePartition> expected;
  expected.reserve(algos.size());
  for (const TlpPartitioner& p : algos) {
    expected.push_back(p.partition(reference(), config));
  }
  // A warm context reuses the arena-leased support array (and every other
  // scratch buffer) across runs; reuse must never change a byte.
  RunContext warm;
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t i = 0; i < algos.size(); ++i) {
      SCOPED_TRACE(algos[i].name() + " rep=" + std::to_string(rep));
      EXPECT_EQ(algos[i].partition(reference(), config, warm).raw(),
                expected[i].raw());
    }
  }
}

TEST_F(KernelDifferential, FullMatrixKernelThreadsTiers) {
  PartitionConfig config;
  config.num_partitions = 8;
  // Single-thread in-memory run is the reference for the ENTIRE matrix.
  const EdgePartition expected =
      MultiTlpPartitioner{}.partition(reference(), config);

  const std::vector<std::pair<std::string, StorageOptions>> tiers = {
      {"in_memory", StorageOptions::parse("in_memory")},
      {"mmap", StorageOptions::parse("mmap")},
      {"hybrid:8", StorageOptions::parse("hybrid:8")},
  };
  // 0 = hardware_concurrency (capped at p).
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}, std::size_t{0}}) {
    MultiTlpOptions mo;
    mo.num_threads = threads;
    const MultiTlpPartitioner partitioner{mo};
    for (const auto& [label, options] : tiers) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " tier=" + label);
      const Graph tiered = io::load_csr_file(csr_path(), options);
      EXPECT_EQ(partitioner.partition(tiered, config).raw(), expected.raw());
    }
  }
}

TEST_F(KernelDifferential, CommonNeighborCountsKernelInvariantOnHubs) {
  // Graph::common_neighbor_count on the highest-degree vertex (where the
  // gallop path engages) against a std::set_intersection oracle, and the
  // support of every hub edge against the same count.
  const Graph& g = reference();
  VertexId hub = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  const auto oracle = [&g](VertexId a, VertexId b) {
    const auto na = g.neighbor_ids(a);
    const auto nb = g.neighbor_ids(b);
    std::vector<VertexId> common;
    std::set_intersection(na.begin(), na.end(), nb.begin(), nb.end(),
                          std::back_inserter(common));
    return common.size();
  };
  const VertexId probe_count = std::min<VertexId>(g.num_vertices(), 200);
  for (VertexId v = 0; v < probe_count; ++v) {
    ASSERT_EQ(g.common_neighbor_count(hub, v), oracle(hub, v)) << "v=" << v;
  }
  const std::vector<std::uint32_t> support = edge_support(g);
  for (const Neighbor& nb : g.neighbors(hub)) {
    ASSERT_EQ(support[nb.edge], oracle(hub, nb.vertex))
        << "hub edge to " << nb.vertex;
  }
}

}  // namespace
}  // namespace tlp
