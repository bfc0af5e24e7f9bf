// Byte pins for the growth partitioners that have no naive oracle.
//
// Sequential `tlp` is checked against a textbook reimplementation
// (tlp_reference_test); `multi_tlp` and the `tlp+refine` portfolio are
// not, so any change to their Stage-I scoring, claim resolution or
// refinement could silently move bytes. This suite pins a 64-bit FNV-1a
// fingerprint of each partition on three generator fixtures, at one worker
// thread and at hardware concurrency (both schedules must produce the same
// bytes). The expected values were recorded from the implementation that
// recomputed every Eq. 7 intersection per join, before Stage I switched to
// the precomputed per-edge support; a mismatch means the partition bytes
// changed and the pin must be re-derived deliberately, never silently.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common/runner.hpp"
#include "core/multi_tlp.hpp"
#include "core/refine_rf.hpp"
#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "partition/metrics.hpp"
#include "partition/registry.hpp"

namespace tlp {
namespace {

std::uint64_t fingerprint(const std::vector<PartitionId>& assignment) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const PartitionId p : assignment) {
    h ^= static_cast<std::uint64_t>(p) + 1;
    h *= 1099511628211ULL;
  }
  return h;
}

struct Pin {
  const char* fixture;
  std::uint64_t multi_tlp;
  std::uint64_t tlp_refine;
};

// FNV-1a of EdgePartition::raw() for p = 8, seed 3 (see the header).
constexpr Pin kPins[] = {
    {"chung_lu", 0x0bd03538702971b7ULL, 0x0ecd2c629ebd462fULL},
    {"sbm", 0x13efed490e46e3b3ULL, 0x7e963d6ebc563806ULL},
    {"dcsbm", 0x11543376f8af3404ULL, 0x43a7aea5e56da00bULL},
};

Graph fixture_graph(const std::string& name) {
  if (name == "chung_lu") return gen::chung_lu_power_law(3000, 15000, 2.1, 5);
  if (name == "sbm") return gen::sbm(2400, 14400, 16, 0.85, 9);
  return gen::dcsbm(3000, 18000, 2.2, 8, 0.6, 13);
}

PartitionConfig pin_config() {
  PartitionConfig config;
  config.num_partitions = 8;
  config.seed = 3;
  return config;
}

std::vector<std::size_t> thread_counts() {
  // 0 = hardware concurrency (capped at p inside the partitioner).
  return {1, 0};
}

/// The registry's `tlp+refine` portfolio with the multi_tlp leg's worker
/// count exposed: both legs refined by the gain-heap engine with the
/// registry's options, the lower-RF result kept (ties keep multi_tlp).
EdgePartition tlp_refine_portfolio(const Graph& g,
                                   const PartitionConfig& config,
                                   std::size_t threads) {
  RefineOptions options;
  options.max_passes = 8;
  options.escape_budget = 64;
  options.balance_slack = 1.05;
  MultiTlpOptions mo;
  mo.num_threads = threads;
  RunContext ctx;
  const RefinedPartitioner multi(std::make_unique<MultiTlpPartitioner>(mo),
                                 options);
  const RefinedPartitioner single(std::make_unique<TlpPartitioner>(), options);
  EdgePartition best = multi.partition(g, config, ctx);
  EdgePartition challenger = single.partition(g, config, ctx);
  if (replication_factor(g, challenger) <
      replication_factor(g, best) - 1e-12) {
    best = std::move(challenger);
  }
  return best;
}

TEST(PartitionPins, MultiTlpBytesPinnedAtOneAndHardwareThreads) {
  for (const Pin& pin : kPins) {
    const Graph g = fixture_graph(pin.fixture);
    for (const std::size_t threads : thread_counts()) {
      MultiTlpOptions options;
      options.num_threads = threads;
      const EdgePartition part =
          MultiTlpPartitioner{options}.partition(g, pin_config());
      EXPECT_EQ(fingerprint(part.raw()), pin.multi_tlp)
          << pin.fixture << " threads=" << threads << " (hw "
          << std::thread::hardware_concurrency() << ")";
    }
  }
}

TEST(PartitionPins, TlpRefineBytesPinnedAtOneAndHardwareThreads) {
  bench::register_builtin_partitioners();
  const PartitionerPtr registry_portfolio = make_partitioner("tlp+refine");
  for (const Pin& pin : kPins) {
    const Graph g = fixture_graph(pin.fixture);
    // The mirror above must stay faithful to the registry entry.
    EXPECT_EQ(fingerprint(registry_portfolio->partition(g, pin_config()).raw()),
              pin.tlp_refine)
        << pin.fixture << " (registry)";
    for (const std::size_t threads : thread_counts()) {
      EXPECT_EQ(fingerprint(tlp_refine_portfolio(g, pin_config(), threads)
                                .raw()),
                pin.tlp_refine)
          << pin.fixture << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace tlp
