// Tests for partition serialization (text .parts and binary formats).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "graph/io.hpp"
#include "partition/partition_io.hpp"

namespace tlp::io {
namespace {

EdgePartition make_partition(const Graph& g, PartitionId p) {
  PartitionConfig config;
  config.num_partitions = p;
  return TlpPartitioner{}.partition(g, config);
}

TEST(PartitionText, RoundTrip) {
  const Graph g = gen::erdos_renyi(60, 200, 81);
  const EdgePartition original = make_partition(g, 4);
  std::stringstream buffer;
  write_partition_text(g, original, buffer);
  const EdgePartition reloaded = read_partition_text(g, buffer);
  EXPECT_EQ(reloaded.raw(), original.raw());
  EXPECT_EQ(reloaded.num_partitions(), 4u);
}

/// The text writer as it was before rows were buffered, kept verbatim
/// (plus the header argument): the byte oracle for the buffered writer.
std::string reference_text(const Graph& g, const EdgePartition& partition,
                           const std::string& header = {}) {
  std::ostringstream out;
  if (header.empty()) {
    out << "# tlp edge partition: p=" << partition.num_partitions()
        << " m=" << partition.num_edges() << '\n';
  } else {
    out << header << '\n';
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    out << g.edge(e).u << ' ' << g.edge(e).v << ' ' << partition.partition_of(e)
        << '\n';
  }
  return out.str();
}

std::string written_text(const Graph& g, const EdgePartition& partition,
                         const std::string& header = {}) {
  std::ostringstream out;
  write_partition_text(g, partition, out, header);
  return out.str();
}

/// Byte comparison reporting the first difference. EXPECT_EQ on megabyte
/// strings would build gtest's quadratic line diff on failure.
void expect_same_bytes(const std::string& actual, const std::string& expected) {
  if (actual == expected) return;
  const std::size_t at = static_cast<std::size_t>(
      std::mismatch(actual.begin(), actual.end(), expected.begin(),
                    expected.end())
          .first -
      actual.begin());
  ADD_FAILURE() << "first difference at byte " << at << " (sizes "
                << actual.size() << " vs " << expected.size() << "): got \""
                << actual.substr(at, 40) << "\", expected \""
                << expected.substr(at, 40) << '"';
}

std::vector<std::pair<std::string, StorageOptions>> tiers() {
  return {{"in_memory", StorageOptions::parse("in_memory")},
          {"mmap", StorageOptions::parse("mmap")},
          {"hybrid:4", StorageOptions::parse("hybrid:4")}};
}

/// Partition ids cycling through every decimal width of a uint32, both
/// sides of each power of ten, ending with the unassigned sentinel.
std::vector<PartitionId> wide_ids() {
  std::vector<PartitionId> ids = {0};
  for (std::uint64_t ten = 10; ten <= 1'000'000'000; ten *= 10) {
    ids.push_back(static_cast<PartitionId>(ten - 1));
    ids.push_back(static_cast<PartitionId>(ten));
  }
  ids.push_back(kNoPartition - 1);
  ids.push_back(kNoPartition);
  return ids;
}

EdgePartition cycling_partition(EdgeId m, const std::vector<PartitionId>& ids) {
  EdgePartition part(kNoPartition, m);
  for (EdgeId e = 0; e < m; ++e) part.assign(e, ids[e % ids.size()]);
  return part;
}

TEST(PartitionTextWriter, MatchesReferenceOnEveryTier) {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("empty", Graph::from_edges(0, {}));
  graphs.emplace_back("one_edge", Graph::from_edges(2, {{0, 1}}));
  // ~1 MiB of rows: the 64 KiB buffer fills and flushes many times.
  graphs.emplace_back("large", gen::erdos_renyi(30'000, 80'000, 5));
  // Vertex ids on both sides of every power of ten up to 10^6.
  EdgeList wide;
  for (VertexId ten = 10; ten <= 1'000'000; ten *= 10) {
    wide.push_back({ten - 1, ten});
    wide.push_back({0, ten - 1});
    wide.push_back({1, ten});
  }
  graphs.emplace_back("digit_widths", Graph::from_edges(1'000'001, wide));

  for (const auto& [name, reference] : graphs) {
    for (const auto& [tier, options] : tiers()) {
      SCOPED_TRACE(name + " tier=" + tier);
      const Graph g = io::with_tier(reference, options);
      const EdgePartition tlp_part = g.num_edges() == 0
                                         ? EdgePartition(4, EdgeId{0})
                                         : make_partition(g, 4);
      expect_same_bytes(written_text(g, tlp_part),
                        reference_text(g, tlp_part));
      const EdgePartition wide_part =
          cycling_partition(g.num_edges(), wide_ids());
      const std::string header =
          "# algo=2ps p=4294967295 seed=18446744073709551615";
      expect_same_bytes(written_text(g, wide_part, header),
                        reference_text(g, wide_part, header));
    }
  }
}

TEST(PartitionTextWriter, UnassignedEdgePrintsSentinel) {
  const Graph g = gen::path_graph(3);
  EdgePartition part(2, g.num_edges());
  part.assign(1, 1);
  EXPECT_EQ(written_text(g, part),
            "# tlp edge partition: p=2 m=2\n0 1 4294967295\n1 2 1\n");
}

/// Accepts `capacity` bytes, then refuses every further write.
class FullAfter : public std::streambuf {
 public:
  explicit FullAfter(std::size_t capacity) : capacity_(capacity) {}

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    const auto room = static_cast<std::streamsize>(capacity_);
    const std::streamsize taken = std::min(n, room);
    capacity_ -= static_cast<std::size_t>(taken);
    return taken;
  }
  int_type overflow(int_type ch) override {
    if (capacity_ == 0) return traits_type::eof();
    --capacity_;
    return traits_type::not_eof(ch);
  }

 private:
  std::size_t capacity_;
};

TEST(PartitionTextWriter, ThrowsOnFailedStream) {
  const Graph g = gen::erdos_renyi(2'000, 12'000, 7);
  const EdgePartition part = make_partition(g, 4);

  std::ostringstream failed;
  failed.setstate(std::ios::badbit);
  EXPECT_THROW(write_partition_text(g, part, failed), std::runtime_error);

  // Refusal at the header, within the first chunk, and at the second.
  for (const std::size_t capacity : {0u, 100u, 70'000u}) {
    SCOPED_TRACE("capacity=" + std::to_string(capacity));
    FullAfter sink(capacity);
    std::ostream out(&sink);
    EXPECT_THROW(write_partition_text(g, part, out), std::runtime_error);
  }
}

// The rows of a small graph still sit in the file buffer when the writer
// returns, so only the close reports the failure.
TEST(PartitionTextWriter, FileThrowsWhenFinalFlushFails) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const Graph g = gen::path_graph(10);
  const EdgePartition part = make_partition(g, 2);
  EXPECT_THROW(write_partition_text_file(g, part, "/dev/full"),
               std::runtime_error);
  EXPECT_THROW(write_partition_binary_file(part, "/dev/full"),
               std::runtime_error);
}

TEST(PartitionText, AcceptsReversedEndpointsAndComments) {
  const Graph g = gen::path_graph(3);  // edges (0,1),(1,2)
  std::istringstream in(
      "# a comment\n"
      "1 0 1\n"   // reversed orientation
      "2 1 0\n");
  const EdgePartition part = read_partition_text(g, in);
  EXPECT_EQ(part.partition_of(0), 1u);
  EXPECT_EQ(part.partition_of(1), 0u);
}

TEST(PartitionText, RejectsUnknownEdge) {
  const Graph g = gen::path_graph(3);
  std::istringstream in("0 2 0\n");  // (0,2) is not an edge
  EXPECT_THROW((void)read_partition_text(g, in), std::runtime_error);
}

TEST(PartitionText, RejectsMissingEdges) {
  const Graph g = gen::path_graph(4);  // 3 edges
  std::istringstream in("0 1 0\n");
  EXPECT_THROW((void)read_partition_text(g, in), std::runtime_error);
}

TEST(PartitionText, RejectsMalformedLine) {
  const Graph g = gen::path_graph(3);
  std::istringstream in("0 1\n1 2 0\n");  // first line lacks a partition
  EXPECT_THROW((void)read_partition_text(g, in), std::runtime_error);
}

TEST(PartitionBinary, RoundTripExact) {
  const Graph g = gen::barabasi_albert(80, 3, 83);
  const EdgePartition original = make_partition(g, 6);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_partition_binary(original, buffer);
  const EdgePartition reloaded = read_partition_binary(buffer);
  EXPECT_EQ(reloaded.raw(), original.raw());
  EXPECT_EQ(reloaded.num_partitions(), original.num_partitions());
}

TEST(PartitionBinary, PreservesUnassignedSentinel) {
  EdgePartition sparse(3, EdgeId{4});
  sparse.assign(1, 2);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_partition_binary(sparse, buffer);
  const EdgePartition reloaded = read_partition_binary(buffer);
  EXPECT_EQ(reloaded.partition_of(0), kNoPartition);
  EXPECT_EQ(reloaded.partition_of(1), 2u);
  EXPECT_EQ(reloaded.unassigned_count(), 3u);
}

TEST(PartitionBinary, RejectsBadMagicAndRange) {
  std::stringstream bad(std::ios::in | std::ios::out | std::ios::binary);
  bad << "NOPE----------------";
  EXPECT_THROW((void)read_partition_binary(bad), std::runtime_error);

  // Craft a payload with an out-of-range partition id.
  EdgePartition original(2, EdgeId{1});
  original.assign(0, 1);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_partition_binary(original, buffer);
  std::string bytes = buffer.str();
  bytes[bytes.size() - 4] = 0x7f;  // clobber the stored partition id
  std::stringstream corrupt(std::ios::in | std::ios::out | std::ios::binary);
  corrupt << bytes;
  EXPECT_THROW((void)read_partition_binary(corrupt), std::runtime_error);
}

TEST(PartitionBinary, RejectsTruncation) {
  const Graph g = gen::path_graph(10);
  const EdgePartition original = make_partition(g, 2);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_partition_binary(original, buffer);
  const std::string full = buffer.str();
  std::stringstream cut(std::ios::in | std::ios::out | std::ios::binary);
  cut << full.substr(0, full.size() - 3);
  EXPECT_THROW((void)read_partition_binary(cut), std::runtime_error);
}

TEST(PartitionFiles, RoundTripViaDisk) {
  const Graph g = gen::cycle_graph(20);
  const EdgePartition original = make_partition(g, 3);
  const auto dir = std::filesystem::temp_directory_path();
  const auto text = dir / "tlp_part_test.parts";
  const auto bin = dir / "tlp_part_test.partsb";
  write_partition_text_file(g, original, text);
  write_partition_binary_file(original, bin);
  EXPECT_EQ(read_partition_text_file(g, text).raw(), original.raw());
  EXPECT_EQ(read_partition_binary_file(bin).raw(), original.raw());
  std::filesystem::remove(text);
  std::filesystem::remove(bin);
}

}  // namespace
}  // namespace tlp::io
