#include "partition/partition_io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace tlp::io {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("tlp::io(partition): " + what);
}

constexpr std::array<char, 4> kMagic = {'T', 'L', 'P', 'P'};
constexpr std::uint32_t kVersion = 1;

/// Text rows are formatted into one buffer of this size, and a full buffer
/// goes to the stream in one write.
constexpr std::size_t kTextChunkBytes = std::size_t{64} << 10;
/// Longest text row: three 10-digit uint32 fields, two spaces, a newline.
constexpr std::ptrdiff_t kMaxRowBytes = 3 * 10 + 3;

/// Closes `out`, flushing what its buffer still holds, and throws if that
/// or any earlier write failed.
void close_or_fail(std::ofstream& out, const std::string& format) {
  out.close();
  if (!out) fail("I/O error while writing " + format + " partition");
}

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) fail("truncated binary partition");
  return value;
}

std::uint64_t edge_key(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

}  // namespace

void write_partition_text(const Graph& g, const EdgePartition& partition,
                          std::ostream& out, std::string_view header) {
  if (header.empty()) {
    out << "# tlp edge partition: p=" << partition.num_partitions()
        << " m=" << partition.num_edges() << '\n';
  } else {
    out << header << '\n';
  }

  std::vector<char> buffer(kTextChunkBytes);
  char* const begin = buffer.data();
  char* const end = begin + buffer.size();
  char* pos = begin;
  const auto put = [&](std::uint32_t value, char separator) {
    pos = std::to_chars(pos, end, value).ptr;
    *pos++ = separator;
  };
  const std::span<const Edge> edges = g.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (end - pos < kMaxRowBytes) {
      out.write(begin, pos - begin);
      pos = begin;
    }
    put(edges[e].u, ' ');
    put(edges[e].v, ' ');
    put(partition.partition_of(e), '\n');
  }
  out.write(begin, pos - begin);
  if (!out) fail("I/O error while writing text partition");
}

void write_partition_text_file(const Graph& g, const EdgePartition& partition,
                               const std::filesystem::path& path,
                               std::string_view header) {
  std::ofstream out(path);
  if (!out) fail("cannot open '" + path.string() + "' for writing");
  write_partition_text(g, partition, out, header);
  close_or_fail(out, "text");
}

EdgePartition read_partition_text(const Graph& g, std::istream& in) {
  std::unordered_map<std::uint64_t, EdgeId> index;
  index.reserve(static_cast<std::size_t>(g.num_edges()) * 2);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    index.emplace(edge_key(g.edge(e).u, g.edge(e).v), e);
  }

  EdgePartition partition(0, g.num_edges());
  PartitionId max_part = 0;
  std::string line;
  std::size_t line_no = 0;
  EdgeId assigned = 0;
  std::vector<PartitionId> parts(static_cast<std::size_t>(g.num_edges()),
                                 kNoPartition);
  while (std::getline(in, line)) {
    ++line_no;
    const char* pos = line.data();
    const char* end = line.data() + line.size();
    while (pos != end && (*pos == ' ' || *pos == '\t')) ++pos;
    if (pos == end || *pos == '#') continue;
    const auto parse = [&](auto& value) {
      const auto [ptr, ec] = std::from_chars(pos, end, value);
      if (ec != std::errc{} || ptr == pos) {
        fail("malformed line " + std::to_string(line_no));
      }
      pos = ptr;
      while (pos != end && (*pos == ' ' || *pos == '\t')) ++pos;
    };
    VertexId u;
    VertexId v;
    PartitionId part;
    parse(u);
    parse(v);
    parse(part);
    const auto it = index.find(edge_key(u, v));
    if (it == index.end()) {
      fail("line " + std::to_string(line_no) + ": edge (" + std::to_string(u) +
           "," + std::to_string(v) + ") not in graph");
    }
    if (parts[static_cast<std::size_t>(it->second)] == kNoPartition) {
      ++assigned;
    }
    parts[static_cast<std::size_t>(it->second)] = part;
    max_part = std::max(max_part, part);
  }
  if (in.bad()) fail("I/O error while reading text partition");
  if (assigned != g.num_edges()) {
    fail(std::to_string(g.num_edges() - assigned) +
         " graph edges missing from partition file");
  }
  return EdgePartition(max_part + 1, std::move(parts));
}

EdgePartition read_partition_text_file(const Graph& g,
                                       const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open '" + path.string() + "' for reading");
  return read_partition_text(g, in);
}

void write_partition_binary(const EdgePartition& partition,
                            std::ostream& out) {
  out.write(kMagic.data(), kMagic.size());
  write_pod(out, kVersion);
  write_pod(out, partition.num_partitions());
  write_pod(out, partition.num_edges());
  out.write(reinterpret_cast<const char*>(partition.raw().data()),
            static_cast<std::streamsize>(partition.raw().size() *
                                         sizeof(PartitionId)));
  if (!out) fail("I/O error while writing binary partition");
}

void write_partition_binary_file(const EdgePartition& partition,
                                 const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot open '" + path.string() + "' for writing");
  write_partition_binary(partition, out);
  close_or_fail(out, "binary");
}

EdgePartition read_partition_binary(std::istream& in) {
  std::array<char, 4> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) fail("bad magic: not a TLPP binary partition");
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kVersion) {
    fail("unsupported binary partition version " + std::to_string(version));
  }
  const auto p = read_pod<PartitionId>(in);
  const auto m = read_pod<EdgeId>(in);
  std::vector<PartitionId> parts;
  // Bounded reservation: corrupted headers must fail on payload reads, not
  // by exhausting memory up front.
  parts.reserve(static_cast<std::size_t>(
      std::min<EdgeId>(m, EdgeId{1} << 20)));
  for (EdgeId e = 0; e < m; ++e) {
    const auto part = read_pod<PartitionId>(in);
    if (part != kNoPartition && part >= p) {
      fail("partition id out of range at edge " + std::to_string(e));
    }
    parts.push_back(part);
  }
  return EdgePartition(p, std::move(parts));
}

EdgePartition read_partition_binary_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open '" + path.string() + "' for reading");
  return read_partition_binary(in);
}

}  // namespace tlp::io
