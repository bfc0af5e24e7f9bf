// Serialization of edge partitions.
//
// Text (".parts"): '#'-comment header, then one "u v partition" line per
// edge — human-readable and diffable, matched to a Graph by endpoints.
// Binary (".partsb"): magic "TLPP", version, p, m, then m uint32 partition
// ids in EdgeId order — compact and exact for a known Graph.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string_view>

#include "partition/edge_partition.hpp"

namespace tlp::io {

/// Writes `header` (one '#' comment line, given without its newline; empty
/// selects "# tlp edge partition: p=<p> m=<m>"), then one "u v partition"
/// row per edge in EdgeId order; an unassigned edge prints kNoPartition.
/// Throws std::runtime_error if any write fails. The _file variant closes
/// the file before returning and throws if the final flush fails too.
void write_partition_text(const Graph& g, const EdgePartition& partition,
                          std::ostream& out, std::string_view header = {});
void write_partition_text_file(const Graph& g, const EdgePartition& partition,
                               const std::filesystem::path& path,
                               std::string_view header = {});

/// Reads a text .parts file against `g`: every line's edge is located by
/// its endpoints. Throws std::runtime_error on malformed lines, unknown
/// edges, or edges of g missing from the file.
[[nodiscard]] EdgePartition read_partition_text(const Graph& g,
                                                std::istream& in);
[[nodiscard]] EdgePartition read_partition_text_file(
    const Graph& g, const std::filesystem::path& path);

void write_partition_binary(const EdgePartition& partition, std::ostream& out);
void write_partition_binary_file(const EdgePartition& partition,
                                 const std::filesystem::path& path);

/// Reads a binary partition; checks magic/version and that every stored id
/// is < p or the unassigned sentinel.
[[nodiscard]] EdgePartition read_partition_binary(std::istream& in);
[[nodiscard]] EdgePartition read_partition_binary_file(
    const std::filesystem::path& path);

}  // namespace tlp::io
