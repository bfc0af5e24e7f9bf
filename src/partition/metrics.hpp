// Quality metrics for edge partitions: replication factor (Def. 4),
// balance, per-partition modularity (Def. 8), and Claim-1 diagnostics.
#pragma once

#include <cstddef>
#include <vector>

#include "partition/edge_partition.hpp"

namespace tlp {

/// Number of distinct partitions each vertex's incident edges touch
/// (its replica count; 0 for isolated vertices). This and the two scores
/// below scan the edges once in id order into per-vertex replica bitsets:
/// O(m + n * ceil(p/64)) time, n * ceil(p/64) * 8 B transient memory.
/// Unassigned edges and ids >= p count for no partition.
[[nodiscard]] std::vector<PartitionId> replica_counts(
    const Graph& g, const EdgePartition& partition);

/// |V(P_k)| for every k: number of vertices with >= 1 incident edge in P_k.
[[nodiscard]] std::vector<std::size_t> vertex_counts(
    const Graph& g, const EdgePartition& partition);

/// Replication factor RF = sum_k |V(P_k)| / |V| (Eq. 1). Vertices with no
/// incident edges are excluded from the denominator (they are never
/// replicated); for the paper's datasets every vertex has degree >= 1.
[[nodiscard]] double replication_factor(const Graph& g,
                                        const EdgePartition& partition);

/// Load balance: max_k |E(P_k)| / (m / p). 1.0 = perfectly balanced.
[[nodiscard]] double balance_factor(const EdgePartition& partition);

/// Per-partition breakdown used by benches and the Claim-1 identity test.
struct PartitionModularity {
  EdgeId internal_edges = 0;  ///< |E(P_k)|
  EdgeId external_edges = 0;  ///< edges not in P_k with >= 1 endpoint in V(P_k)
  /// M(P_k) = internal / external (Def. 8); +inf when external == 0.
  [[nodiscard]] double value() const;
};

/// Modularity of every partition of a *complete* assignment. An external
/// edge of P_k is any edge assigned elsewhere that has at least one endpoint
/// in V(P_k) (Def. 7; edges with both endpoints in V(P_k) but assigned
/// elsewhere count once).
[[nodiscard]] std::vector<PartitionModularity> partition_modularity(
    const Graph& g, const EdgePartition& partition);

/// RF predicted by the paper's Claim-1 averaging identity, with a factor-2
/// correction: 1 + (1/p) * sum_k 1/(2*M(P_k)).
///
/// The paper's Eq. (5) writes |V(P_k)|*d = 2(|E(P_k)| + |E_out(P_k)|), but a
/// Def.-7 external edge has exactly ONE endpoint in V(P_k), so the correct
/// degree count is |V(P_k)|*d = 2|E(P_k)| + |E_out(P_k)| — hence the 2.
/// With the correction the identity is exact on regular graphs whose
/// external edges all have one endpoint inside (verified on cycle arcs in
/// tests); on irregular graphs it is the paper's averaging approximation.
/// The qualitative content of Claim 1 (higher modularity <=> lower RF) is
/// unaffected.
[[nodiscard]] double claim1_predicted_rf(const Graph& g,
                                         const EdgePartition& partition);

/// For vertex partitions (used by the LDG/METIS derivations): number of
/// edges whose endpoints lie in different parts.
[[nodiscard]] EdgeId edge_cut(const Graph& g,
                              const std::vector<PartitionId>& vertex_parts);

}  // namespace tlp
