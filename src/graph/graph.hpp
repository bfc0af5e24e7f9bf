// Immutable undirected graph in CSR (compressed sparse row) form.
//
// Every undirected edge has a single EdgeId (its index in edges()) and
// appears twice in the adjacency structure, once per endpoint. Adjacency
// lists are sorted by neighbor id, which makes common-neighbor counting
// (the numerator of the TLP Stage-I score, Eq. 7 of the paper) a linear
// merge, and lets edge_support() list every triangle in one pass.
//
// Graph is a facade over a GraphStorage policy (graph/storage.hpp): the
// CSR arrays may live in heap vectors (default), in a read-only mapped
// CSR file, or split by degree between the two (hybrid out-of-core tier).
// The facade caches the storage's raw-pointer StorageView by value, and
// every accessor picks the resident or mapped base with a pure degree
// test — single-tier storages alias both bases and the test is
// always-true, preserving the pre-seam hot-path codegen. Copying a Graph
// shares the immutable storage (shallow, cheap, thread-safe for reads).
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/edge.hpp"
#include "graph/storage.hpp"
#include "graph/types.hpp"

namespace tlp {

/// Immutable undirected graph. Construct via GraphBuilder (which deduplicates
/// and canonicalizes), Graph::from_edges for already-clean input, or
/// io::load_csr_file / io::with_tier for the out-of-core storage tiers.
class Graph {
 public:
  Graph() = default;

  /// Builds an in-memory graph over vertices [0, num_vertices) from a clean
  /// edge list: no duplicates (in either orientation) and no self-loops.
  /// Endpoints must be < num_vertices. Use GraphBuilder for untrusted input.
  /// Edge ids are the input positions; a lexicographically sorted input
  /// list additionally skips the per-vertex adjacency sort (the counting
  /// sort then emits each list already ordered).
  static Graph from_edges(VertexId num_vertices, EdgeList edges);

  /// Wraps an existing storage (any tier). The storage is shared, not
  /// copied; it must stay immutable for the graph's lifetime.
  static Graph from_storage(std::shared_ptr<const GraphStorage> storage);

  [[nodiscard]] VertexId num_vertices() const { return view_.num_vertices; }
  [[nodiscard]] EdgeId num_edges() const { return view_.num_edges; }
  [[nodiscard]] bool empty() const { return view_.num_edges == 0; }

  /// All edges in canonical (u <= v) orientation; EdgeId e refers to edges()[e].
  [[nodiscard]] std::span<const Edge> edges() const {
    return {view_.edges, static_cast<std::size_t>(view_.num_edges)};
  }

  [[nodiscard]] const Edge& edge(EdgeId e) const {
    assert(e < view_.num_edges);
    return view_.edges[static_cast<std::size_t>(e)];
  }

  /// Neighbors of v, sorted by neighbor vertex id.
  [[nodiscard]] std::span<const Neighbor> neighbors(VertexId v) const {
    assert(v < view_.num_vertices);
    const std::size_t begin = view_.offsets[v];
    const std::size_t deg = view_.offsets[v + 1] - begin;
    if (is_resident(deg)) {
      const Neighbor* base = view_.resident_adj + view_.resident_pos[v];
      return {base, base + deg};
    }
    return {view_.mapped_adj + begin, deg};
  }

  /// Vertex-only view of neighbors(v): same order, 4-byte stride. Scans
  /// that never need the edge ids (common-neighbor intersections) walk
  /// this mirror instead of the Neighbor pairs — a vertex-only scan
  /// through {vertex, edge} records wastes half its memory bandwidth.
  [[nodiscard]] std::span<const VertexId> neighbor_ids(VertexId v) const {
    assert(v < view_.num_vertices);
    const std::size_t begin = view_.offsets[v];
    const std::size_t deg = view_.offsets[v + 1] - begin;
    if (is_resident(deg)) {
      const VertexId* base = view_.resident_ids + view_.resident_pos[v];
      return {base, base + deg};
    }
    return {view_.mapped_ids + begin, deg};
  }

  [[nodiscard]] std::size_t degree(VertexId v) const {
    assert(v < view_.num_vertices);
    return view_.offsets[v + 1] - view_.offsets[v];
  }

  /// Average degree 2m/n (0 for the empty graph).
  [[nodiscard]] double average_degree() const {
    return view_.num_vertices == 0
               ? 0.0
               : 2.0 * static_cast<double>(view_.num_edges) /
                     view_.num_vertices;
  }

  /// True iff u and v are adjacent. O(log deg) via binary search.
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const;

  /// Number of common neighbors |N(u) ∩ N(v)|: a linear merge of the
  /// sorted vertex-only mirrors, or a galloping scan when the degrees are
  /// skewed by ≥ intersect::kGallopSkew× (graph/intersect.hpp). Serves
  /// triangle_counts and the test oracles; the partitioners' Stage I reads
  /// the per-edge edge_support() instead.
  [[nodiscard]] std::size_t common_neighbor_count(VertexId u, VertexId v) const;

  /// Releases the mapped adjacency spans back to the kernel
  /// (MADV_DONTNEED) after a partition run commits; pages re-fault from
  /// the page cache/file if touched again. No-op on in-memory graphs.
  void release_cold_pages() const {
    if (mapped_) storage_->release_cold_pages();
  }

  /// madvise syscalls the underlying storage has issued (telemetry gauge).
  [[nodiscard]] std::uint64_t madvise_calls() const {
    return storage_ == nullptr ? 0 : storage_->madvise_calls();
  }

  /// Which tier the CSR bytes live on (kInMemory for default-constructed
  /// and from_edges graphs).
  [[nodiscard]] StorageTier storage_tier() const {
    return storage_ == nullptr ? StorageTier::kInMemory : storage_->tier();
  }

  /// Resident vs mapped byte accounting for the CSR arrays.
  [[nodiscard]] MemoryFootprint memory_footprint() const {
    return storage_ == nullptr ? MemoryFootprint{} : storage_->footprint();
  }

  /// Human-readable one-line summary, e.g. "Graph(n=1005, m=25571)";
  /// non-default storage tiers are tagged: "Graph(n=…, m=…, storage=mmap)".
  [[nodiscard]] std::string summary() const;

 private:
  /// The storage-tier routing rule: a pure function of the degree (see
  /// StorageView). Single-tier views make this always-true.
  [[nodiscard]] bool is_resident(std::size_t deg) const {
    return deg <= view_.resident_degree_cap ||
           deg >= view_.pinned_min_degree;
  }

  std::shared_ptr<const GraphStorage> storage_;
  StorageView view_;  // cached by value: hot accessors never indirect
  bool mapped_ = false;  // true iff a non-in-memory tier backs the view
};

}  // namespace tlp
