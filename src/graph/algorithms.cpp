#include "graph/algorithms.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>
#include <utility>
#include <unordered_map>

namespace tlp {

std::vector<VertexId> bfs_order(const Graph& g, VertexId source) {
  if (source >= g.num_vertices()) {
    throw std::out_of_range("bfs_order: source out of range");
  }
  std::vector<bool> seen(g.num_vertices(), false);
  std::vector<VertexId> order;
  std::deque<VertexId> queue{source};
  seen[source] = true;
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    order.push_back(v);
    for (const Neighbor& nb : g.neighbors(v)) {
      if (!seen[nb.vertex]) {
        seen[nb.vertex] = true;
        queue.push_back(nb.vertex);
      }
    }
  }
  return order;
}

std::vector<std::size_t> bfs_distances(const Graph& g, VertexId source) {
  if (source >= g.num_vertices()) {
    throw std::out_of_range("bfs_distances: source out of range");
  }
  constexpr auto kUnreached = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> dist(g.num_vertices(), kUnreached);
  std::deque<VertexId> queue{source};
  dist[source] = 0;
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    for (const Neighbor& nb : g.neighbors(v)) {
      if (dist[nb.vertex] == kUnreached) {
        dist[nb.vertex] = dist[v] + 1;
        queue.push_back(nb.vertex);
      }
    }
  }
  return dist;
}

ComponentLabels connected_components(const Graph& g) {
  ComponentLabels result;
  result.label.assign(g.num_vertices(), kInvalidVertex);
  std::deque<VertexId> queue;
  for (VertexId start = 0; start < g.num_vertices(); ++start) {
    if (result.label[start] != kInvalidVertex) continue;
    const VertexId c = result.count++;
    result.label[start] = c;
    queue.push_back(start);
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop_front();
      for (const Neighbor& nb : g.neighbors(v)) {
        if (result.label[nb.vertex] == kInvalidVertex) {
          result.label[nb.vertex] = c;
          queue.push_back(nb.vertex);
        }
      }
    }
  }
  return result;
}

std::size_t largest_component_size(const Graph& g) {
  const ComponentLabels cc = connected_components(g);
  std::vector<std::size_t> sizes(cc.count, 0);
  for (const VertexId label : cc.label) ++sizes[label];
  return sizes.empty() ? 0 : *std::max_element(sizes.begin(), sizes.end());
}

Graph induced_subgraph(const Graph& g, const std::vector<VertexId>& vertices) {
  std::unordered_map<VertexId, VertexId> relabel;
  relabel.reserve(vertices.size());
  for (VertexId i = 0; i < vertices.size(); ++i) {
    const auto [it, inserted] = relabel.emplace(vertices[i], i);
    if (!inserted) {
      throw std::invalid_argument("induced_subgraph: duplicate vertex");
    }
  }
  EdgeList edges;
  for (const Edge& e : g.edges()) {
    const auto iu = relabel.find(e.u);
    const auto iv = relabel.find(e.v);
    if (iu != relabel.end() && iv != relabel.end()) {
      edges.push_back(Edge{iu->second, iv->second});
    }
  }
  return Graph::from_edges(static_cast<VertexId>(vertices.size()),
                           std::move(edges));
}

std::vector<std::size_t> triangle_counts(const Graph& g) {
  std::vector<std::size_t> counts(g.num_vertices(), 0);
  for (const Edge& e : g.edges()) {
    // Each triangle through edge (u,v) contributes one common neighbor.
    const std::size_t t = g.common_neighbor_count(e.u, e.v);
    counts[e.u] += t;
    counts[e.v] += t;
  }
  // Each triangle was counted once per incident edge pair at each vertex:
  // vertex w in triangle {u,v,w} is a common neighbor for edge (u,v) only,
  // but w's own counter was incremented via edges (w,u) and (w,v) — i.e.
  // every vertex of a triangle is counted exactly twice. Halve.
  for (std::size_t& c : counts) c /= 2;
  return counts;
}

ScratchArena::Lease<std::uint32_t> edge_support(const Graph& g,
                                                ScratchArena& arena) {
  const VertexId n = g.num_vertices();
  auto support = arena.acquire<std::uint32_t>(g.num_edges(), 0);
  const auto before = [&g](VertexId a, VertexId b) {
    const std::size_t da = g.degree(a);
    const std::size_t db = g.degree(b);
    return da < db || (da == db && a < b);
  };

  // Oriented out-lists, stored as positions into neighbors(v) rather than
  // copied Neighbor records: out[out_begin[v] .. out_begin[v + 1]) are the
  // positions of v's higher-ranked neighbors, in adjacency order. The
  // working set is plain vectors, freed on return rather than pooled in
  // the arena: a one-shot run's peak then holds only the m-entry result.
  std::vector<EdgeId> out_begin(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::uint32_t> out(g.num_edges(), 0);
  EdgeId next = 0;
  for (VertexId v = 0; v < n; ++v) {
    out_begin[v] = next;
    const auto nbrs = g.neighbors(v);
    for (std::uint32_t i = 0; i < nbrs.size(); ++i) {
      if (before(v, nbrs[i].vertex)) out[next++] = i;
    }
  }
  out_begin[n] = next;

  // mark[w] = 1 + position of w in neighbors(u) while u's out-list is
  // marked, else 0. Each triangle u < v < w (by rank) is seen once: from u,
  // through its out-neighbor v, at v's out-neighbor w.
  std::vector<std::uint32_t> mark(n, 0);
  for (VertexId u = 0; u < n; ++u) {
    const EdgeId ub = out_begin[u];
    const EdgeId ue = out_begin[u + 1];
    if (ue - ub < 2) continue;  // a triangle needs two out-neighbors of u
    const auto nu = g.neighbors(u);
    for (EdgeId i = ub; i < ue; ++i) mark[nu[out[i]].vertex] = out[i] + 1;
    for (EdgeId i = ub; i < ue; ++i) {
      const Neighbor& uv = nu[out[i]];
      const auto nv = g.neighbors(uv.vertex);
      for (EdgeId j = out_begin[uv.vertex]; j < out_begin[uv.vertex + 1];
           ++j) {
        const Neighbor& vw = nv[out[j]];
        const std::uint32_t at = mark[vw.vertex];
        if (at == 0) continue;
        ++support[uv.edge];
        ++support[vw.edge];
        ++support[nu[at - 1].edge];
      }
    }
    for (EdgeId i = ub; i < ue; ++i) mark[nu[out[i]].vertex] = 0;
  }
  return support;
}

std::vector<std::uint32_t> edge_support(const Graph& g) {
  ScratchArena arena;
  return std::move(*edge_support(g, arena));
}

std::vector<double> local_clustering(const Graph& g) {
  const auto triangles = triangle_counts(g);
  std::vector<double> result(g.num_vertices(), 0.0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::size_t d = g.degree(v);
    if (d >= 2) {
      const double wedges = static_cast<double>(d) * (d - 1) / 2.0;
      result[v] = static_cast<double>(triangles[v]) / wedges;
    }
  }
  return result;
}

double average_clustering(const Graph& g) {
  const auto local = local_clustering(g);
  double sum = 0.0;
  std::size_t eligible = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) >= 2) {
      sum += local[v];
      ++eligible;
    }
  }
  return eligible == 0 ? 0.0 : sum / static_cast<double>(eligible);
}

double global_clustering(const Graph& g) {
  const auto triangles = triangle_counts(g);
  // Each triangle is counted at each of its 3 vertices.
  std::size_t closed = 0;
  std::size_t wedges = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    closed += triangles[v];
    const std::size_t d = g.degree(v);
    if (d >= 2) wedges += d * (d - 1) / 2;
  }
  return wedges == 0 ? 0.0
                     : static_cast<double>(closed) / static_cast<double>(wedges);
}

std::vector<std::uint32_t> core_numbers(const Graph& g) {
  // Matula-Beck: repeatedly remove a minimum-degree vertex; its degree at
  // removal (clamped to the running max) is its core number. Bucket queue
  // keeps the whole decomposition O(n + m).
  const VertexId n = g.num_vertices();
  std::vector<std::uint32_t> degree(n);
  std::size_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(g.degree(v));
    max_degree = std::max<std::size_t>(max_degree, degree[v]);
  }

  // bin[d] = start offset of degree-d vertices in `order`.
  std::vector<std::size_t> bin(max_degree + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++bin[degree[v] + 1];
  for (std::size_t d = 1; d < bin.size(); ++d) bin[d] += bin[d - 1];
  std::vector<VertexId> order(n);
  std::vector<std::size_t> position(n);
  {
    std::vector<std::size_t> cursor(bin.begin(), bin.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      position[v] = cursor[degree[v]]++;
      order[position[v]] = v;
    }
  }

  std::vector<std::uint32_t> core(n, 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const VertexId v = order[i];
    core[v] = degree[v];
    for (const Neighbor& nb : g.neighbors(v)) {
      const VertexId u = nb.vertex;
      if (degree[u] > degree[v]) {
        // Swap u to the front of its degree bucket, then demote it.
        const std::size_t pu = position[u];
        const std::size_t pw = bin[degree[u]];
        const VertexId w = order[pw];
        if (u != w) {
          std::swap(order[pu], order[pw]);
          position[u] = pw;
          position[w] = pu;
        }
        ++bin[degree[u]];
        --degree[u];
      }
    }
  }
  return core;
}

std::uint32_t degeneracy(const Graph& g) {
  const auto core = core_numbers(g);
  return core.empty() ? 0 : *std::max_element(core.begin(), core.end());
}

}  // namespace tlp
