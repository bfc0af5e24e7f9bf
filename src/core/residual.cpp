#include "core/residual.hpp"

namespace tlp {
namespace {

std::size_t max_degree_of(const Graph& g) {
  std::size_t max_d = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > max_d) max_d = g.degree(v);
  }
  return max_d;
}

}  // namespace

ResidualState::ResidualState(const Graph& g, ScratchArena& arena)
    : graph_(&g),
      residual_degree_(arena, g.num_vertices(), max_degree_of(g)),
      assigned_(arena.acquire<std::uint64_t>(
          (static_cast<std::size_t>(g.num_edges()) + 63) / 64, 0)),
      unassigned_(g.num_edges()) {
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    residual_degree_.set(v, static_cast<std::uint32_t>(g.degree(v)));
  }
}

void ResidualState::mark_assigned(EdgeId e) {
  assert(!is_assigned(e));
  const auto id = static_cast<std::size_t>(e);
  assigned_[id >> 6] |= std::uint64_t{1} << (id & 63);
  commit_claim(e);
}

void ResidualState::commit_claim(EdgeId e) {
  assert(is_assigned(e));
  const Edge& edge = graph_->edge(e);
  assert(residual_degree_.get(edge.u) > 0 &&
         residual_degree_.get(edge.v) > 0);
  residual_degree_.decrement(edge.u);
  residual_degree_.decrement(edge.v);
  --unassigned_;
}

}  // namespace tlp
