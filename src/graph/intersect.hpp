// Sorted-set intersection counts over the 4-byte neighbor_ids mirror.
//
// Two scalar paths, one dispatch: a linear merge for lists of comparable
// size, and a galloping scan (exponential search with a monotone cursor)
// once the longer list is at least kGallopSkew times the shorter one — the
// hub-vs-leaf pairs of power-law graphs. Both return the exact count.
//
// Nothing on the partitioners' hot path intersects lists any more: Stage I
// reads the per-edge support that edge_support() (graph/algorithms.hpp)
// computes once per run. This layer serves Graph::common_neighbor_count,
// i.e. triangle_counts and the test oracles.
#pragma once

#include <cstddef>
#include <utility>

#include "graph/types.hpp"

namespace tlp::intersect {

/// Degree skew ratio at or above which count() abandons the linear merge
/// for a galloping scan of the longer list: O(na · log(nb / na)) instead of
/// O(na + nb).
inline constexpr std::size_t kGallopSkew = 16;

/// True iff count(a, na, b, nb) takes the galloping path. Pure in the sizes.
[[nodiscard]] inline bool chooses_gallop(std::size_t na, std::size_t nb) {
  const std::size_t small = na < nb ? na : nb;
  const std::size_t big = na < nb ? nb : na;
  return small > 0 && big >= kGallopSkew * small;
}

/// |a ∩ b| by linear merge of two sorted duplicate-free lists.
[[nodiscard]] inline std::size_t merge(const VertexId* a, std::size_t na,
                                       const VertexId* b, std::size_t nb) {
  std::size_t count = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

/// |a ∩ b| by galloping: for each element of the short list `a`,
/// exponential-search forward in the long list `b` from the previous match
/// position, then binary-search the bracketed gap.
[[nodiscard]] inline std::size_t gallop(const VertexId* a, std::size_t na,
                                        const VertexId* b, std::size_t nb) {
  std::size_t count = 0;
  std::size_t pos = 0;  // cursor into b; only ever advances
  for (std::size_t k = 0; k < na; ++k) {
    const VertexId target = a[k];
    std::size_t lo = pos;
    std::size_t hi = pos;
    std::size_t step = 1;
    while (hi < nb && b[hi] < target) {
      lo = hi + 1;
      hi += step;
      step <<= 1;
    }
    if (hi > nb) hi = nb;
    // Invariant: b[lo - 1] < target (or lo == pos) and b[hi] >= target
    // (or hi == nb).
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (b[mid] < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    pos = lo;
    if (pos == nb) break;  // everything left in a is larger too
    if (b[pos] == target) {
      ++count;
      ++pos;
    }
  }
  return count;
}

/// |a ∩ b| for sorted duplicate-free lists of any sizes (either order,
/// either may be empty).
[[nodiscard]] inline std::size_t count(const VertexId* a, std::size_t na,
                                       const VertexId* b, std::size_t nb) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (na == 0) return 0;
  return chooses_gallop(na, nb) ? gallop(a, na, b, nb) : merge(a, na, b, nb);
}

}  // namespace tlp::intersect
