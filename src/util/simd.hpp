// Portable software-prefetch hint. Compiles to PREFETCHT0 (or nothing) and
// never faults, so it may be issued for an address that is about to be
// range-checked. The Stage-II selection scan (core/frontier.cpp) uses it
// to pull the next bucket-ladder rung in while the current one is drained.
#pragma once

namespace tlp::simd {

/// Hints the cache hierarchy that `p` will be read soon. Never faults;
/// a null or wild pointer is a wasted hint, not an error.
inline void prefetch_read(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace tlp::simd
