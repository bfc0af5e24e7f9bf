// ScratchArena: a pool of typed vectors that lets repeated runs reuse
// per-run O(n)/O(m) buffers instead of reallocating them. RunContext
// (partition/run_context.hpp) owns one per context; graph-level passes
// that need scratch (edge_support in graph/algorithms.hpp) lease from it
// too, so a warm context stops allocating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <typeindex>
#include <utility>
#include <vector>

namespace tlp {

/// Pools typed vectors so repeated runs reuse capacity instead of
/// reallocating. acquire() always returns a buffer of exactly `n` elements
/// set to `fill` (reuse never changes observable contents, so results stay
/// deterministic). Leases are RAII: the buffer returns to the pool when the
/// lease dies. Leases must not outlive the arena.
class ScratchArena {
  struct PoolBase {
    virtual ~PoolBase() = default;
  };
  template <class T>
  struct Pool : PoolBase {
    std::vector<std::vector<T>> free;
  };

 public:
  template <class T>
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : arena_(other.arena_), buf_(std::move(other.buf_)) {
      other.arena_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        arena_ = other.arena_;
        buf_ = std::move(other.buf_);
        other.arena_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] std::vector<T>& get() { return buf_; }
    [[nodiscard]] const std::vector<T>& get() const { return buf_; }
    std::vector<T>* operator->() { return &buf_; }
    const std::vector<T>* operator->() const { return &buf_; }
    std::vector<T>& operator*() { return buf_; }
    const std::vector<T>& operator*() const { return buf_; }
    T& operator[](std::size_t i) { return buf_[i]; }
    const T& operator[](std::size_t i) const { return buf_[i]; }

   private:
    friend class ScratchArena;
    Lease(ScratchArena* arena, std::vector<T>&& buf)
        : arena_(arena), buf_(std::move(buf)) {}
    void release() {
      if (arena_ != nullptr) {
        arena_->put_back(std::move(buf_));
        arena_ = nullptr;
      }
    }
    ScratchArena* arena_ = nullptr;
    std::vector<T> buf_;
  };

  /// Returns an `n`-element buffer filled with `fill`. A hit means a pooled
  /// buffer with enough capacity was reused; a miss means a fresh allocation
  /// (or a pooled buffer that had to grow).
  template <class T>
  [[nodiscard]] Lease<T> acquire(std::size_t n, const T& fill = T{}) {
    auto& pool = pool_for<T>();
    std::vector<T> buf;
    bool pooled = false;
    if (!pool.free.empty()) {
      buf = std::move(pool.free.back());
      pool.free.pop_back();
      pooled = true;
    }
    const std::size_t old_bytes = buf.capacity() * sizeof(T);
    ((pooled && buf.capacity() >= n) ? hits_ : misses_) += 1;
    buf.assign(n, fill);
    const std::size_t new_bytes = buf.capacity() * sizeof(T);
    if (new_bytes > old_bytes) {
      total_bytes_ += new_bytes - old_bytes;
      if (total_bytes_ > peak_bytes_) peak_bytes_ = total_bytes_;
    }
    return Lease<T>(this, std::move(buf));
  }

  /// Pooled reuses where capacity was already sufficient.
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  /// Fresh allocations or capacity growth events.
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  /// Bytes currently held across pooled + leased buffers (element storage
  /// only; nested allocations inside elements are not counted).
  [[nodiscard]] std::size_t total_bytes() const { return total_bytes_; }
  /// High-water mark of total_bytes() — the peak-memory account.
  [[nodiscard]] std::size_t peak_bytes() const { return peak_bytes_; }

 private:
  template <class T>
  Pool<T>& pool_for() {
    auto& slot = pools_[std::type_index(typeid(T))];
    if (slot == nullptr) slot = std::make_unique<Pool<T>>();
    return static_cast<Pool<T>&>(*slot);
  }
  template <class T>
  void put_back(std::vector<T>&& buf) {
    pool_for<T>().free.push_back(std::move(buf));
  }

  std::map<std::type_index, std::unique_ptr<PoolBase>> pools_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::size_t total_bytes_ = 0;
  std::size_t peak_bytes_ = 0;
};

}  // namespace tlp
