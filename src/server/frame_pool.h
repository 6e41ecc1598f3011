// Recycled byte-buffer pool and allocation-free frame queue for the
// watchmand request path.
//
// The PR 3 cache made the per-reference path allocation-free; this
// module applies the same discipline to the server transport. Two
// pieces:
//
//  * FramePool -- a bounded free-list of std::string buffers. Frame
//    bodies handed to workers and per-connection in/out buffers are
//    acquired here and released back when done, so steady-state
//    traffic reuses warm capacity instead of hitting the allocator
//    once per frame / per connection. Release
//    discards buffers whose capacity ballooned past a cap (one huge
//    EXECUTE fill must not pin megabytes in the free list) and drops
//    buffers beyond the retained-count cap.
//
//  * FrameQueue -- a growable ring of Work items replacing the ready
//    std::deque. A deque allocates and frees block nodes as items
//    cycle through; the ring reaches a high-water capacity once and
//    then push/pop allocate nothing.
//
// Thread safety: FramePool is internally synchronized (workers release
// from many threads while the IO thread acquires). FrameQueue is NOT --
// the server already serializes access under ready_mu_.

#ifndef WATCHMAN_SERVER_FRAME_POOL_H_
#define WATCHMAN_SERVER_FRAME_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"

namespace watchman {

/// A bounded, thread-safe free-list of std::string buffers.
class FramePool {
 public:
  struct Options {
    /// Buffers retained at most; releases beyond this free normally.
    size_t max_buffers = 64;
    /// A released buffer whose capacity exceeds this is freed instead
    /// of retained (keeps one giant frame from pinning the pool).
    size_t max_retained_capacity = 1u << 20;  // 1 MiB
  };

  FramePool() : FramePool(Options{}) {}
  explicit FramePool(Options options) : options_(options) {
    free_.reserve(options_.max_buffers);
  }

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// Returns an empty buffer, reusing pooled capacity when available.
  std::string Acquire() {
    {
      MutexLock lock(mu_);
      if (!free_.empty()) {
        std::string out = std::move(free_.back());
        free_.pop_back();
        reuses_.fetch_add(1, std::memory_order_relaxed);
        return out;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::string();
  }

  /// Takes `buffer` back (cleared, capacity kept) unless it is over the
  /// capacity cap or the pool is full.
  void Release(std::string&& buffer) {
    if (buffer.capacity() > options_.max_retained_capacity) {
      discards_.fetch_add(1, std::memory_order_relaxed);
      std::string dropped = std::move(buffer);
      return;  // dropped frees here
    }
    buffer.clear();
    MutexLock lock(mu_);
    if (free_.size() >= options_.max_buffers) {
      discards_.fetch_add(1, std::memory_order_relaxed);
      return;  // buffer frees on scope exit (outside would be nicer,
               // but a full pool is already the cold path)
    }
    free_.push_back(std::move(buffer));
  }

  size_t free_count() const {
    MutexLock lock(mu_);
    return free_.size();
  }
  /// Acquires served from the free list.
  uint64_t reuses() const { return reuses_.load(std::memory_order_relaxed); }
  /// Acquires that had to construct a fresh buffer.
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Releases dropped by the capacity or count caps.
  uint64_t discards() const {
    return discards_.load(std::memory_order_relaxed);
  }

 private:
  const Options options_;
  mutable Mutex mu_;
  std::vector<std::string> free_ GUARDED_BY(mu_);
  std::atomic<uint64_t> reuses_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> discards_{0};
};

/// A growable FIFO ring. Reaches steady-state capacity once; after
/// that, push/pop perform no allocation. External synchronization
/// required (the server's ready_mu_).
template <typename T>
class FrameQueue {
 public:
  FrameQueue() { slots_.resize(kInitialCapacity); }

  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }

  void push_back(T&& item) {
    if (count_ == slots_.size()) Grow();
    slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(item);
    ++count_;
  }

  T& front() { return slots_[head_]; }

  void pop_front() {
    slots_[head_] = T();  // release resources eagerly
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
  }

  void clear() {
    while (count_ > 0) pop_front();
  }

 private:
  static constexpr size_t kInitialCapacity = 64;  // power of two

  void Grow() {
    std::vector<T> next(slots_.size() * 2);
    for (size_t i = 0; i < count_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(next);
    head_ = 0;
  }

  std::vector<T> slots_;
  size_t head_ = 0;
  size_t count_ = 0;
};

}  // namespace watchman

#endif  // WATCHMAN_SERVER_FRAME_POOL_H_
