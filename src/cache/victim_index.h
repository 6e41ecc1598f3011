// Policy-maintained victim indexes.
//
// Every replacement policy keeps its cached entries in an incrementally
// maintained eviction order instead of re-heapifying all entries on each
// miss: victim selection walks the index in ascending victim order and
// stops as soon as enough bytes are covered, so a miss costs
// O(victims * log n) (or O(victims) for the intrusive lists) rather than
// O(n log n).
//
// Three structures cover all policies:
//  * IntrusiveVictimList -- a doubly-linked list threaded through the
//    entries themselves, for orders that a reference can only move to
//    one end (pure recency: LRU, and the partial bucket of LRU-K).
//  * OrderedVictimIndex -- a balanced-tree index over a composite key
//    (bucket, primary, secondary, seq), for value orders that a
//    reference re-keys in place (LFU counts, GreedyDual-Size H values,
//    LCS sizes). The monotone `seq` makes keys unique and breaks exact
//    ties in first-keyed-first-evicted order, matching the
//    ascending-timestamp tie behaviour of the old heap selection.
//  * LazyOrderedVictimIndex -- an OrderedVictimIndex for keys that only
//    *decay* between re-evaluations (LNC profits: lambda = K/(t - t_K)
//    shrinks as t grows). Keys are stored log-quantized and carry the
//    evaluation timestamp, so a re-evaluation whose quantized level did
//    not move skips the O(log n) tree re-key entirely, and victim
//    selection can treat every stored key as an upper bound of the
//    entry's current value (see lnc_cache.h for the selection walk).

#ifndef WATCHMAN_CACHE_VICTIM_INDEX_H_
#define WATCHMAN_CACHE_VICTIM_INDEX_H_

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <set>
#include <tuple>

#include "util/clock.h"

namespace watchman {

/// Composite ordering key of an OrderedVictimIndex. Entries are evicted
/// in ascending (bucket, primary, secondary, seq) order. `seq` is
/// assigned by the index on every (re)keying; seq == 0 means "not
/// currently in an ordered index".
struct VictimKey {
  uint32_t bucket = 0;
  double primary = 0.0;
  uint64_t secondary = 0;
  uint64_t seq = 0;

  friend bool operator<(const VictimKey& a, const VictimKey& b) {
    return std::tie(a.bucket, a.primary, a.secondary, a.seq) <
           std::tie(b.bucket, b.primary, b.secondary, b.seq);
  }
};

/// Intrusive doubly-linked list over nodes carrying `vprev` / `vnext`
/// pointers. The front is the next victim; the back is the most
/// recently touched node. All operations are O(1).
template <typename Node>
class IntrusiveVictimList {
 public:
  bool empty() const { return head_ == nullptr; }
  size_t size() const { return size_; }
  Node* front() const { return head_; }
  Node* back() const { return tail_; }
  static Node* Next(const Node* n) { return n->vnext; }

  void PushBack(Node* n) {
    assert(n->vprev == nullptr && n->vnext == nullptr && n != head_);
    n->vprev = tail_;
    n->vnext = nullptr;
    if (tail_ != nullptr) {
      tail_->vnext = n;
    } else {
      head_ = n;
    }
    tail_ = n;
    ++size_;
  }

  void Remove(Node* n) {
    assert(size_ > 0);
    if (n->vprev != nullptr) {
      n->vprev->vnext = n->vnext;
    } else {
      assert(head_ == n);
      head_ = n->vnext;
    }
    if (n->vnext != nullptr) {
      n->vnext->vprev = n->vprev;
    } else {
      assert(tail_ == n);
      tail_ = n->vprev;
    }
    n->vprev = nullptr;
    n->vnext = nullptr;
    --size_;
  }

  void MoveToBack(Node* n) {
    if (tail_ == n) return;
    Remove(n);
    PushBack(n);
  }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  size_t size_ = 0;
};

/// Ordered victim index over nodes carrying a `vkey` member. The node's
/// stored key is the handle for O(log n) removal, so no iterators need
/// to be kept alive across mutations.
template <typename Node>
class OrderedVictimIndex {
 public:
  struct Item {
    VictimKey key;
    Node* node;
    friend bool operator<(const Item& a, const Item& b) {
      return a.key < b.key;  // seq makes keys unique
    }
  };
  using const_iterator = typename std::set<Item>::const_iterator;

  bool empty() const { return set_.empty(); }
  size_t size() const { return set_.size(); }
  const_iterator begin() const { return set_.begin(); }
  const_iterator end() const { return set_.end(); }

  bool Contains(const Node* n) const { return n->vkey.seq != 0; }

  void Add(Node* n, uint32_t bucket, double primary, uint64_t secondary) {
    assert(n->vkey.seq == 0 && "node already in an ordered index");
    n->vkey = VictimKey{bucket, primary, secondary, ++next_seq_};
    const bool inserted = set_.insert(Item{n->vkey, n}).second;
    assert(inserted);
    (void)inserted;
  }

  /// Re-keys `n` in place by extracting its tree node and reinserting
  /// it under the new key -- no allocation, unlike erase + insert. The
  /// hot hit path of every ordered-index policy lands here.
  void Update(Node* n, uint32_t bucket, double primary, uint64_t secondary) {
    assert(n->vkey.seq != 0 && "node not in the ordered index");
    auto it = set_.find(Item{n->vkey, n});
    assert(it != set_.end());
    auto handle = set_.extract(it);
    n->vkey = VictimKey{bucket, primary, secondary, ++next_seq_};
    handle.value() = Item{n->vkey, n};
    const auto inserted = set_.insert(std::move(handle));
    assert(inserted.inserted);
    (void)inserted;
  }

  void Remove(Node* n) {
    assert(n->vkey.seq != 0 && "node not in the ordered index");
    const size_t erased = set_.erase(Item{n->vkey, n});
    assert(erased == 1);
    (void)erased;
    n->vkey = VictimKey{};
  }

 private:
  std::set<Item> set_;
  uint64_t next_seq_ = 0;
};

/// Ordered victim index for monotonically decaying keys, re-keyed
/// lazily. Nodes additionally carry a `vkey_eval` timestamp: the time
/// their stored key was last evaluated.
///
/// The stored primary key is the *log-quantized level* of the value:
/// level = floor(log2(value) * quant_steps), i.e. `quant_steps` levels
/// per doubling, so two values within a ratio of 2^(1/quant_steps)
/// (~4.4% for the default 16) can share a level. Refresh() skips the
/// O(log n) tree re-key whenever bucket and level are unchanged -- on a
/// steady hit stream nearly every re-evaluation is a stamp update plus
/// one comparison. quant_steps == 0 stores the exact value (every
/// changed value re-keys).
///
/// Because values only decay between evaluations, a stored level is an
/// upper bound of the node's current level; the consumer's victim walk
/// exploits this (see LncCache::SelectCandidates).
template <typename Node>
class LazyOrderedVictimIndex {
 public:
  using Base = OrderedVictimIndex<Node>;
  using const_iterator = typename Base::const_iterator;

  /// Lowest representable level; used for values <= 0 (a zero-cost set
  /// has zero profit) so they sort before everything else.
  static constexpr double kFloorLevel = -1.0e9;

  explicit LazyOrderedVictimIndex(uint32_t quant_steps = 0)
      : quant_steps_(quant_steps) {}

  uint32_t quant_steps() const { return quant_steps_; }

  /// Largest ratio two values sharing a quantized level can have.
  double quantization_ratio() const {
    return quant_steps_ == 0
               ? 1.0
               : std::exp2(1.0 / static_cast<double>(quant_steps_));
  }

  /// The stored form of `value`: its quantized level, or the exact
  /// value when quantization is off.
  double QuantizeKey(double value) const {
    if (quant_steps_ == 0) return value;
    if (!(value > 0.0)) return kFloorLevel;
    const double level =
        std::floor(std::log2(value) * static_cast<double>(quant_steps_));
    return level < kFloorLevel ? kFloorLevel : level;
  }

  bool empty() const { return index_.empty(); }
  size_t size() const { return index_.size(); }
  const_iterator begin() const { return index_.begin(); }
  const_iterator end() const { return index_.end(); }
  bool Contains(const Node* n) const { return index_.Contains(n); }

  /// Tree re-keys performed / skipped by Refresh() (observability and
  /// tests; the skip ratio is the point of the quantization).
  uint64_t rekeys() const { return rekeys_; }
  uint64_t refreshes_skipped() const { return refreshes_skipped_; }

  void Add(Node* n, uint32_t bucket, double value, Timestamp eval_time) {
    index_.Add(n, bucket, QuantizeKey(value), 0);
    n->vkey_eval = eval_time;
  }

  /// Re-evaluation of `n`'s key as `value` at `eval_time`. Re-keys the
  /// tree only when the bucket or the quantized level moved; always
  /// advances the evaluation stamp. Returns true if a tree re-key
  /// happened.
  bool Refresh(Node* n, uint32_t bucket, double value, Timestamp eval_time) {
    assert(index_.Contains(n));
    const double key = QuantizeKey(value);
    n->vkey_eval = eval_time;
    if (n->vkey.bucket == bucket && n->vkey.primary == key) {
      ++refreshes_skipped_;
      return false;
    }
    index_.Update(n, bucket, key, 0);
    ++rekeys_;
    return true;
  }

  void Remove(Node* n) { index_.Remove(n); }

 private:
  Base index_;
  const uint32_t quant_steps_;
  uint64_t rekeys_ = 0;
  uint64_t refreshes_skipped_ = 0;
};

}  // namespace watchman

#endif  // WATCHMAN_CACHE_VICTIM_INDEX_H_
