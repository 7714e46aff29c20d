// Open-addressing hash map for the simulator's hot per-node tables.
//
// std::unordered_map allocates one node per entry and chases a pointer per
// probe; the hot tables (resolver pending/dedup, DCC channel state, cache
// index, upstream tracker) are small-to-medium maps hit on every simulated
// datagram, where that indirection dominates. FlatMap stores entries inline
// in a power-of-two slot array with robin-hood probing and backward-shift
// deletion: lookups touch one contiguous cache line chain, inserts are
// amortized O(1), and erase leaves no tombstones.
//
// Semantics and constraints (narrower than unordered_map, deliberately):
//  - Key and Value must be movable and default-constructible (empty slots
//    hold default-constructed pairs).
//  - Iterators and references are invalidated by ANY insert or erase, not
//    just rehash. Do not hold a reference across a mutation.
//  - Iteration order is slot order: a deterministic function of the
//    insertion/erasure sequence and the hash function — identical across
//    runs and binaries for the deterministic-replay contract, but not
//    sorted. Where behavior depends on order (e.g. cache eviction picking
//    begin()), that choice is deterministic, matching the simulator's
//    replay guarantees.
//  - EraseIf handles predicate sweeps; there is intentionally no
//    erase(iterator) (backward-shift deletion can wrap entries past a live
//    iterator, which is a correctness trap).
//
// The supplied hash is post-mixed with a splitmix64 finalizer, so identity
// hashes (libstdc++ integral std::hash) still spread across slots.

#ifndef SRC_COMMON_FLAT_MAP_H_
#define SRC_COMMON_FLAT_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace dcc {

template <class Key, class Value, class Hash = std::hash<Key>,
          class Eq = std::equal_to<Key>>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;

  FlatMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    for (size_t i = 0; i < dist_.size(); ++i) {
      if (dist_[i] != 0) {
        slots_[i] = value_type();
        dist_[i] = 0;
      }
    }
    size_ = 0;
  }

  void reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) {  // Keep load factor <= 0.75 after n inserts.
      cap <<= 1;
    }
    if (cap > dist_.size()) {
      Rehash(cap);
    }
  }

  // --- iteration (slot order; see header comment) ---------------------------

  template <bool kConst>
  class Iter {
   public:
    using MapPtr = std::conditional_t<kConst, const FlatMap*, FlatMap*>;
    using Ref = std::conditional_t<kConst, const value_type&, value_type&>;
    using Ptr = std::conditional_t<kConst, const value_type*, value_type*>;

    Iter() = default;
    Iter(MapPtr map, size_t index) : map_(map), index_(index) { Settle(); }

    Ref operator*() const { return map_->slots_[index_]; }
    Ptr operator->() const { return &map_->slots_[index_]; }
    Iter& operator++() {
      ++index_;
      Settle();
      return *this;
    }
    bool operator==(const Iter& other) const { return index_ == other.index_; }
    bool operator!=(const Iter& other) const { return index_ != other.index_; }

   private:
    friend class FlatMap;
    void Settle() {
      while (index_ < map_->dist_.size() && map_->dist_[index_] == 0) {
        ++index_;
      }
    }
    MapPtr map_ = nullptr;
    size_t index_ = 0;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, dist_.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, dist_.size()); }

  // --- lookup ---------------------------------------------------------------

  // Lookups take any `K` that Hash and Eq accept alongside Key, so a map
  // with a transparent Eq can be probed without building a Key (string
  // keys by std::string_view). Hash must agree on equal K and Key values.
  template <class K = Key>
  iterator find(const K& key) {
    return iterator(this, FindIndex(key));
  }
  template <class K = Key>
  const_iterator find(const K& key) const {
    return const_iterator(this, FindIndex(key));
  }
  template <class K = Key>
  bool contains(const K& key) const {
    return FindIndex(key) < dist_.size();
  }
  size_t count(const Key& key) const { return contains(key) ? 1 : 0; }

  // Precondition: `key` is present (asserted; no exception fallback).
  Value& at(const Key& key) {
    const size_t index = FindIndex(key);
    assert(index < dist_.size());
    return slots_[index].second;
  }
  const Value& at(const Key& key) const {
    const size_t index = FindIndex(key);
    assert(index < dist_.size());
    return slots_[index].second;
  }

  // --- mutation -------------------------------------------------------------

  Value& operator[](const Key& key) {
    MaybeGrow();
    const size_t index = InsertSlot(value_type(key, Value()));
    return slots_[index].second;
  }

  template <class K, class... Args>
  std::pair<iterator, bool> emplace(K&& key, Args&&... args) {
    MaybeGrow();
    const size_t before = size_;
    const size_t index = InsertSlot(
        value_type(Key(std::forward<K>(key)), Value(std::forward<Args>(args)...)));
    return {iterator(this, index), size_ != before};
  }

  std::pair<iterator, bool> insert(value_type pair) {
    MaybeGrow();
    const size_t before = size_;
    const size_t index = InsertSlot(std::move(pair));
    return {iterator(this, index), size_ != before};
  }

  // Like unordered_map::try_emplace, except the mapped value is constructed
  // eagerly (and discarded when the key already exists) — fine for the cheap
  // value types the hot tables hold.
  template <class... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    MaybeGrow();
    const size_t before = size_;
    const size_t index =
        InsertSlot(value_type(key, Value(std::forward<Args>(args)...)));
    return {iterator(this, index), size_ != before};
  }

  // Erases `key` if present; returns the number of entries removed (0 or 1).
  size_t erase(const Key& key) {
    const size_t index = FindIndex(key);
    if (index >= dist_.size()) {
      return 0;
    }
    EraseAt(index);
    return 1;
  }

  // Removes every entry matching `pred(key, value)`. Returns the number
  // removed. Safe against the backward-shift wrap hazard: candidates are
  // collected first, then erased one by one.
  template <class Pred>
  size_t EraseIf(Pred pred) {
    std::vector<Key> doomed;
    for (size_t i = 0; i < dist_.size(); ++i) {
      if (dist_[i] != 0 && pred(slots_[i].first, slots_[i].second)) {
        doomed.push_back(slots_[i].first);
      }
    }
    for (const Key& key : doomed) {
      erase(key);
    }
    return doomed.size();
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  static uint64_t Mix(uint64_t h) {
    // splitmix64 finalizer.
    h += 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
  }

  template <class K>
  size_t HomeSlot(const K& key) const {
    return static_cast<size_t>(Mix(static_cast<uint64_t>(Hash{}(key)))) &
           (dist_.size() - 1);
  }

  // Index of `key`, or dist_.size() when absent (== end()).
  template <class K>
  size_t FindIndex(const K& key) const {
    if (size_ == 0) {
      return dist_.size();
    }
    const size_t mask = dist_.size() - 1;
    size_t index = HomeSlot(key);
    uint8_t dist = 1;
    while (true) {
      const uint8_t have = dist_[index];
      if (have < dist) {  // Empty, or a richer element: key is absent.
        return dist_.size();
      }
      if (have == dist && Eq{}(slots_[index].first, key)) {
        return index;
      }
      index = (index + 1) & mask;
      ++dist;
    }
  }

  void MaybeGrow() {
    if (dist_.empty()) {
      Rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > dist_.size() * 3) {
      Rehash(dist_.size() * 2);
    }
  }

  void Rehash(size_t new_capacity) {
    std::vector<value_type> old_slots = std::move(slots_);
    std::vector<uint8_t> old_dist = std::move(dist_);
    slots_ = std::vector<value_type>(new_capacity);
    dist_ = std::vector<uint8_t>(new_capacity, 0);
    size_ = 0;
    for (size_t i = 0; i < old_dist.size(); ++i) {
      if (old_dist[i] != 0) {
        InsertSlot(std::move(old_slots[i]));
      }
    }
  }

  // Robin-hood insert; returns the final index of `pair`'s key. If the key
  // already exists, the existing entry is kept untouched.
  size_t InsertSlot(value_type pair) {
    const size_t mask = dist_.size() - 1;
    size_t index = HomeSlot(pair.first);
    uint8_t dist = 1;
    size_t placed = dist_.size();
    while (true) {
      if (dist_[index] == 0) {
        slots_[index] = std::move(pair);
        dist_[index] = dist;
        ++size_;
        return placed < dist_.size() ? placed : index;
      }
      if (placed >= dist_.size() && dist_[index] == dist &&
          Eq{}(slots_[index].first, pair.first)) {
        return index;  // Existing entry wins (unordered_map semantics).
      }
      if (dist_[index] < dist) {
        // Steal from the richer element; keep shifting it onward.
        std::swap(pair, slots_[index]);
        std::swap(dist, dist_[index]);
        if (placed >= dist_.size()) {
          placed = index;
        }
      }
      index = (index + 1) & mask;
      ++dist;
      if (dist == 255) {
        // Pathological clustering: grow and restart (cannot happen with a
        // reasonable hash below the 0.75 load cap, but stay correct). If the
        // original key was already placed mid-chain, remember it so its new
        // position is recoverable after the rehash.
        if (placed < dist_.size()) {
          const Key original = slots_[placed].first;
          Rehash(dist_.size() * 2);
          InsertSlot(std::move(pair));
          return FindIndex(original);
        }
        Rehash(dist_.size() * 2);
        return InsertSlot(std::move(pair));
      }
    }
  }

  void EraseAt(size_t index) {
    const size_t mask = dist_.size() - 1;
    size_t current = index;
    while (true) {
      const size_t next = (current + 1) & mask;
      if (dist_[next] <= 1) {  // Empty or at home: chain ends.
        slots_[current] = value_type();
        dist_[current] = 0;
        break;
      }
      slots_[current] = std::move(slots_[next]);
      dist_[current] = static_cast<uint8_t>(dist_[next] - 1);
      current = next;
    }
    --size_;
  }

  std::vector<value_type> slots_;
  std::vector<uint8_t> dist_;  // 0 = empty, else probe distance + 1.
  size_t size_ = 0;
};

}  // namespace dcc

#endif  // SRC_COMMON_FLAT_MAP_H_
