// Indexed per-owner soft-state store shared by the eCAN, Chord and Pastry
// map backends.
//
// The seed implementation kept each owner's records in a bare
// std::vector: every publish ran a linear dedup scan, every lookup
// filtered the whole store, and every expiry sweep touched every entry.
// Fine at a few thousand nodes, quadratic pain at 100k. This store keeps
// the exact same observable semantics (freshness-guarded refresh,
// stale-drop, soft-state expiry, lazy deletion) behind three indexes:
//
//   - a hash index keyed by the entry's dedup identity (node + map), so
//     publish/refresh/lazy-delete are O(1) instead of O(store);
//   - a slot list kept ordered by (map, landmark order, node), so
//     collecting one map's candidates reads a contiguous range — and the
//     range itself is in landmark (i.e. physical-locality) order;
//   - a lazy min-heap on expiry time, so `expire_before` touches only
//     entries that actually expired instead of sweeping the store.
//
// `LinearStoreRef` (linear_store_ref.hpp) is the seed-semantics reference
// implementation of the same interface; the property tests in
// tests/softstate_indexed_store_test.cpp drive both through randomized
// publish/rehome/expire sequences and require identical behaviour.
//
// A `Traits` object (stateful: e.g. it carries the landmark-number width)
// describes the entry type:
//
//   using Key = ...;       // dedup identity (node + map), hashable
//   using KeyHash = ...;   // hash functor for Key
//   using GroupKey = ...;  // map identity, totally ordered (operator<)
//   using OrderKey = ...;  // in-map order (landmark number), operator<
//   Key key(const Entry&) const;
//   GroupKey group(const Entry&) const;
//   OrderKey order(const Entry&) const;
//   overlay::NodeId node(const Entry&) const;
//   sim::Time published_at(const Entry&) const;
//   sim::Time expires_at(const Entry&) const;
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "overlay/node.hpp"
#include "sim/event_queue.hpp"
#include "util/assert.hpp"

namespace topo::softstate {

/// What `upsert` did with the offered entry (mirrors the seed
/// place_entry semantics exactly).
enum class UpsertOutcome {
  kInserted,      // first record for this key on this owner
  kRefreshed,     // replaced an existing record (republish / rehome)
  kStaleDropped,  // offered record was older than the stored one
};

template <typename Entry, typename Traits>
class IndexedStore {
 public:
  using EntryType = Entry;
  using TraitsType = Traits;
  using Key = typename Traits::Key;
  using GroupKey = typename Traits::GroupKey;
  using OrderKey = typename Traits::OrderKey;

  explicit IndexedStore(Traits traits = {}) : traits_(std::move(traits)) {}

  /// Stores `entry`, replacing any record with the same key. A record
  /// older than the stored one (by published_at) is dropped — rehome can
  /// replay a copy that predates a republish which already landed here.
  /// Returns the outcome and, unless dropped, a pointer to the stored
  /// entry (stable until the next non-const call).
  std::pair<UpsertOutcome, const Entry*> upsert(Entry entry) {
    const Key key = traits_.key(entry);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      Slot& slot = slots_[it->second];
      if (traits_.published_at(entry) < traits_.published_at(slot.entry))
        return {UpsertOutcome::kStaleDropped, &slot.entry};
      const OrderKey new_order = traits_.order(entry);
      if (!(new_order == slot.order)) {
        // Re-measured vector moved the record within its map: reposition.
        ordered_.erase(ordered_position(it->second));
        slot.entry = std::move(entry);
        slot.order = new_order;
        insert_ordered(it->second);
      } else {
        slot.entry = std::move(entry);
      }
      ++slot.generation;  // invalidates the old expiry-heap item
      push_expiry(it->second);
      return {UpsertOutcome::kRefreshed, &slot.entry};
    }

    std::uint32_t slot_id;
    if (!free_.empty()) {
      slot_id = free_.back();
      free_.pop_back();
    } else {
      slot_id = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& slot = slots_[slot_id];
    slot.group = traits_.group(entry);
    slot.order = traits_.order(entry);
    slot.entry = std::move(entry);
    slot.dead = false;
    index_.emplace(key, slot_id);
    // Per-node records form an intrusive chain through the slots (newest
    // first); linking is O(1) and allocates nothing beyond the head map.
    const auto [node_it, first_record] =
        by_node_.try_emplace(traits_.node(slot.entry), slot_id);
    slot.next_same_node = first_record ? kNullSlot : node_it->second;
    node_it->second = slot_id;
    insert_ordered(slot_id);
    push_expiry(slot_id);
    ++live_count_;
    return {UpsertOutcome::kInserted, &slot.entry};
  }

  /// O(1) point lookup by dedup key; nullptr when absent. The pointer is
  /// invalidated by any mutation of the store.
  const Entry* find(const Key& key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &slots_[it->second].entry;
  }

  /// Removes every record of `node` hosted here (lazy deletion after a
  /// failed probe, proactive removal at graceful departure). O(records of
  /// node) via the per-node index, not O(store).
  std::size_t erase_node(overlay::NodeId node) {
    const auto it = by_node_.find(node);
    if (it == by_node_.end()) return 0;
    std::uint32_t slot_id = it->second;
    by_node_.erase(it);
    std::size_t erased = 0;
    while (slot_id != kNullSlot) {
      const std::uint32_t next = slots_[slot_id].next_same_node;
      erase_slot(slot_id, false);
      ++erased;
      slot_id = next;
    }
    return erased;
  }

  /// Variant of erase_node with a freshness cutoff: only records with
  /// published_at <= cutoff are removed, so a record republished after
  /// the reporter observed the failure survives a delayed "dead" report.
  /// erase_node_before(node, +inf) == erase_node(node).
  std::size_t erase_node_before(overlay::NodeId node, sim::Time cutoff) {
    const auto it = by_node_.find(node);
    if (it == by_node_.end()) return 0;
    // Collect first: erase_slot relinks the chain being walked.
    std::vector<std::uint32_t> victims;
    for (std::uint32_t slot_id = it->second; slot_id != kNullSlot;
         slot_id = slots_[slot_id].next_same_node)
      if (traits_.published_at(slots_[slot_id].entry) <= cutoff)
        victims.push_back(slot_id);
    for (const std::uint32_t slot_id : victims) erase_slot(slot_id, true);
    return victims.size();
  }

  /// Drops entries with expires_at <= now; returns the number dropped.
  /// A sweep that drops nothing is O(1) (heap-top peek); one that drops k
  /// entries costs O(k · log + store) — the expired slots are unlinked
  /// from the hash indexes as the heap surfaces them, then swept out of
  /// the ordered list in a single compaction pass, so a mass expiry never
  /// pays a per-entry O(store) vector erase.
  std::size_t expire_before(sim::Time now) {
    std::size_t dropped = 0;
    while (!heap_.empty() && heap_.front().expires_at <= now) {
      const HeapItem item = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
      heap_.pop_back();
      Slot& slot = slots_[item.slot];
      if (slot.dead || slot.generation != item.generation) continue;
      TO_ASSERT(traits_.expires_at(slot.entry) <= now);
      index_.erase(traits_.key(slot.entry));
      unlink_from_node(traits_.node(slot.entry), item.slot);
      slot.dead = true;
      ++slot.generation;
      slot.entry = Entry{};
      free_.push_back(item.slot);
      --live_count_;
      ++dropped;
    }
    if (dropped > 0)
      std::erase_if(ordered_, [this](const std::uint32_t slot) {
        return slots_[slot].dead;
      });
    // Refresh-heavy workloads accumulate stale heap items between sweeps;
    // rebuild once they dominate so the heap stays O(live).
    if (heap_.size() > 4 * live_count_ + 64) rebuild_heap();
    return dropped;
  }

  /// Visits the records of one map in landmark order — a contiguous
  /// range of the ordered slot list.
  template <typename Fn>
  void for_each_in_group(const GroupKey& group, Fn&& fn) const {
    const auto lo = std::lower_bound(
        ordered_.begin(), ordered_.end(), group,
        [this](std::uint32_t slot, const GroupKey& g) {
          return slots_[slot].group < g;
        });
    for (auto it = lo; it != ordered_.end() && !(group < slots_[*it].group);
         ++it)
      fn(slots_[*it].entry);
  }

  /// Visits every live record, in (group, order, node) order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::uint32_t slot : ordered_) fn(slots_[slot].entry);
  }

  /// Moves every record out (departed owner being drained) and clears.
  std::vector<Entry> extract_all() {
    std::vector<Entry> out;
    out.reserve(live_count_);
    for (const std::uint32_t slot : ordered_)
      out.push_back(std::move(slots_[slot].entry));
    slots_.clear();
    ordered_.clear();
    index_.clear();
    by_node_.clear();
    heap_.clear();
    free_.clear();
    live_count_ = 0;
    return out;
  }

  /// Moves out the records matching `pred` (zone-split migration).
  template <typename Pred>
  std::vector<Entry> extract_if(Pred&& pred) {
    std::vector<std::uint32_t> matched;
    for (const std::uint32_t slot : ordered_)
      if (pred(std::as_const(slots_[slot].entry))) matched.push_back(slot);
    std::vector<Entry> out;
    out.reserve(matched.size());
    for (const std::uint32_t slot_id : matched) {
      out.push_back(std::move(slots_[slot_id].entry));
      erase_slot(slot_id, true);
    }
    return out;
  }

  std::size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  /// Structural heap footprint of the store's own containers (slot table,
  /// ordered list, expiry heap, hash indexes). Per-entry *payload* heap
  /// (e.g. a MapEntry's landmark vector) is the entry type's business and
  /// is accounted by the service's memory_bytes(), not here.
  std::size_t memory_bytes() const {
    const std::size_t map_node =
        2 * sizeof(void*);  // bucket chain estimate per element
    return slots_.capacity() * sizeof(Slot) +
           free_.capacity() * sizeof(std::uint32_t) +
           ordered_.capacity() * sizeof(std::uint32_t) +
           heap_.capacity() * sizeof(HeapItem) +
           index_.bucket_count() * sizeof(void*) +
           index_.size() *
               (sizeof(std::pair<Key, std::uint32_t>) + map_node) +
           by_node_.bucket_count() * sizeof(void*) +
           by_node_.size() * (sizeof(std::pair<overlay::NodeId,
                                               std::uint32_t>) +
                              map_node);
  }

  /// Structural self-check for tests: indexes agree with the slot table.
  bool check_index_invariants() const {
    if (ordered_.size() != live_count_ || index_.size() != live_count_)
      return false;
    for (std::size_t i = 1; i < ordered_.size(); ++i)
      if (slot_less(ordered_[i], ordered_[i - 1])) return false;
    std::size_t by_node_total = 0;
    for (const auto& [node, head] : by_node_) {
      for (std::uint32_t slot = head; slot != kNullSlot;
           slot = slots_[slot].next_same_node) {
        if (++by_node_total > live_count_) return false;  // chain cycle
        if (slots_[slot].dead || traits_.node(slots_[slot].entry) != node)
          return false;
      }
    }
    if (by_node_total != live_count_) return false;
    for (const auto& [key, slot] : index_) {
      if (slots_[slot].dead) return false;
      if (!(traits_.key(slots_[slot].entry) == key)) return false;
    }
    return true;
  }

 private:
  static constexpr std::uint32_t kNullSlot = 0xffffffffu;

  struct Slot {
    Entry entry{};
    GroupKey group{};
    OrderKey order{};
    std::uint32_t generation = 0;
    /// Next slot holding a record of the same node (intrusive per-node
    /// chain; head in by_node_). Valid only while the slot is live.
    std::uint32_t next_same_node = kNullSlot;
    bool dead = true;
  };

  struct HeapItem {
    sim::Time expires_at = 0.0;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };
  /// Min-heap on expiry time (std::*_heap build max-heaps, so "later").
  struct HeapLater {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      return a.expires_at > b.expires_at;
    }
  };

  bool slot_less(std::uint32_t a, std::uint32_t b) const {
    const Slot& sa = slots_[a];
    const Slot& sb = slots_[b];
    if (sa.group < sb.group) return true;
    if (sb.group < sa.group) return false;
    if (sa.order < sb.order) return true;
    if (sb.order < sa.order) return false;
    return traits_.node(sa.entry) < traits_.node(sb.entry);
  }

  std::vector<std::uint32_t>::iterator ordered_position(std::uint32_t slot) {
    const auto it = std::lower_bound(
        ordered_.begin(), ordered_.end(), slot,
        [this](std::uint32_t a, std::uint32_t b) { return slot_less(a, b); });
    TO_ASSERT(it != ordered_.end());
    // Equal sort keys cannot happen across distinct keys (node is part of
    // both), so the lower bound is the slot itself.
    TO_ASSERT(*it == slot);
    return it;
  }

  void insert_ordered(std::uint32_t slot) {
    const auto it = std::lower_bound(
        ordered_.begin(), ordered_.end(), slot,
        [this](std::uint32_t a, std::uint32_t b) { return slot_less(a, b); });
    ordered_.insert(it, slot);
  }

  /// Detaches one slot from its node's intrusive chain. O(records of the
  /// node on this owner) — in practice one or two.
  void unlink_from_node(overlay::NodeId node, std::uint32_t slot_id) {
    const auto it = by_node_.find(node);
    TO_ASSERT(it != by_node_.end());
    if (it->second == slot_id) {
      const std::uint32_t next = slots_[slot_id].next_same_node;
      if (next == kNullSlot)
        by_node_.erase(it);
      else
        it->second = next;
      return;
    }
    std::uint32_t prev = it->second;
    while (slots_[prev].next_same_node != slot_id) {
      prev = slots_[prev].next_same_node;
      TO_ASSERT(prev != kNullSlot);
    }
    slots_[prev].next_same_node = slots_[slot_id].next_same_node;
  }

  void push_expiry(std::uint32_t slot_id) {
    heap_.push_back(HeapItem{traits_.expires_at(slots_[slot_id].entry),
                             slot_id, slots_[slot_id].generation});
    std::push_heap(heap_.begin(), heap_.end(), HeapLater{});
  }

  /// Physically frees a slot. `fix_by_node` is false only when the caller
  /// (erase_node) has already detached the per-node slot list.
  void erase_slot(std::uint32_t slot_id, bool fix_by_node) {
    Slot& slot = slots_[slot_id];
    TO_ASSERT(!slot.dead);
    ordered_.erase(ordered_position(slot_id));
    index_.erase(traits_.key(slot.entry));
    if (fix_by_node) unlink_from_node(traits_.node(slot.entry), slot_id);
    slot.dead = true;
    ++slot.generation;
    slot.entry = Entry{};
    free_.push_back(slot_id);
    --live_count_;
  }

  void rebuild_heap() {
    heap_.clear();
    for (const std::uint32_t slot : ordered_)
      heap_.push_back(HeapItem{traits_.expires_at(slots_[slot].entry), slot,
                               slots_[slot].generation});
    std::make_heap(heap_.begin(), heap_.end(), HeapLater{});
  }

  Traits traits_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;     // dead slot ids, reusable
  std::vector<std::uint32_t> ordered_;  // live slots by (group, order, node)
  std::unordered_map<Key, std::uint32_t, typename Traits::KeyHash> index_;
  /// Head of each node's intrusive slot chain (Slot::next_same_node).
  std::unordered_map<overlay::NodeId, std::uint32_t> by_node_;
  std::vector<HeapItem> heap_;  // lazy: stale items skipped by generation
  std::size_t live_count_ = 0;
};

}  // namespace topo::softstate
