// Seed-semantics reference implementation of the per-owner soft-state
// store: a bare insertion-ordered vector with linear scans, exactly as the
// map backends stored entries before the indexed store existed.
//
// Kept as a test oracle: tests/softstate_indexed_store_test.cpp and
// tests/softstate_compact_store_test.cpp drive it and the production
// stores through identical randomized op sequences and require identical
// observable behaviour (outcomes, sizes, group contents, expiry and
// lazy-delete counts).
//
// Interface and semantics match IndexedStore (indexed_store.hpp); only the
// costs differ — upsert and erase_node are O(store), expire_before sweeps
// every entry, and for_each_in_group filters the whole store.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "overlay/node.hpp"
#include "sim/event_queue.hpp"
#include "softstate/indexed_store.hpp"  // UpsertOutcome

namespace topo::softstate {

template <typename Entry, typename Traits>
class LinearStoreRef {
 public:
  using EntryType = Entry;
  using TraitsType = Traits;
  using Key = typename Traits::Key;
  using GroupKey = typename Traits::GroupKey;

  explicit LinearStoreRef(Traits traits = {}) : traits_(std::move(traits)) {}

  std::pair<UpsertOutcome, const Entry*> upsert(Entry entry) {
    const Key key = traits_.key(entry);
    for (Entry& existing : entries_) {
      if (!(traits_.key(existing) == key)) continue;
      if (traits_.published_at(entry) < traits_.published_at(existing))
        return {UpsertOutcome::kStaleDropped, &existing};
      existing = std::move(entry);
      return {UpsertOutcome::kRefreshed, &existing};
    }
    entries_.push_back(std::move(entry));
    return {UpsertOutcome::kInserted, &entries_.back()};
  }

  /// Point lookup by dedup key; nullptr when absent (linear, like every
  /// other operation on the reference store).
  const Entry* find(const Key& key) const {
    for (const Entry& e : entries_)
      if (traits_.key(e) == key) return &e;
    return nullptr;
  }

  std::size_t erase_node(overlay::NodeId node) {
    const std::size_t before = entries_.size();
    std::erase_if(entries_, [&](const Entry& e) {
      return traits_.node(e) == node;
    });
    return before - entries_.size();
  }

  /// Freshness-guarded erase_node twin (see indexed_store.hpp).
  std::size_t erase_node_before(overlay::NodeId node, sim::Time cutoff) {
    const std::size_t before = entries_.size();
    std::erase_if(entries_, [&](const Entry& e) {
      return traits_.node(e) == node && traits_.published_at(e) <= cutoff;
    });
    return before - entries_.size();
  }

  std::size_t expire_before(sim::Time now) {
    const std::size_t before = entries_.size();
    std::erase_if(entries_, [&](const Entry& e) {
      return traits_.expires_at(e) <= now;
    });
    return before - entries_.size();
  }

  template <typename Fn>
  void for_each_in_group(const GroupKey& group, Fn&& fn) const {
    for (const Entry& entry : entries_)
      if (traits_.group(entry) == group) fn(entry);
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& entry : entries_) fn(entry);
  }

  std::vector<Entry> extract_all() {
    std::vector<Entry> out = std::move(entries_);
    entries_.clear();
    return out;
  }

  template <typename Pred>
  std::vector<Entry> extract_if(Pred&& pred) {
    std::vector<Entry> out;
    std::erase_if(entries_, [&](Entry& e) {
      if (!pred(std::as_const(e))) return false;
      out.push_back(std::move(e));
      return true;
    });
    return out;
  }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Structural heap footprint (see IndexedStore::memory_bytes).
  std::size_t memory_bytes() const {
    return entries_.capacity() * sizeof(Entry);
  }

 private:
  Traits traits_;
  std::vector<Entry> entries_;  // insertion order, as in the seed
};

}  // namespace topo::softstate
