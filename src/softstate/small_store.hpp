// Small-footprint per-owner soft-state store: one sorted vector of
// entries, nothing else.
//
// IndexedStore (indexed_store.hpp) wins when a single owner hosts many
// records: hash-indexed dedup, a contiguous ordered list and a lazy expiry
// heap make every operation sub-linear in the store size. But the scale
// bench's memory breakdown shows the regime the million-node sweep lives
// in is the opposite one — with the paper's condense rate an owner hosts a
// handful of entries (~6-8), and the indexed store's fixed machinery (two
// hash maps, four vectors, slot bookkeeping) costs more than an order of
// magnitude more than the entries it holds. Multiplied by a million
// owners, the *containers* — not the entries — become the footprint.
//
// This store is the memory-diet counterpart for that regime: a single
// std::vector<Entry> kept sorted by the same (group, order, node) key the
// indexed store maintains, with a cached lower bound of the live entries'
// expiry so the idle expiry sweep stays O(1). Every mutating operation is
// O(store) — which at a handful of entries is faster than hashing — and
// the observable behaviour (upsert outcomes, stale-drop, iteration order,
// expiry semantics) is identical to IndexedStore over the same traits:
// tests/softstate_compact_store_test.cpp and softstate_sharded_test.cpp
// pin the equivalence through randomized workloads, entry for entry.
//
// Growth policy: 1.25x instead of the libstdc++ default 2x. The capacity
// overshoot is pure waste here (it is charged per owner, a million times),
// and with single-digit sizes the extra reallocations are noise.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "overlay/node.hpp"
#include "sim/event_queue.hpp"
#include "softstate/indexed_store.hpp"
#include "util/assert.hpp"

namespace topo::softstate {

template <typename Entry, typename Traits>
class SmallSortedStore {
 public:
  using EntryType = Entry;
  using TraitsType = Traits;
  using Key = typename Traits::Key;
  using GroupKey = typename Traits::GroupKey;
  using OrderKey = typename Traits::OrderKey;

  explicit SmallSortedStore(Traits traits = {})
      : traits_(std::move(traits)) {}

  /// Stores `entry`, replacing any record with the same key; records older
  /// than the stored one (by published_at) are dropped. Same contract and
  /// outcomes as IndexedStore::upsert; the returned pointer is stable
  /// until the next non-const call.
  std::pair<UpsertOutcome, const Entry*> upsert(Entry entry) {
    const Key key = traits_.key(entry);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (!(traits_.key(entries_[i]) == key)) continue;
      if (traits_.published_at(entry) <
          traits_.published_at(entries_[i]))
        return {UpsertOutcome::kStaleDropped, &entries_[i]};
      note_expiry(traits_.expires_at(entry));
      const OrderKey new_order = traits_.order(entry);
      if (new_order == traits_.order(entries_[i])) {
        entries_[i] = std::move(entry);
        return {UpsertOutcome::kRefreshed, &entries_[i]};
      }
      // Re-measured vector moved the record within its map: reposition.
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
      const auto it = insert_sorted(std::move(entry));
      return {UpsertOutcome::kRefreshed, &*it};
    }
    note_expiry(traits_.expires_at(entry));
    grow_for_insert();
    const auto it = insert_sorted(std::move(entry));
    return {UpsertOutcome::kInserted, &*it};
  }

  /// Point lookup by dedup key; nullptr when absent. O(store) — these
  /// stores hold a handful of records per owner. The pointer is
  /// invalidated by any mutation of the store.
  const Entry* find(const Key& key) const {
    for (const Entry& e : entries_)
      if (traits_.key(e) == key) return &e;
    return nullptr;
  }

  /// Removes every record of `node` hosted here.
  std::size_t erase_node(overlay::NodeId node) {
    return std::erase_if(entries_, [&](const Entry& e) {
      return traits_.node(e) == node;
    });
  }

  /// Freshness-guarded variant: only records with published_at <= cutoff
  /// go (a record republished after the failure report survives).
  std::size_t erase_node_before(overlay::NodeId node, sim::Time cutoff) {
    return std::erase_if(entries_, [&](const Entry& e) {
      return traits_.node(e) == node && traits_.published_at(e) <= cutoff;
    });
  }

  /// Drops entries with expires_at <= now. A sweep that drops nothing is
  /// O(1): `min_expires_` is a lower bound on every live entry's expiry,
  /// so `now < min_expires_` proves there is nothing to do without
  /// touching the entries. (The bound can be stale-low after a refresh
  /// extended the earliest entry — that costs one wasted scan which then
  /// re-tightens it, never a missed expiry.)
  std::size_t expire_before(sim::Time now) {
    if (entries_.empty() || now < min_expires_) return 0;
    const std::size_t dropped = std::erase_if(entries_, [&](const Entry& e) {
      return traits_.expires_at(e) <= now;
    });
    min_expires_ = std::numeric_limits<sim::Time>::infinity();
    for (const Entry& e : entries_) note_expiry(traits_.expires_at(e));
    return dropped;
  }

  /// Visits the records of one map in landmark order — a contiguous range
  /// of the sorted entry list.
  template <typename Fn>
  void for_each_in_group(const GroupKey& group, Fn&& fn) const {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), group,
        [this](const Entry& e, const GroupKey& g) {
          return traits_.group(e) < g;
        });
    for (; it != entries_.end() && !(group < traits_.group(*it)); ++it)
      fn(*it);
  }

  /// Visits every live record, in (group, order, node) order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : entries_) fn(e);
  }

  /// Moves every record out (departed owner being drained) and clears.
  std::vector<Entry> extract_all() {
    std::vector<Entry> out = std::move(entries_);
    entries_ = {};
    min_expires_ = std::numeric_limits<sim::Time>::infinity();
    return out;
  }

  /// Moves out the records matching `pred` (zone-split migration).
  template <typename Pred>
  std::vector<Entry> extract_if(Pred&& pred) {
    std::vector<Entry> out;
    std::size_t kept = 0;
    for (Entry& e : entries_) {
      if (pred(std::as_const(e)))
        out.push_back(std::move(e));
      else
        entries_[kept++] = std::move(e);
    }
    entries_.resize(kept);
    return out;
  }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Structural heap footprint: the entry buffer, full stop. This is the
  /// number the scale bench's bytes-per-node breakdown sums per owner.
  std::size_t memory_bytes() const {
    return entries_.capacity() * sizeof(Entry);
  }

  /// Structural self-check for tests: strictly sorted (distinct keys never
  /// tie on (group, order, node)) and the expiry bound is a true lower
  /// bound.
  bool check_index_invariants() const {
    for (std::size_t i = 1; i < entries_.size(); ++i)
      if (!entry_less(entries_[i - 1], entries_[i])) return false;
    for (const Entry& e : entries_)
      if (traits_.expires_at(e) < min_expires_) return false;
    return true;
  }

 private:
  bool entry_less(const Entry& a, const Entry& b) const {
    const GroupKey ga = traits_.group(a);
    const GroupKey gb = traits_.group(b);
    if (ga < gb) return true;
    if (gb < ga) return false;
    const OrderKey oa = traits_.order(a);
    const OrderKey ob = traits_.order(b);
    if (oa < ob) return true;
    if (ob < oa) return false;
    return traits_.node(a) < traits_.node(b);
  }

  void note_expiry(sim::Time expires_at) {
    if (expires_at < min_expires_) min_expires_ = expires_at;
  }

  /// 1.25x growth: reallocation is charged per owner across the whole
  /// overlay, so capacity overshoot is kept small instead of fast.
  void grow_for_insert() {
    if (entries_.size() < entries_.capacity()) return;
    entries_.reserve(entries_.capacity() + entries_.capacity() / 4 + 1);
  }

  typename std::vector<Entry>::iterator insert_sorted(Entry&& entry) {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), entry,
        [this](const Entry& a, const Entry& b) { return entry_less(a, b); });
    return entries_.insert(it, std::move(entry));
  }

  Traits traits_;
  std::vector<Entry> entries_;  // sorted by (group, order, node)
  /// Lower bound on live entries' expiry; +inf when empty.
  sim::Time min_expires_ = std::numeric_limits<sim::Time>::infinity();
};

}  // namespace topo::softstate
