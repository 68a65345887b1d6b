// Property tests: IndexedStore must be observably identical to
// LinearStoreRef (the seed-semantics linear store) under randomized op
// sequences, for all three backend trait sets (eCAN, Chord, Pastry) —
// same upsert outcomes, same erase/expiry counts, same group contents.
// The indexed structural invariants (hash index, per-node chains, ordered
// slot list, expiry heap) are re-checked throughout. The map service
// built on top is pinned by tests/golden_digest_test.cpp.
#include "softstate/indexed_store.hpp"

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "net/latency.hpp"
#include "net/transit_stub.hpp"
#include "softstate/chord_maps.hpp"
#include "softstate/linear_store_ref.hpp"
#include "softstate/map_service.hpp"
#include "softstate/pastry_maps.hpp"
#include "util/rng.hpp"

namespace topo::softstate {
namespace {

// ---------------------------------------------------------------------
// Store twins under randomized op sequences
// ---------------------------------------------------------------------

/// Canonical sort/compare key of an entry: (group, order, node,
/// published_at, expires_at) — unique per live record (node+group is the
/// dedup identity), so sorting both stores' contents by it makes them
/// directly comparable even though LinearStoreRef keeps insertion order.
template <typename Traits, typename Entry>
auto canonical_key(const Traits& traits, const Entry& e) {
  return std::make_tuple(traits.group(e), traits.order(e), traits.node(e),
                         traits.published_at(e), traits.expires_at(e));
}

template <typename Entry, typename Traits>
void expect_same_contents(const Traits& traits,
                          const IndexedStore<Entry, Traits>& indexed,
                          const LinearStoreRef<Entry, Traits>& linear) {
  ASSERT_EQ(indexed.size(), linear.size());
  ASSERT_EQ(indexed.empty(), linear.empty());
  std::vector<Entry> a;
  std::vector<Entry> b;
  indexed.for_each([&](const Entry& e) { a.push_back(e); });
  linear.for_each([&](const Entry& e) { b.push_back(e); });
  const auto by_key = [&](const Entry& x, const Entry& y) {
    return canonical_key(traits, x) < canonical_key(traits, y);
  };
  // The indexed store must already emit in (group, order, node) order —
  // that contiguity is what the lookup path's range collection relies on.
  ASSERT_TRUE(std::is_sorted(a.begin(), a.end(), by_key));
  std::sort(b.begin(), b.end(), by_key);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(canonical_key(traits, a[i]), canonical_key(traits, b[i]))
        << "entry " << i;
}

template <typename Entry, typename Traits>
void expect_same_group(const Traits& traits, const typename Traits::GroupKey& g,
                       const IndexedStore<Entry, Traits>& indexed,
                       const LinearStoreRef<Entry, Traits>& linear) {
  std::vector<Entry> a;
  std::vector<Entry> b;
  indexed.for_each_in_group(g, [&](const Entry& e) { a.push_back(e); });
  linear.for_each_in_group(g, [&](const Entry& e) { b.push_back(e); });
  const auto by_key = [&](const Entry& x, const Entry& y) {
    return canonical_key(traits, x) < canonical_key(traits, y);
  };
  ASSERT_TRUE(std::is_sorted(a.begin(), a.end(), by_key));
  std::sort(b.begin(), b.end(), by_key);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(canonical_key(traits, a[i]), canonical_key(traits, b[i]));
}

/// Drives both stores through an identical randomized sequence of
/// upsert / erase_node / expire_before / extract_if / extract_all and
/// checks observable equivalence plus the indexed structural invariants.
/// `make_entry(node, group_pick, now, rng)` builds one backend entry.
template <typename Entry, typename Traits, typename MakeEntry>
void run_twin_sequence(Traits traits, MakeEntry make_entry,
                       std::uint64_t seed, int steps) {
  IndexedStore<Entry, Traits> indexed(traits);
  LinearStoreRef<Entry, Traits> linear(traits);
  util::Rng rng(seed);
  sim::Time now = 0.0;
  constexpr overlay::NodeId kNodePool = 8;
  constexpr std::uint64_t kGroupPool = 5;

  for (int step = 0; step < steps; ++step) {
    now += rng.next_double(0.0, 4.0);
    const double roll = rng.next_double();
    if (roll < 0.55) {
      const auto node = static_cast<overlay::NodeId>(
          rng.next_u64(kNodePool));
      const Entry entry = make_entry(node, rng.next_u64(kGroupPool), now, rng);
      const auto [outcome_a, stored_a] = indexed.upsert(entry);
      const auto [outcome_b, stored_b] = linear.upsert(entry);
      ASSERT_EQ(outcome_a, outcome_b) << "step " << step;
      ASSERT_EQ(canonical_key(traits, *stored_a),
                canonical_key(traits, *stored_b));
    } else if (roll < 0.70) {
      ASSERT_EQ(indexed.expire_before(now), linear.expire_before(now))
          << "step " << step;
    } else if (roll < 0.80) {
      const auto node = static_cast<overlay::NodeId>(
          rng.next_u64(kNodePool));
      ASSERT_EQ(indexed.erase_node(node), linear.erase_node(node))
          << "step " << step;
    } else if (roll < 0.85) {
      // Extract one node's records (the rehome path uses a predicate).
      const auto victim = static_cast<overlay::NodeId>(
          rng.next_u64(kNodePool));
      const auto pred = [&](const Entry& e) {
        return traits.node(e) == victim;
      };
      auto a = indexed.extract_if(pred);
      auto b = linear.extract_if(pred);
      const auto by_key = [&](const Entry& x, const Entry& y) {
        return canonical_key(traits, x) < canonical_key(traits, y);
      };
      std::sort(a.begin(), a.end(), by_key);
      std::sort(b.begin(), b.end(), by_key);
      ASSERT_EQ(a.size(), b.size()) << "step " << step;
      for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(canonical_key(traits, a[i]), canonical_key(traits, b[i]));
    } else if (roll < 0.88) {
      auto a = indexed.extract_all();
      auto b = linear.extract_all();
      ASSERT_EQ(a.size(), b.size()) << "step " << step;
      ASSERT_TRUE(indexed.empty());
      ASSERT_TRUE(linear.empty());
    } else {
      expect_same_contents(traits, indexed, linear);
      for (std::uint64_t g = 0; g < kGroupPool; ++g) {
        const Entry probe = make_entry(0, g, now, rng);
        expect_same_group(traits, traits.group(probe), indexed, linear);
      }
    }
    ASSERT_TRUE(indexed.check_index_invariants()) << "step " << step;
  }
  expect_same_contents(traits, indexed, linear);
}

StoredEntry make_map_entry(overlay::NodeId node, std::uint64_t group_pick,
                           sim::Time now, util::Rng& rng) {
  StoredEntry s;
  s.cell_key = 100 + group_pick;
  s.level = static_cast<int>(group_pick % 3) + 1;
  s.entry.node = node;
  s.entry.host = static_cast<net::HostId>(node);
  s.entry.landmark_number = util::BigUint(rng.next_u64(1u << 16));
  // Sometimes older than an already-stored record (rehome replaying a
  // pre-republish copy) so the stale-drop path is exercised.
  s.entry.published_at = now - rng.next_double(0.0, 6.0);
  s.entry.expires_at = s.entry.published_at + rng.next_double(5.0, 40.0);
  return s;
}

ChordMapEntry make_chord_entry(overlay::NodeId node, std::uint64_t,
                               sim::Time now, util::Rng& rng) {
  ChordMapEntry e;
  e.node = node;
  e.host = static_cast<net::HostId>(node);
  // The ring key is the *order* key, not part of the dedup identity: a
  // republish with a re-measured vector moves the record within the map,
  // exercising the indexed store's reposition path.
  e.key = static_cast<overlay::ChordId>(rng.next_u64(1u << 20));
  e.published_at = now - rng.next_double(0.0, 6.0);
  e.expires_at = e.published_at + rng.next_double(5.0, 40.0);
  return e;
}

PastryMapEntry make_pastry_entry(overlay::NodeId node,
                                 std::uint64_t group_pick, sim::Time now,
                                 util::Rng& rng) {
  PastryMapEntry e;
  e.node = node;
  e.host = static_cast<net::HostId>(node);
  e.prefix_digits = static_cast<int>(group_pick % 3) + 1;
  e.region_lo = static_cast<overlay::PastryId>(1000 * (group_pick + 1));
  e.position = e.region_lo + static_cast<overlay::PastryId>(
      rng.next_u64(1000));
  e.published_at = now - rng.next_double(0.0, 6.0);
  e.expires_at = e.published_at + rng.next_double(5.0, 40.0);
  return e;
}

class StoreTwinSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreTwinSeeds, EcanTraitsMatchLinearReference) {
  run_twin_sequence<StoredEntry>(MapStoreTraits{16}, make_map_entry,
                                 GetParam(), 1200);
}

TEST_P(StoreTwinSeeds, ChordTraitsMatchLinearReference) {
  run_twin_sequence<ChordMapEntry>(ChordMapStoreTraits{}, make_chord_entry,
                                   GetParam(), 1200);
}

TEST_P(StoreTwinSeeds, PastryTraitsMatchLinearReference) {
  run_twin_sequence<PastryMapEntry>(PastryMapStoreTraits{},
                                    make_pastry_entry, GetParam(), 1200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreTwinSeeds,
                         ::testing::Values(11ull, 42ull, 977ull));

TEST(IndexedStore, MassExpiryMatchesLinearSweep) {
  // A single sweep dropping hundreds of entries must agree with the
  // linear rescan and leave the indexes consistent (this is the batched
  // unlink + one-pass compaction path).
  const MapStoreTraits traits{16};
  IndexedStore<StoredEntry, MapStoreTraits> indexed(traits);
  LinearStoreRef<StoredEntry, MapStoreTraits> linear(traits);
  util::Rng rng(7);
  for (int i = 0; i < 600; ++i) {
    const auto e = make_map_entry(
        static_cast<overlay::NodeId>(rng.next_u64(40)), rng.next_u64(6),
        rng.next_double(0.0, 10.0), rng);
    ASSERT_EQ(indexed.upsert(e).first, linear.upsert(e).first);
  }
  for (const sim::Time t : {12.0, 25.0, 47.0, 60.0}) {
    ASSERT_EQ(indexed.expire_before(t), linear.expire_before(t)) << t;
    ASSERT_TRUE(indexed.check_index_invariants());
    expect_same_contents(traits, indexed, linear);
  }
  EXPECT_TRUE(indexed.empty());
}

TEST(IndexedStore, RefreshChurnKeepsHeapBounded) {
  // Refreshing the same records over and over must not grow the expiry
  // heap without bound (stale items are compacted once they dominate).
  const MapStoreTraits traits{16};
  IndexedStore<StoredEntry, MapStoreTraits> store(traits);
  util::Rng rng(13);
  for (int round = 0; round < 400; ++round) {
    for (overlay::NodeId n = 0; n < 4; ++n) {
      StoredEntry s = make_map_entry(n, 0, 1000.0 + round, rng);
      s.entry.published_at = 1000.0 + round;  // strictly fresher
      s.entry.expires_at = s.entry.published_at + 30.0;
      store.upsert(std::move(s));
    }
    store.expire_before(1000.0 + round);
    ASSERT_TRUE(store.check_index_invariants());
  }
  EXPECT_EQ(store.size(), 4u);
}

}  // namespace
}  // namespace topo::softstate
