// Unified fault-injection plane.
//
// The paper's central claim is that global soft-state maps stay useful
// *because* they are soft state: TTL decay plus periodic republish is
// supposed to ride out message loss, crashed hosts and stale entries. To
// demonstrate that, failure has to be a first-class, measurable input to
// the system rather than a per-component afterthought — this component is
// the single place every message-bearing path (map publish/refresh, map
// lookup fetch, pub/sub notify, lazy repair) consults before a simulated
// message is considered delivered.
//
// Fault classes modelled:
//   * per-message loss — every message is dropped with a configurable
//     probability (plus an extra publish-only probability);
//   * per-stub extra delay — a seeded fraction of stub domains is marked
//     "slow"; messages touching a slow stub (and optionally all messages)
//     carry extra one-way delay, surfaced to the retry/backoff machinery
//     and accounted in the stats;
//   * host crash-stops — a crashed host neither sends nor receives until
//     restarted, while the overlay structures keep pointing at it (the
//     silent-failure window before any membership protocol notices);
//   * stub-level partitions — a partitioned stub domain is cut off from
//     every host outside it (its intra-stub traffic still flows),
//     exploiting the transit-stub structure the hierarchical RTT engine
//     already surfaces: cutting the access links isolates the whole stub.
//
// Determinism: all decisions are drawn from one seeded RNG in call order.
// A trial owns its plane and runs on one thread (the bench harness
// parallelises across trials, never within one), so the same seed yields
// the same verdict sequence — and therefore the same event trace — at any
// THREADS setting. An inactive plane (no loss, no delay, no crashes, no
// partitions) makes no RNG draws and no stats updates at all, so a system
// built with the plane installed but idle is bit-identical to one without
// it; callers gate their per-message bookkeeping on active().
#pragma once

#include <array>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "net/graph.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace topo::sim {

/// Message classes, for per-class accounting (and the publish-only legacy
/// loss knob). kData covers application-level DHT put/get traffic.
enum class MessageKind : std::uint8_t {
  kPublish = 0,  // map publish / periodic republish
  kLookup,       // map candidate fetch (request/response pair)
  kNotify,       // pub/sub notification, owner -> subscriber
  kRepair,       // lazy-repair "dead" report, requester -> owner
  kData,         // application object traffic
  kAntiEntropy,  // replica reconciliation summary/delta, owner <-> owner
};
constexpr std::size_t kMessageKindCount = 6;

const char* message_kind_name(MessageKind kind);

struct FaultConfig {
  /// Per-message drop probability, all message kinds.
  double message_loss = 0.0;
  /// Extra drop probability applied to kPublish only, its own dial so
  /// loss-rate sweeps can stress the publish path in isolation.
  double publish_loss = 0.0;
  /// Flat extra one-way delay added to every delivered message.
  double extra_delay_ms = 0.0;
  /// Extra one-way delay for messages with an endpoint in a "slow" stub.
  double stub_delay_ms = 0.0;
  /// Fraction of stub domains marked slow (seeded draw at bind_topology).
  double slow_stub_fraction = 0.0;
  /// RNG seed for every fault decision; latched at construction.
  std::uint64_t seed = 0;

  bool any_loss() const { return message_loss > 0.0 || publish_loss > 0.0; }
  bool any_delay() const {
    return extra_delay_ms > 0.0 ||
           (stub_delay_ms > 0.0 && slow_stub_fraction > 0.0);
  }
};

enum class DeliveryOutcome : std::uint8_t {
  kDelivered,
  kLost,              // random loss: transient, a retry can win
  kCrashBlocked,      // an endpoint host is crash-stopped
  kPartitionBlocked,  // endpoints on opposite sides of a stub partition
};

struct Verdict {
  DeliveryOutcome outcome = DeliveryOutcome::kDelivered;
  /// Extra one-way delay carried by a delivered message.
  double delay_ms = 0.0;

  bool delivered() const { return outcome == DeliveryOutcome::kDelivered; }
  /// Loss is transient — retrying the same destination can succeed.
  /// Crash/partition blocks persist until healed; callers should fail
  /// over (next replica, degraded mode) instead of burning retries.
  bool retryable() const { return outcome == DeliveryOutcome::kLost; }
};

struct FaultPlaneStats {
  std::uint64_t messages = 0;  // messages gated while the plane was active
  std::uint64_t lost = 0;
  std::uint64_t crash_blocked = 0;
  std::uint64_t partition_blocked = 0;
  std::uint64_t delayed = 0;
  double added_delay_ms = 0.0;
  /// Non-delivered messages by kind (loss + crash + partition).
  std::array<std::uint64_t, kMessageKindCount> dropped_by_kind{};

  std::uint64_t dropped() const {
    return lost + crash_blocked + partition_blocked;
  }
};

class FaultPlane {
 public:
  /// Default-constructed plane is inactive: every message is delivered,
  /// nothing is drawn or counted.
  FaultPlane() : rng_(0) {}
  explicit FaultPlane(const FaultConfig& config)
      : config_(config), rng_(config.seed) {}

  /// Binds the transit-stub structure: required before stub partitions or
  /// slow-stub delay are used; harmless otherwise. Marks the slow stubs
  /// (seeded, independent of the per-message draw stream).
  void bind_topology(const net::Topology* topology);

  const FaultConfig& config() const { return config_; }
  /// Loss/delay knobs are runtime-tunable (a sweep raises loss mid-run);
  /// `seed` is latched at construction and changing it here has no
  /// effect. slow_stub_fraction is latched at bind_topology.
  FaultConfig& mutable_config() { return config_; }

  /// True when any fault is configured or injected. Hot paths gate their
  /// per-message call on this so an idle plane costs one branch.
  bool active() const {
    return config_.any_loss() || config_.any_delay() ||
           !crashed_.empty() || !partitioned_stubs_.empty();
  }

  /// The single delivery gate. Draws (at most one) loss decision from the
  /// seeded RNG; crash and partition checks are pure lookups.
  Verdict message(MessageKind kind, net::HostId from, net::HostId to);

  /// Convenience wrapper when the caller only needs delivered-or-not.
  bool deliver(MessageKind kind, net::HostId from, net::HostId to) {
    return message(kind, from, to).delivered();
  }

  /// Delivery gate for a message forwarded along a routed overlay path
  /// (a sequence of node hops; `host_of` maps a hop to its host). Crash
  /// and partition checks apply to every forwarding hop — a crashed
  /// intermediate node silently swallows the message, and a hop into or
  /// out of a partitioned stub dies at the cut — while the loss draw
  /// stays per-message (one draw), matching message(). A single-element
  /// path is a self-delivery: it still traverses the local stack, so the
  /// loss draw applies.
  template <typename Path, typename HostOf>
  Verdict message_via(MessageKind kind, const Path& path, HostOf&& host_of) {
    TO_EXPECTS(!path.empty());
    ++stats_.messages;
    net::HostId prev = host_of(path.front());
    if (host_crashed(prev)) return block_(DeliveryOutcome::kCrashBlocked, kind);
    const bool check_hops = !crashed_.empty() || !partitioned_stubs_.empty();
    if (check_hops) {
      for (std::size_t i = 1; i < path.size(); ++i) {
        const net::HostId host = host_of(path[i]);
        if (host_crashed(host))
          return block_(DeliveryOutcome::kCrashBlocked, kind);
        if (partitioned(prev, host))
          return block_(DeliveryOutcome::kPartitionBlocked, kind);
        prev = host;
      }
    }
    return finish_(kind, host_of(path.front()), host_of(path.back()));
  }

  // -- Host crash-stops --------------------------------------------------

  void crash_host(net::HostId host) { crashed_.insert(host); }
  void restart_host(net::HostId host) { crashed_.erase(host); }
  void restart_all_hosts() { crashed_.clear(); }
  bool host_crashed(net::HostId host) const {
    return !crashed_.empty() && crashed_.count(host) != 0;
  }
  std::size_t crashed_host_count() const { return crashed_.size(); }

  // -- Stub-level partitions ---------------------------------------------

  void partition_stub(std::int32_t stub);
  void heal_stub(std::int32_t stub) { partitioned_stubs_.erase(stub); }
  void heal_all_partitions() { partitioned_stubs_.clear(); }
  bool stub_partitioned(std::int32_t stub) const {
    return stub >= 0 && partitioned_stubs_.count(stub) != 0;
  }
  std::size_t partitioned_stub_count() const {
    return partitioned_stubs_.size();
  }

  /// Partitions round(fraction * stub_count) stubs, chosen by a seeded
  /// shuffle; returns the chosen stub domains. Requires bind_topology.
  std::vector<std::int32_t> partition_stub_fraction(double fraction);

  /// True when `a` and `b` are on opposite sides of a partition (either
  /// endpoint's stub is partitioned and they are not in the same stub).
  bool partitioned(net::HostId a, net::HostId b) const {
    if (partitioned_stubs_.empty()) return false;
    const std::int32_t sa = stub_of(a);
    const std::int32_t sb = stub_of(b);
    if (sa == sb) return false;  // intra-stub traffic always flows
    return stub_partitioned(sa) || stub_partitioned(sb);
  }

  /// Crash- and partition-reachability (no loss draw, no accounting):
  /// lets callers probe "would a message get through right now".
  bool reachable(net::HostId a, net::HostId b) const {
    return !host_crashed(a) && !host_crashed(b) && !partitioned(a, b);
  }

  // -- Topology introspection --------------------------------------------

  std::int32_t stub_of(net::HostId host) const {
    if (topology_ == nullptr) return -1;
    TO_EXPECTS(host < topology_->host_count());
    return topology_->host(host).stub_domain;
  }
  std::size_t stub_count() const { return stub_count_; }
  bool stub_slow(std::int32_t stub) const {
    return stub >= 0 && static_cast<std::size_t>(stub) < slow_stub_.size() &&
           slow_stub_[static_cast<std::size_t>(stub)];
  }

  const FaultPlaneStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  Verdict block_(DeliveryOutcome outcome, MessageKind kind);
  /// Loss draw + delay computation for a message that passed the
  /// crash/partition checks.
  Verdict finish_(MessageKind kind, net::HostId from, net::HostId to);

  FaultConfig config_;
  const net::Topology* topology_ = nullptr;
  std::size_t stub_count_ = 0;
  std::vector<bool> slow_stub_;
  std::unordered_set<net::HostId> crashed_;
  std::unordered_set<std::int32_t> partitioned_stubs_;
  util::Rng rng_;
  FaultPlaneStats stats_;
};

}  // namespace topo::sim
