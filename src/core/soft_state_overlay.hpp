// SoftStateOverlay — the public facade tying the whole system together:
// the paper's topology-aware overlay with global soft-state.
//
// A node joining the system:
//   1. measures its RTT to the landmark set (landmark vector),
//   2. joins the eCAN at a uniformly random point (no geographic layout —
//      the paper's key departure from Topologically-Aware CAN),
//   3. publishes its proximity record into the map of every high-order
//      zone it belongs to, keyed by its landmark number,
//   4. selects its expressway representatives by consulting those maps and
//      RTT-probing the top candidates (proximity-neighbor selection),
//   5. subscribes to the consulted maps so it is notified when a closer
//      candidate appears, its representative departs, or the
//      representative's load crosses a threshold (Section 6).
//
// Maintenance is soft-state: records expire unless republished; departed
// nodes are scrubbed lazily when handed out and found unreachable; routing
// repairs broken expressway entries on the spot via the same maps.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/selectors.hpp"
#include "net/rtt_oracle.hpp"
#include "net/graph.hpp"
#include "net/traffic_plane.hpp"
#include "overlay/ecan.hpp"
#include "proximity/landmarks.hpp"
#include "pubsub/pubsub.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_plane.hpp"
#include "softstate/anti_entropy.hpp"
#include "softstate/map_service.hpp"
#include "util/retry_policy.hpp"
#include "util/rng.hpp"

namespace topo::core {

struct SystemConfig {
  std::size_t dims = 2;
  int landmark_count = 15;
  proximity::LandmarkConfig landmark;
  softstate::MapConfig map;
  std::size_t rtt_budget = 10;

  /// Soft-state refresh: every node republishes its record at this period;
  /// must be < map.ttl_ms or records decay between refreshes.
  sim::Time republish_interval_ms = 30'000.0;

  /// When false, join() does not start the node's republish chain — an
  /// external driver (sim::LifecycleEngine via core::OverlayLifecycle)
  /// owns the refresh timers instead, with per-period jitter.
  bool auto_republish = true;

  bool subscribe_on_join = true;
  double closer_margin = 0.95;

  /// > 0 enables the Section 6 load-aware selector with this weight.
  double load_weight = 0.0;
  /// Load threshold for QoS subscriptions (fraction of capacity).
  double load_threshold = std::numeric_limits<double>::infinity();

  int max_level = 14;
  std::uint64_t seed = 42;

  /// Unified fault plane (message loss, crash-stops, stub partitions,
  /// extra delay). All-zero by default: the plane stays inactive and every
  /// code path is bit-identical to the fault-free system. `fault.seed` of 0
  /// derives from `seed` so sweeps stay deterministic per trial.
  sim::FaultConfig fault;

  /// Traffic plane (link capacities, queuing delay, congestion drops).
  /// Disabled by default: the plane is never consulted and every code
  /// path — including every RTT the oracle reports — is bit-identical to
  /// the load-free system. `traffic.seed` of 0 derives from `seed`.
  net::TrafficConfig traffic;

  /// Bounded retry with exponential backoff for lost publish/lookup
  /// messages, driven by the facade's event queue. Disabled by default
  /// (max_attempts = 1).
  util::RetryPolicy retry;

  /// Latency backend for the oracle (see net/rtt_engine.hpp). Defaults to
  /// the RTT_ENGINE env var; kAuto picks the hierarchical engine whenever
  /// the topology carries transit-stub metadata. Results are bit-identical
  /// either way — this only trades precompute for per-query cost.
  net::RttEngineKind rtt_engine = net::rtt_engine_kind_from_env();
};

struct SystemStats {
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t crashes = 0;
  std::uint64_t reselections = 0;  // pub/sub-driven entry refreshes
  std::uint64_t republishes = 0;
};

class SoftStateOverlay {
 public:
  SoftStateOverlay(const net::Topology& topology, SystemConfig config);

  SoftStateOverlay(const SoftStateOverlay&) = delete;
  SoftStateOverlay& operator=(const SoftStateOverlay&) = delete;

  // -- Membership --------------------------------------------------------

  /// Full join protocol (steps 1-5 above). Returns the overlay node id.
  overlay::NodeId join(net::HostId host);

  /// Graceful departure: proactive map update, watcher notification, state
  /// handoff, zone merge.
  void leave(overlay::NodeId id);

  /// Ungraceful departure: the node vanishes. Its hosted map pieces are
  /// lost (they decay back via republish), records pointing at it are
  /// scrubbed lazily, broken expressway entries repair on first use.
  void crash(overlay::NodeId id);

  // -- Use ---------------------------------------------------------------

  /// DHT lookup with reactive repair of broken expressway entries.
  overlay::RouteResult lookup(overlay::NodeId from, const geom::Point& key);

  // -- Application storage: the "storage space that maps keys to values"
  //    the DHT exists for. Objects live at the key's owner and follow zone
  //    ownership through joins and graceful leaves; a crash loses the
  //    crashed node's objects (no replication — the paper's systems layer
  //    its own replication on top).

  /// Stores `value` under `key` at the key's owner; returns the routed
  /// path (path.back() is the storing node).
  overlay::RouteResult put(overlay::NodeId from, const geom::Point& key,
                           std::string value);

  /// Fetches the value under `key`, if present. `route` (optional)
  /// receives the lookup path.
  std::optional<std::string> get(overlay::NodeId from,
                                 const geom::Point& key,
                                 overlay::RouteResult* route = nullptr);

  /// Objects currently stored on a node / in total.
  std::size_t object_count(overlay::NodeId node) const;
  std::size_t total_objects() const;

  /// Advances the virtual clock: republish timers and TTL expiry run.
  void run_for(sim::Time ms);

  /// Section 6: install a per-node load probe; the value is published with
  /// each republish and drives load-threshold subscriptions.
  using LoadProbe = std::function<double(overlay::NodeId)>;
  void set_load_probe(LoadProbe probe) { load_probe_ = std::move(probe); }
  void set_capacity(overlay::NodeId id, double capacity);

  /// Force an immediate republish (tests / examples).
  void republish_now(overlay::NodeId id);

  /// The load published with `id`'s record: the installed probe if any,
  /// else the traffic plane's utilization of the node's host (max over
  /// its attached links) while the plane is active, else 0. Used by join
  /// and republish alike, so maps carry real load from the first publish.
  double node_load(overlay::NodeId id) const;

  // -- Component access ---------------------------------------------------

  overlay::EcanNetwork& ecan() { return ecan_; }
  const overlay::EcanNetwork& ecan() const { return ecan_; }
  softstate::MapService& maps() { return *maps_; }
  pubsub::PubSubService& pubsub() { return *pubsub_; }
  net::RttOracle& oracle() { return oracle_; }
  const proximity::LandmarkSet& landmarks() const { return landmarks_; }
  sim::EventQueue& events() { return events_; }
  /// The shared fault plane: crash/restart hosts and partition stubs here;
  /// every map, pub/sub, and data message consults it.
  sim::FaultPlane& faults() { return *faults_; }
  const sim::FaultPlane& faults() const { return *faults_; }
  /// The shared traffic plane: offer background flows here; while active
  /// it queues and drops every map, pub/sub, and data message, and its
  /// per-host utilization is the default published load.
  net::TrafficPlane& traffic() { return *traffic_; }
  const net::TrafficPlane& traffic() const { return *traffic_; }
  SoftStateSelector& selector() { return *selector_; }
  /// The replica anti-entropy engine; nullptr unless
  /// config.map.anti_entropy.enabled (nothing is constructed — let alone
  /// scheduled — when the feature is off).
  softstate::AntiEntropyEngine<softstate::MapService>* anti_entropy() {
    return anti_entropy_.get();
  }
  const VectorStore& vectors() const { return vectors_; }
  const SystemConfig& config() const { return config_; }
  const SystemStats& stats() const { return stats_; }

 private:
  void subscribe_entries(overlay::NodeId id);
  void unsubscribe_all(overlay::NodeId id);
  void on_notification(overlay::NodeId subscriber,
                       const pubsub::Notification& notification);
  void schedule_republish(overlay::NodeId id);

  SystemConfig config_;
  util::Rng rng_;
  net::RttOracle oracle_;
  proximity::LandmarkSet landmarks_;
  overlay::EcanNetwork ecan_;
  std::unique_ptr<sim::FaultPlane> faults_;
  std::unique_ptr<net::TrafficPlane> traffic_;
  std::unique_ptr<softstate::MapService> maps_;
  std::unique_ptr<pubsub::PubSubService> pubsub_;
  sim::EventQueue events_;
  /// Constructed (and started on events_) only when
  /// config_.map.anti_entropy.enabled; declared after maps_ and events_
  /// so it is destroyed before either.
  std::unique_ptr<softstate::AntiEntropyEngine<softstate::MapService>>
      anti_entropy_;
  VectorStore vectors_;
  std::unordered_map<overlay::NodeId, double> capacities_;
  std::unique_ptr<SoftStateSelector> selector_;
  LoadProbe load_probe_;

  struct SubRecord {
    pubsub::SubscriptionId id = 0;
    int level = 0;
    std::size_t dim = 0;
    int dir = 0;
  };
  std::unordered_map<overlay::NodeId, std::vector<SubRecord>> subs_;

  struct StoredObject {
    geom::Point key;
    std::string value;
  };
  std::unordered_map<overlay::NodeId, std::vector<StoredObject>> objects_;

  /// Moves objects to the current owner of their key (zone changes).
  void migrate_objects_from(overlay::NodeId node);
  void migrate_objects_after_split(overlay::NodeId joined,
                                   overlay::NodeId split_peer);

  SystemStats stats_;
};

}  // namespace topo::core
