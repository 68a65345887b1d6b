// Publish/subscribe over the global soft-state (paper Section 5.2).
//
// A node that selected its high-order neighbors by consulting a map
// subscribes to that map: "notify me when the state changes necessitate
// neighbor re-selection". Subscriptions live with the map pieces; when a
// publish lands on an owner, the owner evaluates the stored predicates and
// routes notifications to matching subscribers through the overlay.
//
// Predicates supported (the paper's examples):
//   * a new/updated record is closer (in landmark space) than the
//     subscriber's current representative — re-selection may help;
//   * more nodes have joined the zone (entry-count watch);
//   * the watched representative's published load crossed a threshold
//     (Section 6 QoS: "the selected neighbor is handling 80% of its
//     maximum capacity");
//   * the watched representative departed.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "softstate/map_service.hpp"

namespace topo::pubsub {

using SubscriptionId = std::uint64_t;

struct Subscription {
  overlay::NodeId subscriber = overlay::kInvalidNode;
  proximity::LandmarkVector vector;  // subscriber's landmark vector
  int level = 0;
  std::uint64_t cell_key = 0;

  /// Landmark-space distance to the subscriber's current representative;
  /// records closer than margin * this trigger kCloserCandidate.
  double current_best_distance = std::numeric_limits<double>::infinity();
  double closer_margin = 0.95;

  /// Section 6: notify when watched's load/capacity crosses this.
  double load_threshold = std::numeric_limits<double>::infinity();
  /// The load watch is edge-triggered: crossing the threshold notifies
  /// once, then the alarm stays latched while the load remains high — a
  /// representative stuck at 90% must not re-notify on every republish.
  /// The alarm re-arms only after utilization drops below
  /// load_threshold * (1 - load_hysteresis) (the hysteresis band keeps a
  /// load hovering at the threshold from flapping).
  double load_hysteresis = 0.1;
  /// Latched edge-trigger state; reset when the watch moves to a new
  /// representative (update_watch) or the load falls below the band.
  bool load_alarmed = false;
  /// The representative currently in use (load / departure watch).
  overlay::NodeId watched = overlay::kInvalidNode;

  /// Notify whenever the map piece gains a record for a previously-unseen
  /// node ("notify me when more nodes have joined the zone").
  bool notify_on_new_node = false;
};

struct Notification {
  enum class Reason {
    kCloserCandidate,
    kNewNode,
    kLoadExceeded,
    kWatchedDeparted,
  };
  Reason reason = Reason::kCloserCandidate;
  SubscriptionId subscription = 0;
  softstate::MapEntry entry;  // triggering record (empty for departures)
};

struct PubSubStats {
  std::uint64_t subscriptions = 0;
  std::uint64_t notifications = 0;
  std::uint64_t route_hops = 0;
  std::uint64_t predicate_evaluations = 0;
  /// Notifications the fault plane dropped en route to the subscriber
  /// (the subscriber simply re-selects later — soft state absorbs it).
  std::uint64_t dropped_notifications = 0;
  /// kLoadExceeded edge-trigger firings (before delivery gating) — the
  /// Section 6 QoS alarms driving load-aware re-selection.
  std::uint64_t load_exceeded = 0;
};

class PubSubService {
 public:
  /// Handler invoked at the *subscriber* when a notification arrives; the
  /// facade uses it to re-run neighbor selection.
  using Handler =
      std::function<void(overlay::NodeId subscriber, const Notification&)>;

  PubSubService(overlay::EcanNetwork& ecan, softstate::MapService& maps);

  /// Registers `subscription`; hooks the map service's publish stream.
  SubscriptionId subscribe(Subscription subscription);
  void unsubscribe(SubscriptionId id);

  /// Updates the re-selection state after the subscriber picked a new
  /// representative.
  void update_watch(SubscriptionId id, overlay::NodeId watched,
                    double best_distance);

  Subscription* find(SubscriptionId id);

  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// Installs the shared fault plane: notifications become kNotify
  /// messages subject to loss/crash/partition along their routed path.
  void set_fault_plane(sim::FaultPlane* plane) { fault_plane_ = plane; }

  /// Installs the shared traffic plane: while active, notifications also
  /// cross the congestion gate and can be dropped under saturation.
  void set_traffic_plane(net::TrafficPlane* plane) { traffic_plane_ = plane; }

  /// Called by the departure protocol (proactive update): notifies every
  /// subscriber watching `departed` and forgets the node in every
  /// new-node watch, so a leave-then-rejoin retriggers kNewNode.
  void notify_departure(overlay::NodeId departed);

  const PubSubStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  std::size_t active_subscriptions() const { return subscriptions_.size(); }

  /// Visits every live subscription as (id, Subscription); unspecified
  /// order. The equivalence tests use this to compare full subscription
  /// tables across systems.
  template <typename Fn>
  void for_each_subscription(Fn&& fn) const {
    for (const auto& [id, subscription] : subscriptions_)
      fn(id, subscription);
  }

  /// Match each publish by scanning the whole subscription table (the
  /// seed-era cost model) instead of the per-map index. Delivery order and
  /// every notification are identical either way — ascending subscription
  /// id — so this knob exists only as the oracle of the
  /// matcher-equivalence tests.
  void set_reference_matcher(bool on) { reference_matcher_ = on; }
  bool reference_matcher() const { return reference_matcher_; }

 private:
  void on_publish(overlay::NodeId owner, const softstate::StoredEntry& entry);
  /// Evaluates one subscription's predicates against a placed entry,
  /// appending to `matched` (subscriber + ready notification) on a hit.
  void match_one(SubscriptionId id, Subscription& subscription,
                 const softstate::StoredEntry& stored,
                 std::vector<std::pair<overlay::NodeId, Notification>>&
                     matched);
  void deliver(overlay::NodeId from, overlay::NodeId subscriber,
               Notification notification);

  overlay::EcanNetwork* ecan_;
  softstate::MapService* maps_;
  sim::FaultPlane* fault_plane_ = nullptr;
  net::TrafficPlane* traffic_plane_ = nullptr;
  Handler handler_;
  std::unordered_map<SubscriptionId, Subscription> subscriptions_;
  /// One-traversal-many-subscribers fan-out: subscription ids bucketed by
  /// the map they watch (the packed cell key encodes level + cell), so a
  /// placed entry touches exactly its own map's subscribers instead of
  /// scanning the whole table. Ids are appended in creation order and ids
  /// are monotone, so each bucket is already in ascending-id (delivery)
  /// order.
  std::unordered_map<std::uint64_t, std::vector<SubscriptionId>> by_cell_;
  // Which nodes each new-node watch has already seen. Departed nodes are
  // purged in notify_departure so a rejoin counts as new again.
  std::unordered_map<SubscriptionId, std::unordered_set<overlay::NodeId>>
      seen_;
  SubscriptionId next_id_ = 1;
  PubSubStats stats_;
  bool reference_matcher_ = false;
  /// Scratch reused across publishes (guarded for re-entrant publishes:
  /// a handler that republishes falls back to a local buffer).
  std::vector<std::pair<overlay::NodeId, Notification>> matched_scratch_;
  int match_depth_ = 0;
  overlay::RouteScratch route_scratch_;
};

}  // namespace topo::pubsub
