#include "core/soft_state_overlay.hpp"

namespace topo::core {

SoftStateOverlay::SoftStateOverlay(const net::Topology& topology,
                                   SystemConfig config)
    : config_(config),
      rng_(config.seed),
      oracle_(topology, config.rtt_engine),
      landmarks_(proximity::LandmarkSet::choose_random(
          topology, config.landmark_count, rng_, config.landmark)),
      ecan_(config.dims, config.max_level) {
  // A zero fault seed derives from the system seed so each trial of a
  // sweep gets an independent but reproducible fault stream.
  if (config_.fault.seed == 0)
    config_.fault.seed = config_.seed ^ 0xfa417b145eull;
  faults_ = std::make_unique<sim::FaultPlane>(config_.fault);
  faults_->bind_topology(&topology);
  // Same derivation for the traffic plane's drop-draw stream.
  if (config_.traffic.seed == 0)
    config_.traffic.seed = config_.seed ^ 0x10adf10b5ull;
  traffic_ = std::make_unique<net::TrafficPlane>(config_.traffic);
  traffic_->bind_topology(&topology);
  // While active, every RTT the oracle reports carries the queuing-delay
  // term — landmark vectors, selection probes and hop costs all see load.
  oracle_.set_traffic_plane(traffic_.get());
  maps_ = std::make_unique<softstate::MapService>(ecan_, landmarks_,
                                                  config.map);
  maps_->set_fault_plane(faults_.get());
  maps_->set_traffic_plane(traffic_.get());
  if (config_.retry.enabled())
    maps_->set_retry(&events_, config_.retry,
                     config_.seed ^ 0x7e7521ull);
  if (config_.map.anti_entropy.enabled) {
    // Own seed derivation, like the fault/traffic streams: the engine's
    // round jitter must not perturb any other consumer of the system RNG.
    anti_entropy_ =
        std::make_unique<softstate::AntiEntropyEngine<softstate::MapService>>(
            *maps_, ecan_, &events_, config_.seed ^ 0xae0ae0ae0ull);
    anti_entropy_->start();
  }
  pubsub_ = std::make_unique<pubsub::PubSubService>(ecan_, *maps_);
  pubsub_->set_fault_plane(faults_.get());
  pubsub_->set_traffic_plane(traffic_.get());
  pubsub_->set_handler(
      [this](overlay::NodeId subscriber, const pubsub::Notification& n) {
        on_notification(subscriber, n);
      });
  if (config_.load_weight > 0.0) {
    selector_ = std::make_unique<LoadAwareSelector>(
        ecan_, *maps_, oracle_, vectors_, config_.rtt_budget,
        config_.load_weight, rng_.fork(), &events_);
  } else {
    selector_ = std::make_unique<SoftStateSelector>(
        ecan_, *maps_, oracle_, vectors_, config_.rtt_budget, rng_.fork(),
        &events_);
  }
  selector_->set_fault_plane(faults_.get());
}

overlay::NodeId SoftStateOverlay::join(net::HostId host) {
  // 1. Landmark measurement.
  const proximity::LandmarkVector vector = landmarks_.measure(oracle_, host);

  // 2. Uniform-layout eCAN join (no geographic constraint).
  overlay::NodeId split_peer = overlay::kInvalidNode;
  const overlay::NodeId id =
      ecan_.join(host, geom::Point::random(config_.dims, rng_), &split_peer);
  vectors_[id] = vector;
  if (split_peer != overlay::kInvalidNode) {
    maps_->migrate_after_join(id, split_peer);
    migrate_objects_after_split(id, split_peer);
  }

  // 3. Publish the proximity record into every enclosing zone's map. The
  // published load comes from the probe / traffic plane, not a hardcoded
  // zero: threshold subscriptions and the load-aware selector must see a
  // loaded node as loaded from its very first record, not only after the
  // first republish.
  const double capacity =
      capacities_.count(id) != 0 ? capacities_[id] : 1.0;
  maps_->publish(id, vector, events_.now(), node_load(id), capacity);

  // 4. Proximity-neighbor selection via the global soft state.
  ecan_.build_table(id, *selector_);
  if (split_peer != overlay::kInvalidNode) {
    // The split peer's zone shrank: deeper levels appeared.
    ecan_.build_table(split_peer, *selector_);
  }

  // 5. Subscriptions on the consulted maps.
  if (config_.subscribe_on_join) {
    subscribe_entries(id);
    if (split_peer != overlay::kInvalidNode) {
      unsubscribe_all(split_peer);
      subscribe_entries(split_peer);
    }
  }

  if (config_.auto_republish) schedule_republish(id);
  ++stats_.joins;
  return id;
}

void SoftStateOverlay::leave(overlay::NodeId id) {
  TO_EXPECTS(ecan_.alive(id));
  unsubscribe_all(id);

  // Proactive map update: scrub the departing node's records first so
  // re-selections triggered below can never hand it out.
  maps_->remove_everywhere(id);
  std::vector<softstate::StoredEntry> hosted = maps_->extract_store(id);

  const auto report = ecan_.leave(id);
  vectors_.erase(id);
  maps_->rehome(std::move(hosted));
  if (ecan_.size() > 0)
    migrate_objects_from(id);  // stored application objects follow the zone
  else
    objects_.erase(id);

  // Zone changes from the takeover: migrate the swapped node's store and
  // refresh both nodes' tables and subscriptions.
  for (const overlay::NodeId changed : {report.taker, report.moved}) {
    if (changed == overlay::kInvalidNode || !ecan_.alive(changed)) continue;
    maps_->rehome(maps_->extract_store(changed));
    migrate_objects_from(changed);
    ecan_.build_table(changed, *selector_);
    if (config_.subscribe_on_join) {
      unsubscribe_all(changed);
      subscribe_entries(changed);
    }
  }

  // Watchers of the departed representative re-select now.
  pubsub_->notify_departure(id);
  ++stats_.leaves;
}

void SoftStateOverlay::crash(overlay::NodeId id) {
  TO_EXPECTS(ecan_.alive(id));
  unsubscribe_all(id);
  // Hosted map state AND stored application objects die with the node.
  (void)maps_->extract_store(id);
  objects_.erase(id);

  const auto report = ecan_.leave(id);  // models the CAN takeover protocol
  vectors_.erase(id);

  for (const overlay::NodeId changed : {report.taker, report.moved}) {
    if (changed == overlay::kInvalidNode || !ecan_.alive(changed)) continue;
    maps_->rehome(maps_->extract_store(changed));
    migrate_objects_from(changed);
    ecan_.build_table(changed, *selector_);
    if (config_.subscribe_on_join) {
      unsubscribe_all(changed);
      subscribe_entries(changed);
    }
  }
  // No proactive scrub and no notifications: records pointing at the dead
  // node are discovered and deleted lazily, tables repair on first use.
  ++stats_.crashes;
}

overlay::RouteResult SoftStateOverlay::lookup(overlay::NodeId from,
                                              const geom::Point& key) {
  overlay::RouteResult route = ecan_.route_ecan_repair(from, key, *selector_);
  // Application data travels the same links as everything else: a routed
  // request still fails when the fault plane drops or blocks it.
  if (route.success && faults_->active() &&
      !faults_
           ->message_via(sim::MessageKind::kData, route.path,
                         [&](overlay::NodeId id) { return ecan_.node(id).host; })
           .delivered()) {
    route.success = false;
  }
  // ... and through saturated links: congestion drops data the same way.
  if (route.success && traffic_->active() &&
      !traffic_
           ->message_via(route.path,
                         [&](overlay::NodeId id) { return ecan_.node(id).host; })
           .delivered) {
    route.success = false;
  }
  return route;
}

overlay::RouteResult SoftStateOverlay::put(overlay::NodeId from,
                                           const geom::Point& key,
                                           std::string value) {
  overlay::RouteResult route = lookup(from, key);
  if (!route.success) return route;
  auto& store = objects_[route.path.back()];
  for (StoredObject& object : store) {
    if (object.key == key) {
      object.value = std::move(value);  // overwrite semantics
      return route;
    }
  }
  store.push_back(StoredObject{key, std::move(value)});
  return route;
}

std::optional<std::string> SoftStateOverlay::get(
    overlay::NodeId from, const geom::Point& key,
    overlay::RouteResult* route) {
  overlay::RouteResult local_route = lookup(from, key);
  if (route != nullptr) *route = local_route;
  if (!local_route.success) return std::nullopt;
  const auto it = objects_.find(local_route.path.back());
  if (it == objects_.end()) return std::nullopt;
  for (const StoredObject& object : it->second)
    if (object.key == key) return object.value;
  return std::nullopt;
}

std::size_t SoftStateOverlay::object_count(overlay::NodeId node) const {
  const auto it = objects_.find(node);
  return it == objects_.end() ? 0 : it->second.size();
}

std::size_t SoftStateOverlay::total_objects() const {
  std::size_t total = 0;
  for (const auto& [node, store] : objects_) {
    (void)node;
    total += store.size();
  }
  return total;
}

void SoftStateOverlay::migrate_objects_from(overlay::NodeId node) {
  const auto it = objects_.find(node);
  if (it == objects_.end()) return;
  std::vector<StoredObject> moving = std::move(it->second);
  objects_.erase(it);
  for (StoredObject& object : moving) {
    const overlay::NodeId owner = ecan_.owner_of(object.key);
    objects_[owner].push_back(std::move(object));
  }
}

void SoftStateOverlay::migrate_objects_after_split(
    overlay::NodeId joined, overlay::NodeId split_peer) {
  const auto it = objects_.find(split_peer);
  if (it == objects_.end()) return;
  const geom::Zone& new_zone = ecan_.node(joined).zone;
  auto& target = objects_[joined];
  std::erase_if(it->second, [&](StoredObject& object) {
    if (!new_zone.contains(object.key)) return false;
    target.push_back(std::move(object));
    return true;
  });
}

void SoftStateOverlay::run_for(sim::Time ms) {
  events_.run_until(events_.now() + ms);
  maps_->expire_before(events_.now());
  // Fold the window's gated messages into measured link rates so the
  // system's own control traffic shows up as utilization.
  if (traffic_->active()) traffic_->advance_to(events_.now());
}

void SoftStateOverlay::set_capacity(overlay::NodeId id, double capacity) {
  TO_EXPECTS(capacity > 0.0);
  capacities_[id] = capacity;
}

void SoftStateOverlay::republish_now(overlay::NodeId id) {
  if (!ecan_.alive(id)) return;
  const auto it = vectors_.find(id);
  if (it == vectors_.end()) return;
  const double capacity =
      capacities_.count(id) != 0 ? capacities_[id] : 1.0;
  maps_->publish(id, it->second, events_.now(), node_load(id), capacity);
  ++stats_.republishes;
}

double SoftStateOverlay::node_load(overlay::NodeId id) const {
  if (load_probe_) return load_probe_(id);
  if (traffic_->active()) return traffic_->host_utilization(ecan_.node(id).host);
  return 0.0;
}

void SoftStateOverlay::schedule_republish(overlay::NodeId id) {
  events_.schedule_in(config_.republish_interval_ms, [this, id] {
    if (!ecan_.alive(id)) return;  // departed: stop the refresh chain
    republish_now(id);
    schedule_republish(id);
  });
}

void SoftStateOverlay::subscribe_entries(overlay::NodeId id) {
  const auto vector_it = vectors_.find(id);
  if (vector_it == vectors_.end()) return;
  const int levels = ecan_.node_level(id);
  auto& records = subs_[id];
  for (int h = 1; h <= levels; ++h) {
    const auto my_cell = ecan_.cell_of_node(id, h);
    for (std::size_t dim = 0; dim < ecan_.dims(); ++dim) {
      for (int dir = 0; dir < 2; ++dir) {
        const overlay::NodeId rep = ecan_.table_entry(id, h, dim, dir);
        if (rep == overlay::kInvalidNode) continue;
        const auto adj = ecan_.adjacent_cell(my_cell, h, dim, dir);

        pubsub::Subscription subscription;
        subscription.subscriber = id;
        subscription.vector = vector_it->second;
        subscription.level = h;
        subscription.cell_key = ecan_.pack_cell(h, adj);
        subscription.closer_margin = config_.closer_margin;
        subscription.load_threshold = config_.load_threshold;
        subscription.watched = rep;
        const auto rep_vector = vectors_.find(rep);
        subscription.current_best_distance =
            rep_vector == vectors_.end()
                ? std::numeric_limits<double>::infinity()
                : proximity::vector_distance(vector_it->second,
                                             rep_vector->second);
        const pubsub::SubscriptionId sub_id =
            pubsub_->subscribe(std::move(subscription));
        records.push_back(SubRecord{sub_id, h, dim, dir});
      }
    }
  }
}

void SoftStateOverlay::unsubscribe_all(overlay::NodeId id) {
  const auto it = subs_.find(id);
  if (it == subs_.end()) return;
  for (const SubRecord& record : it->second)
    pubsub_->unsubscribe(record.id);
  subs_.erase(it);
}

void SoftStateOverlay::on_notification(
    overlay::NodeId subscriber, const pubsub::Notification& notification) {
  if (!ecan_.alive(subscriber)) return;
  const auto it = subs_.find(subscriber);
  if (it == subs_.end()) return;
  const auto record_it =
      std::find_if(it->second.begin(), it->second.end(),
                   [&](const SubRecord& r) {
                     return r.id == notification.subscription;
                   });
  if (record_it == it->second.end()) return;

  // Demand-driven re-selection of exactly the affected entry.
  if (record_it->level > ecan_.node_level(subscriber)) return;
  ecan_.refresh_entry(subscriber, record_it->level, record_it->dim,
                      record_it->dir, *selector_);
  ++stats_.reselections;
  const SelectionInfo& info = selector_->last_selection();

  // The triggering candidate has now been evaluated; lower the
  // notification threshold to cover it even when it lost the RTT probe,
  // otherwise the same record re-triggers on every republish.
  double threshold = info.landmark_distance;
  const auto my_vector = vectors_.find(subscriber);
  if (!notification.entry.vector.empty() && my_vector != vectors_.end()) {
    threshold = std::min(
        threshold, proximity::vector_distance(notification.entry.vector,
                                              my_vector->second));
  }
  pubsub_->update_watch(notification.subscription, info.chosen, threshold);
}

}  // namespace topo::core
