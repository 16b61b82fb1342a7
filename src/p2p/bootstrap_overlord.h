#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "common/rng.h"
#include "common/time.h"
#include "common/trace.h"
#include "p2p/connection_table.h"
#include "p2p/edge.h"
#include "p2p/linking.h"
#include "p2p/node_config.h"
#include "p2p/node_stats.h"
#include "p2p/packet.h"
#include "p2p/peer_cache.h"
#include "sim/timer_service.h"

namespace wow::p2p {

/// Per-endpoint bootstrap backoff (the flap-quarantine shape): after
/// each failed probe of an endpoint, that endpoint is skipped for
/// base * 2^(failures-1), capped at max, plus a uniform jitter of one
/// base so a flash crowd's retries never re-synchronize on a dead
/// endpoint.  The rotation moves on to the next endpoint meanwhile.
inline constexpr SimDuration kBootstrapBackoffBase = 15 * kSecond;
inline constexpr SimDuration kBootstrapBackoffMax = 2 * kMinute;

/// Peer-cache entries not refreshed within this TTL are evicted.
inline constexpr SimDuration kPeerCacheTtl = 10 * kMinute;
/// How often the peer cache is refreshed from live connections.
inline constexpr SimDuration kPeerCacheRefreshInterval = 30 * kSecond;
/// Unverified peer-cache entries accepted per gossip source: a single
/// byzantine responder can plant at most this many phantoms in the
/// cache, and verified (live-connection) entries always outrank them.
inline constexpr std::size_t kGossipPerSourceCap = 2;

/// Leaf/bootstrap overlord: the node's lifeline into the overlay,
/// grown from a single well-known URI into a multi-endpoint discovery
/// service (Wolinsky et al., the P2P bootstrap problem).
///
/// Three duties.  While the table is empty, keep a (re)join attempt
/// going — through the freshest cached peer first, so a restarted node
/// rejoins without touching any well-known endpoint, then through the
/// bootstrap list, rotating endpoints under per-endpoint jittered
/// exponential backoff so one dead endpoint never stalls a flash crowd.
/// Once in the ring, periodically re-probe every UNcovered bootstrap
/// endpoint — the ring-merge safety net: a partition that outlives the
/// keepalive splits the overlay into fragments that each repair into a
/// self-consistent ring, and only a fresh bridge to the well-known list
/// lets join CTMs pull the rings back together.  Between joins, keep
/// the peer cache warm from live connections and gossip samples.
class BootstrapOverlord {
 public:
  struct Hooks {
    /// Gracefully close a surplus leaf connection: leaf rotation keeps
    /// ONE bootstrap leaf per node, so re-probing every endpoint over
    /// time costs a constant connection budget instead of one leaf per
    /// endpoint.
    std::function<void(const Address& peer)> drop_leaf;
  };

  /// Leaf probes run on `linking`; the zero address keys a probe whose
  /// peer is not yet known.
  BootstrapOverlord(sim::TimerService& timers, Rng& rng, Tracer& tracer,
                    const NodeConfig& config, ConnectionTable& table,
                    EdgeFactory& edges, NodeStats& stats, PeerCache& cache,
                    FlightRecorder& flight, LinkingEngine& linking,
                    const std::string& trace_node, Hooks hooks)
      : timers_(timers), rng_(rng), tracer_(tracer), config_(config),
        table_(table), edges_(edges), stats_(stats), cache_(cache),
        flight_(flight), linking_(linking), trace_node_(trace_node),
        hooks_(std::move(hooks)) {}

  BootstrapOverlord(const BootstrapOverlord&) = delete;
  BootstrapOverlord& operator=(const BootstrapOverlord&) = delete;

  /// start(): the re-probe clock restarts; in-flight attempt bookkeeping
  /// clears (endpoint health and the peer cache survive — both describe
  /// the world, not this incarnation).
  void on_start() {
    last_bootstrap_probe_ = -(1LL << 60);
    last_cache_refresh_ = -(1LL << 60);
    pending_probe_ = -1;
    cache_attempt_ = Address{};
    last_own_leaf_ = Address{};
  }

  /// Keep a rejoin attempt going while the table is empty: freshest
  /// cached peer first, then the bootstrap rotation.
  void maintain_leaf();
  /// Ring-merge safety net: re-probe bootstrap endpoints that no direct
  /// connection covers, one per interval, rotating.
  void maintain_bootstrap();
  /// Refresh the peer cache from live connections (periodic).
  void refresh_cache();

  /// A zero-keyed leaf probe failed: back off the probed endpoint and
  /// let the rotation move on.
  void note_probe_failed();
  /// A leaf-type attempt toward a real address failed: the cached peer
  /// is dead — evict it.
  void note_cache_failed(const Address& peer);
  /// A leaf link landed: clear attempt bookkeeping, reset the probed
  /// endpoint's backoff, count a cache rejoin when that is what it was.
  void note_leaf_established(const Address& peer);

  /// Live protocol-state bytes.  The per-endpoint health ledger is NOT
  /// live state: it is a fixed function of the configured well-known
  /// list (accounted like config_.bootstrap itself, as object memory),
  /// and the peer cache is owned and counted by the Node.
  [[nodiscard]] std::size_t state_bytes() const { return 0; }
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + health_.capacity() * sizeof(EndpointHealth);
  }

  /// Endpoint-backoff introspection (tests): when endpoint `i` may be
  /// probed again (0 = immediately).
  [[nodiscard]] SimTime endpoint_retry_after(std::size_t i) const {
    return i < health_.size() ? health_[i].retry_after : 0;
  }

 private:
  struct EndpointHealth {
    std::int32_t failures = 0;
    SimTime retry_after = 0;
  };

  /// Keep the health ledger aligned with config_.bootstrap (the list
  /// may grow via mutable_config between ticks).
  void sync_health() {
    if (health_.size() != config_.bootstrap.size()) {
      health_.resize(config_.bootstrap.size());
    }
  }
  /// True when a direct connection's working endpoint is `uri`.
  [[nodiscard]] bool covered(const transport::Uri& uri) const;
  /// Launch one zero-keyed leaf probe at the next eligible endpoint in
  /// rotation; `reprobe` additionally skips covered endpoints.  Returns
  /// true when a probe was launched.
  bool probe_endpoint(bool reprobe);

  sim::TimerService& timers_;
  Rng& rng_;
  Tracer& tracer_;
  const NodeConfig& config_;
  ConnectionTable& table_;
  EdgeFactory& edges_;
  NodeStats& stats_;
  PeerCache& cache_;
  FlightRecorder& flight_;
  LinkingEngine& linking_;
  const std::string& trace_node_;
  Hooks hooks_;

  SimTime last_bootstrap_probe_ = -(1LL << 60);
  SimTime last_cache_refresh_ = -(1LL << 60);
  /// Per-endpoint failure count + backoff deadline, parallel to
  /// config_.bootstrap.
  std::vector<EndpointHealth> health_;
  /// Next endpoint the rotation considers.
  std::size_t rotation_ = 0;
  /// Endpoint index a zero-keyed probe is in flight toward (-1 none).
  std::int32_t pending_probe_ = -1;
  /// Cached peer a rejoin attempt is in flight toward (zero = none).
  Address cache_attempt_;
  /// The one bootstrap leaf THIS node initiated and currently keeps
  /// (rotated on the next own-leaf establishment; zero = none).
  Address last_own_leaf_;
};

}  // namespace wow::p2p
