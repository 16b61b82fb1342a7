// The layered protocol-service stack: the dispatch registries
// and the protocol services exercised in isolation, with real sibling
// services and capturing up-call hooks in place of a Node.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flight_recorder.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/trace.h"
#include "net/network.h"
#include "net/sim_edge.h"
#include "p2p/census_agent.h"
#include "p2p/ctm_overlord.h"
#include "p2p/dispatch.h"
#include "p2p/keepalive.h"
#include "p2p/linking.h"
#include "p2p/node.h"
#include "p2p/peer_cache.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace wow {
namespace {

// --- dispatch layer -----------------------------------------------------

TEST(HandlerRegistry, RejectsDuplicateAndNull) {
  p2p::HandlerRegistry<int> reg(4);
  int total = 0;
  EXPECT_TRUE(reg.add(1, [&](int v) { total += v; }));
  EXPECT_FALSE(reg.add(1, [](int) {}));  // duplicate: wiring bug, refused
  EXPECT_FALSE(reg.add(2, nullptr));     // null handler
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.contains(1));
  EXPECT_FALSE(reg.contains(2));

  EXPECT_TRUE(reg.dispatch(1, 5));
  EXPECT_EQ(total, 5);
}

TEST(HandlerRegistry, UnregisteredKindReportsFalseWithoutCrashing) {
  p2p::HandlerRegistry<int> reg(4);
  EXPECT_FALSE(reg.dispatch(2, 1));  // in range, never registered

  EXPECT_TRUE(reg.add(2, [](int) {}));
  EXPECT_TRUE(reg.dispatch(2, 1));
  EXPECT_TRUE(reg.remove(2));
  EXPECT_FALSE(reg.remove(2));
  EXPECT_FALSE(reg.dispatch(2, 1));
  EXPECT_EQ(reg.size(), 0u);
}

// Kinds at or past the table size: registration is refused and nothing
// else touches the table.  The kind is a test parameter — a run-time
// value, as a wire-supplied kind is.
class HandlerRegistryOutOfRange
    : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(HandlerRegistryOutOfRange, KindIsRefusedEverywhere) {
  const std::uint8_t kind = GetParam();
  p2p::HandlerRegistry<int> reg(4);
  EXPECT_FALSE(reg.add(kind, [](int) {}));
  EXPECT_FALSE(reg.contains(kind));
  EXPECT_FALSE(reg.dispatch(kind, 1));
  EXPECT_FALSE(reg.remove(kind));
  EXPECT_EQ(reg.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, HandlerRegistryOutOfRange,
                         ::testing::Values(4, 200, 255));

// An unknown frame kind arriving over the wire is counted and dropped;
// the node keeps running (the announce table never crashes on garbage).
TEST(Dispatch, UnknownFrameKindIsCountedAndDropped) {
  testing::PublicOverlay net(2);
  net.start_all();
  net.sim.run_for(30 * kSecond);
  ASSERT_TRUE(net.nodes[1]->has_direct(net.nodes[0]->address()));

  std::uint64_t before = net.nodes[0]->stats().parse_rejects;
  net.nodes[1]->edges().send_to(net::Endpoint{net.hosts[0]->ip(), 17000},
                                Bytes{0x7e, 1, 2, 3});
  net.sim.run_for(kSecond);
  EXPECT_EQ(net.nodes[0]->stats().parse_rejects, before + 1);
  EXPECT_TRUE(net.nodes[0]->running());

  // Still a functioning overlay after the garbage frame.
  net.sim.run_for(kMinute);
  EXPECT_TRUE(net.nodes[0]->has_direct(net.nodes[1]->address()));
}

// The LinkingEngine lives as long as its Node: its counters and the
// node's memory footprint read cleanly before the first start() and
// after stop(), and restart() hands the next incarnation an engine in
// a fresh one's state.
TEST(NodeLifecycle, LinkStatsReadableBeforeStartAndResetOnRestart) {
  testing::PublicOverlay net(2);
  p2p::Node& node = *net.nodes[1];
  EXPECT_EQ(node.link_stats().attempts_started, 0u);
  EXPECT_EQ(node.link_stats().established_active, 0u);
  EXPECT_GT(node.memory_footprint().linking, 0u);
  EXPECT_GT(node.memory_footprint().total(), 0u);

  net.start_all();
  net.sim.run_for(30 * kSecond);
  ASSERT_TRUE(node.has_direct(net.nodes[0]->address()));
  const std::uint64_t started = node.link_stats().attempts_started;
  const std::uint64_t established = node.link_stats().established_active +
                                    node.link_stats().established_passive;
  EXPECT_GT(started, 0u);
  EXPECT_GT(established, 0u);

  // stop() aborts the attempts but leaves the last incarnation's
  // counters readable.
  node.stop();
  EXPECT_EQ(node.link_stats().attempts_started, started);
  EXPECT_EQ(node.link_stats().established_active +
                node.link_stats().established_passive,
            established);
  EXPECT_GT(node.memory_footprint().linking, 0u);

  node.restart();
  EXPECT_EQ(node.link_stats().attempts_started, 0u);
  EXPECT_EQ(node.link_stats().established_active, 0u);
  EXPECT_EQ(node.link_stats().established_passive, 0u);
  EXPECT_EQ(node.link_stats().failures, 0u);

  // The reset engine links again.
  net.sim.run_for(30 * kSecond);
  EXPECT_TRUE(node.has_direct(net.nodes[0]->address()));
  EXPECT_GT(node.link_stats().attempts_started, 0u);
}

// --- protocol services in isolation ------------------------------------

// One node's worth of real collaborators for driving a protocol service
// without a Node: a simulated clock and network, the node's own bound
// edge, its flight recorder and peer cache, and real LinkingEngine and
// KeepaliveManager siblings (wired as LinkPair wires an engine in
// p2p_unit_test).  The keepalive's up-call hooks record what it asked
// its owner to do.
struct ServiceRig {
  ServiceRig() : network(net) {
    site = network.add_site("s");
    edges = bind_host(net::Ipv4Addr(128, 0, 0, 1));
    linking = std::make_unique<p2p::LinkingEngine>(
        net, rng, tracer, *edges, table.self(), config.link,
        p2p::LinkingEngine::Callbacks{
            [](const p2p::Address&, const std::vector<transport::Uri>&,
               const net::Endpoint&, p2p::ConnectionType) {},
            [](const p2p::Address&, p2p::ConnectionType) {},
            [](const transport::Uri&) {},
            [this](const p2p::Address& peer) { return table.contains(peer); },
            {},  // rto_hint
            {},  // on_rtt_sample
            {},  // is_quarantined
            {},  // reply_rejected
        });
    km = std::make_unique<p2p::KeepaliveManager>(
        net, tracer, logger, config, table, stats, flight, trace_node,
        log_component,
        p2p::KeepaliveManager::Hooks{
            [this](const p2p::Connection&, const p2p::LinkFrame& frame) {
              sent.push_back(frame);
            },
            [this](const p2p::Address& peer, p2p::DisconnectCause cause) {
              dropped.emplace_back(peer, cause);
              // What Node::drop_connection would do with the table.
              table.remove(peer);
              km->erase_ping_state(peer);
            },
        });
  }

  /// A public host on the rig's network with an edge bound at 17000.
  std::unique_ptr<net::SimEdgeFactory> bind_host(net::Ipv4Addr ip) {
    net::Host& host = network.add_host(ip, net::Network::kInternet, site, {});
    auto e = std::make_unique<net::SimEdgeFactory>(network, host);
    e->bind(17000);
    return e;
  }

  void add_peer(std::uint64_t addr) {
    p2p::Connection c;
    c.addr = p2p::Address{addr};
    c.type = p2p::ConnectionType::kStructuredNear;
    c.remote = net::Endpoint{net::Ipv4Addr(10, 0, 0, 2), 17000};
    table.add(std::move(c));
  }

  sim::Simulator net;
  net::Network network;
  net::SiteId site{};
  Rng rng{7};
  Tracer tracer;
  Logger logger;
  p2p::NodeConfig config;
  p2p::ConnectionTable table{p2p::Address{100}};
  p2p::NodeStats stats;
  FlightRecorder flight;
  p2p::PeerCache cache{16, 10 * kMinute};
  std::string trace_node = "n";
  std::string log_component = "test";
  std::unique_ptr<net::SimEdgeFactory> edges;
  std::unique_ptr<p2p::LinkingEngine> linking;
  std::vector<p2p::LinkFrame> sent;
  std::vector<std::pair<p2p::Address, p2p::DisconnectCause>> dropped;
  std::unique_ptr<p2p::KeepaliveManager> km;
};

// --- KeepaliveManager in isolation --------------------------------------

// The keepalive service against a bare connection table and a bare
// simulator clock: no Node.
struct KeepaliveHarness : ServiceRig {
  KeepaliveHarness() { config.ping_interval = 2 * kSecond; }
};

TEST(KeepaliveIsolation, PingsIdleConnectionAndPongFeedsEstimator) {
  KeepaliveHarness h;
  h.add_peer(200);
  h.km->start(kSecond);

  // Sweeps at t=1s (not yet idle) and t=2s (idle == ping_interval):
  // exactly one probe by t=2.5s.
  h.net.run_for(2 * kSecond + 500 * kMillisecond);
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].type, p2p::LinkType::kPing);
  EXPECT_EQ(h.sent[0].sender, p2p::Address{100});
  EXPECT_EQ(h.stats.pings_sent, 1u);
  EXPECT_EQ(h.km->ping_state_count(), 1u);

  // The pong answers a sole un-retransmitted probe (Karn-clean), sent
  // at t=2s and answered at t=2.5s: a 500 ms sample closes the episode
  // and feeds both the connection and durable estimators.
  p2p::LinkFrame pong;
  pong.type = p2p::LinkType::kPong;
  pong.sender = p2p::Address{200};
  pong.con_type = h.sent[0].con_type;
  pong.token = h.sent[0].token;
  h.km->on_pong(pong);

  EXPECT_EQ(h.km->ping_state_count(), 0u);
  EXPECT_EQ(h.stats.rtt_samples, 1u);
  EXPECT_EQ(h.km->srtt_of(p2p::Address{200}), 500 * kMillisecond);
  EXPECT_EQ(h.table.find(p2p::Address{200})->srtt, 500 * kMillisecond);
  EXPECT_EQ(h.dropped.size(), 0u);
}

TEST(KeepaliveIsolation, UnansweredProbeBudgetDropsConnection) {
  KeepaliveHarness h;
  h.add_peer(200);
  h.km->start(kSecond);

  h.net.run_for(10 * kSecond);
  ASSERT_EQ(h.dropped.size(), 1u);
  EXPECT_EQ(h.dropped[0].first, p2p::Address{200});
  EXPECT_EQ(h.dropped[0].second, p2p::DisconnectCause::kKeepaliveTimeout);
  EXPECT_EQ(h.stats.pings_sent,
            static_cast<std::uint64_t>(p2p::kPingRetries));
  // The episode died with the connection: no leak.
  EXPECT_EQ(h.km->ping_state_count(), 0u);
  EXPECT_TRUE(h.table.empty());
}

TEST(KeepaliveIsolation, RepeatedFlapsQuarantineThenLapse) {
  KeepaliveHarness h;
  p2p::Address peer{300};
  EXPECT_FALSE(h.km->is_quarantined(peer));

  // kFlapThreshold short-lived losses inside one window begin a
  // quarantine episode at the base duration.
  for (int i = 0; i < p2p::kFlapThreshold; ++i) {
    h.km->note_flap(peer, kSecond);
  }
  EXPECT_TRUE(h.km->is_quarantined(peer));
  EXPECT_EQ(h.km->quarantine_until(peer), h.net.now() + p2p::kQuarantineBase);
  EXPECT_EQ(h.stats.quarantines, 1u);

  // The episode lapses once the clock passes quarantine_until.
  h.net.run_for(p2p::kQuarantineBase + kSecond);
  EXPECT_FALSE(h.km->is_quarantined(peer));
}

// --- CtmOverlord in isolation -------------------------------------------

// The CTM service against a bare table: hooks capture the packets it
// routes.
struct CtmHarness : ServiceRig {
  CtmHarness() {
    ctm = std::make_unique<p2p::CtmOverlord>(
        net, rng, tracer, config, table, stats, flight, *edges, *linking,
        *km, cache, trace_node,
        p2p::CtmOverlord::Hooks{
            [] { return true; },   // running
            [] { return false; },  // routable
            [this](p2p::RoutedPacket packet) {
              routed.push_back(std::move(packet));
            },
            [this](const p2p::Connection&, p2p::RoutedPacket packet) {
              forwarded.push_back(std::move(packet));
            },
            [] {},  // update_routable
            [] {},  // count_parse_reject
        });
  }

  std::vector<p2p::RoutedPacket> routed;
  std::vector<p2p::RoutedPacket> forwarded;
  std::unique_ptr<p2p::CtmOverlord> ctm;
};

TEST(CtmIsolation, InitiateEmitsOneNearestModeRequest) {
  CtmHarness h;

  // No connections: a CTM has no path out, so initiate is a no-op.
  h.ctm->initiate(p2p::Address{500}, p2p::ConnectionType::kShortcut);
  EXPECT_EQ(h.routed.size(), 0u);
  EXPECT_EQ(h.ctm->pending_count(), 0u);

  h.add_peer(200);
  h.ctm->initiate(p2p::Address{500}, p2p::ConnectionType::kShortcut);
  ASSERT_EQ(h.routed.size(), 1u);
  EXPECT_EQ(h.routed[0].type, p2p::RoutedType::kCtmRequest);
  EXPECT_EQ(h.routed[0].src, p2p::Address{100});
  EXPECT_EQ(h.routed[0].dst, p2p::Address{500});
  EXPECT_EQ(h.routed[0].mode, p2p::DeliveryMode::kNearest);
  EXPECT_EQ(h.ctm->pending_count(), 1u);
  EXPECT_EQ(h.stats.ctm_sent, 1u);
}

TEST(CtmIsolation, SweepRetriesThenExpiresUnansweredRequests) {
  CtmHarness h;
  h.add_peer(200);
  h.ctm->initiate(p2p::Address{500}, p2p::ConnectionType::kShortcut);
  ASSERT_EQ(h.ctm->pending_count(), 1u);

  // Each step advances past any possible timeout (kCtmRtoMax is the
  // ceiling): the retry budget drains, then the request expires.
  for (int i = 0; i < p2p::kCtmMaxRetries + 1; ++i) {
    h.net.run_for(p2p::kCtmRtoMax + kSecond);
    h.ctm->sweep();
  }
  EXPECT_EQ(h.stats.ctm_retries,
            static_cast<std::uint64_t>(p2p::kCtmMaxRetries));
  EXPECT_EQ(h.stats.ctm_timeouts, 1u);
  EXPECT_EQ(h.ctm->pending_count(), 0u);
  // The original send plus every retry went through the route hook.
  EXPECT_EQ(h.routed.size(),
            static_cast<std::size_t>(1 + p2p::kCtmMaxRetries));
}

// --- CensusAgent in isolation -------------------------------------------

// The census service against a bare table holding one successor, a
// second host on the rig's network: every frame the agent forwards is
// captured where it lands, at the successor's endpoint.
struct CensusHarness : ServiceRig {
  explicit CensusHarness(bool defenses) {
    config.defenses_enabled = defenses;
    succ_edges = bind_host(net::Ipv4Addr(128, 0, 0, 2));
    const net::Endpoint at = succ_edges->local_uri().endpoint;
    succ_edges->set_receiver([this, at](const net::Endpoint&,
                                        SharedBytes frame) {
      sent.emplace_back(at, Bytes(frame.view().begin(), frame.view().end()));
    });
    p2p::Connection succ;
    succ.addr = p2p::Address{200};
    succ.type = p2p::ConnectionType::kStructuredNear;
    succ.remote = at;
    table.add(std::move(succ));
    census = std::make_unique<p2p::CensusAgent>(
        net, tracer, config, table, stats, flight, *edges, *linking,
        trace_node,
        p2p::CensusAgent::Hooks{
            [] { return true; },  // running
            [] { return true; },  // routable
        });
  }

  /// A forged census from an origin outside our successor arc (so the
  /// merge rule stays quiet), with an inflated TTL, one hop short of
  /// our own census bound.
  static p2p::CensusFrame forged() {
    p2p::CensusFrame f;
    f.origin = p2p::Address{50};
    f.hops = p2p::kCensusTtl - 1;
    f.ttl = 0xffff;
    return f;
  }

  std::unique_ptr<net::SimEdgeFactory> succ_edges;
  std::vector<std::pair<net::Endpoint, Bytes>> sent;
  std::unique_ptr<p2p::CensusAgent> census;
};

TEST(CensusIsolation, DefensesCapForgedTtlAtOwnCensusBound) {
  CensusHarness h(/*defenses=*/true);
  h.census->handle(CensusHarness::forged());
  h.net.run_for(kSecond);
  EXPECT_TRUE(h.sent.empty());
  EXPECT_EQ(h.stats.merges_initiated, 0u);
}

TEST(CensusIsolation, WithoutDefensesForgedTtlIsForwarded) {
  CensusHarness h(/*defenses=*/false);
  h.census->handle(CensusHarness::forged());
  h.net.run_for(kSecond);
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].first, h.table.right_neighbor()->remote);
  auto next = p2p::CensusFrame::parse(h.sent[0].second);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->origin, p2p::Address{50});
  EXPECT_EQ(next->hops, p2p::kCensusTtl);
  EXPECT_EQ(next->ttl, 0xffff);
}

}  // namespace
}  // namespace wow
