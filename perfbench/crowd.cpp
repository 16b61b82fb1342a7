#include "crowd.h"

#include <algorithm>

#include "wow/megascale.h"

namespace perfbench {

using namespace wow;

CrowdResult run_crowd(int nodes, std::uint64_t seed, bool check_oracle,
                      SpanLog* log) {
  // Fine enough that ring_converge_s resolves seed-to-seed differences;
  // the probes cost about 2% of a crowd's wall time (wow.probe_share).
  constexpr SimDuration kChunk = 250 * kMillisecond;
  constexpr SimDuration kSettle = 16 * kSecond;
  constexpr std::size_t kOracleRoutePairs = 500;

  CrowdResult r;
  r.nodes = static_cast<std::size_t>(nodes);

  MegascaleConfig cfg;
  cfg.seed = seed;
  cfg.nodes = nodes;
  cfg.flyweight = true;
  cfg.batched_delivery = true;
  cfg.wellknown_endpoints = 3;
  cfg.join_stagger = 0;

  std::int64_t t0 = now_ns();
  MegascaleNet net(cfg);
  net.start_burst(r.nodes);
  std::int64_t t1 = now_ns();
  r.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  SimTime burst_at = net.sim.now();

  // A crowd that has not converged when MegascaleNet's own settle
  // horizon lapses counts as failed.  Rare crowds take many simulated
  // minutes, while one stale near pointer waits out stabilization and
  // re-probe cycles: seed 106031 with 1000 nodes converges at 630 s,
  // seed 108017 with 1500 nodes only at 2760 s.
  while (net.sim.now() - burst_at < cfg.settle_horizon) {
    std::int64_t c0 = now_ns();
    {
      ScopedSpan span(log, Span::kSimChunk);
      net.sim.run_for(kChunk);
    }
    std::int64_t c1 = now_ns();
    r.run_s += static_cast<double>(c1 - c0) * 1e-9;
    r.pending_peak = std::max(r.pending_peak, net.sim.pending_events());
    r.tombstone_peak = std::max(r.tombstone_peak, net.sim.tombstone_slack());
    if (log != nullptr) {
      for (const auto& node : net.nodes) {
        r.table_max = std::max(r.table_max, node->connections().size());
      }
    }
    bool converged = false;
    std::int64_t p0 = now_ns();
    {
      ScopedSpan span(log, Span::kProbe);
      converged = net.converged();
    }
    std::int64_t p1 = now_ns();
    r.probe_s += static_cast<double>(p1 - p0) * 1e-9;
    r.chunk_s.push_back(static_cast<double>(p1 - c0) * 1e-9);
    if (converged) {
      r.converged = true;
      break;
    }
  }
  r.wall_s = static_cast<double>(now_ns() - t1) * 1e-9;
  r.converge_sim_s = to_seconds(net.sim.now() - burst_at);

  r.rings = net.ring_census();
  MegascaleNet::JoinStats joins = net.join_latency_stats();
  r.joined = joins.joined;
  r.join_p99_s = joins.p99_s;
  r.events = net.sim.executed_events();
  for (const auto& node : net.nodes) {
    const p2p::NodeStats& s = node->stats();
    r.ctm_sent += s.ctm_sent;
    r.pings_sent += s.pings_sent;
    r.bootstrap_probes += s.bootstrap_probes;
    r.connections_added += s.connections_added;
    r.connections_lost += s.connections_lost;
    r.parse_rejects += s.parse_rejects;
  }
  const net::Network::Stats& ns = net.network.stats();
  r.net_sent = ns.sent;
  r.net_delivered = ns.delivered;
  for (std::uint64_t d : ns.dropped) r.net_drops += d;
  r.bytes_per_node = net.memory_report().node_bytes_per_node();
  if (check_oracle) {
    // The walk closes the ring before every predecessor pointer has been
    // refreshed; the structural checks apply once maintenance has run.
    net.sim.run_for(kSettle);
    p2p::OracleReport oracle = net.oracle_check(kOracleRoutePairs);
    r.oracle_ok = oracle.ok;
    if (!oracle.ok) r.oracle_detail = oracle.to_string();
  }
  return r;
}

}  // namespace perfbench
