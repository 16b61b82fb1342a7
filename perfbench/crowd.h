#pragma once

// The simulated workload: a flash crowd on wow::MegascaleNet.  Every node
// starts in the same simulated instant against three well-known
// bootstrap endpoints; the benchmark drives Simulator::run_for in fixed
// chunks until the ring converges, sampling the layers between chunks.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "seams.h"

namespace perfbench {

struct CrowdResult {
  bool converged = false;
  std::size_t rings = 0;
  bool oracle_ok = true;
  std::string oracle_detail;
  std::size_t nodes = 0;
  std::size_t joined = 0;

  double setup_s = 0.0;         // construction + burst, wall
  double wall_s = 0.0;          // burst to single ring, wall
  double converge_sim_s = 0.0;  // burst to single ring, simulated
  double join_p99_s = 0.0;      // simulated, over `joined` nodes
  double run_s = 0.0;           // wall inside Simulator::run_for
  double probe_s = 0.0;         // wall inside converged()
  /// Wall time of each chunk up to convergence: its run_for and its
  /// convergence probe, nearly all of wall_s.
  std::vector<double> chunk_s;

  std::uint64_t events = 0;
  std::size_t pending_peak = 0;
  std::size_t tombstone_peak = 0;
  std::size_t table_max = 0;

  std::uint64_t ctm_sent = 0;
  std::uint64_t pings_sent = 0;
  std::uint64_t bootstrap_probes = 0;
  std::uint64_t connections_added = 0;
  std::uint64_t connections_lost = 0;
  std::uint64_t parse_rejects = 0;

  std::uint64_t net_sent = 0;
  std::uint64_t net_delivered = 0;
  std::uint64_t net_drops = 0;

  double bytes_per_node = 0.0;
};

/// One crowd of `nodes` nodes; `log` (traced runs) receives a span per
/// run_for chunk and per convergence probe, and only traced runs sample
/// the largest ConnectionTable between chunks.  With `check_oracle`, the
/// crowd runs on past convergence until maintenance has refreshed every
/// pointer, then must pass a capped Oracle sweep.
[[nodiscard]] CrowdResult run_crowd(int nodes, std::uint64_t seed,
                                    bool check_oracle, SpanLog* log);

}  // namespace perfbench
