#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/network.h"
#include "p2p/node.h"
#include "sim/simulator.h"
#include "transport/uri.h"

namespace wow {

/// What distinguishes one simulated fleet from another.  Everything
/// else — port, addressing, host class — is the same for every fleet.
struct FleetSpec {
  std::uint64_t seed = 1;
  int nodes = 0;
  /// Geographic sites, assigned round-robin over hosts.
  int sites = 1;
  /// Model for every cross-site path.
  net::LinkModel wan = net::Network::kDefaultWan;
  /// Every spec-built node's config; the fleet fills in port and
  /// bootstrap list.
  p2p::NodeConfig node;
  /// Node i > 0 bootstraps off the first min(wellknown_endpoints, i)
  /// nodes (1 = everyone joins through node 0).  0 instead draws up to
  /// three distinct random earlier nodes per joiner from a seeded
  /// topology stream, spreading the join load.
  int wellknown_endpoints = 1;
};

/// A simulated overlay of uniform p2p::Nodes on public hosts: the one
/// builder behind the protocol tests, the chaos soak, the overhead
/// benches and MegascaleNet.  Host i sits at site i % sites with
/// address 129.(i>>16).(i>>8).i — unique, public, and clear of the NAT
/// ranges up to 2^24 hosts — and all hosts share one unnamed host class,
/// so a large fleet costs a single params entry and interner slot.
///
/// A kCrashHost fault on a fleet host stops its node, and the heal
/// restarts it.
class Fleet {
 public:
  static constexpr std::uint16_t kPort = 17000;

  explicit Fleet(const FleetSpec& spec);
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Run a hand-placed node (a NAT host, a second bootstrap universe) on
  /// `host`, listening on kPort.  It joins `hosts`/`nodes` and crash
  /// handling like a spec-built node.
  p2p::Node& add(net::Host& host, p2p::NodeConfig config);

  /// The UDP endpoint of nodes[i], for bootstrap lists.
  [[nodiscard]] transport::Uri uri(std::size_t i) const;

  void start_all();
  /// Running nodes, in fleet order.
  [[nodiscard]] std::vector<p2p::Node*> live() const;
  /// Nodes that report full routability.
  [[nodiscard]] int routable_count() const;

  sim::Simulator sim;
  net::Network network;
  std::vector<net::SiteId> sites;
  /// Parallel arrays: hosts[i] backs nodes[i].
  std::vector<net::Host*> hosts;
  std::vector<std::unique_ptr<p2p::Node>> nodes;

 private:
  static constexpr std::size_t kNoNode = ~std::size_t{0};
  /// HostId -> index into nodes, or kNoNode for hosts without one.
  std::vector<std::size_t> node_of_host_;
};

}  // namespace wow
