#include "wow/fleet.h"

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "p2p/node_deps.h"

namespace wow {

namespace {

/// Random earlier nodes each joiner draws when no well-known list is set.
constexpr int kBootstrapPool = 3;

net::Ipv4Addr fleet_ip(int i) {
  auto u = static_cast<std::uint32_t>(i);
  return net::Ipv4Addr(129, static_cast<std::uint8_t>(u >> 16),
                       static_cast<std::uint8_t>(u >> 8),
                       static_cast<std::uint8_t>(u));
}

}  // namespace

Fleet::Fleet(const FleetSpec& spec) : sim(spec.seed), network(sim) {
  network.set_default_wan(spec.wan);
  const int site_count = std::max(spec.sites, 1);
  sites.reserve(static_cast<std::size_t>(site_count));
  for (int s = 0; s < site_count; ++s) {
    sites.push_back(network.add_site("site" + std::to_string(s)));
  }
  network.faults().set_crash_handler([this](net::HostId host, bool down) {
    auto h = static_cast<std::size_t>(host);
    if (h >= node_of_host_.size() || node_of_host_[h] == kNoNode) return;
    p2p::Node& node = *nodes[node_of_host_[h]];
    if (down && node.running()) node.stop();
    if (!down && !node.running()) node.restart();
  });

  // Bootstrap-pool picks are drawn from their own stream: the
  // simulator's Rng stays reserved for the run, so the event sequence is
  // a pure function of the seed whatever the pool draws.
  Rng topo(spec.seed ^ 0xb007a11ULL);

  const int n = spec.nodes;
  hosts.reserve(static_cast<std::size_t>(n));
  nodes.reserve(static_cast<std::size_t>(n));
  node_of_host_.reserve(static_cast<std::size_t>(n));
  const net::Host::Config host_config;
  for (int i = 0; i < n; ++i) {
    auto& host = network.add_host(
        fleet_ip(i), net::Network::kInternet,
        sites[static_cast<std::size_t>(i % site_count)], host_config);
    p2p::NodeConfig cfg = spec.node;
    cfg.bootstrap.clear();
    if (i > 0 && spec.wellknown_endpoints > 0) {
      // Early joiners only list hosts that exist before them.
      int k = std::min(spec.wellknown_endpoints, i);
      for (int j = 0; j < k; ++j) {
        cfg.bootstrap.push_back(uri(static_cast<std::size_t>(j)));
      }
    } else if (i > 0) {
      // The first joiner after node 0 necessarily gets node 0.
      int pool = std::min(kBootstrapPool, i);
      std::vector<int> picked;
      for (int p = 0; p < pool; ++p) {
        int j = static_cast<int>(topo.uniform(0, i - 1));
        if (std::find(picked.begin(), picked.end(), j) != picked.end()) {
          continue;  // duplicate draw: a smaller pool is fine
        }
        picked.push_back(j);
        cfg.bootstrap.push_back(uri(static_cast<std::size_t>(j)));
      }
    }
    add(host, cfg);
  }
}

p2p::Node& Fleet::add(net::Host& host, p2p::NodeConfig config) {
  config.port = kPort;
  auto id = static_cast<std::size_t>(host.id());
  if (node_of_host_.size() <= id) node_of_host_.resize(id + 1, kNoNode);
  node_of_host_[id] = nodes.size();
  hosts.push_back(&host);
  nodes.push_back(std::make_unique<p2p::Node>(
      p2p::NodeDeps::sim(sim, network, host), std::move(config)));
  return *nodes.back();
}

transport::Uri Fleet::uri(std::size_t i) const {
  return transport::Uri{transport::TransportKind::kUdp,
                        net::Endpoint{hosts[i]->ip(), kPort}};
}

void Fleet::start_all() {
  for (auto& n : nodes) n->start();
}

std::vector<p2p::Node*> Fleet::live() const {
  std::vector<p2p::Node*> out;
  out.reserve(nodes.size());
  for (const auto& n : nodes) {
    if (n->running()) out.push_back(n.get());
  }
  return out;
}

int Fleet::routable_count() const {
  int c = 0;
  for (const auto& n : nodes) {
    if (n->routable()) ++c;
  }
  return c;
}

}  // namespace wow
