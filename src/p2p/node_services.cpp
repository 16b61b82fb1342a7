// The composition root's wiring: construct the protocol services with
// the sibling services they call and the up-call hooks into Node, and
// populate the frame/payload dispatch registries (the announce table of
// §III).  Pure plumbing — every behavior lives in the service
// implementations or in node.cpp.
#include "p2p/bootstrap_overlord.h"
#include "p2p/census_agent.h"
#include "p2p/ctm_overlord.h"
#include "p2p/keepalive.h"
#include "p2p/node.h"
#include "p2p/relay_agent.h"
#include "p2p/shortcut_overlord.h"

namespace wow::p2p {

void Node::build_services() {
  keepalive_ = std::make_unique<KeepaliveManager>(
      timers_, tracer_, logger_, config_, table_, stats_, flight_,
      trace_node_, log_component_,
      KeepaliveManager::Hooks{
          [this](const Connection& c, const LinkFrame& frame) {
            send_link_frame(c, frame);
          },
          [this](const Address& peer, DisconnectCause cause) {
            drop_connection(peer, /*send_close=*/false, cause);
          },
      });

  ctm_ = std::make_unique<CtmOverlord>(
      timers_, rng_, tracer_, config_, table_, stats_, flight_, *edges_,
      *linking_, *keepalive_, peer_cache_, trace_node_,
      CtmOverlord::Hooks{
          [this] { return running_; },
          [this] { return routable(); },
          [this](RoutedPacket packet) { route(std::move(packet)); },
          [this](const Connection& next, RoutedPacket packet) {
            forward_to(next, std::move(packet));
          },
          [this] { update_routable(); },
          [this] { count_parse_reject(); },
      });

  relays_ = std::make_unique<RelayAgent>(
      timers_, tracer_, logger_, config_, table_, stats_, flight_, *edges_,
      *linking_, *keepalive_, trace_node_, log_component_,
      RelayAgent::Hooks{
          [this](RoutedPacket packet, const net::Endpoint& from) {
            handle_routed(std::move(packet), from);
          },
          [this](const LinkFrame& frame, const net::Endpoint& from) {
            handle_link(frame, from);
          },
          [this](const Connection& c, const LinkFrame& frame) {
            send_link_frame(c, frame);
          },
          [this](const Address& peer, DisconnectCause cause) {
            drop_connection(peer, /*send_close=*/false, cause);
          },
          [this](const net::Endpoint& from, int weight) {
            note_misbehavior(from, weight);
          },
          [this](const Connection& c) {
            if (connection_handler_) connection_handler_(c);
          },
          [this] { update_routable(); },
          [this] { count_parse_reject(); },
      });

  bootstrap_ = std::make_unique<BootstrapOverlord>(
      timers_, rng_, tracer_, config_, table_, *edges_, stats_, peer_cache_,
      flight_, *linking_, trace_node_,
      BootstrapOverlord::Hooks{
          [this](const Address& peer) {
            drop_connection(peer, /*send_close=*/true,
                            DisconnectCause::kTrimmed);
          },
      });

  census_ = std::make_unique<CensusAgent>(
      timers_, tracer_, config_, table_, stats_, flight_, *edges_, *linking_,
      trace_node_,
      CensusAgent::Hooks{
          [this] { return running_; },
          [this] { return routable(); },
      });

  shortcuts_ = std::make_unique<ShortcutOverlord>(
      config_.shortcut,
      ShortcutOverlord::Hooks{
          [this](const Address& a) { return table_.contains(a); },
          [this](const Address& a) { return linking_->attempting(a); },
          [this] { return shortcut_connection_count(); },
          [this](const Address& a) {
            initiate_ctm(a, ConnectionType::kShortcut);
          },
          [this](const Address& a) { return is_quarantined(a); },
          [this](const Address& a) { return keepalive_->peer_rto_hint(a); },
      });
}

void Node::register_handlers() {
  frames_.add(static_cast<std::uint8_t>(FrameKind::kRouted),
              [this](SharedBytes payload, const net::Endpoint& from) {
                // Zero-copy: the packet adopts the frame buffer;
                // forwarding rewrites its mutable header fields in place
                // instead of re-serializing.
                auto packet = RoutedPacket::parse(std::move(payload));
                if (packet) {
                  handle_routed(std::move(*packet), from);
                } else {
                  count_parse_reject();
                }
              });
  frames_.add(static_cast<std::uint8_t>(FrameKind::kLink),
              [this](SharedBytes payload, const net::Endpoint& from) {
                auto frame = LinkFrame::parse(payload.view());
                if (frame) {
                  handle_link(*frame, from);
                } else {
                  count_parse_reject();
                }
              });
  frames_.add(static_cast<std::uint8_t>(FrameKind::kRelay),
              [this](SharedBytes payload, const net::Endpoint& from) {
                auto relay = RelayFrame::parse(std::move(payload));
                if (relay) {
                  relays_->handle_frame(std::move(*relay), from);
                } else {
                  count_parse_reject();
                }
              });
  frames_.add(static_cast<std::uint8_t>(FrameKind::kCensus),
              [this](SharedBytes payload, const net::Endpoint&) {
                auto census = CensusFrame::parse(payload.view());
                if (census) {
                  census_->handle(*census);
                } else {
                  count_parse_reject();
                }
              });

  routed_.add(static_cast<std::uint8_t>(RoutedType::kData),
              [this](const RoutedPacket& packet, const net::Endpoint&) {
                deliver_data(packet);
              });
  routed_.add(static_cast<std::uint8_t>(RoutedType::kCtmRequest),
              [this](const RoutedPacket& packet, const net::Endpoint& from) {
                ctm_->handle_request(packet, from);
              });
  routed_.add(static_cast<std::uint8_t>(RoutedType::kCtmReply),
              [this](const RoutedPacket& packet, const net::Endpoint& from) {
                if (packet.dst == config_.address) {
                  ctm_->handle_reply(packet, from);
                }
              });
}

}  // namespace wow::p2p
