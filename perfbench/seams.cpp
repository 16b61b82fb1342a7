#include "seams.h"

#include <cstdio>

namespace perfbench {

const char* span_name(Span span) {
  switch (span) {
    case Span::kLoop: return "transport.loop";
    case Span::kTransportSend: return "transport.send";
    case Span::kP2pRx: return "p2p.rx";
    case Span::kAppRx: return "app.rx";
    case Span::kIpopSend: return "ipop.send";
    case Span::kP2pTimer: return "p2p.timer";
    case Span::kVtcpTimer: return "vtcp.timer";
    case Span::kSimChunk: return "sim.run_for";
    case Span::kProbe: return "wow.probe";
    case Span::kCount: break;
  }
  return "?";
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Record& r = kept_[i];
    std::fprintf(out,
                 "{\"i\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"id\":%llu}\n",
                 i, span_name(r.span), static_cast<long long>(r.start),
                 static_cast<long long>(r.end), r.parent,
                 static_cast<unsigned long long>(r.id));
  }
  return std::fclose(out) == 0;
}

TimedEdgeFactory::TimedEdgeFactory(
    std::unique_ptr<wow::transport::UdpEdgeFactory> inner, SpanLog& log,
    FrameCounts& frames)
    : inner_(std::move(inner)), log_(log), frames_(frames) {
  inner_->set_receiver(
      [this](const wow::net::Endpoint& src, wow::SharedBytes payload) {
        if (!payload.empty()) {
          std::uint8_t kind = payload.data()[0];
          if (kind < frames_.kind.size()) ++frames_.kind[kind];
          if (kind == static_cast<std::uint8_t>(wow::p2p::FrameKind::kRouted) &&
              payload.size() > wow::p2p::RoutedPacket::kTypeOffset) {
            std::uint8_t type =
                payload.data()[wow::p2p::RoutedPacket::kTypeOffset];
            if (type < frames_.routed.size()) ++frames_.routed[type];
          }
        }
        ScopedSpan span(&log_, Span::kP2pRx);
        deliver(src, std::move(payload));
      });
}

}  // namespace perfbench
