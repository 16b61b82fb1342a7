#pragma once

// Benchmark-side instrumentation at the program's public seams.  The
// traced run hands these wrappers to the stacks in place of the real
// EdgeFactory and TimerService; the untraced run hands over the real
// objects, so the end-to-end figures carry no instrumentation cost.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "p2p/edge.h"
#include "p2p/packet.h"
#include "sim/timer_service.h"
#include "transport/udp_edge.h"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The seams a span can sit on.  Every span but kLoop is a callback or
/// call the benchmark wraps; kLoop covers one RealtimeEventLoop::run_for
/// chunk, so loop time not covered by a child span is epoll, recvmmsg,
/// sendmmsg and the loop's own dispatch.
enum class Span : std::uint8_t {
  kLoop,           // RealtimeEventLoop::run_for chunk
  kTransportSend,  // EdgeFactory::send_to
  kP2pRx,          // the node's datagram receiver
  kAppRx,          // the benchmark's IPOP protocol handler
  kIpopSend,       // IpopNode::send_ip
  kP2pTimer,       // a timer callback scheduled by p2p::Node
  kVtcpTimer,      // a timer callback scheduled by vtcp::TcpStack
  kSimChunk,       // Simulator::run_for chunk
  kProbe,          // MegascaleNet::converged()
  kCount,
};
inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(Span::kCount);
[[nodiscard]] const char* span_name(Span span);

/// Spans kept in memory: per-kind totals for every span, plus the first
/// kKeptPerKind spans of each kind in full (name, start, end, parent,
/// packet id), written out as JSON lines when the benchmark ends.  A
/// kept span's parent is -1 when it has none or the parent was not kept.
class SpanLog {
 public:
  struct Totals {
    std::uint64_t count = 0;
    /// Duration minus the part covered by child spans.
    std::int64_t self_ns = 0;
  };
  using Snapshot = std::array<Totals, kSpanKinds>;

  static constexpr std::size_t kKeptPerKind = 20000;

  SpanLog() { kept_.reserve(kKeptPerKind * kSpanKinds); }

  void begin(Span span, std::uint64_t id) {
    Open open{span, now_ns(), 0, -1};
    if (kept_per_kind_[static_cast<std::size_t>(span)]++ < kKeptPerKind) {
      open.record = static_cast<std::int32_t>(kept_.size());
      kept_.push_back(Record{span, open.start, 0,
                             stack_.empty() ? -1 : stack_.back().record, id});
    }
    stack_.push_back(open);
  }

  void end() {
    Open open = stack_.back();
    stack_.pop_back();
    std::int64_t stop = now_ns();
    std::int64_t duration = stop - open.start;
    Totals& t = totals_[static_cast<std::size_t>(open.span)];
    ++t.count;
    t.self_ns += duration - open.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += duration;
    if (open.record >= 0) {
      kept_[static_cast<std::size_t>(open.record)].end = stop;
    }
  }

  [[nodiscard]] const Snapshot& totals() const { return totals_; }

  /// Write the kept spans, one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Open {
    Span span;
    std::int64_t start;
    std::int64_t child_ns;
    std::int32_t record;
  };
  struct Record {
    Span span;
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent;
    std::uint64_t id;
  };

  std::vector<Open> stack_;
  std::vector<Record> kept_;
  std::array<std::size_t, kSpanKinds> kept_per_kind_{};
  Snapshot totals_{};
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Span span, std::uint64_t id = 0) : log_(log) {
    if (log_ != nullptr) log_->begin(span, id);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// Inbound frames by wire kind (byte 0) and, for routed frames, by
/// RoutedType (byte RoutedPacket::kTypeOffset).
struct FrameCounts {
  std::array<std::uint64_t, wow::p2p::kFrameKindCount> kind{};
  std::array<std::uint64_t, wow::p2p::kRoutedTypeCount> routed{};
};

/// EdgeFactory that owns the real UdpEdgeFactory, times send_to, and
/// wraps the receiver the node installs so the node's receive path is
/// one span.  edge_to() hands out the inner factory's edges untimed:
/// p2p::Node sends and receives only through the factory.
class TimedEdgeFactory final : public wow::p2p::EdgeFactory {
 public:
  TimedEdgeFactory(std::unique_ptr<wow::transport::UdpEdgeFactory> inner,
                   SpanLog& log, FrameCounts& frames);

  void bind(std::uint16_t port) override { inner_->bind(port); }
  void close() override { inner_->close(); }
  [[nodiscard]] bool is_open() const override { return inner_->is_open(); }

  void send_to(const wow::net::Endpoint& dst,
               wow::SharedBytes payload) override {
    ScopedSpan span(&log_, Span::kTransportSend);
    inner_->send_to(dst, std::move(payload));
  }
  using wow::p2p::EdgeFactory::send_to;

  [[nodiscard]] wow::p2p::Edge& edge_to(
      const wow::net::Endpoint& remote) override {
    return inner_->edge_to(remote);
  }
  [[nodiscard]] wow::transport::Uri local_uri() const override {
    return inner_->local_uri();
  }
  [[nodiscard]] std::vector<wow::transport::Uri> local_uris() const override {
    return inner_->local_uris();
  }
  bool learn_public_uri(const wow::transport::Uri& uri) override {
    return inner_->learn_public_uri(uri);
  }

 private:
  std::unique_ptr<wow::transport::UdpEdgeFactory> inner_;
  SpanLog& log_;
  FrameCounts& frames_;
};

/// TimerService that counts and times the callbacks one layer schedules.
/// Each wrapped callback is larger than EventFn's inline buffer, so it
/// moves to the heap; that allocation is part of the traced run's
/// overhead, not of the untraced figures.
class TimedTimers final : public wow::sim::TimerService {
 public:
  TimedTimers(wow::sim::TimerService& inner, SpanLog& log, Span span)
      : inner_(inner), log_(log), span_(span) {}

  [[nodiscard]] wow::SimTime now() const override { return inner_.now(); }
  wow::sim::TimerHandle schedule(wow::SimDuration delay,
                                 wow::sim::EventFn fn) override {
    return inner_.schedule(delay, [this, fn = std::move(fn)]() mutable {
      ++fires_;
      ScopedSpan span(&log_, span_);
      fn();
    });
  }
  bool cancel(wow::sim::TimerHandle handle) override {
    return inner_.cancel(handle);
  }

  [[nodiscard]] std::uint64_t fires() const { return fires_; }

 private:
  wow::sim::TimerService& inner_;
  SpanLog& log_;
  Span span_;
  std::uint64_t fires_ = 0;
};

}  // namespace perfbench
