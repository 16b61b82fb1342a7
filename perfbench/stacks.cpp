#include "stacks.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>

namespace perfbench {

using namespace wow;

namespace {

const net::Ipv4Addr kLocalhost(127, 0, 0, 1);

net::Ipv4Addr vip_of(int index) {
  return net::Ipv4Addr(10, 128, 0, static_cast<std::uint8_t>(1 + index));
}

/// Process CPU seconds (user + system).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace

// --- Ring ----------------------------------------------------------------

Ring::Ring(bool shortcuts, std::uint64_t seed, SpanLog* log,
           FrameCounts* frames)
    : shortcuts_(shortcuts), log_(log), frames_(frames), rng_(seed) {
  stacks_.reserve(kStacks);
  // Ring order is fixed by the virtual IPs; the bootstrap stack's two
  // ring neighbours face each other across the four-node ring.
  std::array<int, kStacks> order{};
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [](int a, int b) {
    return ipop::address_for_vip(vip_of(a)) < ipop::address_for_vip(vip_of(b));
  });
  int boot = static_cast<int>(std::find(order.begin(), order.end(), 0) -
                              order.begin());
  src_ = order[static_cast<std::size_t>((boot + 1) % kStacks)];
  dst_ = order[static_cast<std::size_t>((boot + 3) % kStacks)];
}

Ring::~Ring() {
  for (Stack& s : stacks_) s.ipop->stop();
}

void Ring::add_stack(int index,
                     const std::vector<transport::Uri>& bootstrap) {
  Stack s;
  auto udp = std::make_unique<transport::UdpEdgeFactory>(loop_, kLocalhost);
  s.udp = udp.get();

  p2p::NodeDeps deps;
  deps.timers = &loop_;
  deps.rng = &rng_;
  deps.logger = &logger_;
  deps.metrics = &metrics_;
  deps.tracer = &tracer_;
  sim::TimerService* tcp_timers = &loop_;
  if (log_ != nullptr) {
    s.p2p_timers = std::make_unique<TimedTimers>(loop_, *log_, Span::kP2pTimer);
    s.vtcp_timers =
        std::make_unique<TimedTimers>(loop_, *log_, Span::kVtcpTimer);
    deps.timers = s.p2p_timers.get();
    tcp_timers = s.vtcp_timers.get();
    deps.edges =
        std::make_unique<TimedEdgeFactory>(std::move(udp), *log_, *frames_);
  } else {
    deps.edges = std::move(udp);
  }

  ipop::IpopNode::Config config;
  config.vip = vip_of(index);
  config.p2p.port = 0;
  config.p2p.near_per_side = 1;
  config.p2p.far_target = 0;
  config.p2p.shortcut.enabled = shortcuts_;
  // Fast maintenance so bootstrap and linking finish in well under a
  // second of real time instead of the default 2 s ticks.
  config.p2p.maintenance_period = 50 * kMillisecond;
  config.p2p.bootstrap = bootstrap;
  s.ipop = std::make_unique<ipop::IpopNode>(std::move(deps), config);
  s.tcp = std::make_unique<vtcp::TcpStack>(*tcp_timers, *s.ipop);
  stacks_.push_back(std::move(s));
}

std::optional<double> Ring::form() {
  add_stack(0, {});
  std::int64_t t0 = now_ns();
  stacks_[0].ipop->start();
  std::vector<transport::Uri> bootstrap{stacks_[0].udp->local_uri()};
  for (int i = 1; i < kStacks; ++i) {
    add_stack(i, bootstrap);
    stacks_.back().ipop->start();
  }
  bool formed = drive_until(
      [&] {
        for (Stack& s : stacks_) {
          if (!s.node().routable()) return false;
        }
        return !src().node().has_direct(dst().node().address()) &&
               !dst().node().has_direct(src().node().address());
      },
      10 * kSecond);
  if (!formed) return std::nullopt;
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

void Ring::drive(SimDuration delta) {
  ScopedSpan span(log_, Span::kLoop);
  loop_.run_for(delta);
}

std::uint64_t Ring::p2p_timer_fires() const {
  std::uint64_t n = 0;
  for (const Stack& s : stacks_) {
    n += s.p2p_timers ? s.p2p_timers->fires() : 0;
  }
  return n;
}

std::uint64_t Ring::vtcp_timer_fires() const {
  std::uint64_t n = 0;
  for (const Stack& s : stacks_) {
    n += s.vtcp_timers ? s.vtcp_timers->fires() : 0;
  }
  return n;
}

std::size_t Ring::shortcut_links() const {
  std::size_t n = 0;
  for (const Stack& s : stacks_) {
    n += s.ipop->p2p().connections().count(p2p::ConnectionType::kShortcut);
  }
  return n;
}

// --- Stream --------------------------------------------------------------

StreamResult& StreamResult::operator+=(const StreamResult& o) {
  sent += o.sent;
  delivered += o.delivered;
  lost += o.lost;
  duplicated += o.duplicated;
  corrupted += o.corrupted;
  seconds += o.seconds;
  cpu_seconds += o.cpu_seconds;
  hops += o.hops;
  hop_packets += o.hop_packets;
  return *this;
}

Stream::Stream(Ring& ring, std::uint64_t seed)
    : ring_(ring), latency_ns_(kMaxSamples, 0), marks_(kMaxMarks, 0) {
  Rng rng(seed);
  pattern_.resize(transport::UdpEdgeFactory::kMaxDatagram + kPatternStride);
  for (auto& b : pattern_) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  ring_.dst().ipop->set_protocol_handler(
      ipop::IpProto::kUdp, [this](const ipop::IpPacket& packet) {
        ScopedSpan span(ring_.log(), Span::kAppRx);
        on_packet(packet);
      });
}

std::size_t Stream::in_flight() const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const Slot& s) { return s.in_flight; }));
}

void Stream::send(std::size_t slot) {
  Slot& s = slots_[slot];
  s.seq = next_seq_++;
  s.in_flight = true;
  ipop::IpPacket packet;
  packet.dst = ring_.dst().ipop->vip();
  packet.proto = ipop::IpProto::kUdp;
  packet.payload.resize(payload_bytes_);
  std::uint8_t* p = packet.payload.data();
  std::memcpy(p, &s.seq, 8);
  p[8] = static_cast<std::uint8_t>(slot);
  std::memcpy(p + kHeader, pattern_.data() + s.seq % kPatternStride,
              payload_bytes_ - kHeader);
  ++result_.sent;
  if (timestamps_) s.sent_ns = now_ns();
  ScopedSpan span(ring_.log(), Span::kIpopSend, s.seq);
  ring_.src().ipop->send_ip(std::move(packet));
}

void Stream::on_packet(const ipop::IpPacket& packet) {
  std::int64_t arrived = timestamps_ ? now_ns() : 0;
  const Bytes& b = packet.payload;
  if (b.size() != payload_bytes_ || packet.src != ring_.src().ipop->vip()) {
    ++result_.corrupted;
    return;
  }
  std::uint64_t seq = 0;
  std::memcpy(&seq, b.data(), 8);
  std::size_t slot = b[8];
  if (slot >= slots_.size() || !slots_[slot].in_flight ||
      slots_[slot].seq != seq) {
    ++result_.duplicated;
    return;
  }
  Slot& s = slots_[slot];
  s.in_flight = false;
  if (std::memcmp(b.data() + kHeader, pattern_.data() + seq % kPatternStride,
                  b.size() - kHeader) != 0) {
    ++result_.corrupted;
  } else if (!stopping_) {
    ++result_.delivered;
    if (result_.delivered % kWindowPackets == 0 &&
        mark_count_ < marks_.size()) {
      marks_[mark_count_++] = now_ns();
    }
    if (timestamps_ && latency_count_ < std::ssize(latency_ns_)) {
      latency_ns_[static_cast<std::size_t>(latency_count_++)] =
          arrived - s.sent_ns;
    }
  }
  if (!stopping_) send(slot);
}

std::vector<double> Stream::window_rates() const {
  std::vector<double> rates;
  for (std::size_t i = 1; i < mark_count_; ++i) {
    rates.push_back(static_cast<double>(kWindowPackets) * 1e9 /
                    static_cast<double>(marks_[i] - marks_[i - 1]));
  }
  return rates;
}

StreamResult Stream::run(std::size_t payload_bytes, int window, double seconds,
                         bool timestamps) {
  result_ = StreamResult{};
  latency_count_ = 0;
  mark_count_ = 0;
  slots_.assign(static_cast<std::size_t>(window), Slot{});
  payload_bytes_ = std::max(payload_bytes, kHeader);
  timestamps_ = timestamps;
  stopping_ = false;

  const p2p::NodeStats& rx = ring_.dst().node().stats();
  std::uint64_t hops0 = rx.delivered_hops;
  std::uint64_t packets0 = rx.data_delivered;
  double cpu0 = cpu_seconds();
  std::int64_t t0 = now_ns();
  std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  constexpr SimDuration kChunk = 50 * kMillisecond;

  for (std::size_t i = 0; i < slots_.size(); ++i) send(i);
  std::uint64_t progress = 0;
  for (std::int64_t now = t0; now < deadline; now = now_ns()) {
    SimDuration chunk = std::min<SimDuration>(kChunk, (deadline - now) / 1000);
    ring_.drive(chunk);
    std::uint64_t moved =
        result_.delivered + result_.corrupted + result_.duplicated;
    if (moved == progress && chunk == kChunk) {
      // A whole chunk without an arrival: what is in flight is lost.
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (!slots_[i].in_flight) continue;
        ++result_.lost;
        send(i);
      }
    }
    progress = moved;
  }
  result_.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  result_.cpu_seconds = cpu_seconds() - cpu0;
  stopping_ = true;
  ring_.drive_until([&] { return in_flight() == 0; }, 200 * kMillisecond);
  result_.lost += in_flight();
  result_.hops = rx.delivered_hops - hops0;
  result_.hop_packets = rx.data_delivered - packets0;
  return result_;
}

// --- Bulk ----------------------------------------------------------------

Bulk::Bulk(Ring& ring, std::uint64_t seed) : ring_(ring) {
  Rng rng(seed);
  pattern_.resize(kPeriod + kSlice);
  for (std::size_t i = 0; i < pattern_.size(); ++i) {
    pattern_[i] = i < kPeriod ? static_cast<std::uint8_t>(rng.uniform(0, 255))
                              : pattern_[i - kPeriod];
  }
  ring_.src().tcp->listen(kPort, [this](std::shared_ptr<vtcp::TcpSocket> s) {
    sender_ = std::move(s);
    sender_->set_established_handler([this] { feed(); });
    sender_->set_writable_handler([this] { feed(); });
  });
}

void Bulk::feed() {
  while (fed_ < size_) {
    std::size_t room = sender_->send_buffer_room();
    if (room == 0) return;
    auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>({size_ - fed_, room, kSlice}));
    const std::uint8_t* from = pattern_.data() + fed_ % kPeriod;
    sender_->send(Bytes(from, from + n));
    fed_ += n;
  }
  if (!closed_) {
    closed_ = true;
    sender_->close();
  }
}

BulkResult Bulk::transfer(std::uint64_t bytes, double timeout_s) {
  size_ = bytes;
  fed_ = 0;
  closed_ = false;
  sender_.reset();
  std::uint64_t received = 0;
  bool corrupt = false;
  bool done = false;
  bool error = false;
  std::int64_t finished = 0;

  BulkResult result;
  double cpu0 = cpu_seconds();
  double cpu1 = 0.0;
  std::int64_t t0 = now_ns();
  std::shared_ptr<vtcp::TcpSocket> socket =
      ring_.dst().tcp->connect(ring_.src().ipop->vip(), kPort);
  socket->set_data_handler([&](const Bytes& data) {
    for (std::size_t off = 0; off < data.size(); off += kSlice) {
      std::size_t n = std::min(kSlice, data.size() - off);
      if (std::memcmp(data.data() + off, pattern_.data() + received % kPeriod,
                      n) != 0) {
        corrupt = true;
      }
      received += n;
    }
  });
  socket->set_closed_handler([&](bool err) {
    finished = now_ns();
    cpu1 = cpu_seconds();
    error = err;
    done = true;
  });
  ring_.drive_until([&] { return done; },
                    static_cast<SimDuration>(timeout_s * 1e6));
  result.bytes = received;
  result.complete = done && !error && received == bytes;
  result.intact = !corrupt;
  result.seconds = done ? static_cast<double>(finished - t0) * 1e-9 : 0.0;
  result.cpu_seconds = done ? cpu1 - cpu0 : 0.0;
  result.receiver = socket->stats();
  if (sender_) {
    result.sender = sender_->stats();
    result.sender_cwnd_bytes = sender_->cwnd_bytes();
  }

  // Tear the connection down outside the timed window.
  socket->set_data_handler({});
  socket->set_closed_handler({});
  socket->close();
  ring_.drive_until(
      [&] {
        return ring_.src().tcp->open_sockets() == 0 &&
               ring_.dst().tcp->open_sockets() == 0;
      },
      200 * kMillisecond);
  if (sender_) {
    sender_->set_established_handler({});
    sender_->set_writable_handler({});
  }
  return result;
}

}  // namespace perfbench
