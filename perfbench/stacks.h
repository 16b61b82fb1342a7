#pragma once

// The real-stack workloads: four complete stacks (IpopNode on p2p::Node
// on UdpEdgeFactory, plus a vtcp::TcpStack) in this process, sharing one
// RealtimeEventLoop, talking over 127.0.0.1.  Traffic crosses the host's
// loopback interface, never a real link.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "ipop/ipop_node.h"
#include "seams.h"
#include "transport/realtime.h"
#include "transport/udp_edge.h"
#include "vtcp/tcp.h"

namespace perfbench {

/// One complete stack.  The wrappers exist only in traced runs.
struct Stack {
  wow::transport::UdpEdgeFactory* udp = nullptr;  // owned by the node
  std::unique_ptr<TimedTimers> p2p_timers;
  std::unique_ptr<TimedTimers> vtcp_timers;
  std::unique_ptr<wow::ipop::IpopNode> ipop;
  std::unique_ptr<wow::vtcp::TcpStack> tcp;

  [[nodiscard]] wow::p2p::Node& node() { return ipop->p2p(); }
};

/// A ring of four stacks with one structured-near link per side and no
/// far links, so the two ring neighbours of the bootstrap stack sit
/// exactly two overlay hops apart until (if shortcuts are on) the
/// shortcut overlord links them directly.
class Ring {
 public:
  static constexpr int kStacks = 4;

  /// `log` and `frames` are null in untraced runs.
  Ring(bool shortcuts, std::uint64_t seed, SpanLog* log, FrameCounts* frames);
  ~Ring();
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  /// Start every stack and drive the loop until all are routable and
  /// the measured pair has no direct link.  Returns the wall seconds
  /// from the first start(), or nullopt after a 10 s cap.
  [[nodiscard]] std::optional<double> form();

  /// The pair two hops apart: stream and bulk traffic flows src -> dst.
  [[nodiscard]] Stack& src() { return stacks_[src_]; }
  [[nodiscard]] Stack& dst() { return stacks_[dst_]; }
  [[nodiscard]] std::vector<Stack>& stacks() { return stacks_; }

  /// One loop chunk (a span in traced runs).
  void drive(wow::SimDuration delta);
  /// Drive until `done()` holds or `cap` elapses; returns done().
  template <typename Pred>
  bool drive_until(Pred done, wow::SimDuration cap) {
    std::int64_t deadline = now_ns() + cap * 1000;
    while (!done() && now_ns() < deadline) drive(wow::kMillisecond);
    return done();
  }

  [[nodiscard]] SpanLog* log() { return log_; }
  [[nodiscard]] std::uint64_t p2p_timer_fires() const;
  [[nodiscard]] std::uint64_t vtcp_timer_fires() const;
  [[nodiscard]] std::size_t shortcut_links() const;

 private:
  void add_stack(int index, const std::vector<wow::transport::Uri>& bootstrap);

  bool shortcuts_;
  SpanLog* log_;
  FrameCounts* frames_;
  wow::transport::RealtimeEventLoop loop_;
  wow::Rng rng_;
  wow::Logger logger_;
  wow::MetricsRegistry metrics_;
  wow::Tracer tracer_;
  std::vector<Stack> stacks_;
  int src_ = 0;
  int dst_ = 0;
};

/// Outcome of one timed stream phase.
struct StreamResult {
  std::uint64_t sent = 0;
  /// Delivered inside the timed window.
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  /// Receiver's NodeStats deltas: overlay hops over data packets.
  std::uint64_t hops = 0;
  std::uint64_t hop_packets = 0;

  StreamResult& operator+=(const StreamResult& o);
};

/// Closed-loop IP stream from ring.src() to ring.dst().  Each payload
/// carries its sequence number, its window slot, and a seeded pattern
/// the receiver verifies; the receiver hands the slot back in-process,
/// so only the forward path crosses the overlay.
class Stream {
 public:
  /// A window is this many consecutive deliveries inside one run().
  static constexpr std::uint64_t kWindowPackets = 256;
  /// Room per run(): latencies (at least 5 us apart) and window marks.
  static constexpr std::size_t kMaxSamples = 1 << 16;
  static constexpr std::size_t kMaxMarks = 1 << 12;

  /// The room for latencies and window marks is allocated and touched
  /// here, so recording them never moves the process's peak memory.
  Stream(Ring& ring, std::uint64_t seed);

  /// `window` packets outstanding, `payload_bytes` of IP payload, for
  /// `seconds` of wall time; then drain.  With `timestamps`, records
  /// one-way latencies (send_ip call to handler receipt) while room
  /// lasts.
  StreamResult run(std::size_t payload_bytes, int window, double seconds,
                   bool timestamps);

  /// The last run()'s latencies, in delivery order.
  [[nodiscard]] std::vector<std::int64_t> latencies() const {
    return {latency_ns_.begin(), latency_ns_.begin() + latency_count_};
  }
  /// Delivery rate (packets per second) of each whole window of the
  /// last run(), while mark room lasts.
  [[nodiscard]] std::vector<double> window_rates() const;

 private:
  struct Slot {
    std::uint64_t seq = 0;
    std::int64_t sent_ns = 0;
    bool in_flight = false;
  };
  static constexpr std::size_t kHeader = 9;   // seq (8) + slot (1)
  static constexpr std::size_t kPatternStride = 251;

  void send(std::size_t slot);
  void on_packet(const wow::ipop::IpPacket& packet);
  [[nodiscard]] std::size_t in_flight() const;

  Ring& ring_;
  std::vector<std::uint8_t> pattern_;
  std::vector<Slot> slots_;
  std::size_t payload_bytes_ = 0;
  bool timestamps_ = false;
  bool stopping_ = false;
  std::uint64_t next_seq_ = 1;
  StreamResult result_;
  std::vector<std::int64_t> latency_ns_;
  std::ptrdiff_t latency_count_ = 0;
  /// Wall time at every kWindowPackets-th delivery of the last run().
  std::vector<std::int64_t> marks_;
  std::size_t mark_count_ = 0;
};

/// Outcome of one bulk transfer.
struct BulkResult {
  std::uint64_t bytes = 0;
  bool complete = false;  // EOF without error after every byte
  bool intact = true;     // every byte read matched what was sent
  double seconds = 0.0;      // connect() to EOF, wall
  double cpu_seconds = 0.0;  // process CPU time over the same span
  wow::vtcp::TcpSocket::Stats sender;
  wow::vtcp::TcpSocket::Stats receiver;
  double sender_cwnd_bytes = 0.0;
};

/// A bulk transfer over vtcp from ring.src() to ring.dst().  The source
/// feeds its socket the way apps::BulkSource does (slices of at most
/// 16 KiB, refilled from the writable callback), but with a seeded
/// pattern instead of a constant byte, and it keeps its socket, so the
/// sink can verify every byte and the sender's counters stay readable.
class Bulk {
 public:
  static constexpr std::uint16_t kPort = 5001;

  Bulk(Ring& ring, std::uint64_t seed);
  BulkResult transfer(std::uint64_t bytes, double timeout_s);

 private:
  static constexpr std::size_t kSlice = 16384;
  static constexpr std::size_t kPeriod = 4093;  // pattern repeats, prime

  void feed();

  Ring& ring_;
  std::vector<std::uint8_t> pattern_;  // kPeriod + kSlice bytes
  std::shared_ptr<wow::vtcp::TcpSocket> sender_;
  std::uint64_t size_ = 0;
  std::uint64_t fed_ = 0;
  bool closed_ = false;
};

}  // namespace perfbench
