// wowbench: the repository's end-to-end benchmark.  One run builds four
// real stacks over 127.0.0.1 and interleaves IP stream slices and vtcp
// bulk transfers over them with simulated flash crowds, checks every
// output, and prints each metric with its unit.  The last stdout line is
// one JSON object: end-to-end metrics with --trace 0, per-layer metrics
// (from a second, instrumented pass) with --trace 1.  perfbench/README.md
// describes the workloads and metrics.
//
//   wowbench --workload two_hop --seed 1 --seconds 50 --trace 0
//            [--spans FILE]

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "crowd.h"
#include "seams.h"
#include "stacks.h"

namespace perfbench {
namespace {

/// A workload fixes how the real ring is configured and how large the
/// simulated crowds are; every run executes both substrates.
struct Workload {
  const char* name;
  /// Shortcut overlord on: stream and bulk cross one direct overlay hop
  /// once the shortcut forms.  Off: they cross a transit stack.
  bool shortcuts;
  int crowd_nodes;
  /// Distinct crowds of a run; crowd i uses crowd seed i % crowd_seeds,
  /// so each one repeats every crowd_seeds crowds.
  std::size_t crowd_seeds;
};

constexpr Workload kWorkloads[] = {
    {"two_hop", false, 1000, 16},
    {"shortcut", true, 1500, 10},
};

// A run is a series of rounds that interleave every timed part (stream
// slices, a crowd, a bulk transfer, stream slices, the same crowd
// again), so every metric samples the whole run instead of one stretch
// of it.  The shared host slows the CPU-bound parts in bursts of a
// fraction of a second, and the mix of slow and fast bursts drifts
// over minutes; a median over the run follows that drift.  So the
// CPU-bound metrics report the program's undisturbed speed instead:
// the fastest 5% of short stream windows, and for a crowd, the
// fastest of its runs for each simulated chunk.
constexpr int kMinRounds = 3;
/// Runs of each distinct crowd in an untraced run at least, whatever
/// --seconds says.
constexpr std::size_t kCrowdRepeats = 3;
constexpr double kSliceSeconds = 0.1;  // per stream slice
constexpr std::uint64_t kBulkBytes = 8ull << 20;  // per round
constexpr int kRingSetups = 15;
constexpr int kWindow = 16;
constexpr std::size_t kSmallBytes = 64;
constexpr std::size_t kMtuBytes = 1400;
/// Consecutive latency samples per latency window: enough that ten
/// samples lie beyond each window's p99.
constexpr std::size_t kLatencyWindow = 1024;
/// The fastest share of windows that the CPU-bound stream metrics
/// report: the 95th percentile of window rates, the 5th percentile of
/// window latencies.
constexpr double kUndisturbed = 0.05;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans;
};

bool parse_options(int argc, char** argv, Options& o) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) o.workload = &w;
      }
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && o.seconds > 0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      o.trace = value == "1";
    } else if (key == "--spans") {
      o.spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && o.workload != nullptr && have_seed &&
         have_seconds && have_trace;
}

// --- small statistics ------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(
      v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// The kernel's count of UDP datagrams dropped because a socket's
/// receive buffer was full (RcvbufErrors in /proc/net/snmp).  It covers
/// the whole network namespace; nothing else here sends UDP.
std::uint64_t udp_rcvbuf_errors() {
  std::ifstream snmp("/proc/net/snmp");
  std::string header;
  std::string line;
  while (std::getline(snmp, line)) {
    if (line.rfind("Udp:", 0) != 0) continue;
    if (header.empty()) {
      header = line;
      continue;
    }
    std::istringstream names(header);
    std::istringstream values(line);
    std::string name;
    std::string value;
    while (names >> name && values >> value) {
      if (name == "RcvbufErrors") {
        return std::strtoull(value.c_str(), nullptr, 10);
      }
    }
  }
  return 0;
}

SpanLog::Snapshot minus(const SpanLog::Snapshot& a,
                        const SpanLog::Snapshot& b) {
  SpanLog::Snapshot d{};
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i].count = a[i].count - b[i].count;
    d[i].self_ns = a[i].self_ns - b[i].self_ns;
  }
  return d;
}

const SpanLog::Totals& at(const SpanLog::Snapshot& s, Span span) {
  return s[static_cast<std::size_t>(span)];
}

double self_ns_per(const SpanLog::Snapshot& s, Span span, double per) {
  return ratio(static_cast<double>(at(s, span).self_ns), per);
}

using UdpStats = wow::transport::UdpEdgeFactory::Stats;

UdpStats udp_totals(Ring& ring) {
  UdpStats t;
  for (Stack& s : ring.stacks()) {
    const UdpStats& u = s.udp->stats();
    t.datagrams_sent += u.datagrams_sent;
    t.datagrams_received += u.datagrams_received;
    t.send_batches += u.send_batches;
    t.recv_batches += u.recv_batches;
    t.send_errors += u.send_errors;
    t.dropped_backlog += u.dropped_backlog;
  }
  return t;
}

// --- one pass --------------------------------------------------------------

/// Stream results of one phase over all rounds, with the layer deltas
/// taken around each slice.
struct Phase {
  StreamResult stream;
  std::size_t slices = 0;
  /// Delivered packets per second in each window of
  /// Stream::kWindowPackets deliveries.
  std::vector<double> rates;
  /// Latency slices: p50 and p99 of each window of kLatencyWindow
  /// consecutive samples.
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::size_t samples = 0;
  SpanLog::Snapshot spans{};
  std::uint64_t dgrams_sent = 0;
  std::uint64_t send_batches = 0;
  std::uint64_t dgrams_received = 0;
  std::uint64_t recv_batches = 0;
};

/// Everything one pass over the workload measured.
struct Pass {
  std::vector<double> ring_setups;
  std::vector<std::string> problems;
  Phase small;
  Phase mtu;
  Phase lat;
  std::vector<BulkResult> bulks;
  std::uint64_t bulk_hops = 0;
  std::uint64_t bulk_hop_packets = 0;
  std::uint64_t bulk_vtcp_fires = 0;
  std::uint64_t bulk_rcvbuf_drops = 0;
  /// In run order; crowd i is a repeat of crowd i % crowd_seeds.
  std::vector<CrowdResult> crowds;
  std::size_t crowd_seeds = 1;
  SpanLog::Snapshot spans{};
  FrameCounts frames;
  std::uint64_t p2p_timer_fires = 0;
  UdpStats udp{};
  std::uint64_t p2p_parse_rejects = 0;
  std::uint64_t ipop_parse_rejects = 0;
  std::uint64_t ipop_dropped_not_ours = 0;
};

void run_slice(Ring& ring, Stream& stream, Phase& phase, std::size_t bytes,
               int window, bool timestamps) {
  SpanLog* log = ring.log();
  SpanLog::Snapshot before = log ? log->totals() : SpanLog::Snapshot{};
  UdpStats u0 = udp_totals(ring);
  StreamResult slice = stream.run(bytes, window, kSliceSeconds, timestamps);
  UdpStats u1 = udp_totals(ring);
  phase.stream += slice;
  ++phase.slices;
  for (double rate : stream.window_rates()) phase.rates.push_back(rate);
  std::vector<std::int64_t> lat = stream.latencies();
  phase.samples += lat.size();
  for (std::size_t i = 0; i + kLatencyWindow <= lat.size();
       i += kLatencyWindow) {
    std::vector<std::int64_t> window(
        lat.begin() + static_cast<std::ptrdiff_t>(i),
        lat.begin() + static_cast<std::ptrdiff_t>(i + kLatencyWindow));
    phase.p50_us.push_back(percentile(window, 0.50) / 1e3);
    phase.p99_us.push_back(percentile(window, 0.99) / 1e3);
  }
  if (log) {
    SpanLog::Snapshot d = minus(log->totals(), before);
    for (std::size_t i = 0; i < d.size(); ++i) {
      phase.spans[i].count += d[i].count;
      phase.spans[i].self_ns += d[i].self_ns;
    }
  }
  phase.dgrams_sent += u1.datagrams_sent - u0.datagrams_sent;
  phase.send_batches += u1.send_batches - u0.send_batches;
  phase.dgrams_received += u1.datagrams_received - u0.datagrams_received;
  phase.recv_batches += u1.recv_batches - u0.recv_batches;
}

/// The crowd seed of a pass's `index`-th crowd.
std::uint64_t crowd_seed(std::uint64_t seed, const Workload& w,
                         std::size_t index) {
  return seed * 1000 + index % w.crowd_seeds;
}

/// One pass: form the ring kRingSetups times (keeping the last), warm
/// up, then run rounds for `seconds` and until each distinct crowd has
/// run `repeats` times.  `log` is null in untraced passes.
Pass run_pass(const Workload& w, std::uint64_t seed, double seconds,
              std::size_t repeats, SpanLog* log) {
  Pass p;
  p.crowd_seeds = w.crowd_seeds;
  FrameCounts* frames = log ? &p.frames : nullptr;
  std::unique_ptr<Ring> ring;
  for (int k = 0; k < kRingSetups; ++k) {
    ring.reset();
    ring = std::make_unique<Ring>(
        w.shortcuts, seed * kRingSetups + static_cast<std::uint64_t>(k), log,
        frames);
    std::optional<double> t = ring->form();
    if (!t) {
      p.problems.push_back("ring did not form within 10 s");
      return p;
    }
    p.ring_setups.push_back(*t);
  }

  Stack& src = ring->src();
  Stack& dst = ring->dst();
  auto direct = [&] {
    return src.node().has_direct(dst.node().address()) &&
           dst.node().has_direct(src.node().address());
  };
  auto path_ok = [&] {
    return w.shortcuts ? direct() : ring->shortcut_links() == 0;
  };

  // Warm-up, untimed: the first windows delivered, the first transfer
  // done and, with shortcuts on, the shortcut between the pair formed.
  Stream stream(*ring, seed);
  for (Phase* phase : {&p.small, &p.mtu, &p.lat}) {
    phase->rates.reserve(1 << 16);
    phase->p50_us.reserve(1 << 13);
    phase->p99_us.reserve(1 << 13);
  }
  Bulk bulk(*ring, seed);
  stream.run(kSmallBytes, kWindow, kSliceSeconds, false);
  for (int i = 0; i < 25 && !path_ok(); ++i) {
    stream.run(kSmallBytes, kWindow, kSliceSeconds, false);
  }
  bulk.transfer(1 << 20, 10.0);

  const wow::p2p::NodeStats& rx = dst.node().stats();
  std::int64_t t0 = now_ns();
  for (int round = 0;
       round < kMinRounds ||
       static_cast<double>(now_ns() - t0) * 1e-9 < seconds ||
       p.crowds.size() < repeats * w.crowd_seeds;
       ++round) {
    if (!path_ok()) {
      p.problems.push_back(w.shortcuts
                               ? "no shortcut between the measured pair"
                               : "a shortcut formed with shortcuts off");
      break;
    }
    auto stream_slices = [&] {
      run_slice(*ring, stream, p.small, kSmallBytes, kWindow, false);
      run_slice(*ring, stream, p.mtu, kMtuBytes, kWindow, false);
      run_slice(*ring, stream, p.lat, kSmallBytes, 1, true);
    };
    auto crowd = [&] {
      p.crowds.push_back(run_crowd(w.crowd_nodes,
                                   crowd_seed(seed, w, p.crowds.size()),
                                   p.crowds.empty(), log));
    };
    stream_slices();
    crowd();

    std::uint64_t hops0 = rx.delivered_hops;
    std::uint64_t packets0 = rx.data_delivered;
    std::uint64_t fires0 = ring->vtcp_timer_fires();
    std::uint64_t drops0 = udp_rcvbuf_errors();
    p.bulks.push_back(bulk.transfer(kBulkBytes, 30.0));
    p.bulk_rcvbuf_drops += udp_rcvbuf_errors() - drops0;
    p.bulk_hops += rx.delivered_hops - hops0;
    p.bulk_hop_packets += rx.data_delivered - packets0;
    p.bulk_vtcp_fires += ring->vtcp_timer_fires() - fires0;

    stream_slices();
    crowd();
  }

  if (log) p.spans = log->totals();
  p.p2p_timer_fires = ring->p2p_timer_fires();
  p.udp = udp_totals(*ring);
  for (Stack& s : ring->stacks()) {
    p.p2p_parse_rejects += s.node().stats().parse_rejects;
    p.ipop_parse_rejects += s.ipop->stats().parse_rejects;
    p.ipop_dropped_not_ours += s.ipop->stats().dropped_not_ours;
  }
  return p;
}

// --- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Failed operations (lost packets, unfinished transfers, unjoined
/// nodes, crowds still unconverged at the horizon) count in `failed`.
/// Wrong outputs (corrupt or duplicated data, a packet on the wrong
/// path, a converged ring that breaks an Oracle invariant) also make
/// the run incorrect.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> problems;
};

void check_stream(const char* phase, const StreamResult& s,
                  std::uint64_t hops_per_packet, Verdict& v) {
  v.attempted += s.sent;
  v.failed += s.lost + s.duplicated + s.corrupted;
  if (s.lost != 0) {
    v.failures.push_back(std::string(phase) + ": lost " +
                         std::to_string(s.lost));
  }
  if (s.duplicated + s.corrupted != 0) {
    v.problems.push_back(std::string(phase) + ": duplicated " +
                         std::to_string(s.duplicated) + ", corrupted " +
                         std::to_string(s.corrupted));
  }
  if (s.delivered == 0) {
    v.problems.push_back(std::string(phase) + ": nothing delivered");
  }
  if (s.hops != hops_per_packet * s.hop_packets) {
    v.problems.push_back(std::string(phase) + ": " + std::to_string(s.hops) +
                         " hops over " + std::to_string(s.hop_packets) +
                         " packets, expected " +
                         std::to_string(hops_per_packet) + " each");
  }
}

Verdict judge(const Workload& w, const Pass& p) {
  Verdict v;
  v.problems = p.problems;
  if (!p.problems.empty()) {
    v.attempted += 1;
    v.failed += 1;
  }
  std::uint64_t hops = w.shortcuts ? 1 : 2;
  check_stream("stream_small", p.small.stream, hops, v);
  check_stream("stream_mtu", p.mtu.stream, hops, v);
  check_stream("latency", p.lat.stream, hops, v);
  for (const BulkResult& b : p.bulks) {
    ++v.attempted;
    if (!b.complete || !b.intact) {
      ++v.failed;
      v.failures.push_back("bulk transfer unfinished after " +
                           std::to_string(b.bytes) + " bytes");
    }
    if (!b.intact) v.problems.push_back("bulk transfer corrupt");
  }
  for (std::size_t i = 0; i < p.crowds.size(); ++i) {
    const CrowdResult& c = p.crowds[i];
    std::string crowd = "crowd " + std::to_string(i) + ": ";
    // The simulator is deterministic: a repeat must retrace its first run.
    const CrowdResult& first = p.crowds[i % p.crowd_seeds];
    if (c.events != first.events || c.converge_sim_s != first.converge_sim_s ||
        c.join_p99_s != first.join_p99_s || c.rings != first.rings) {
      v.problems.push_back(crowd + "differs from crowd " +
                           std::to_string(i % p.crowd_seeds) +
                           ", an earlier run of the same seed");
    }
    // Each node's join, and the crowd's convergence to one ring.
    v.attempted += c.nodes + 1;
    v.failed += c.nodes - c.joined;
    if (c.joined != c.nodes) {
      v.failures.push_back(crowd + std::to_string(c.nodes - c.joined) +
                           " nodes never routable");
    }
    if (!c.converged) {
      ++v.failed;
      v.failures.push_back(
          crowd + "no single ring after " +
          std::to_string(static_cast<long>(c.converge_sim_s)) + " sim s");
    } else if (c.rings != 1 || !c.oracle_ok) {
      ++v.failed;
      v.problems.push_back(crowd + std::to_string(c.rings) + " rings " +
                           c.oracle_detail);
    }
  }
  return v;
}

std::vector<Metric> end_to_end(const Pass& p) {
  // Per distinct crowd: its simulated results, which every repeat
  // retraces, and its undisturbed wall time.  Repeats run the same
  // chunks, so that time is each chunk's fastest run, summed.
  std::size_t distinct = std::min(p.crowd_seeds, p.crowds.size());
  std::vector<std::vector<double>> fastest(distinct);
  std::vector<double> crowd_setup;
  std::vector<double> converge;
  std::vector<double> join_p99;
  for (std::size_t i = 0; i < p.crowds.size(); ++i) {
    const CrowdResult& c = p.crowds[i];
    crowd_setup.push_back(c.setup_s);
    std::vector<double>& f = fastest[i % p.crowd_seeds];
    if (i < distinct) {
      f = c.chunk_s;
      converge.push_back(c.converge_sim_s);
      join_p99.push_back(c.join_p99_s);
      continue;
    }
    for (std::size_t j = 0; j < std::min(f.size(), c.chunk_s.size()); ++j) {
      f[j] = std::min(f[j], c.chunk_s[j]);
    }
  }
  std::vector<double> crowd_wall;
  for (const std::vector<double>& f : fastest) {
    crowd_wall.push_back(std::accumulate(f.begin(), f.end(), 0.0));
  }
  std::vector<double> goodput;
  for (const BulkResult& b : p.bulks) {
    goodput.push_back(ratio(static_cast<double>(b.bytes) * 8 / 1e6, b.seconds));
  }
  return {
      {"setup_s", median(p.ring_setups) + median(crowd_setup), "s"},
      {"stream_small_pps", percentile(p.small.rates, 1 - kUndisturbed),
       "pkt/s"},
      {"stream_mtu_gbps",
       percentile(p.mtu.rates, 1 - kUndisturbed) * kMtuBytes * 8 / 1e9,
       "Gbit/s"},
      {"lat_p50_us", percentile(p.lat.p50_us, kUndisturbed), "us"},
      {"lat_p99_us", percentile(p.lat.p99_us, kUndisturbed), "us"},
      {"bulk_goodput_mbps", median(goodput), "Mbit/s"},
      {"crowd_wall_s", median(crowd_wall), "s"},
      {"ring_converge_s", median(converge), "sim_s"},
      {"join_p99_s", median(join_p99), "sim_s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
}

double value_of(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

/// Relative cost of tracing: positive when the traced pass is worse.
double overhead(double untraced, double traced, bool higher_is_better) {
  return higher_is_better ? ratio(untraced, traced) - 1.0
                          : ratio(traced, untraced) - 1.0;
}

std::vector<Metric> per_layer(const Pass& p,
                              const std::vector<Metric>& untraced,
                              const std::vector<Metric>& traced) {
  using wow::p2p::FrameKind;
  using wow::p2p::RoutedType;
  auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  auto per_span = [&](const SpanLog::Snapshot& s, Span span) {
    return self_ns_per(s, span, d(at(s, span).count));
  };
  auto kind = [&](FrameKind k) {
    return d(p.frames.kind[static_cast<std::size_t>(k)]);
  };
  auto routed = [&](RoutedType t) {
    return d(p.frames.routed[static_cast<std::size_t>(t)]);
  };
  const Phase& small = p.small;
  StreamResult stream = small.stream;
  stream += p.mtu.stream;
  stream += p.lat.stream;

  wow::vtcp::TcpSocket::Stats tcp{};
  double bulk_cpu_s = 0;
  double bulk_wall_s = 0;
  for (const BulkResult& b : p.bulks) {
    bulk_cpu_s += b.cpu_seconds;
    bulk_wall_s += b.seconds;
    tcp.segments_received += b.receiver.segments_received;
    tcp.retransmits += b.sender.retransmits;
    tcp.fast_retransmits += b.sender.fast_retransmits;
    tcp.timeouts += b.sender.timeouts;
  }
  double cwnd = p.bulks.empty() ? 0.0 : p.bulks.back().sender_cwnd_bytes;

  // Counts from the first crowd repeat exactly for a given seed; times
  // are summed over every crowd of the pass.
  CrowdResult first = p.crowds.empty() ? CrowdResult{} : p.crowds.front();
  double sim_run_s = 0;
  double probe_s = 0;
  double crowd_wall_s = 0;
  double converge_max_s = 0;
  std::uint64_t events = 0;
  for (const CrowdResult& c : p.crowds) {
    converge_max_s = std::max(converge_max_s, c.converge_sim_s);
    sim_run_s += c.run_s;
    probe_s += c.probe_s;
    crowd_wall_s += c.wall_s;
    events += c.events;
  }

  std::vector<Metric> m = {
      {"transport.busy_ratio.stream",
       ratio(stream.cpu_seconds, stream.seconds), "ratio"},
      {"transport.busy_ratio.bulk", ratio(bulk_cpu_s, bulk_wall_s), "ratio"},
      {"transport.dgrams_per_sendmmsg",
       ratio(d(small.dgrams_sent), d(small.send_batches)), "count"},
      {"transport.dgrams_per_recvmmsg",
       ratio(d(small.dgrams_received), d(small.recv_batches)), "count"},
      {"transport.send_ns", per_span(small.spans, Span::kTransportSend), "ns"},
      // Loop time no callback span covers (epoll, recvmmsg, sendmmsg,
      // dispatch) per delivered packet.
      {"transport.loop_ns_per_pkt",
       ratio(d(at(small.spans, Span::kLoop).self_ns),
             d(small.stream.delivered)),
       "ns"},
      {"transport.dropped_backlog", d(p.udp.dropped_backlog), "count"},
      {"transport.rcvbuf_drops.bulk", d(p.bulk_rcvbuf_drops), "count"},
      {"transport.send_errors", d(p.udp.send_errors), "count"},
      {"p2p.rx_ns_per_frame.small", per_span(small.spans, Span::kP2pRx), "ns"},
      {"p2p.rx_ns_per_frame.mtu", per_span(p.mtu.spans, Span::kP2pRx), "ns"},
      {"p2p.rx_ns_per_frame.lat", per_span(p.lat.spans, Span::kP2pRx), "ns"},
      {"p2p.frames.routed", kind(FrameKind::kRouted), "count"},
      {"p2p.frames.link", kind(FrameKind::kLink), "count"},
      {"p2p.frames.relay", kind(FrameKind::kRelay), "count"},
      {"p2p.frames.census", kind(FrameKind::kCensus), "count"},
      {"p2p.routed.data", routed(RoutedType::kData), "count"},
      {"p2p.routed.ctm_req", routed(RoutedType::kCtmRequest), "count"},
      {"p2p.routed.ctm_reply", routed(RoutedType::kCtmReply), "count"},
      {"p2p.mean_hops.stream", ratio(d(stream.hops), d(stream.hop_packets)),
       "hops"},
      {"p2p.mean_hops.bulk", ratio(d(p.bulk_hops), d(p.bulk_hop_packets)),
       "hops"},
      {"p2p.timer_fires", d(p.p2p_timer_fires), "count"},
      {"p2p.timer_ns", per_span(p.spans, Span::kP2pTimer), "ns"},
      {"p2p.table_max", d(first.table_max), "count"},
      {"p2p.ctm_sent", d(first.ctm_sent), "count"},
      {"p2p.pings_sent", d(first.pings_sent), "count"},
      {"p2p.bootstrap_probes", d(first.bootstrap_probes), "count"},
      {"p2p.connections_added", d(first.connections_added), "count"},
      {"p2p.connections_lost", d(first.connections_lost), "count"},
      {"p2p.parse_rejects", d(p.p2p_parse_rejects + first.parse_rejects),
       "count"},
      {"ipop.send_ns", per_span(small.spans, Span::kIpopSend), "ns"},
      {"ipop.parse_rejects", d(p.ipop_parse_rejects), "count"},
      {"ipop.dropped_not_ours", d(p.ipop_dropped_not_ours), "count"},
      {"app.rx_ns", per_span(small.spans, Span::kAppRx), "ns"},
      {"vtcp.timer_fires", d(p.bulk_vtcp_fires), "count"},
      {"vtcp.timer_ns", per_span(p.spans, Span::kVtcpTimer), "ns"},
      {"vtcp.segments_received", d(tcp.segments_received), "count"},
      {"vtcp.retransmits", d(tcp.retransmits), "count"},
      {"vtcp.fast_retransmits", d(tcp.fast_retransmits), "count"},
      {"vtcp.timeouts", d(tcp.timeouts), "count"},
      {"vtcp.cwnd_bytes", cwnd, "B"},
      {"sim.events", d(first.events), "count"},
      {"sim.ns_per_event", ratio(sim_run_s * 1e9, d(events)), "ns"},
      {"sim.pending_peak", d(first.pending_peak), "count"},
      {"sim.tombstone_peak", d(first.tombstone_peak), "count"},
      {"net.sent", d(first.net_sent), "count"},
      {"net.delivered", d(first.net_delivered), "count"},
      {"net.drops", d(first.net_drops), "count"},
      {"wow.probe_s", probe_s, "s"},
      {"wow.probe_share", ratio(probe_s, crowd_wall_s), "ratio"},
      {"wow.bytes_per_node", first.bytes_per_node, "B"},
      {"stream.lat_samples", d(p.lat.samples), "count"},
      {"stream.slices", d(p.small.slices), "count"},
      {"stream.windows", d(p.small.rates.size()), "count"},
      {"crowd.count", d(p.crowds.size()), "count"},
      {"crowd.converge_max_s", converge_max_s, "sim_s"},
  };
  const std::pair<const char*, bool> compared[] = {
      {"stream_small_pps", true}, {"stream_mtu_gbps", true},
      {"lat_p50_us", false},      {"bulk_goodput_mbps", true},
      {"crowd_wall_s", false},
  };
  for (const auto& [name, higher_is_better] : compared) {
    m.push_back({std::string("trace.overhead.") + name,
                 overhead(value_of(untraced, name), value_of(traced, name),
                          higher_is_better),
                 "ratio"});
  }
  return m;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_pass(const char* title, const Pass& p, const Verdict& v,
                const std::vector<Metric>& metrics) {
  print_metrics(title, metrics);
  std::printf("  %-32s %14.6g ratio\n", "fail_ratio",
              ratio(static_cast<double>(v.failed),
                    static_cast<double>(v.attempted)));
  std::size_t nodes = p.crowds.empty() ? 0 : p.crowds.front().nodes;
  std::printf("  stream rates: 95th percentile over %zu (64 B) and %zu (1400 B) "
              "windows of %llu packets, from %zu slices of %g s each; "
              "medians %.6g pkt/s and %.6g Gbit/s\n",
              p.small.rates.size(), p.mtu.rates.size(),
              static_cast<unsigned long long>(Stream::kWindowPackets),
              p.small.slices, kSliceSeconds, median(p.small.rates),
              median(p.mtu.rates) * kMtuBytes * 8 / 1e9);
  std::printf("  lat percentiles: 5th percentile over %zu windows of %zu "
              "samples (%zu samples in all); medians p50 %.6g us, p99 "
              "%.6g us\n",
              p.lat.p50_us.size(), kLatencyWindow, p.lat.samples,
              median(p.lat.p50_us), median(p.lat.p99_us));
  std::vector<double> walls;
  for (const CrowdResult& c : p.crowds) walls.push_back(c.wall_s);
  std::printf("  crowd metrics: median over %zu distinct crowds of %zu nodes, "
              "%zu runs in all (crowd_wall_s: each 250 ms chunk's fastest "
              "run; median of all runs %.6g s; join_p99_s over every node "
              "of a crowd); bulk: median over %zu transfers of %llu MiB\n",
              std::min(p.crowd_seeds, p.crowds.size()), nodes,
              p.crowds.size(), median(walls), p.bulks.size(),
              static_cast<unsigned long long>(kBulkBytes >> 20));
  for (const std::string& failure : v.failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }
  for (const std::string& problem : v.problems) {
    std::printf("  CHECK FAILED: %s\n", problem.c_str());
  }
}

void print_result(const Verdict& v, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              v.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(v.attempted),
              static_cast<unsigned long long>(v.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Options& o) {
  const Workload& w = *o.workload;
  std::printf("workload %s, seed %llu, %g s; loopback 127.0.0.1, one "
              "thread\n",
              w.name, static_cast<unsigned long long>(o.seed), o.seconds);
  if (!o.trace) {
    Pass p = run_pass(w, o.seed, o.seconds, kCrowdRepeats, nullptr);
    Verdict v = judge(w, p);
    std::vector<Metric> e2e = end_to_end(p);
    print_pass("end to end:", p, v, e2e);
    print_result(v, e2e);
    return 0;
  }

  // Traced run: an untraced pass and a traced pass of half the length
  // each; their difference is the tracing overhead.  Each distinct crowd
  // need run only once, which keeps the two passes within one run's time.
  Pass bare = run_pass(w, o.seed, o.seconds / 2, 1, nullptr);
  Verdict bare_verdict = judge(w, bare);
  std::vector<Metric> bare_e2e = end_to_end(bare);
  print_pass("end to end (untraced pass):", bare, bare_verdict, bare_e2e);

  SpanLog log;
  Pass traced = run_pass(w, o.seed, o.seconds / 2, 1, &log);
  Verdict verdict = judge(w, traced);
  std::vector<Metric> traced_e2e = end_to_end(traced);
  print_pass("end to end (traced pass):", traced, verdict, traced_e2e);
  std::vector<Metric> layers = per_layer(traced, bare_e2e, traced_e2e);
  print_metrics("per layer (traced pass):", layers);
  if (!o.spans.empty() && !log.write_jsonl(o.spans)) {
    std::fprintf(stderr, "wowbench: cannot write %s\n", o.spans.c_str());
  }

  verdict.attempted += bare_verdict.attempted;
  verdict.failed += bare_verdict.failed;
  verdict.failures.insert(verdict.failures.end(),
                          bare_verdict.failures.begin(),
                          bare_verdict.failures.end());
  verdict.problems.insert(verdict.problems.end(),
                          bare_verdict.problems.begin(),
                          bare_verdict.problems.end());
  print_result(verdict, layers);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::parse_options(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: wowbench --workload two_hop|shortcut --seed N "
                 "--seconds S --trace 0|1 [--spans FILE]\n");
    return 2;
  }
  return perfbench::run(options);
}
