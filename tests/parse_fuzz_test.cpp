// Deterministic fuzz tests for every wire parser: truncation sweeps,
// seeded bit flips, and raw garbage must all yield a clean rejection
// (nullopt) or a successful parse — never UB.  Run under the ASan/UBSan
// CI job, these are the "no parser crashes under corruption" gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>

#include "common/crc32c.h"
#include "common/flight_recorder.h"
#include "ipop/ip_packet.h"
#include "p2p/node_stats.h"
#include "p2p/packet.h"
#include "test_util.h"
#include "transport/uri.h"
#include "vtcp/segment.h"

namespace wow {
namespace {

/// One representative well-formed frame per parser, with the variable
/// sections (URI lists, payloads, neighbor hints) populated so every
/// parse branch is reachable by mutation.
[[nodiscard]] std::vector<transport::Uri> sample_uris() {
  return {
      transport::Uri{transport::TransportKind::kUdp,
                     net::Endpoint{net::Ipv4Addr(10, 0, 0, 1), 17000}},
      transport::Uri{transport::TransportKind::kUdp,
                     net::Endpoint{net::Ipv4Addr(128, 4, 5, 6), 40001}},
  };
}

[[nodiscard]] Bytes sample_routed() {
  p2p::RoutedPacket p;
  p.ttl = 48;
  p.hops = 3;
  p.mode = p2p::DeliveryMode::kNearest;
  p.type = p2p::RoutedType::kData;
  p.src = RingId{0x1111};
  p.dst = RingId{0x2222};
  p.via = RingId{0x3333};
  p.trace_id = 77;
  p.set_payload(Bytes{1, 2, 3, 4, 5, 6, 7, 8});
  return p.serialize();
}

[[nodiscard]] Bytes sample_link() {
  p2p::LinkFrame f;
  f.type = p2p::LinkType::kRequest;
  f.con_type = p2p::ConnectionType::kStructuredNear;
  f.token = 99;
  f.sender = RingId{0x4444};
  f.observed = net::Endpoint{net::Ipv4Addr(150, 0, 0, 9), 12345};
  f.uris = sample_uris();
  return f.serialize();
}

[[nodiscard]] Bytes sample_ctm_request() {
  p2p::CtmRequest req;
  req.con_type = p2p::ConnectionType::kStructuredFar;
  req.token = 41;
  req.forwarder = RingId{0x5555};
  req.uris = sample_uris();
  return req.serialize();
}

[[nodiscard]] Bytes sample_ctm_reply() {
  p2p::CtmReply rep;
  rep.con_type = p2p::ConnectionType::kShortcut;
  rep.token = 42;
  rep.uris = sample_uris();
  rep.neighbors.push_back(
      p2p::NeighborHint{RingId{0x6666}, sample_uris()});
  rep.neighbors.push_back(p2p::NeighborHint{RingId{0x7777}, {}});
  return rep.serialize();
}

[[nodiscard]] Bytes sample_relay() {
  Bytes inner = sample_link();
  return p2p::RelayFrame::wrap(RingId{0x8888}, RingId{0x9999},
                               RingId{0xaaaa}, BytesView(inner));
}

[[nodiscard]] Bytes sample_ip_packet() {
  ipop::IpPacket p;
  p.proto = ipop::IpProto::kUdp;
  p.ttl = 64;
  p.id = 7;
  p.src = net::Ipv4Addr(172, 16, 1, 2);
  p.dst = net::Ipv4Addr(172, 16, 1, 3);
  p.payload = Bytes{9, 8, 7, 6, 5};
  return p.serialize();
}

[[nodiscard]] Bytes sample_segment() {
  vtcp::Segment s;
  s.src_port = 40000;
  s.dst_port = 80;
  s.seq = 1000;
  s.ack = 2000;
  s.flags = vtcp::kSyn | vtcp::kAck;
  s.window = 65535;
  s.payload = Bytes{1, 2, 3};
  return s.serialize();
}

/// Every parser under one uniform signature: bytes in, accepted or not
/// out.  Each call must be memory-safe regardless of input.
using ParseFn = bool (*)(BytesView);

const std::pair<const char*, ParseFn> kParsers[] = {
    {"routed",
     [](BytesView b) { return p2p::RoutedPacket::parse(b).has_value(); }},
    {"link",
     [](BytesView b) { return p2p::LinkFrame::parse(b).has_value(); }},
    {"ctm_request",
     [](BytesView b) { return p2p::CtmRequest::parse(b).has_value(); }},
    {"ctm_reply",
     [](BytesView b) { return p2p::CtmReply::parse(b).has_value(); }},
    {"relay",
     [](BytesView b) { return p2p::RelayFrame::parse(b).has_value(); }},
    {"ip_packet",
     [](BytesView b) { return ipop::IpPacket::parse(b).has_value(); }},
    {"icmp_echo",
     [](BytesView b) { return ipop::IcmpEcho::parse(b).has_value(); }},
    {"segment",
     [](BytesView b) { return vtcp::Segment::parse(b).has_value(); }},
};

[[nodiscard]] std::vector<Bytes> sample_frames() {
  return {sample_routed(),    sample_link(),      sample_ctm_request(),
          sample_ctm_reply(), sample_relay(),     sample_ip_packet(),
          sample_segment()};
}

/// Every prefix of every valid frame, through every parser.  A strict
/// prefix of a frame must never be accepted by its own parser (all our
/// formats are length-checked to the end of the fixed header and
/// explicit about variable-length sections).
TEST(ParseFuzz, TruncationSweepIsCleanlyRejected) {
  for (const Bytes& frame : sample_frames()) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      BytesView prefix(frame.data(), len);
      for (const auto& [name, parse] : kParsers) {
        (void)parse(prefix);  // must not crash; acceptance not asserted
      }
    }
  }
  // Full frames parse through at least one parser each.
  for (const Bytes& frame : sample_frames()) {
    bool accepted = false;
    for (const auto& [name, parse] : kParsers) {
      accepted = accepted || parse(frame);
    }
    EXPECT_TRUE(accepted);
  }
}

/// Strict prefixes of a frame never parse as that frame (no parser
/// reads past what it thinks the frame contains and silently succeeds
/// on a truncated fixed header).
TEST(ParseFuzz, StrictHeaderPrefixRejected) {
  // Header-only truncations: cut inside the fixed header, before any
  // variable-length payload whose length field could legitimately make
  // a shorter buffer valid.
  Bytes routed = sample_routed();
  EXPECT_FALSE(p2p::RoutedPacket::parse(
                   BytesView(routed.data(), p2p::RoutedPacket::kHeaderBytes - 1))
                   .has_value());
  Bytes link = sample_link();
  EXPECT_FALSE(
      p2p::LinkFrame::parse(BytesView(link.data(), 30)).has_value());
  Bytes ip = sample_ip_packet();
  EXPECT_FALSE(
      ipop::IpPacket::parse(BytesView(ip.data(), 13)).has_value());
  Bytes seg = sample_segment();
  EXPECT_FALSE(
      vtcp::Segment::parse(BytesView(seg.data(), 16)).has_value());
}

/// The frame checksum is the guard that keeps bit-flipped addresses out
/// of connection tables: any single-bit corruption of a checksummed
/// byte must be rejected, while tampering with the in-flight-mutable
/// routed fields (ttl/hops/bounced/via — rewritten by every forwarding
/// hop) must NOT invalidate the origin's checksum.
TEST(ParseFuzz, ChecksumRejectsTamperedFrames) {
  Bytes routed = sample_routed();
  // Every bit of src/dst (bytes 7..46) and of the payload.
  for (std::size_t byte : {std::size_t{7}, std::size_t{26}, std::size_t{46},
                           routed.size() - 1}) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutant = routed;
      mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(p2p::RoutedPacket::parse(BytesView(mutant)).has_value())
          << "byte " << byte << " bit " << bit;
    }
  }
  // Truncating into the payload is also a checksum mismatch.
  EXPECT_FALSE(
      p2p::RoutedPacket::parse(BytesView(routed.data(), routed.size() - 1))
          .has_value());
  // The mutable tail is deliberately outside the checksum.
  Bytes hop = routed;
  hop[55] ^= 0x0f;  // ttl
  hop[56] += 1;     // hops
  EXPECT_TRUE(p2p::RoutedPacket::parse(BytesView(hop)).has_value());

  Bytes link = sample_link();
  for (std::size_t byte = 5; byte < link.size(); byte += 3) {
    Bytes mutant = link;
    mutant[byte] ^= 0x10;
    EXPECT_FALSE(p2p::LinkFrame::parse(BytesView(mutant)).has_value())
        << "byte " << byte;
  }

  // Relay frames: every checksummed byte (ring ids + tunneled payload)
  // is guarded, while the hops byte — rewritten in place by the relay
  // agent — is deliberately outside the checksum.
  Bytes relay = sample_relay();
  for (std::size_t byte = 5; byte < relay.size(); byte += 7) {
    if (byte == 65) continue;  // hops: mutable, tested below
    Bytes mutant = relay;
    mutant[byte] ^= 0x04;
    EXPECT_FALSE(p2p::RelayFrame::parse(BytesView(mutant)).has_value())
        << "byte " << byte;
  }
  Bytes forwarded = relay;
  forwarded[65] += 1;  // the relay agent's in-place hop increment
  auto parsed = p2p::RelayFrame::parse(BytesView(forwarded));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->hops, 1);
  // A header-only relay frame (no tunneled payload) is nonsense.
  EXPECT_FALSE(
      p2p::RelayFrame::parse(
          BytesView(relay.data(), p2p::RelayFrame::kHeaderBytes))
          .has_value());
  // The inner payload of a valid tunnel parses as the wrapped link frame.
  EXPECT_TRUE(p2p::LinkFrame::parse(parsed->payload()).has_value());
}

/// MTU-sized frames for the checksum-strength tests: a routed frame of
/// exactly `total` bytes, a relay frame of 1400 B tunnelling a routed
/// one, and the link frame closest to 1400 B (194 URIs: 1396 B).
[[nodiscard]] Bytes routed_of_size(std::size_t total) {
  p2p::RoutedPacket p;
  p.mode = p2p::DeliveryMode::kExact;
  p.type = p2p::RoutedType::kData;
  p.src = RingId{0x1111};
  p.dst = RingId{0x2222};
  p.via = RingId{0x3333};
  p.trace_id = 78;
  Bytes payload(total - p2p::RoutedPacket::kHeaderBytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  p.set_payload(std::move(payload));
  return p.serialize();
}

[[nodiscard]] Bytes mtu_relay() {
  Bytes inner = routed_of_size(1400 - p2p::RelayFrame::kHeaderBytes);
  return p2p::RelayFrame::wrap(RingId{0x8888}, RingId{0x9999},
                               RingId{0xaaaa}, BytesView(inner));
}

[[nodiscard]] Bytes mtu_link() {
  p2p::LinkFrame f;
  f.type = p2p::LinkType::kReply;
  f.con_type = p2p::ConnectionType::kShortcut;
  f.token = 100;
  f.sender = RingId{0x4444};
  f.observed = net::Endpoint{net::Ipv4Addr(150, 0, 0, 9), 12345};
  for (std::uint16_t i = 0; i < 194; ++i) {
    f.uris.push_back(transport::Uri{
        transport::TransportKind::kUdp,
        net::Endpoint{net::Ipv4Addr(10, 1, static_cast<std::uint8_t>(i), 1),
                      static_cast<std::uint16_t>(17000 + i)}});
  }
  return f.serialize();
}

/// Frame byte offsets in the order the checksum consumes them, built
/// from half-open [lo, hi) regions (hi = 0: to the end of the frame).
[[nodiscard]] std::vector<std::size_t> checksummed_bytes(
    const Bytes& frame,
    std::initializer_list<std::pair<std::size_t, std::size_t>> regions) {
  std::vector<std::size_t> out;
  for (auto [lo, hi] : regions) {
    if (hi == 0) hi = frame.size();
    for (std::size_t b = lo; b < hi; ++b) out.push_back(b);
  }
  return out;
}

/// Flip bit `bit` of the checksum's input stream: LSB-first within each
/// byte, which is the order a reflected CRC consumes bits in.
void flip_stream_bit(Bytes& frame, const std::vector<std::size_t>& stream,
                     std::size_t bit) {
  frame[stream[bit >> 3]] ^= static_cast<std::uint8_t>(1u << (bit & 7));
}

/// CRC-32C detects every error burst of at most 32 bits in its input.
/// Sweep every burst length 1..32 at every bit offset of a 1400 B routed
/// frame's checksummed stream (kind byte, immutable header, payload) —
/// both the solid burst and the one that flips only its two end bits —
/// and require the parser to reject each.
TEST(ParseFuzz, ChecksumRejectsEveryShortBurst) {
  Bytes frame = routed_of_size(1400);
  ASSERT_EQ(frame.size(), 1400u);
  ASSERT_TRUE(p2p::RoutedPacket::parse(BytesView(frame)).has_value());
  const std::vector<std::size_t> stream = checksummed_bytes(
      frame, {{0, 1}, {5, 55}, {p2p::RoutedPacket::kHeaderBytes, 0}});
  const std::size_t bits = stream.size() * 8;
  auto flip_burst = [&](std::size_t start, std::size_t len, bool solid) {
    for (std::size_t i = 0; i < len; ++i) {
      if (solid || i == 0 || i + 1 == len) {
        flip_stream_bit(frame, stream, start + i);
      }
    }
  };
  for (std::size_t len = 1; len <= 32; ++len) {
    for (std::size_t start = 0; start + len <= bits; ++start) {
      for (bool solid : {true, false}) {
        if (!solid && len < 3) continue;  // same as the solid burst
        flip_burst(start, len, solid);
        ASSERT_FALSE(p2p::RoutedPacket::parse(BytesView(frame)).has_value())
            << len << "-bit burst at stream bit " << start
            << (solid ? " (solid)" : " (end bits only)");
        flip_burst(start, len, solid);  // flipping again restores it
      }
    }
  }
}

/// The corruption FaultInjector::corrupt applies in flight — 1 to 4 bit
/// flips at uniform positions — aimed only at guarded bytes (the
/// checksum field and the checksummed regions; flips in the deliberately
/// unguarded hop-mutable bytes are meant to pass).  Bits are distinct so
/// no flip undoes another.  Over MTU-sized routed, link and relay frames
/// nothing may be accepted: 1–3 flips are guaranteed caught, 4 flips
/// miss with odds near 2^-32.
TEST(ParseFuzz, FaultInjectorFlipsOnMtuFramesAreAllRejected) {
  std::mt19937_64 rng(20261018);
  struct Case {
    const char* name;
    Bytes frame;
    std::vector<std::size_t> guarded;
    ParseFn parse;
  };
  Bytes routed = routed_of_size(1400);
  Bytes link = mtu_link();
  Bytes relay = mtu_relay();
  ASSERT_EQ(relay.size(), 1400u);
  ASSERT_EQ(link.size(), 1396u);
  Case cases[] = {
      {"routed", routed,
       checksummed_bytes(routed,
                         {{0, 55}, {p2p::RoutedPacket::kHeaderBytes, 0}}),
       [](BytesView b) { return p2p::RoutedPacket::parse(b).has_value(); }},
      {"link", link, checksummed_bytes(link, {{0, 0}}),
       [](BytesView b) { return p2p::LinkFrame::parse(b).has_value(); }},
      {"relay", relay, checksummed_bytes(relay, {{0, 65}, {66, 0}}),
       [](BytesView b) { return p2p::RelayFrame::parse(b).has_value(); }},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(c.parse(c.frame)) << c.name;
    const std::size_t bits = c.guarded.size() * 8;
    int accepted = 0;
    for (int round = 0; round < 3000; ++round) {
      Bytes mutant = c.frame;
      const int flips = 1 + static_cast<int>(rng() % 4);
      std::vector<std::size_t> chosen;
      while (chosen.size() < static_cast<std::size_t>(flips)) {
        std::size_t bit = rng() % bits;
        if (std::find(chosen.begin(), chosen.end(), bit) == chosen.end()) {
          chosen.push_back(bit);
        }
      }
      for (std::size_t bit : chosen) flip_stream_bit(mutant, c.guarded, bit);
      accepted += c.parse(mutant) ? 1 : 0;
    }
    EXPECT_EQ(accepted, 0) << c.name;
  }
}

// ---------------------------------------------------------------------
// Checksum-valid adversarial mutations.  The CRC-32C frame checksum is
// an INTEGRITY check, not an authenticity check: any peer who can emit
// frames can compute it.  These tests mutate a checksummed field and
// then re-checksum, mirroring the production layout in packet.cpp byte
// for byte — so they double as a drift guard on the checksummed regions,
// and they pin down exactly what the parser can and cannot reject when
// the adversary does its homework (the byzantine defenses above the
// parser exist precisely for the "cannot" half).

void store_csum(Bytes& f, std::uint32_t v) {
  f[1] = static_cast<std::uint8_t>(v >> 24);
  f[2] = static_cast<std::uint8_t>(v >> 16);
  f[3] = static_cast<std::uint8_t>(v >> 8);
  f[4] = static_cast<std::uint8_t>(v);
}

/// Recompute the checksum the way the origin would: kind byte, the
/// frame-specific immutable region, skipping the checksum field itself
/// and any hop-mutable bytes.
void rechecksum_routed(Bytes& f) {
  const BytesView v(f);
  std::uint32_t c = crc32c(0, v.first(1));
  c = crc32c(c, v.subspan(5, 50));
  c = crc32c(c, v.subspan(p2p::RoutedPacket::kHeaderBytes));
  store_csum(f, c);
}

void rechecksum_link(Bytes& f) {
  const BytesView v(f);
  std::uint32_t c = crc32c(0, v.first(1));
  c = crc32c(c, v.subspan(5));
  store_csum(f, c);
}

void rechecksum_relay(Bytes& f) {
  const BytesView v(f);
  std::uint32_t c = crc32c(0, v.first(1));
  c = crc32c(c, v.subspan(5, 60));
  c = crc32c(c, v.subspan(p2p::RelayFrame::kHeaderBytes));
  store_csum(f, c);
}

/// A re-checksummed identity forgery sails through every parser — the
/// parser's contract under a byzantine peer is structural validity only.
/// Anything the adversary rewrites coherently (addresses, tokens, relay
/// headers) MUST reach the protocol layer, whose defenses attribute and
/// reject it; asserting acceptance here keeps that boundary honest.
TEST(ParseFuzz, RechecksummedForgeryPassesTheParser) {
  // Routed frame with a rewritten source address.
  Bytes routed = sample_routed();
  routed[7] ^= 0xff;  // inside src (bytes 7..26)
  rechecksum_routed(routed);
  auto p = p2p::RoutedPacket::parse(BytesView(routed));
  ASSERT_TRUE(p.has_value());
  EXPECT_NE(p->src, RingId{0x1111});  // the forgery went through

  // Link reply claiming a different sender identity.
  Bytes link = sample_link();
  link[11] ^= 0xa5;  // inside sender (bytes 11..30)
  rechecksum_link(link);
  auto lf = p2p::LinkFrame::parse(BytesView(link));
  ASSERT_TRUE(lf.has_value());
  EXPECT_NE(lf->sender, RingId{0x4444});

  // Relay frame with a forged source ring id — the wire form of the
  // adversary fabric's forged-relay attack.
  Bytes relay = sample_relay();
  relay[5] ^= 0x5a;  // inside src (bytes 5..24)
  rechecksum_relay(relay);
  auto rf = p2p::RelayFrame::parse(BytesView(relay));
  ASSERT_TRUE(rf.has_value());
  EXPECT_NE(rf->src, RingId{0x8888});
}

/// Semantic validation is independent of the checksum: enum fields out
/// of range stay rejected even when the adversary re-checksums, and a
/// relay tunnel emptied of its payload is still nonsense.
TEST(ParseFuzz, RechecksummedFramesStillFaceSemanticChecks) {
  Bytes routed = sample_routed();
  routed[6] = 200;  // RoutedType out of range
  rechecksum_routed(routed);
  EXPECT_FALSE(p2p::RoutedPacket::parse(BytesView(routed)).has_value());

  routed = sample_routed();
  routed[5] = 7;  // DeliveryMode out of range
  rechecksum_routed(routed);
  EXPECT_FALSE(p2p::RoutedPacket::parse(BytesView(routed)).has_value());

  Bytes link = sample_link();
  link[5] = 0;  // LinkType zero is invalid
  rechecksum_link(link);
  EXPECT_FALSE(p2p::LinkFrame::parse(BytesView(link)).has_value());

  link = sample_link();
  link[6] = 99;  // ConnectionType out of range
  rechecksum_link(link);
  EXPECT_FALSE(p2p::LinkFrame::parse(BytesView(link)).has_value());

  // Header-only relay with a freshly valid header checksum: the empty
  // tunnel check fires before any payload checksum could matter.
  Bytes relay = sample_relay();
  relay.resize(p2p::RelayFrame::kHeaderBytes);
  rechecksum_relay(relay);
  EXPECT_FALSE(p2p::RelayFrame::parse(BytesView(relay)).has_value());
}

/// Seeded storm of single-byte mutations, each re-checksummed so it
/// clears the integrity gate, through every parser.  Unlike the plain
/// bit-flip storm most of these are ACCEPTED — the assertion is that
/// structurally-valid-but-hostile frames never crash a parser, and that
/// a healthy fraction really does get past the checksum (if none did,
/// the re-checksum mirror has drifted from packet.cpp).
TEST(ParseFuzz, RechecksummedMutationStormNeverCrashes) {
  std::mt19937_64 rng(20260808);
  struct Case {
    Bytes (*make)();
    void (*fix)(Bytes&);
    std::size_t lo, hi;  // mutable checksummed region [lo, hi)
  };
  const Case cases[] = {
      {&sample_routed, &rechecksum_routed, 5, 55},
      {&sample_link, &rechecksum_link, 5, 0},  // hi=0: to end of frame
      {&sample_relay, &rechecksum_relay, 5, 65},
  };
  int accepted = 0;
  for (int round = 0; round < 1500; ++round) {
    const Case& c = cases[round % 3];
    Bytes mutant = c.make();
    std::size_t hi = c.hi == 0 ? mutant.size() : c.hi;
    std::size_t byte = c.lo + rng() % (hi - c.lo);
    mutant[byte] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    c.fix(mutant);
    for (const auto& [name, parse] : kParsers) {
      accepted += parse(mutant) ? 1 : 0;
    }
  }
  EXPECT_GT(accepted, 500);
}

// ---------------------------------------------------------------------
// Enum drift for the defense plane: the byzantine PR added flight kinds
// and a disconnect cause; reports must name them, and the names below
// are pinned so a reorder or rename shows up here instead of as silent
// "unknown" rows in a postmortem.

TEST(EnumDrift, DisconnectCauseNamesUniqueAndKnown) {
  std::set<std::string> names;
  for (int i = 0; i < static_cast<int>(p2p::DisconnectCause::kCount); ++i) {
    const char* s = to_string(static_cast<p2p::DisconnectCause>(i));
    EXPECT_STRNE(s, "unknown") << "DisconnectCause " << i;
    EXPECT_TRUE(names.insert(s).second) << "duplicate name " << s;
  }
  EXPECT_STREQ(to_string(p2p::DisconnectCause::kCount), "unknown");
  EXPECT_STREQ(to_string(p2p::DisconnectCause::kMisbehavior), "misbehavior");
}

TEST(EnumDrift, DefenseFlightKindsAreNamed) {
  EXPECT_STREQ(to_string(FlightKind::kMisbehavior), "defense.misbehavior");
  EXPECT_STREQ(to_string(FlightKind::kRateShed), "defense.rate_shed");
  EXPECT_STREQ(to_string(FlightKind::kReplayHit), "defense.replay_hit");
  EXPECT_STREQ(to_string(FlightKind::kForgedRelay), "defense.forged_relay");
}

/// Seeded bit-flip storms over every frame type, every parser.  The
/// assertion is the absence of UB (this test runs under ASan/UBSan in
/// CI); acceptance may go either way since some flips land in payload
/// bytes no parser validates.
TEST(ParseFuzz, BitFlipsNeverCrashAnyParser) {
  std::mt19937_64 rng(20260806);
  const std::vector<Bytes> frames = sample_frames();
  for (int round = 0; round < 2000; ++round) {
    Bytes mutant = frames[round % frames.size()];
    int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      std::size_t bit = rng() % (mutant.size() * 8);
      mutant[bit >> 3] ^= static_cast<std::uint8_t>(1u << (bit & 7));
    }
    for (const auto& [name, parse] : kParsers) {
      (void)parse(mutant);
    }
  }
}

/// Unstructured garbage of every small length.
TEST(ParseFuzz, RandomGarbageNeverCrashesAnyParser) {
  std::mt19937_64 rng(424242);
  for (int round = 0; round < 500; ++round) {
    Bytes garbage(rng() % 160);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    for (const auto& [name, parse] : kParsers) {
      (void)parse(garbage);
    }
  }
}

/// End-to-end: a running overlay under heavy in-flight corruption keeps
/// running (no crash, no UB) and visibly counts parser rejections in
/// the parse_reject metric.
TEST(ParseFuzz, OverlaySurvivesWireCorruption) {
  testing::PublicOverlay net(8, /*seed=*/5);
  net.start_all();
  net.sim.run_until(2 * kMinute);
  ASSERT_EQ(net.routable_count(), 8);

  net::FaultSpec corrupt;
  corrupt.kind = net::FaultKind::kCorrupt;
  corrupt.at = net.sim.now();
  corrupt.duration = 2 * kMinute;
  corrupt.rate = 0.8;
  net.network.faults().inject(corrupt);

  for (int burst = 0; burst < 20; ++burst) {
    for (std::size_t i = 0; i < net.nodes.size(); ++i) {
      std::size_t peer =
          (i + 1 + static_cast<std::size_t>(burst)) % net.nodes.size();
      if (peer == i) continue;
      net.nodes[i]->send_data(net.nodes[peer]->address(),
                              Bytes{0xde, 0xad, 0xbe, 0xef});
    }
    net.sim.run_for(5 * kSecond);
  }
  net.sim.run_for(3 * kMinute);

  const auto& fs = net.network.faults().stats();
  EXPECT_GT(fs.corrupted_delivered, 0u);
  EXPECT_GT(fs.corrupted_dropped, 0u);

  std::uint64_t rejects = 0;
  for (const auto& n : net.nodes) rejects += n->stats().parse_rejects;
  EXPECT_GT(rejects, 0u);
  // ...and the fleet-wide registry counter agrees.
  bool found = false;
  for (const auto& s : net.sim.metrics().snapshot()) {
    if (s.name == "parse_reject" && s.labels.component == "node") {
      found = true;
      EXPECT_EQ(static_cast<std::uint64_t>(s.value), rejects);
    }
  }
  EXPECT_TRUE(found);
}

// --- text parsers (URI / dotted quad) -----------------------------------

/// The strict Uri grammar: accepted spellings are exactly the canonical
/// ones, and parse/to_string round-trip both ways.
TEST(ParseFuzz, UriAcceptsOnlyCanonicalSpellings) {
  auto ok = [](std::string_view s) {
    return transport::Uri::parse(s).has_value();
  };
  EXPECT_TRUE(ok("brunet.udp://192.0.1.1:1024"));
  EXPECT_TRUE(ok("brunet.tcp://10.0.0.1:1"));
  EXPECT_TRUE(ok("brunet.udp://255.255.255.255:65535"));
  EXPECT_TRUE(ok("brunet.udp://0.0.0.0:17001"));

  // Garbage shapes.
  EXPECT_FALSE(ok(""));
  EXPECT_FALSE(ok("brunet.udp://"));
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4"));       // no port
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:"));      // empty port
  EXPECT_FALSE(ok("udp://1.2.3.4:80"));           // unknown scheme
  EXPECT_FALSE(ok("brunet.sctp://1.2.3.4:80"));
  EXPECT_FALSE(ok("brunet.udp:/1.2.3.4:80"));     // malformed separator
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:80 "));   // trailing junk
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:80x"));

  // Out-of-range / non-canonical ports.
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:0"));      // port 0 names nothing
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:65536"));
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:99999"));
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:123456"));
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:017001"));  // leading zero
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:00"));
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4:-1"));

  // Non-canonical / hostile dotted quads.
  EXPECT_FALSE(ok("brunet.udp://1.2.3:80"));
  EXPECT_FALSE(ok("brunet.udp://1.2.3.4.5:80"));
  EXPECT_FALSE(ok("brunet.udp://256.0.0.1:80"));
  EXPECT_FALSE(ok("brunet.udp://010.0.0.1:80"));   // octal-ambiguous
  EXPECT_FALSE(ok("brunet.udp://1.2.3.0004:80"));
  EXPECT_FALSE(ok("brunet.udp://.1.2.3.4:80"));
  EXPECT_FALSE(ok("brunet.udp://1..2.3:80"));
  EXPECT_FALSE(ok("brunet.udp://example.com:80"));  // no DNS in URIs

  // IPv6 literals are recognized and deliberately rejected: the wire
  // format carries endpoints as u32 IPv4 (write_uri), so accepting
  // them here would create un-advertisable, un-routable endpoints.
  EXPECT_FALSE(ok("brunet.udp://[::1]:17001"));
  EXPECT_FALSE(ok("brunet.udp://[2001:db8::1]:17001"));
  EXPECT_FALSE(ok("brunet.udp://::1:17001"));
}

TEST(ParseFuzz, UriRoundTripsBothWays) {
  std::mt19937_64 rng(7777);
  for (int round = 0; round < 2000; ++round) {
    transport::Uri uri;
    uri.kind = (rng() & 1) != 0 ? transport::TransportKind::kUdp
                                : transport::TransportKind::kTcp;
    uri.endpoint.ip = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
    uri.endpoint.port = static_cast<std::uint16_t>(1 + rng() % 65535);
    auto back = transport::Uri::parse(uri.to_string());
    ASSERT_TRUE(back.has_value()) << uri.to_string();
    EXPECT_EQ(*back, uri);
  }
}

TEST(ParseFuzz, UriTextMutationsNeverCrash) {
  // Character-level mutations of a valid URI: every outcome is either
  // nullopt or a URI that re-serializes canonically — never UB.
  std::mt19937_64 rng(31337);
  const std::string seed_text = "brunet.udp://192.168.1.17:17001";
  for (int round = 0; round < 4000; ++round) {
    std::string mutant = seed_text;
    int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) {
      std::size_t at = rng() % mutant.size();
      switch (rng() % 3) {
        case 0: mutant[at] = static_cast<char>(rng() % 256); break;
        case 1: mutant.erase(at, 1); break;
        default:
          mutant.insert(at, 1, static_cast<char>('0' + rng() % 10));
      }
      if (mutant.empty()) break;
    }
    auto parsed = transport::Uri::parse(mutant);
    if (parsed) {
      auto again = transport::Uri::parse(parsed->to_string());
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(*again, *parsed);
    }
  }
}

TEST(ParseFuzz, Ipv4StrictGrammar) {
  auto ip = [](std::string_view s) { return net::Ipv4Addr::parse(s); };
  ASSERT_TRUE(ip("10.128.0.1").has_value());
  EXPECT_EQ(ip("10.128.0.1")->to_string(), "10.128.0.1");
  EXPECT_TRUE(ip("0.0.0.0").has_value());
  EXPECT_TRUE(ip("255.255.255.255").has_value());

  EXPECT_FALSE(ip("").has_value());
  EXPECT_FALSE(ip("1.2.3").has_value());
  EXPECT_FALSE(ip("1.2.3.4.5").has_value());
  EXPECT_FALSE(ip("1.2.3.256").has_value());
  EXPECT_FALSE(ip("01.2.3.4").has_value());     // leading zero
  EXPECT_FALSE(ip("1.2.3.04").has_value());
  EXPECT_FALSE(ip("0001.2.3.4").has_value());   // >3 digits
  EXPECT_FALSE(ip("1.2.3.4 ").has_value());
  EXPECT_FALSE(ip(" 1.2.3.4").has_value());
  EXPECT_FALSE(ip("1.2.3.a").has_value());
  EXPECT_FALSE(ip("1,2,3,4").has_value());
  EXPECT_FALSE(ip("::1").has_value());
}

}  // namespace
}  // namespace wow
