#pragma once

#include "common/time.h"

namespace wow::p2p {

/// Timing knobs of the linking handshake (§IV-B, §IV-D).
///
/// Defaults reproduce the paper's "conservative" Brunet settings
/// (footnote 2): a dead URI costs initial_rto * (2^(max_retries+1) - 1)
/// ≈ 2.5 * 63 ≈ 157 s before the next URI is tried — which is exactly
/// why UFL-UFL shortcut setup takes ~200 s in Figure 4.
struct LinkConfig {
  SimDuration initial_rto = 2500 * kMillisecond;
  int max_retries = 5;  // retransmissions per URI after the first send
  /// Paper's implementation tries the NAT-assigned public URI before the
  /// private URI (§V-B).  Flipping this is the ordering ablation.
  bool public_uri_first = true;
};

}  // namespace wow::p2p
