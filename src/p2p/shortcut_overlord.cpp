#include "p2p/shortcut_overlord.h"

#include <algorithm>
#include <vector>

namespace wow::p2p {

void ShortcutOverlord::on_traffic(const Address& peer, SimTime now) {
  Entry& e = scores_[peer];
  // Continuous-time form of s(i+1) = max(s(i) + a(i) - c, 0).
  double leaked = config_.service_rate * to_seconds(now - e.last_update);
  e.score = std::max(e.score - leaked, 0.0) + 1.0;
  e.last_update = now;

  if (!config_.enabled || e.score < config_.threshold) return;
  // Adaptive spacing: a shortcut attempt is a CTM plus a link
  // handshake, each a few round-trips — 8 RTOs is a generous bound,
  // and the fixed cooldown stays the ceiling.
  SimDuration cooldown = config_.retry_cooldown;
  if (SimDuration hint = hooks_.peer_rto_hint(peer); hint > 0) {
    cooldown = std::clamp(8 * hint, 2 * kSecond, config_.retry_cooldown);
  }
  if (now - e.last_attempt < cooldown) return;
  if (hooks_.is_quarantined(peer)) return;
  if (hooks_.has_connection(peer) || hooks_.is_linking(peer)) return;
  if (hooks_.shortcut_count() >=
      static_cast<std::size_t>(config_.max_shortcuts)) {
    return;
  }
  e.last_attempt = now;
  ++requested_;
  hooks_.request_shortcut(peer);
}

void ShortcutOverlord::sweep(SimTime now) {
  std::vector<Address> stale;
  for (const auto& [addr, e] : scores_) {
    if (now - e.last_update > config_.entry_expiry) stale.push_back(addr);
  }
  for (const Address& a : stale) scores_.erase(a);
}

double ShortcutOverlord::score_of(const Address& peer, SimTime now) const {
  auto it = scores_.find(peer);
  if (it == scores_.end()) return 0.0;
  double leaked =
      config_.service_rate * to_seconds(now - it->second.last_update);
  return std::max(it->second.score - leaked, 0.0);
}

}  // namespace wow::p2p
