#pragma once

#include <cstdint>

#include "common/time.h"
#include "sim/event_fn.h"

namespace wow::sim {

/// Identifies a scheduled event so it can be cancelled.  Value 0 is the
/// null handle (never issued).
///
/// With the simulator backend the id packs the event's queue slot (low
/// 32 bits, offset by one so a valid handle is never 0) and the slot's
/// generation at scheduling time (high 32 bits).  Slots are recycled;
/// the generation check makes a stale handle — kept across its event
/// firing and the slot's reuse — a guaranteed no-op instead of
/// cancelling an unrelated event.  Other TimerService backends only
/// need to honor the "0 is null, ids are never reused for a live
/// event" contract.
struct TimerHandle {
  std::uint64_t id = 0;
  [[nodiscard]] bool valid() const { return id != 0; }
};

/// Read-only view of the virtual clock.
class Clock {
 public:
  virtual ~Clock() = default;
  [[nodiscard]] virtual SimTime now() const = 0;
};

/// The timer seam between the protocol stack and whatever drives it.
///
/// Protocol components (Node, LinkingEngine, the protocol services)
/// schedule against this interface instead of sim::Simulator directly,
/// so the same code runs under the discrete-event simulator or the
/// real-UDP event loop (transport::RealtimeEventLoop).
/// sim::Simulator is the canonical implementation.
class TimerService : public Clock {
 public:
  /// Schedule `fn` to run `delay` from now.  Negative delays clamp to 0
  /// (fire on the next step).
  virtual TimerHandle schedule(SimDuration delay, EventFn fn) = 0;

  /// Cancel a pending event.  Cancelling an already-fired or invalid
  /// handle is a no-op; returns whether something was cancelled.
  virtual bool cancel(TimerHandle handle) = 0;
};

}  // namespace wow::sim
