// Per-operation completion tap and the trace clock.
//
// Completion tap: while tracing is on, the store client
// (store::client::poll_object, the one point where a store op completes
// on both transports) appends one op_trace {object, is_write, rounds}
// per completed op. The rounds are the ones the client automaton
// reports in its completion -- the same number the op's history record
// carries -- so the tap is a cheap per-protocol rounds feed for runs
// that do not gather histories (perfbench splits it by shard protocol).
// A parked and re-issued op completes once and is recorded once.
// Raw-register deployments (sim::world, net::cluster) have no tap; their
// rounds are op_record::rounds in the history. Round boundaries (issue,
// ack) are not recorded here: the flight recorder (obs/recorder.h)
// stamps every send and recv with its trace id, span and message type.
//
// Clock domain: trace_now() returns the simulator's tick counter while
// a scoped_trace_time override is active on the thread (sim::world sets
// it around every automaton step) and steady-clock nanoseconds
// otherwise -- the same clock net::node stamps its histories with. Serve
// and reconfiguration timers and the flight recorder read it.
//
// Cross-node merge guarantee (src/obs/timeline.h): two timestamps are
// comparable iff they come from the SAME domain. The sim domain is the
// scheduler's global tick counter -- totally ordered across every
// simulated node by construction. The ns domain is one process's
// steady_clock -- and because every net::node reactor in a deployment
// runs in the same process, all TCP nodes share that single clock.
// Timestamps are never compared across the sim/ns boundary; the
// recorder tags each event with its domain (trace_time_overridden()) so
// the merge pass can keep them apart.
//
// Cost when disabled (the default): one relaxed atomic load and a
// branch per completed store op. Enable via set_tracing(true).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace fastreg::obs {

// ------------------------------------------------------------ global gate --

namespace detail {
extern std::atomic<bool> tracing_on;
}

/// True while the completion tap is recording.
inline bool trace_active() {
  return detail::tracing_on.load(std::memory_order_relaxed);
}
[[nodiscard]] bool tracing_enabled();
void set_tracing(bool on);

// ------------------------------------------------------------ trace clock --

/// Overrides trace_now() for the current thread (the simulator sets its
/// tick counter around automaton steps). Restores on destruction.
class scoped_trace_time {
 public:
  explicit scoped_trace_time(std::uint64_t t);
  ~scoped_trace_time();
  scoped_trace_time(const scoped_trace_time&) = delete;
  scoped_trace_time& operator=(const scoped_trace_time&) = delete;

 private:
  std::uint64_t prev_;
  bool had_prev_;
};

/// The thread's trace clock: the active override, else steady-clock ns.
[[nodiscard]] std::uint64_t trace_now();

/// True while a scoped_trace_time override is active on this thread —
/// i.e. trace_now() is returning simulator ticks, not steady-clock ns.
/// The flight recorder stores this bit with every event so the merge
/// pass never orders a sim tick against a wall-clock nanosecond.
[[nodiscard]] bool trace_time_overridden();

// ---------------------------------------------------------- completion tap --

/// One completed store operation.
struct op_trace {
  object_id obj{k_default_object};
  bool is_write{false};
  int rounds{0};
};

/// Appends `t` to the completed traces. Callers check trace_active()
/// first; reactor and caller threads may append concurrently.
void trace_completion(const op_trace& t);

/// Forces creation of the tap's lazily-registered drops counter so
/// threads under the registry's hot-loop creation check (reactor
/// threads) never hit the creation path.
void preheat_trace_metrics();

/// Drains completed traces (oldest first). Retention is capped; drops
/// are visible as the fastreg_obs_trace_drops_total counter.
[[nodiscard]] std::vector<op_trace> take_traces();
/// Discards completed traces.
void reset_traces();

}  // namespace fastreg::obs
