#include "obs/trace.h"

#include <chrono>
#include <mutex>
#include <utility>

#include "obs/metrics.h"

namespace fastreg::obs {

namespace detail {
std::atomic<bool> tracing_on{false};
}  // namespace detail

bool tracing_enabled() { return trace_active(); }
void set_tracing(bool on) {
  detail::tracing_on.store(on, std::memory_order_relaxed);
}

// ------------------------------------------------------------ trace clock --

namespace {

thread_local std::uint64_t t_time = 0;
thread_local bool t_time_set = false;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

scoped_trace_time::scoped_trace_time(std::uint64_t t)
    : prev_(t_time), had_prev_(t_time_set) {
  t_time = t;
  t_time_set = true;
}
scoped_trace_time::~scoped_trace_time() {
  t_time = prev_;
  t_time_set = had_prev_;
}

std::uint64_t trace_now() { return t_time_set ? t_time : steady_ns(); }

bool trace_time_overridden() { return t_time_set; }

// ---------------------------------------------------------- completion tap --

namespace {

/// Retention cap for completed traces: a measurement pass drains them;
/// a forgotten-enabled run must not grow without bound.
constexpr std::size_t k_max_completed = 1u << 20;

struct trace_store {
  std::mutex mu;
  std::vector<op_trace> completed;
};

trace_store& store() {
  static trace_store s;
  return s;
}

counter& drops_counter() {
  static counter& c = registry::instance().get_counter(
      "fastreg_obs_trace_drops_total");
  return c;
}

}  // namespace

void preheat_trace_metrics() { (void)drops_counter(); }

void trace_completion(const op_trace& t) {
  auto& s = store();
  std::lock_guard<std::mutex> lk(s.mu);
  if (s.completed.size() >= k_max_completed) {
    drops_counter().inc();
    return;
  }
  s.completed.push_back(t);
}

std::vector<op_trace> take_traces() {
  auto& s = store();
  std::lock_guard<std::mutex> lk(s.mu);
  return std::exchange(s.completed, {});
}

void reset_traces() {
  auto& s = store();
  std::lock_guard<std::mutex> lk(s.mu);
  s.completed.clear();
}

}  // namespace fastreg::obs
