// Shared pieces of the store benchmark: run arguments, the result every
// workload fills in, in-memory spans, and small statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct run_args {
  std::string workload{};
  std::uint64_t seed{1};
  /// Length of the timed phase. A traced run splits it between an
  /// untraced and a traced pass.
  double seconds{10};
  bool trace{false};
  /// Where spans, per-run results and persistence directories go.
  std::string out_dir{"."};
  std::string git_sha{"unknown"};
  /// The counts the exact-count run must reproduce.
  std::string reference_path{};
};

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One completed op: invocation and completion times (steady ns).
struct op_sample {
  std::uint64_t t0{0};
  std::uint64_t t1{0};
  bool put{false};
};

struct metric {
  double value{0};
  std::string unit{};
};

/// Everything one run reports. End-to-end metrics come from untraced
/// passes only; per-layer metrics from the traced pass.
struct run_result {
  bool correct{true};
  /// First correctness failure, empty while correct.
  std::string why{};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::map<std::string, metric> end_to_end{};
  std::map<std::string, metric> per_layer{};
  /// Knobs and counts recorded beside the metrics (not metrics).
  std::map<std::string, std::string> notes{};

  void fail(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
};

/// One complete span. Spans of one op share `op`; `parent` is the span id
/// of the enclosing span (0 = none).
struct span {
  const char* name{""};
  std::uint64_t id{0};
  std::uint64_t parent{0};
  std::uint64_t op{0};
  std::uint32_t lane{0};
  std::uint64_t t0{0};
  std::uint64_t t1{0};
};

/// Spans recorded by one thread (lane); merged after the threads join.
class span_log {
 public:
  /// Span ids are unique across lanes: the lane lives in the top bits.
  explicit span_log(std::uint32_t lane) : lane_(lane) {}

  [[nodiscard]] std::uint64_t next_id() {
    return (static_cast<std::uint64_t>(lane_) << 40) | ++seq_;
  }
  std::uint64_t add(const char* name, std::uint64_t t0, std::uint64_t t1,
                    std::uint64_t op = 0, std::uint64_t parent = 0) {
    const std::uint64_t id = next_id();
    spans_.push_back({name, id, parent, op, lane_, t0, t1});
    return id;
  }
  [[nodiscard]] std::vector<span>& spans() { return spans_; }

 private:
  std::uint32_t lane_;
  std::uint64_t seq_{0};
  std::vector<span> spans_{};
};

/// Writes spans as Chrome trace-event JSON (complete "X" events, one
/// lane per session thread). Returns false on an I/O error.
bool write_catapult(const std::string& path, const std::vector<span>& spans);

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
[[nodiscard]] inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, p / 100.0 * static_cast<double>(v.size()) + 0.999999));
  return v[std::min(rank, v.size()) - 1];
}

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Sum of every row of a scrape whose series name is `base` (labels
/// ignored), optionally only rows whose labels contain `label`.
[[nodiscard]] double sum_rows(const std::vector<fastreg::obs::sample>& rows,
                              const std::string& base,
                              const std::string& label = {});

/// Count-weighted mean of a histogram's per-series `suffix` rows
/// ("_p50", "_p99"): the registry keeps one histogram per node and has
/// no merged view.
[[nodiscard]] double weighted_hist(
    const std::vector<fastreg::obs::sample>& rows, const std::string& base,
    const std::string& suffix);

/// Length of the slices a timed pass is cut into. Stalls from other
/// tenants of a shared machine come in bursts well under a second, so the
/// median over one-second slices sets them aside.
constexpr double k_slice_seconds = 1;

/// The end-to-end metrics of the timed pass [t0, t1) from its completed
/// ops (those invoked outside the window are ignored): ops_per_s and
/// get/put p50 in microseconds, each the median of its values over the
/// pass's slices, so a burst of noise moves one slice rather than the
/// run. The p90s and p99s, computed the same way, go to the notes: they
/// follow how busy the rest of the machine is too closely to bound.
void client_metrics(const std::vector<op_sample>& ops, std::uint64_t t0,
                    std::uint64_t t1, run_result& out);

/// The workloads (all on TCP).
[[nodiscard]] bool is_workload(const std::string& name);
void run_workload(const run_args& a, run_result& out,
                  std::vector<span>& spans);

/// The fixed-seed simulator run every benchmark run ends with: checks
/// rounds and messages against theory and the recorded exact counts,
/// and reports the sim.* per-layer metrics.
void exact_count_gate(const run_args& a, run_result& out,
                      std::vector<span>& spans);

}  // namespace perfbench
