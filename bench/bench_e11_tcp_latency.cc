// E11 -- the E1/E8 shape on a real network stack: localhost TCP with one
// reactor thread per process. Wall-clock microseconds; absolute numbers
// are machine-dependent, the ratios are the reproduction target:
// abd read ~= 2x fast read; maxmin in between; write ~= fast read.
//
// `--trace-out FILE` skips the latency table and instead runs a short
// flight-recorded pass per protocol, merges every node's recorder ring
// into one causally-ordered timeline, and writes it as Chrome
// trace-event JSON (load in about:tracing or Perfetto). CI smoke-runs
// this and validates the output with `trace_merge --validate`.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "benchutil/stats.h"
#include "benchutil/table.h"
#include "checker/atomicity.h"
#include "crypto/sig.h"
#include "net/cluster.h"
#include "obs/recorder.h"
#include "obs/timeline.h"
#include "registers/registry.h"

using namespace fastreg;
using namespace fastreg::benchutil;

namespace {

struct tcp_result {
  stats read_us;
  stats write_us;
  stats read_rounds;
  stats write_rounds;
  bool atomic{false};
};

tcp_result run_tcp(const std::string& proto, std::uint32_t S, std::uint32_t t,
                   const std::string& sigs, int ops,
                   std::uint32_t window_us) {
  system_config cfg;
  cfg.servers = S;
  cfg.t_failures = t;
  cfg.readers = 1;
  if (!sigs.empty()) cfg.sigs = crypto::make_signature_scheme(sigs);
  net::node_options nopt;
  nopt.batch_window_us = window_us;
  net::cluster c(cfg, *make_protocol(proto), nopt);
  c.start();
  tcp_result out;
  // Warmup: establish connections.
  (void)c.writer().blocking_write("warmup");
  (void)c.reader(0).blocking_read();
  for (int k = 0; k < ops; ++k) {
    auto t0 = std::chrono::steady_clock::now();
    const bool ok = c.writer().blocking_write("v" + std::to_string(k + 1));
    auto t1 = std::chrono::steady_clock::now();
    const auto rd = c.reader(0).blocking_read();
    auto t2 = std::chrono::steady_clock::now();
    if (!ok || !rd) continue;
    out.write_us.add(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    out.read_us.add(
        std::chrono::duration<double, std::micro>(t2 - t1).count());
  }
  // Rounds columns: each completed op's history record carries the
  // rounds its automaton reported.
  const auto hist = c.gather_history();
  for (const auto& op : hist.ops()) {
    if (!op.response_time) continue;
    (op.is_write ? out.write_rounds : out.read_rounds).add(op.rounds);
  }
  out.atomic = checker::check_swmr_atomicity(hist).ok;
  c.stop();
  return out;
}

/// --trace-out: a few flight-recorded round trips per protocol at
/// window 0, merged across every node's ring into catapult JSON.
int run_trace_out(const char* out_path) {
  std::printf("E11 --trace-out: recording 10 round trips per protocol\n");
  obs::set_recording(true);
  obs::recorder_reset_all();
  for (const char* proto : {"fast_swmr", "abd", "maxmin"}) {
    system_config cfg;
    cfg.servers = 5;
    cfg.t_failures = 1;
    cfg.readers = 1;
    net::cluster c(cfg, *make_protocol(proto), {});
    c.start();
    for (int k = 0; k < 10; ++k) {
      (void)c.writer().blocking_write(std::string(proto) + ":" +
                                      std::to_string(k));
      (void)c.reader(0).blocking_read();
    }
    c.stop();
  }
  obs::set_recording(false);
  std::vector<std::vector<obs::timeline_event>> per_node;
  for (const auto& [node, dump] : obs::recorder_dump_all()) {
    if (const auto err = obs::validate_recorder_dump(dump); !err.empty()) {
      std::fprintf(stderr, "E11: dump of %s invalid: %s\n", node.c_str(),
                   err.c_str());
      return 1;
    }
    per_node.push_back(obs::parse_recorder_dump(dump));
  }
  const auto merged = obs::merge_events(std::move(per_node));
  if (const auto err = obs::validate_timeline(merged); !err.empty()) {
    std::fprintf(stderr, "E11: causal check failed: %s\n", err.c_str());
    return 1;
  }
  const auto json = obs::render_catapult(merged);
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "E11: cannot write %s\n", out_path);
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("E11: wrote %s (%zu events from %zu nodes)\n", out_path,
              merged.size(), obs::recorder_dump_all().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 && std::strcmp(argv[1], "--trace-out") == 0) {
    return run_trace_out(argv[2]);
  }
  std::printf("E11: latency over real TCP sockets (localhost, "
              "microseconds)\n\n");
  table t({"proto", "S", "sigs", "window_us", "read_p50_us", "read_p99_us",
           "write_p50_us", "read/write", "rd_rounds", "wr_rounds",
           "atomic"});
  const int ops = 300;
  struct row {
    const char* proto;
    std::uint32_t S, t;
    const char* sigs;
    std::uint32_t window_us;
  };
  // window_us = 0 is the latency-first default (flush within the step);
  // the windowed rows price the Nagle-style coalescing in p50 terms for
  // single blocking ops -- the worst case for a window, since nothing
  // else shares the flush.
  for (const auto c :
       {row{"fast_swmr", 5, 1, "", 0}, row{"abd", 5, 1, "", 0},
        row{"maxmin", 5, 1, "", 0}, row{"fast_bft", 7, 1, "oracle", 0},
        row{"fast_bft", 7, 1, "rsa", 0}, row{"fast_swmr", 5, 1, "", 200},
        row{"abd", 5, 1, "", 200}}) {
    const auto res = run_tcp(c.proto, c.S, c.t, c.sigs,
                             std::string(c.sigs) == "rsa" ? 60 : ops,
                             c.window_us);
    const double ratio =
        res.write_us.p50() > 0 ? res.read_us.p50() / res.write_us.p50() : 0;
    t.add_row({c.proto, std::to_string(c.S),
               std::string(c.sigs).empty() ? "-" : c.sigs,
               std::to_string(c.window_us),
               fmt(res.read_us.p50()), fmt(res.read_us.p99()),
               fmt(res.write_us.p50()), fmt(ratio, 2),
               fmt(res.read_rounds.mean()), fmt(res.write_rounds.mean()),
               res.atomic ? "yes" : "NO"});
  }
  t.print();
  std::printf("\nexpected shape: fast_swmr read/write ~= 1.0 (both one "
              "RTT); abd ~= 2.0; maxmin between; RSA signing adds a "
              "visible constant to fast_bft writes and reads. rd/wr_rounds "
              "are the means of the history's per-op rounds: fast_swmr "
              "and maxmin reads 1.0, abd reads 2.0, all writes 1.0 (E1 "
              "cross-checks the same records against sim msgs/op = "
              "2*S*rounds). The "
              "window_us=200 rows show the batching window's latency tax "
              "on isolated ops -- roughly the window per round trip; "
              "throughput workloads buy it back (E12c).\n");
  return 0;
}
