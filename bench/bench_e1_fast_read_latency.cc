// E1 -- Figure 2's headline claim: with R < S/t - 2, every read and write
// of the fast SWMR register completes in ONE communication round-trip,
// halving read latency versus ABD's two round-trips (Section 1, Section 4).
//
// Reproduces the shape on the timed simulator (link delay U[50,150] ticks):
// fast reads ~= 1 RTT ~= writes; ABD reads ~= 2 RTT; max-min reads sit in
// between (3 one-way delays). Columns: p50/p99 latency in ticks, measured
// round-trips, messages per op.
#include <cstdio>

#include "benchutil/table.h"
#include "benchutil/workload.h"
#include "checker/atomicity.h"
#include "registers/registry.h"

using namespace fastreg;
using namespace fastreg::benchutil;

namespace {

void sweep(bool concurrent) {
  std::printf("== E1.%s: read/write latency, %s ops ==\n",
              concurrent ? "b" : "a",
              concurrent ? "concurrent closed-loop" : "isolated");
  table t({"proto", "S", "t", "R", "read_p50", "read_p99", "write_p50",
           "rd_rounds", "wr_rounds", "msgs/op", "atomic"});
  struct cfg_case {
    std::uint32_t S, t, R;
  };
  for (const auto c : {cfg_case{8, 1, 2}, cfg_case{16, 2, 4},
                       cfg_case{25, 4, 2}, cfg_case{31, 3, 6}}) {
    for (const char* name : {"fast_swmr", "abd", "maxmin"}) {
      auto proto = make_protocol(name);
      system_config cfg;
      cfg.servers = c.S;
      cfg.t_failures = c.t;
      cfg.readers = c.R;
      workload_options opt;
      opt.concurrent = concurrent;
      opt.num_writes = 30;
      opt.reads_per_reader = 30;
      opt.seed = 42;
      const auto rep = run_measured(*proto, cfg, opt);
      const auto atomic = checker::check_swmr_atomicity(rep.hist);
      t.add_row({name, std::to_string(c.S), std::to_string(c.t),
                 std::to_string(c.R), fmt(rep.read_latency.p50()),
                 fmt(rep.read_latency.p99()), fmt(rep.write_latency.p50()),
                 fmt(rep.read_rounds.mean()), fmt(rep.write_rounds.mean()),
                 fmt(rep.msgs_per_op), atomic.ok ? "yes" : "NO"});
    }
  }
  t.print();
  std::printf(
      "expected shape: fast_swmr read_p50 ~= write_p50 (1 RTT, ~200 ticks); "
      "abd read ~= 2x (2 RTT); maxmin ~= 1.5x (3 one-way delays). "
      "rd/wr_rounds: fast_swmr 1.0, abd reads 2.0. For fast_swmr and "
      "abd msgs/op counts the same rounds independently: each round is "
      "S requests and S replies, so msgs/op = 2*S*(mean rounds per op), "
      "e.g. fast_swmr S=8: 16, abd S=8: 26.7 (reads 2, writes 1). "
      "maxmin servers also relay among themselves, so its msgs/op is "
      "higher.\n\n");
}

}  // namespace

int main() {
  std::printf("E1: how fast can a distributed atomic read be? "
              "(paper: 1 round-trip iff R < S/t - 2)\n\n");
  sweep(/*concurrent=*/false);
  sweep(/*concurrent=*/true);
  return 0;
}
