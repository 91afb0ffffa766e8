// E5 -- Proposition 11 / Section 7: no fast MWMR atomic register exists,
// even with W = R = 2, t = 1. Two halves:
//   (a) the run^1..run^{S+1} flip-point construction against the one-round
//       strawman ("naive_fast_mwmr"): some property P1/P2 must break;
//   (b) the correct two-phase MWMR register: linearizable, but reads AND
//       writes cost 2 round-trips -- the price Proposition 11 proves
//       unavoidable.
#include <cstdio>

#include "adversary/mwmr_lower_bound.h"
#include "benchutil/table.h"
#include "benchutil/workload.h"
#include "checker/atomicity.h"
#include "registers/registry.h"

using namespace fastreg;
using namespace fastreg::benchutil;

int main() {
  std::printf("E5: multiple writers (Section 7, Proposition 11)\n\n");

  std::printf(
      "== E5.a: the run-series construction vs two fast strawmen ==\n");
  {
    table t({"strawman", "S", "series(r1 per run)", "P1_run1", "P1_runS+1",
             "flip", "r2(run')", "r2(run'')", "verdict"});
    for (const char* name : {"naive_fast_mwmr", "naive_fast_mwmr_lww"}) {
      auto strawman = make_protocol(name);
      for (std::uint32_t S : {3u, 4u, 6u, 9u}) {
        const auto rep = adversary::run_mwmr_lower_bound(*strawman, S);
        std::string series;
        for (std::size_t i = 0; i < rep.series.size(); ++i) {
          series += (i ? "," : "") + rep.series[i];
        }
        t.add_row({name, std::to_string(S), series,
                   rep.p1_ok_run1 ? "ok" : "VIOLATED",
                   rep.p1_ok_runlast ? "ok" : "VIOLATED",
                   rep.flip_index ? std::to_string(*rep.flip_index) : "-",
                   rep.r2_run_prime ? *rep.r2_run_prime : "-",
                   rep.r2_run_doubleprime ? *rep.r2_run_doubleprime : "-",
                   rep.violation ? "NOT ATOMIC" : "atomic (bug!)"});
      }
    }
    t.print();
    std::printf(
        "expected: every row NOT ATOMIC. The wid-tiebreak strawman fails "
        "P1 outright; the last-write-wins strawman passes P1 at the "
        "endpoints, so the construction finds the flip i1 and the r2 "
        "extensions expose the P2 disagreement -- the paper's full "
        "argument.\n\n");
  }

  std::printf("== E5.b: the correct 2-phase MWMR baseline ==\n");
  {
    table t({"W", "R", "S", "t", "ops", "read_p50", "write_p50",
             "rd_rounds", "wr_rounds", "msgs/op", "linearizable"});
    for (std::uint32_t W : {2u, 3u}) {
      system_config cfg;
      cfg.servers = 7;
      cfg.t_failures = 2;
      cfg.readers = 2;
      cfg.writers = W;
      auto proto = make_protocol("mwmr");
      // Latency is measured through writer 0 (rounds are identical for all
      // writers); multi-writer linearizability is exercised by the tests.
      // History sizes here are far past the old exponential checker's
      // 63-op cap -- the polynomial checker verifies them outright.
      workload_options opt;
      opt.num_writes = 200;
      opt.reads_per_reader = 200;
      opt.concurrent = true;
      const auto rep = run_measured(*proto, cfg, opt);
      t.add_row(
          {std::to_string(W), "2", "7", "2",
           std::to_string(rep.hist.size()), fmt(rep.read_latency.p50()),
           fmt(rep.write_latency.p50()), fmt(rep.read_rounds.mean()),
           fmt(rep.write_rounds.mean()), fmt(rep.msgs_per_op),
           checker::check_mwmr_linearizable(rep.hist).ok ? "yes" : "NO"});
    }
    t.print();
    std::printf("expected: rd_rounds = wr_rounds = 2.0 -- both op types pay "
                "the second round-trip -- msgs/op = 2*S*2 = 28 counting the "
                "same rounds independently (each round is S requests and "
                "S replies), and every history (600 ops, checked in "
                "O(n log n)) linearizable.\n");
  }
  return 0;
}
