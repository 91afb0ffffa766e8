// The exact-count gate: one fixed-seed, fixed-size store run on the timed
// simulator, part of every benchmark run. Its counts are exact, so it
// checks the paper's round counts against theory -- a fast_swmr read
// takes one round, an abd read two, every write one, and each round is
// one request and one reply per server -- and checks that the simulator
// reproduces the recorded message, envelope and step counts.
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "benchutil/workload.h"
#include "common/rng.h"
#include "store/async_client.h"
#include "store/sim_store.h"

namespace perfbench {
namespace {

using namespace fastreg;

constexpr std::uint32_t k_keys = 1024;
constexpr std::uint32_t k_batch = 8;
constexpr std::uint64_t k_seed = 1;
constexpr std::uint32_t k_gets = 4000;  // per reader
constexpr std::uint32_t k_puts = 2000;

store::store_config store_cfg() {
  store::store_config c;
  c.base.servers = 7;
  c.base.t_failures = 1;
  c.base.b_malicious = 0;
  c.base.readers = 3;
  c.base.writers = 1;
  c.num_shards = 4;
  c.shard_protocols = {"fast_swmr", "abd"};
  return c;
}

/// One simulated deployment with a pipelined session per client
/// (writers first), uniform U[50,150] link delays and its own rngs.
struct deployment {
  deployment() : s(store_cfg()), sched(k_seed), keys(k_seed ^ 0x5bd1e995ull) {
    const auto& b = s.config().base;
    for (std::uint32_t j = 0; j < b.W(); ++j) {
      ses.push_back(fe.open_session(writer_id(j), k_batch));
    }
    for (std::uint32_t i = 0; i < b.R(); ++i) {
      ses.push_back(fe.open_session(reader_id(i), k_batch));
    }
  }
  [[nodiscard]] bool is_writer(std::size_t i) const {
    return i < s.config().base.W();
  }

  store::sim_store s;
  rng sched;
  rng keys;
  store::sim_frontend fe{s, sched};
  sim::uniform_delay delays{50, 150};
  std::vector<std::unique_ptr<store::async_session>> ses{};
  std::uint64_t put_seq{0};
};

/// The closed loop: each session issues a batch of distinct keys once its
/// previous batch completed, and the world takes one timed step at a
/// time. `next_batch(i)` gives session i's next keys (empty = none).
/// Returns the steps taken.
template <typename NextBatch>
std::uint64_t run_loop(deployment& d, NextBatch&& next_batch) {
  std::uint64_t steps = 0;
  for (;;) {
    bool invoked = false;
    for (std::size_t i = 0; i < d.ses.size(); ++i) {
      auto& ses = *d.ses[i];
      ses.pump();
      (void)ses.take_results();
      if (ses.in_flight() != 0) continue;
      const auto batch = next_batch(i);
      if (batch.empty()) continue;
      for (const auto& key : batch) {
        const auto st =
            d.is_writer(i)
                ? ses.try_put(key, "v" + std::to_string(++d.put_seq))
                : ses.try_get(key);
        if (st != store::submit_status::submitted) {
          throw std::runtime_error("exact-count run: admission refused");
        }
      }
      ses.pump();
      invoked = true;
    }
    if (d.s.world().in_transit().empty()) {
      if (invoked) continue;
      return steps;
    }
    steps += d.s.run_timed(d.sched, d.delays, 1);
  }
}

/// Checks every op against the round theory and the message total
/// against 2 * S * rounds. Returns "" when exact.
std::string check_theory(deployment& d) {
  const auto& h = d.s.histories();
  const std::uint64_t S = d.s.config().base.S();
  std::uint64_t expect_msgs = 0;
  for (const auto& [key, hist] : h.all()) {
    const auto proto =
        d.s.shards()->protocol_for_object(store::key_object_id(key)).name();
    const int get_rounds = proto == "fast_swmr" ? 1 : 2;
    for (const auto& op : hist.ops()) {
      if (!op.response_time) return "incomplete op on " + key;
      const int want = op.is_write ? 1 : get_rounds;
      if (op.rounds != want) {
        return proto + (op.is_write ? " put" : " get") + " on " + key +
               " took " + std::to_string(op.rounds) + " rounds, theory " +
               std::to_string(want);
      }
      expect_msgs += 2 * S * static_cast<std::uint64_t>(op.rounds);
    }
  }
  if (d.s.world().messages_sent() != expect_msgs) {
    return "messages sent " + std::to_string(d.s.world().messages_sent()) +
           " != 2*S*rounds " + std::to_string(expect_msgs);
  }
  return "";
}

}  // namespace

void exact_count_gate(const run_args& a, run_result& out,
                      std::vector<span>& spans) {
  // Lane 0 is the workload's main thread and 1.. its sessions.
  span_log log(100);
  const auto t0 = now_ns();
  deployment d;
  // Every key written once, then Zipf(0.99) batches up to the quotas.
  std::uint32_t preloaded = 0;
  std::uint64_t steps = run_loop(d, [&](std::size_t i) {
    std::vector<std::string> keys;
    if (!d.is_writer(i)) return keys;
    for (; preloaded < k_keys && keys.size() < k_batch; ++preloaded) {
      keys.push_back("key" + std::to_string(preloaded));
    }
    return keys;
  });
  const benchutil::zipf_sampler zipf(k_keys, 0.99);
  std::vector<std::uint32_t> left;
  for (std::size_t i = 0; i < d.ses.size(); ++i) {
    left.push_back(d.is_writer(i) ? k_puts : k_gets);
  }
  steps += run_loop(d, [&](std::size_t i) {
    if (left[i] == 0) return std::vector<std::string>{};
    left[i] -= k_batch;
    return benchutil::sample_distinct_keys_zipf(d.keys, zipf, k_batch);
  });
  const auto t1 = now_ns();
  log.add("sim.run", t0, t1);

  if (const auto why = check_theory(d); !why.empty()) {
    out.fail("exact-count run: " + why);
  }
  std::string bad_key;
  const auto check =
      d.s.histories().verify(store::verify_mode::swmr_atomic, &bad_key);
  if (!check.ok) {
    out.fail("exact-count run, key " + bad_key + ": " + check.error);
  }

  const std::uint64_t ops = d.s.histories().total_ops();
  const std::uint64_t msgs = d.s.world().messages_sent();
  const std::uint64_t envelopes = d.s.world().envelopes_sent();
  const std::string counts =
      "ops=" + std::to_string(ops) + " msgs=" + std::to_string(msgs) +
      " envelopes=" + std::to_string(envelopes) +
      " steps=" + std::to_string(steps);
  std::string want;
  if (std::ifstream f(a.reference_path); !std::getline(f, want)) {
    out.fail("cannot read recorded counts " + a.reference_path);
  } else if (want != counts) {
    out.fail("exact counts " + counts + " != recorded " + want);
  }
  out.notes["exact_counts"] = counts;
  const double n = static_cast<double>(ops);
  auto& m = out.per_layer;
  m["sim.msgs_per_op"] = {static_cast<double>(msgs) / n, "count"};
  m["sim.envelopes_per_op"] = {static_cast<double>(envelopes) / n, "count"};
  m["sim.steps_per_op"] = {static_cast<double>(steps) / n, "count"};
  m["sim.step_us"] = {
      static_cast<double>(t1 - t0) / 1e3 / static_cast<double>(steps), "us"};
  spans.insert(spans.end(), log.spans().begin(), log.spans().end());
}

}  // namespace perfbench
