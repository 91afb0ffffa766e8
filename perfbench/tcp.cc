// TCP workloads: read_fast, saturate_abd and durable_mwmr. Each runs one
// localhost store deployment with every client on one hub node, and
// drives each client's pipelined session from its own thread with a
// closed loop (the next op is submitted once the window admits it).
#include <unistd.h>

#include <array>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "benchutil/workload.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "store/tcp_store.h"

namespace perfbench {
namespace {

using namespace fastreg;

constexpr std::uint32_t k_keys = 1024;
constexpr std::uint32_t k_shards = 4;
constexpr int k_setups = 9;
constexpr auto k_op_timeout = std::chrono::milliseconds(5000);
constexpr auto k_drain_timeout = std::chrono::milliseconds(10000);

struct tcp_spec {
  const char* name;
  const char* protocol;
  std::uint32_t S, t, R, W;
  /// Ops in flight per session.
  std::uint32_t depth;
  /// Zipf(0.99) keys instead of uniform.
  bool zipf;
  /// Adaptive per-connection batch window (cap 500 us) instead of 0.
  bool adaptive;
  /// Per-server op log, fsync'd at most every 25 ms. With an fsync per
  /// record the servers' fsyncs approach the shared disk's rate, and
  /// throughput follows whatever else uses that disk.
  bool durable;
  store::verify_mode mode;
};

constexpr tcp_spec k_specs[] = {
    {"read_fast", "fast_swmr", 5, 1, 2, 1, 1, false, false, false,
     store::verify_mode::swmr_atomic},
    {"saturate_abd", "abd", 3, 1, 3, 1, 8, true, true, false,
     store::verify_mode::swmr_atomic},
    {"durable_mwmr", "mwmr", 3, 1, 2, 2, 1, true, false, true,
     store::verify_mode::mwmr},
};

// Every knob is set here; nothing is read from the environment.
net::node_options node_opts(const tcp_spec& s) {
  net::node_options o;
  o.batch_window_us = 0;
  o.adaptive = s.adaptive;
  o.adaptive_cap_us = 500;
  o.flush_bytes = 64 * 1024;
  o.reactors = 1;
  return o;
}

net::cluster_options cluster_opts() {
  net::cluster_options o;
  o.server_reactors = 1;
  o.client_hub = true;
  o.hub_reactors = 1;
  return o;
}

store::store_config store_cfg(const tcp_spec& s, const std::string& dir) {
  store::store_config c;
  c.base.servers = s.S;
  c.base.t_failures = s.t;
  c.base.b_malicious = 0;
  c.base.readers = s.R;
  c.base.writers = s.W;
  c.num_shards = k_shards;
  c.shard_protocols = {s.protocol};
  if (s.durable) {
    c.persist.dir = dir;
    c.persist.fsync = persist::fsync_policy::interval;
    c.persist.fsync_interval_ms = 25;
    c.persist.snapshot_every = 512;
  }
  return c;
}

void record_knobs(const tcp_spec& s, run_result& out) {
  const auto n = node_opts(s);
  const auto c = cluster_opts();
  const auto cfg = store_cfg(s, s.durable ? "<per-run dir>" : "");
  out.notes["knob.store"] = cfg.describe();
  out.notes["knob.node"] =
      "batch_window_us=" + std::to_string(n.batch_window_us) +
      " adaptive=" + std::to_string(n.adaptive) +
      " adaptive_cap_us=" + std::to_string(n.adaptive_cap_us) +
      " flush_bytes=" + std::to_string(n.flush_bytes) +
      " reactors=" + std::to_string(n.reactors);
  out.notes["knob.cluster"] =
      "client_hub=" + std::to_string(c.client_hub) +
      " hub_reactors=" + std::to_string(c.hub_reactors) +
      " server_reactors=" + std::to_string(c.server_reactors);
  out.notes["knob.sessions"] = std::to_string(s.R + s.W) + " x depth " +
                               std::to_string(s.depth) + ", " +
                               (s.zipf ? "zipf 0.99" : "uniform") + " over " +
                               std::to_string(k_keys) + " keys";
  out.notes["knob.persist"] =
      s.durable ? std::string("fsync=") +
                      persist::to_string(cfg.persist.fsync) +
                      " fsync_interval_ms=" +
                      std::to_string(cfg.persist.fsync_interval_ms) +
                      " snapshot_every=" +
                      std::to_string(cfg.persist.snapshot_every)
                : "off";
}

/// Builds, starts and warms one deployment: every key gets a value from
/// writer 0, and every client completes an op (which opens its
/// connection to every server).
std::unique_ptr<store::tcp_store> set_up(const tcp_spec& s,
                                         const std::string& dir) {
  auto ts = std::make_unique<store::tcp_store>(store_cfg(s, dir),
                                               node_opts(s), cluster_opts());
  ts->start();
  for (std::uint32_t k = 0; k < k_keys; k += 64) {
    std::vector<std::pair<std::string, value_t>> kvs;
    for (std::uint32_t i = k; i < k + 64; ++i) {
      kvs.emplace_back("key" + std::to_string(i),
                       "pre:" + std::to_string(i));
    }
    if (!ts->multi_put(0, kvs, k_op_timeout)) {
      throw std::runtime_error("set-up: preload timed out");
    }
  }
  for (std::uint32_t j = 1; j < s.W; ++j) {
    if (!ts->put(j, "key0", "warm:" + std::to_string(j), k_op_timeout)) {
      throw std::runtime_error("set-up: writer warm-up timed out");
    }
  }
  for (std::uint32_t i = 0; i < s.R; ++i) {
    if (!ts->get(i, "key0", k_op_timeout)) {
      throw std::runtime_error("set-up: reader warm-up timed out");
    }
  }
  return ts;
}

/// What the session loops of a pass did.
struct thread_tally {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  bool drained{true};
  std::vector<double> submit_us{};
  std::vector<double> wait_us{};
  /// What ended the loop early, if anything did.
  std::string error{};

  void merge(const thread_tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    drained = drained && o.drained;
    if (error.empty()) error = o.error;
    submit_us.insert(submit_us.end(), o.submit_us.begin(), o.submit_us.end());
    wait_us.insert(wait_us.end(), o.wait_us.begin(), o.wait_us.end());
  }
};

/// One session's closed loop. `next` yields the next key, or false when
/// the loop is over. Writers put values unique to (writer, pass, seq).
/// When `log` is set, every op gets an `op` span from its submit call
/// until the call that harvested it, with a child `submit` span around
/// the session call itself.
template <typename Next>
void drive(store::async_session& ses, bool writer, std::uint32_t pass,
           Next&& next, thread_tally& tally, span_log* log) {
  struct open_op {
    std::uint64_t call, ret, op;
  };
  std::unordered_map<std::string, open_op> open;
  auto close_done = [&](std::vector<store::store_result> done,
                        std::uint64_t t) {
    if (log == nullptr) return;
    for (const auto& r : done) {
      const auto it = open.find(r.key);
      if (it == open.end()) continue;
      const auto& o = it->second;
      const auto id = log->add("op", o.call, t, o.op);
      log->add("submit", o.call, o.ret, o.op, id);
      tally.submit_us.push_back(static_cast<double>(o.ret - o.call) / 1e3);
      tally.wait_us.push_back(static_cast<double>(t - o.ret) / 1e3);
      open.erase(it);
    }
  };
  const std::string prefix = to_string(ses.client_id()) + ":" +
                             std::to_string(pass) + ":";
  std::uint64_t seq = 0;
  std::string key;
  while (next(key)) {
    value_t v = writer ? prefix + std::to_string(++seq) : value_t{};
    const auto t_call = now_ns();
    auto st = writer ? ses.try_put(key, v) : ses.try_get(key);
    bool ok = st == store::submit_status::submitted;
    if (st == store::submit_status::window_full ||
        st == store::submit_status::key_busy) {
      ok = writer ? ses.put(key, std::move(v), k_op_timeout)
                  : ses.get(key, k_op_timeout);
    }
    const auto t_ret = now_ns();
    ++tally.attempted;
    if (!ok) ++tally.failed;
    close_done(ses.take_results(), now_ns());
    if (ok && log != nullptr) open[key] = {t_call, t_ret, log->next_id()};
  }
  if (!ses.drain(k_drain_timeout)) tally.drained = false;
  close_done(ses.take_results(), now_ns());
}

/// Runs body(i) for every tally on a thread of its own and joins them.
/// An exception ends that thread's loop and is kept in its tally.
template <typename Body>
void on_threads(std::vector<thread_tally>& tallies, Body&& body) {
  std::vector<std::jthread> threads;
  for (std::size_t i = 0; i < tallies.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        body(i);
      } catch (const std::exception& e) {
        tallies[i].error = e.what();
      }
    });
  }
}

void count_ops(const thread_tally& t, const char* what, run_result& out) {
  out.attempted += t.attempted;
  out.failed += t.failed;
  if (!t.drained) out.fail(std::string(what) + " did not drain");
  if (!t.error.empty()) out.fail(std::string(what) + ": " + t.error);
}

struct pass_result : thread_tally {
  std::uint64_t t0{0}, t1{0};
};

/// One timed pass: every session runs its closed loop for `seconds`.
pass_result timed_pass(const tcp_spec& s,
                       std::vector<std::unique_ptr<store::async_session>>& ses,
                       std::uint64_t seed, std::uint32_t pass, double seconds,
                       std::vector<span>* spans) {
  const benchutil::zipf_sampler zipf(k_keys, 0.99);
  std::vector<thread_tally> tallies(ses.size());
  std::vector<span_log> logs;
  for (std::size_t i = 0; i < ses.size(); ++i) logs.emplace_back(i + 1);
  pass_result p;
  p.t0 = now_ns();
  p.t1 = p.t0 + static_cast<std::uint64_t>(seconds * 1e9);
  on_threads(tallies, [&](std::size_t i) {
    rng r(seed * 0x9e3779b97f4a7c15ull + pass * 1000 + i);
    auto next = [&](std::string& key) {
      if (now_ns() >= p.t1) return false;
      const auto k = s.zipf ? zipf.sample(r)
                            : static_cast<std::uint32_t>(r.below(k_keys));
      key = "key" + std::to_string(k);
      return true;
    };
    drive(*ses[i], i < s.W, pass, next, tallies[i],
          spans != nullptr ? &logs[i] : nullptr);
  });
  for (std::size_t i = 0; i < ses.size(); ++i) {
    p.merge(tallies[i]);
    if (spans != nullptr) {
      spans->insert(spans->end(), logs[i].spans().begin(),
                    logs[i].spans().end());
    }
  }
  return p;
}

/// The completed ops of the deployment's history, and how many of them
/// were invoked inside [t0, t1).
std::vector<op_sample> samples_of(const store::store_histories& h,
                                  std::uint64_t t0, std::uint64_t t1,
                                  std::uint64_t& in_window) {
  std::vector<op_sample> v;
  in_window = 0;
  for (const auto& [key, hist] : h.all()) {
    for (const auto& op : hist.ops()) {
      if (!op.response_time) continue;
      v.push_back({op.invoke_time, *op.response_time, op.is_write});
      if (op.invoke_time >= t0 && op.invoke_time < t1) ++in_window;
    }
  }
  return v;
}

std::uint64_t incomplete_ops(const store::store_histories& h) {
  std::uint64_t n = 0;
  for (const auto& [key, hist] : h.all()) {
    for (const auto& op : hist.ops()) n += op.response_time ? 0 : 1;
  }
  return n;
}

double per_op(double v, std::uint64_t ops) {
  return ops == 0 ? 0 : v / static_cast<double>(ops);
}

/// The per-layer metrics read from the registry delta of the traced
/// pass, the tracer's rounds and the pass's own spans.
void layer_metrics(store::tcp_store& ts,
                   const std::vector<obs::sample>& d,
                   const std::vector<obs::op_trace>& traces,
                   pass_result& p, std::uint64_t ops, run_result& out) {
  auto& m = out.per_layer;
  m["store.submit_us.p50"] = {percentile(p.submit_us, 50), "us"};
  m["store.submit_us.p99"] = {percentile(p.submit_us, 99), "us"};
  m["store.remote_wait_us.p50"] = {percentile(p.wait_us, 50), "us"};
  m["store.remote_wait_us.p99"] = {percentile(p.wait_us, 99), "us"};
  const std::string adm = "fastreg_store_admission_total";
  m["store.admission.window_full_per_op"] = {
      per_op(sum_rows(d, adm, "window_full"), ops), "count"};
  m["store.admission.key_busy_per_op"] = {
      per_op(sum_rows(d, adm, "key_busy"), ops), "count"};
  m["store.server.serve_us.p50"] = {
      weighted_hist(d, "fastreg_store_serve_ns", "_p50") / 1e3, "us"};
  m["store.server.serve_us.p99"] = {
      weighted_hist(d, "fastreg_store_serve_ns", "_p99") / 1e3, "us"};
  const double served = sum_rows(d, "fastreg_store_ops_total");
  m["store.server.msgs_per_op"] = {per_op(served, ops), "count"};
  // Every served request is answered by exactly one reply.
  m["registers.msgs_per_op"] = {per_op(2 * served, ops), "count"};

  const double writevs = sum_rows(d, "fastreg_net_writev_calls_total");
  m["net.frames_per_writev"] = {
      writevs == 0 ? 0 : sum_rows(d, "fastreg_net_frames_out_total") / writevs,
      "count"};
  m["net.writev_per_op"] = {per_op(writevs, ops), "count"};
  m["net.bytes_out_per_op"] = {
      per_op(sum_rows(d, "fastreg_net_bytes_out_total"), ops), "B"};
  m["net.reactor_tasks_per_op"] = {
      per_op(sum_rows(d, "fastreg_net_reactor_tasks_total"), ops), "count"};
  m["net.window_wait_us.p50"] = {
      weighted_hist(d, "fastreg_net_window_wait_ns", "_p50") / 1e3, "us"};
  m["net.flush_us.p50"] = {
      weighted_hist(d, "fastreg_net_flush_ns", "_p50") / 1e3, "us"};

  m["persist.fsyncs_per_op"] = {
      per_op(sum_rows(d, "fastreg_persist_fsyncs_total"), ops), "count"};
  m["persist.log_bytes_per_op"] = {
      per_op(sum_rows(d, "fastreg_persist_log_bytes_total"), ops), "B"};
  m["persist.snapshots_per_kop"] = {
      per_op(1000 * sum_rows(d, "fastreg_persist_snapshots_total"), ops),
      "count"};

  // Tracer rounds by the protocol of each op's shard: per protocol, the
  // rounds and count of gets, then of puts.
  std::map<std::string, std::array<double, 4>> rounds;
  const auto shards = ts.proto().shards();
  for (const auto& tr : traces) {
    auto& r = rounds[shards->protocol_for_object(tr.obj).name()];
    r[tr.is_write ? 2 : 0] += tr.rounds;
    r[tr.is_write ? 3 : 1] += 1;
  }
  for (const std::string proto : {"fast_swmr", "abd", "mwmr"}) {
    const auto& r = rounds[proto];
    m["registers.rounds_per_get." + proto] = {r[1] == 0 ? 0 : r[0] / r[1],
                                              "count"};
    m["registers.rounds_per_put." + proto] = {r[3] == 0 ? 0 : r[2] / r[3],
                                              "count"};
  }
  out.notes["traced_ops"] = std::to_string(ops);
  out.notes["traced_rounds_samples"] = std::to_string(traces.size());
}

const tcp_spec* find_spec(const std::string& name) {
  for (const auto& s : k_specs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

}  // namespace

bool is_workload(const std::string& name) {
  return find_spec(name) != nullptr;
}

void run_workload(const run_args& a, run_result& out,
                  std::vector<span>& spans) {
  const tcp_spec& s = *find_spec(a.workload);
  record_knobs(s, out);
  span_log main_log(0);
  const std::string root =
      a.out_dir + "/persist-" + a.workload + "-" + std::to_string(::getpid());

  // Set-up, timed several times; the last deployment is the one measured.
  std::unique_ptr<store::tcp_store> ts;
  std::vector<double> setup_s;
  for (int k = 0; k < k_setups; ++k) {
    if (ts) ts->stop();
    ts.reset();
    const std::string dir = root + "/setup" + std::to_string(k);
    std::filesystem::remove_all(dir);
    const auto t0 = now_ns();
    ts = set_up(s, dir);
    const auto t1 = now_ns();
    main_log.add("setup", t0, t1);
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  }
  out.end_to_end["setup_s"] = {median(setup_s), "s"};

  std::vector<std::unique_ptr<store::async_session>> ses;
  for (std::uint32_t j = 0; j < s.W; ++j) {
    ses.push_back(ts->open_session(writer_id(j), s.depth));
  }
  for (std::uint32_t i = 0; i < s.R; ++i) {
    ses.push_back(ts->open_session(reader_id(i), s.depth));
  }

  // Untraced pass: the end-to-end metrics (and the traced run's base).
  const double untraced_s = a.trace ? a.seconds / 2 : a.seconds;
  const auto p0 = timed_pass(s, ses, a.seed, 0, untraced_s, nullptr);
  count_ops(p0, "untraced pass", out);
  std::uint64_t ops0 = 0;
  client_metrics(samples_of(ts->gather(), p0.t0, p0.t1, ops0), p0.t0, p0.t1,
                 out);
  const double ops_s0 = static_cast<double>(ops0) / untraced_s;

  if (a.trace) {
    // Histograms have no bucket-level delta, so the traced pass starts
    // from a zeroed registry; counters are read as an interval delta.
    obs::reset_metrics();
    obs::interval_scrape scrape;
    obs::reset_traces();
    obs::set_tracing(true);
    auto p1 = timed_pass(s, ses, a.seed, 1, a.seconds - untraced_s, &spans);
    obs::set_tracing(false);
    const auto delta = scrape.take();
    const auto traces = obs::take_traces();
    count_ops(p1, "traced pass", out);
    std::uint64_t ops1 = 0;
    (void)samples_of(ts->gather(), p1.t0, p1.t1, ops1);
    const double ops_s1 =
        static_cast<double>(ops1) / (a.seconds - untraced_s);
    layer_metrics(*ts, delta, traces, p1, ops1, out);
    auto& m = out.per_layer;
    m["obs.untraced_ops_per_s"] = {ops_s0, "1/s"};
    m["obs.traced_ops_per_s"] = {ops_s1, "1/s"};
    m["obs.trace_overhead"] = {ops_s1 == 0 ? 0 : ops_s0 / ops_s1, "ratio"};
  }

  if (s.durable) {
    // Crash-restart server 0 from its log, then read every key back into
    // the same history. Server 1 stays up: a request sent to the restarted
    // server on its pre-restart connection can be lost, and without a
    // quorum of the others such a read never completes.
    ts->cluster().server(0).stop();
    obs::interval_scrape scrape;
    const auto t0 = now_ns();
    ts->restart_server(0);
    const auto t1 = now_ns();
    main_log.add("restart", t0, t1);
    const auto d = scrape.take();
    out.per_layer["persist.restart_ms"] = {
        static_cast<double>(t1 - t0) / 1e6, "ms"};
    out.per_layer["persist.replayed_records"] = {
        sum_rows(d, "fastreg_persist_replayed_records_total"), "count"};

    std::vector<thread_tally> tallies(s.R);
    on_threads(tallies, [&](std::size_t i) {
      auto k = static_cast<std::uint32_t>(i);
      auto next = [&](std::string& key) {
        if (k >= k_keys) return false;
        key = "key" + std::to_string(k);
        k += s.R;
        return true;
      };
      drive(*ses[s.W + i], false, 2, next, tallies[i], nullptr);
    });
    for (const auto& t : tallies) count_ops(t, "read-back", out);
  }
  ses.clear();

  // The correctness gate: every key's whole history (preload, passes,
  // read-back) under the protocol's checker.
  const auto v0 = now_ns();
  const auto h = ts->gather();
  std::string bad_key;
  const auto check = h.verify(s.mode, &bad_key);
  const auto v1 = now_ns();
  main_log.add("verify", v0, v1);
  const double verify_s = static_cast<double>(v1 - v0) / 1e9;
  out.per_layer["checker.verify_s"] = {verify_s, "s"};
  out.per_layer["checker.verify_ops_per_s"] = {
      static_cast<double>(h.total_ops()) / verify_s, "1/s"};
  out.notes["verified_ops"] = std::to_string(h.total_ops());
  if (!check.ok) out.fail("key " + bad_key + ": " + check.error);
  out.failed += incomplete_ops(h);

  ts->stop();
  ts.reset();
  std::filesystem::remove_all(root);
  spans.insert(spans.end(), main_log.spans().begin(), main_log.spans().end());
}

}  // namespace perfbench
