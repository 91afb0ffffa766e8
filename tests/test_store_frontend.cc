// The unified pipelined store front-end (store/async_client.h): the
// same session surface drives the deterministic simulator and the real
// TCP cluster, so one scripted driver must produce verifier-clean,
// shape-identical histories on both. Also covered: the non-blocking
// admission statuses (window_full / key_busy) and their registry
// counters, backpressure against a paused (slow) server fleet,
// connection churn while a pipeline is in flight, and a multi-reactor
// hub+server run whose data races -- if any -- are TSan's to find.
#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/cluster.h"
#include "net/node.h"
#include "obs/metrics.h"
#include "store/async_client.h"
#include "store/sim_store.h"
#include "store/tcp_store.h"

namespace fastreg::store {
namespace {

using namespace std::chrono_literals;

store_config frontend_cfg(std::uint32_t S, std::uint32_t t,
                          std::uint32_t R) {
  store_config cfg;
  cfg.base.servers = S;
  cfg.base.t_failures = t;
  cfg.base.readers = R;
  cfg.base.writers = 1;
  cfg.num_shards = 2;
  cfg.shard_protocols = {"abd"};
  return cfg;
}

std::string script_key(int n) { return "k" + std::to_string(n % 4); }

/// Holds a node's home reactor inside a posted control task (run on
/// `actor`'s behalf, so only that actor's step mutex is held) until the
/// latch is released or destroyed.
class reactor_latch {
 public:
  reactor_latch(net::node& n, std::size_t actor)
      : th_([this, &n, actor] {
          n.run_on_reactor(actor, [this](automaton&) {
            std::unique_lock<std::mutex> lk(mu_);
            entered_ = true;
            cv_.notify_all();
            cv_.wait(lk, [this] { return released_; });
          });
        }) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return entered_; });
  }
  reactor_latch(const reactor_latch&) = delete;
  reactor_latch& operator=(const reactor_latch&) = delete;
  ~reactor_latch() {
    release();
    th_.join();
  }

  void release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_{false};
  bool released_{false};
  std::thread th_;
};

/// Sum of a counter's series on one node (label node="<self>"), narrowed
/// to the series carrying `also` when given; 0 when none matches.
double node_counter(const net::node& n, const std::string& name,
                    const std::string& also = "") {
  const std::string prefix = name + "{";
  const std::string label = "node=\"" + to_string(n.self()) + "\"";
  double v = 0;
  for (const auto& row : obs::snapshot()) {
    if (row.name.rfind(prefix, 0) == 0 &&
        row.name.find(label) != std::string::npos &&
        row.name.find(also) != std::string::npos) {
      v += row.value;
    }
  }
  return v;
}

/// Sum of every series of a counter, whatever its labels.
double counter_total(const std::string& name) {
  double v = 0;
  for (const auto& row : obs::snapshot()) {
    if (row.name == name || row.name.rfind(name + "{", 0) == 0) v += row.value;
  }
  return v;
}

net::cluster_options one_reactor_hub() {
  net::cluster_options copt;
  copt.client_hub = true;
  copt.hub_reactors = 1;
  return copt;
}

/// The shared scripted driver: one writer and two readers interleave 30
/// blocking ops each through pipelined sessions (depth 3), then drain.
/// Works against ANY store_frontend -- that is the point of the test.
void run_script(store_frontend& fe) {
  auto w = fe.open_session(writer_id(0), /*depth=*/3);
  auto r0 = fe.open_session(reader_id(0), /*depth=*/3);
  auto r1 = fe.open_session(reader_id(1), /*depth=*/3);
  // Writes land first so no read ever targets a never-written key.
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(w->put(script_key(k), "seed" + std::to_string(k)));
  }
  ASSERT_TRUE(w->drain());
  for (int n = 0; n < 30; ++n) {
    ASSERT_TRUE(w->put(script_key(n), "v" + std::to_string(n)));
    ASSERT_TRUE(r0->get(script_key(n + 1)));
    ASSERT_TRUE(r1->get(script_key(n + 2)));
  }
  ASSERT_TRUE(w->drain());
  ASSERT_TRUE(r0->drain());
  ASSERT_TRUE(r1->drain());
  EXPECT_EQ(w->submitted(), 34u);
  EXPECT_EQ(r0->submitted(), 30u);
  EXPECT_EQ(r1->submitted(), 30u);
  EXPECT_EQ(w->in_flight(), 0u);
}

TEST(StoreFrontend, SameScriptOnSimAndTcpVerifierIdenticalShape) {
  const auto cfg = frontend_cfg(5, 1, 2);

  sim_store s(cfg);
  rng r(7);
  sim_frontend sim_fe(s, r);
  run_script(sim_fe);
  const auto sim_hist = sim_fe.gather();

  tcp_store ts(cfg);
  ts.start();
  run_script(ts.frontend());
  const auto tcp_hist = ts.gather();
  ts.stop();

  for (const auto* hist : {&sim_hist, &tcp_hist}) {
    EXPECT_TRUE(hist->all_complete());
    const auto res = hist->verify();
    EXPECT_TRUE(res.ok) << res.error;
  }
  // Identical shape: same keys, same per-key op count, same read/write
  // split. (Timestamps and read values legitimately differ: virtual
  // time and the sim's schedule vs wall clock and real concurrency.)
  EXPECT_EQ(sim_hist.total_ops(), tcp_hist.total_ops());
  ASSERT_EQ(sim_hist.key_count(), tcp_hist.key_count());
  for (const auto& [key, h] : sim_hist.all()) {
    ASSERT_TRUE(tcp_hist.all().contains(key)) << key;
    const auto& th = tcp_hist.all().at(key);
    EXPECT_EQ(h.ops().size(), th.ops().size()) << key;
    const auto writes = [](const checker::history& hh) {
      std::size_t n = 0;
      for (const auto& op : hh.ops()) n += op.is_write ? 1 : 0;
      return n;
    };
    EXPECT_EQ(writes(h), writes(th)) << key;
  }
}

/// Sum of an admission counter's delta across an interval scrape.
double admission_delta(const std::vector<obs::sample>& rows,
                       const char* result) {
  const std::string want = "fastreg_store_admission_total{result=\"" +
                           std::string(result) + "\"}";
  double s = 0;
  for (const auto& row : rows) {
    if (row.name == want) s += row.value;
  }
  return s;
}

TEST(StoreFrontend, SimAdmissionStatusesAndCounters) {
  const auto cfg = frontend_cfg(5, 1, 1);
  sim_store s(cfg);
  rng r(11);
  sim_frontend fe(s, r);
  obs::interval_scrape scrape;

  auto w = fe.open_session(writer_id(0), /*depth=*/2);
  EXPECT_EQ(w->try_put("k0", "a"), submit_status::submitted);
  // Same (client, key) already admitted: per-object well-formedness.
  EXPECT_EQ(w->try_put("k0", "b"), submit_status::key_busy);
  EXPECT_EQ(w->try_put("k1", "c"), submit_status::submitted);
  // Window of 2 is full, even for a fresh key.
  EXPECT_EQ(w->try_put("k2", "d"), submit_status::window_full);
  EXPECT_EQ(w->in_flight(), 2u);

  ASSERT_TRUE(w->drain());
  EXPECT_EQ(w->in_flight(), 0u);
  // The window and the keys are free again.
  EXPECT_EQ(w->try_put("k0", "e"), submit_status::submitted);
  ASSERT_TRUE(w->drain());
  EXPECT_EQ(w->take_results().size(), 3u);

  const auto delta = scrape.take();
  EXPECT_GE(admission_delta(delta, "submitted"), 3.0);
  EXPECT_GE(admission_delta(delta, "key_busy"), 1.0);
  EXPECT_GE(admission_delta(delta, "window_full"), 1.0);

  const auto res = fe.gather().verify();
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(StoreFrontend, TcpBackpressureAgainstPausedServers) {
  // Pause-fault EVERY server: requests keep leaving the client (kernel
  // and window buffers absorb them) but no completion can arrive, so
  // the session's window fills and admission pushes back instead of
  // buffering unboundedly. Healing releases the queued bytes and the
  // pipeline drains clean.
  const auto cfg = frontend_cfg(3, 1, 1);
  tcp_store ts(cfg);
  ts.start();
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(ts.put(0, "k" + std::to_string(k), "seed"));
  }
  // Warm the reader's connections BEFORE the pause so the submits below
  // test backpressure, not connect-while-paused.
  ASSERT_TRUE(ts.get(0, "k0").has_value());

  auto se = ts.open_session(reader_id(0), /*depth=*/2);
  for (std::uint32_t i = 0; i < 3; ++i) {
    ts.cluster().server(i).set_fault_all(net::conn_fault::pause);
  }
  EXPECT_EQ(se->try_get("k0"), submit_status::submitted);
  EXPECT_EQ(se->try_get("k1"), submit_status::submitted);
  EXPECT_EQ(se->try_get("k2"), submit_status::window_full);
  EXPECT_FALSE(se->drain(100ms));
  EXPECT_EQ(se->in_flight(), 2u);

  for (std::uint32_t i = 0; i < 3; ++i) {
    ts.cluster().server(i).set_fault_all(net::conn_fault::none);
  }
  ASSERT_TRUE(se->drain(10s));
  EXPECT_EQ(se->take_results().size(), 2u);
  const auto res = ts.gather().verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

TEST(StoreFrontend, TcpConnectionChurnMidPipeline) {
  // Reset every connection of one server (within the failure budget)
  // while both sessions hold full windows: in-flight ops must complete
  // from the surviving quorum, later sends must transparently
  // reconnect, and the whole history must still verify.
  const auto cfg = frontend_cfg(5, 1, 1);
  tcp_store ts(cfg);
  ts.start();
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(ts.put(0, script_key(k), "seed"));
  }

  auto w = ts.open_session(writer_id(0), /*depth=*/4);
  auto r = ts.open_session(reader_id(0), /*depth=*/4);
  for (int k = 0; k < 4; ++k) {
    ASSERT_EQ(w->try_put(script_key(k), "mid" + std::to_string(k)),
              submit_status::submitted);
    ASSERT_EQ(r->try_get(script_key(k)), submit_status::submitted);
  }
  ts.cluster().server(4).reset_all_conns();
  for (int n = 0; n < 20; ++n) {
    ASSERT_TRUE(w->put(script_key(n), "post" + std::to_string(n)));
    ASSERT_TRUE(r->get(script_key(n + 1)));
  }
  ASSERT_TRUE(w->drain());
  ASSERT_TRUE(r->drain());
  EXPECT_EQ(w->take_results().size(), 24u);
  EXPECT_EQ(r->take_results().size(), 24u);

  const auto hist = ts.gather();
  EXPECT_TRUE(hist.all_complete());
  const auto res = hist.verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

TEST(StoreFrontend, MultiReactorHubAndServersConcurrentSessions) {
  // The TSan target: 2-reactor servers, a shared 2-reactor hub node
  // carrying every client, and five driver threads running pipelined
  // sessions concurrently -- cross-reactor frame shipping, the reactor
  // pool's accept dealing, and the shared op log all under real
  // parallelism.
  const auto cfg = frontend_cfg(3, 1, 4);
  net::cluster_options copt;
  copt.server_reactors = 2;
  copt.client_hub = true;
  copt.hub_reactors = 2;
  tcp_store ts(cfg, net::node_options{}, copt);
  ts.start();
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(ts.put(0, script_key(k), "seed"));
  }

  std::thread writer([&] {
    auto w = ts.open_session(writer_id(0), /*depth=*/4);
    for (int n = 0; n < 40; ++n) {
      EXPECT_TRUE(w->put(script_key(n), "v" + std::to_string(n)));
    }
    EXPECT_TRUE(w->drain());
  });
  std::vector<std::thread> readers;
  for (std::uint32_t i = 0; i < 4; ++i) {
    readers.emplace_back([&, i] {
      auto se = ts.open_session(reader_id(i), /*depth=*/4);
      for (int n = 0; n < 40; ++n) {
        EXPECT_TRUE(se->get(script_key(n + static_cast<int>(i))));
      }
      EXPECT_TRUE(se->drain());
    });
  }
  writer.join();
  for (auto& th : readers) th.join();

  const auto hist = ts.gather();
  EXPECT_TRUE(hist.all_complete());
  const auto res = hist.verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

TEST(StoreFrontend, TcpSubmitDoesNotWaitForTheReactor) {
  // The hub's only reactor is held inside a posted task. A submit runs
  // its invocation step on the session's thread, so try_get is admitted
  // while the reactor is busy; its requests leave (and the op completes)
  // only once the reactor is released.
  const auto cfg = frontend_cfg(3, 1, 2);
  tcp_store ts(cfg, net::node_options{}, one_reactor_hub());
  ts.start();
  ASSERT_TRUE(ts.put(0, "k0", "seed"));
  ASSERT_TRUE(ts.get(0, "k0").has_value());
  auto& hub = ts.cluster().client_node(reader_id(0));
  auto se = ts.open_session(reader_id(0), /*depth=*/2);
  std::future<submit_status> st;
  {
    reactor_latch busy(hub, ts.cluster().client_actor(reader_id(1)));
    st = std::async(std::launch::async, [&] { return se->try_get("k0"); });
    ASSERT_EQ(st.wait_for(5s), std::future_status::ready)
        << "try_get waited for the busy reactor";
    EXPECT_EQ(st.get(), submit_status::submitted);
    se->pump();
    EXPECT_TRUE(se->take_results().empty());
    EXPECT_EQ(se->in_flight(), 1u);
  }
  ASSERT_TRUE(se->drain(10s));
  EXPECT_EQ(se->take_results().size(), 1u);
  const auto res = ts.gather().verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

TEST(StoreFrontend, AdaptiveFlushSendsOneStepBurstInOneWritev) {
  // Eight puts submitted while the hub's reactor is held all land in its
  // next step: eight frames per server connection. Adaptive mode flushes
  // that burst at step end -- one writev per connection -- instead of
  // opening a window that would idle a closed loop.
  const auto cfg = frontend_cfg(3, 1, 1);
  net::node_options nopt;
  nopt.adaptive = true;
  tcp_store ts(cfg, nopt, one_reactor_hub());
  ts.start();
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE(ts.put(0, "k" + std::to_string(k), "seed"));
  }
  auto& hub = ts.cluster().client_node(writer_id(0));
  auto w = ts.open_session(writer_id(0), /*depth=*/8);
  const double writev0 = node_counter(hub, "fastreg_net_writev_calls_total");
  const double frames0 = node_counter(hub, "fastreg_net_frames_out_total");
  const double widen0 = counter_total("fastreg_net_window_widen_total");
  const std::string step_end = "reason=\"step_end\"";
  const double step0 =
      node_counter(hub, "fastreg_net_flushes_total", step_end);
  std::future<bool> burst;
  {
    reactor_latch busy(hub, ts.cluster().client_actor(reader_id(0)));
    burst = std::async(std::launch::async, [&] {
      for (int k = 0; k < 8; ++k) {
        if (w->try_put("k" + std::to_string(k), "burst") !=
            submit_status::submitted) {
          return false;
        }
      }
      return true;
    });
    ASSERT_EQ(burst.wait_for(5s), std::future_status::ready)
        << "submits waited for the busy reactor";
    ASSERT_TRUE(burst.get());
  }
  ASSERT_TRUE(w->drain(10s));
  EXPECT_EQ(w->take_results().size(), 8u);
  // abd puts take one round: the burst is all the hub wrote.
  EXPECT_EQ(node_counter(hub, "fastreg_net_frames_out_total") - frames0,
            3 * 8);
  EXPECT_EQ(node_counter(hub, "fastreg_net_writev_calls_total") - writev0,
            3);
  EXPECT_EQ(node_counter(hub, "fastreg_net_flushes_total", step_end) - step0,
            3);
  // No controller path may open a window on the burst.
  EXPECT_EQ(counter_total("fastreg_net_window_widen_total"), widen0);
  const auto res = ts.gather().verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

TEST(StoreFrontend, PeerResetMidPipelineClosesConnectionWithoutSigpipe) {
  // Server 0 closes its connections while the hub's reactor is held, so
  // the hub's end sits in CLOSE_WAIT with the FIN unread. The held
  // submits' sends then run back to back on the reactor: the first
  // provokes the peer's RST, the next writes to a reset connection. With
  // SIGPIPE at its default disposition that write must not kill the
  // process: the connection closes and the ops complete from the
  // surviving quorum.
  ASSERT_NE(::signal(SIGPIPE, SIG_DFL), SIG_ERR);
  const auto cfg = frontend_cfg(3, 1, 1);
  tcp_store ts(cfg, net::node_options{}, one_reactor_hub());
  ts.start();
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(ts.put(0, script_key(k), "seed"));
  }
  auto& hub = ts.cluster().client_node(writer_id(0));
  auto w = ts.open_session(writer_id(0), /*depth=*/4);
  const double resets0 = node_counter(hub, "fastreg_net_conn_resets_total");
  {
    reactor_latch busy(hub, ts.cluster().client_actor(reader_id(0)));
    ts.cluster().server(0).reset_all_conns();
    std::this_thread::sleep_for(50ms);  // let the FIN reach the hub
    for (int k = 0; k < 4; ++k) {
      ASSERT_EQ(w->try_put(script_key(k), "mid" + std::to_string(k)),
                submit_status::submitted);
    }
  }
  ASSERT_TRUE(w->drain(10s));
  EXPECT_EQ(w->take_results().size(), 4u);
  EXPECT_GE(node_counter(hub, "fastreg_net_conn_resets_total") - resets0, 1);
  // Later sends reconnect to server 0.
  for (int n = 0; n < 8; ++n) {
    ASSERT_TRUE(w->put(script_key(n), "post" + std::to_string(n)));
  }
  ASSERT_TRUE(w->drain(10s));
  const auto hist = ts.gather();
  EXPECT_TRUE(hist.all_complete());
  const auto res = hist.verify();
  EXPECT_TRUE(res.ok) << res.error;
  ts.stop();
}

}  // namespace
}  // namespace fastreg::store
