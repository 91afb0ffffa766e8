#include "store/async_client.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "net/cluster.h"
#include "net/node.h"
#include "store/sim_store.h"

namespace fastreg::store {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// --------------------------------------------------------------- op_log --

std::size_t op_log::open(const process_id& client_pid, const std::string& key,
                         bool is_put, const value_t& v, std::uint64_t t0) {
  std::lock_guard<std::mutex> lk(mu_);
  raw_op op;
  op.key = key;
  op.client = client_pid;
  op.is_put = is_put;
  op.t0 = t0;
  if (is_put) op.val = v;
  log_.push_back(std::move(op));
  const std::size_t idx = log_.size() - 1;
  open_[{client_pid, key}].push_back(idx);
  return idx;
}

std::vector<std::size_t> op_log::close(
    const process_id& client_pid, const std::vector<store_result>& results,
    std::uint64_t t1) {
  std::lock_guard<std::mutex> lk(mu_);
  // Match completions to the EARLIEST incomplete log entry for their
  // (client, key): a stale completion closes the abandoned older entry,
  // a fresh one closes its own call's.
  std::vector<std::size_t> closed;
  closed.reserve(results.size());
  for (const auto& r : results) {
    const auto open_it = open_.find({client_pid, r.key});
    if (open_it == open_.end() || open_it->second.empty()) {
      closed.push_back(npos);
      continue;
    }
    const std::size_t i = open_it->second.front();
    open_it->second.pop_front();
    if (open_it->second.empty()) open_.erase(open_it);
    auto& op = log_[i];
    op.t1 = t1;
    op.ts = r.ts;
    op.wid = r.wid;
    if (!r.is_put) op.val = r.val;
    op.rounds = r.rounds;
    closed.push_back(i);
  }
  return closed;
}

store_histories op_log::gather() const {
  std::vector<raw_op> log;
  {
    std::lock_guard<std::mutex> lk(mu_);
    log = log_;
  }
  std::sort(log.begin(), log.end(),
            [](const raw_op& a, const raw_op& b) { return a.t0 < b.t0; });
  store_histories out;
  for (const auto& op : log) {
    auto& h = out.for_key(op.key);
    const auto idx = h.begin_op(op.client, op.is_put, op.t0,
                                op.is_put ? op.val : value_t{});
    if (!op.t1) continue;
    if (op.is_put) {
      h.complete_write(idx, *op.t1, op.rounds);
    } else {
      h.complete_read(idx, *op.t1, op.ts, op.wid, op.val, op.rounds);
    }
  }
  return out;
}

// -------------------------------------------------------- async_session --

async_session::async_session(process_id client, std::uint32_t depth)
    : client_(std::move(client)), depth_(depth) {
  FASTREG_EXPECTS(depth >= 1);
  // Session construction happens on the driver thread, never inside a
  // reactor loop, so fetching (and on first use creating) the admission
  // series here is legal and the increments below stay lock-free.
  auto& reg = obs::registry::instance();
  adm_[0] = &reg.get_counter("fastreg_store_admission_total",
                             "result=\"submitted\"");
  adm_[1] = &reg.get_counter("fastreg_store_admission_total",
                             "result=\"window_full\"");
  adm_[2] = &reg.get_counter("fastreg_store_admission_total",
                             "result=\"key_busy\"");
  adm_[3] = &reg.get_counter("fastreg_store_admission_total",
                             "result=\"failed\"");
}

void async_session::count(submit_status st) {
  adm_[static_cast<std::size_t>(st)]->inc();
}

void async_session::stash(std::vector<store_result> done) {
  if (done.empty()) return;
  harvested_ += done.size();
  results_.insert(results_.end(), std::make_move_iterator(done.begin()),
                  std::make_move_iterator(done.end()));
}

bool async_session::get(const std::string& key,
                        std::chrono::milliseconds timeout) {
  if (!blocking_submit(key, /*is_put=*/false, value_t{}, timeout)) {
    count(submit_status::failed);
    return false;
  }
  ++submitted_;
  count(submit_status::submitted);
  return true;
}

bool async_session::put(const std::string& key, value_t v,
                        std::chrono::milliseconds timeout) {
  if (!blocking_submit(key, /*is_put=*/true, std::move(v), timeout)) {
    count(submit_status::failed);
    return false;
  }
  ++submitted_;
  count(submit_status::submitted);
  return true;
}

submit_status async_session::try_get(const std::string& key) {
  const submit_status st = try_submit(key, /*is_put=*/false, value_t{});
  if (st == submit_status::submitted) ++submitted_;
  count(st);
  return st;
}

submit_status async_session::try_put(const std::string& key, value_t v) {
  const submit_status st = try_submit(key, /*is_put=*/true, std::move(v));
  if (st == submit_status::submitted) ++submitted_;
  count(st);
  return st;
}

// ---------------------------------------------------------- TCP backend --

namespace {

/// One client's session on a net::node (per-node or hub topology): every
/// submit and harvest is an invocation step of the client actor on the
/// session's own thread (node::invoke), whose sends the actor's home
/// reactor puts on the wire; both sides log into the deployment's shared
/// op_log.
class tcp_session final : public async_session {
 public:
  tcp_session(net::node& n, std::size_t actor, op_log& log,
              process_id client, std::uint32_t depth)
      : async_session(std::move(client), depth),
        node_(n),
        actor_(actor),
        log_(log) {}

  void pump() override { harvest(); }

  bool drain(std::chrono::milliseconds timeout) override {
    const bool ok = node_.wait_ops_in_flight_below(actor_, 1, timeout);
    harvest();
    return ok;
  }

 private:
  submit_status try_submit(const std::string& key, bool is_put,
                           value_t v) override {
    if (!node_.wait_ops_in_flight_below(actor_, depth_,
                                        std::chrono::milliseconds(0))) {
      return submit_status::window_full;
    }
    return begin(key, is_put, v, nullptr) ? submit_status::submitted
                                          : submit_status::key_busy;
  }

  bool blocking_submit(const std::string& key, bool is_put, value_t v,
                       std::chrono::milliseconds timeout) override {
    for (;;) {
      // A free window slot first; completions only ever shrink the window
      // between this wait and the step below (this thread is the sole
      // submitter on the client), so the slot cannot vanish.
      if (!node_.wait_ops_in_flight_below(actor_, depth_, timeout)) {
        return false;
      }
      std::uint64_t completed_before = 0;
      if (begin(key, is_put, v, &completed_before)) return true;
      // The key's previous op (possibly abandoned by a timed-out blocking
      // call) is still in flight: wait for any completion, then retry.
      if (!node_.wait_ops_completed(actor_, completed_before + 1, timeout)) {
        return false;
      }
    }
  }

  /// One invocation step: harvests completions, then begins the op unless
  /// its key still has one in flight (then `completed_before`, if given,
  /// receives the completion count to wait past). True if the op began.
  ///
  /// Completion (t1) and invocation (t0) times are both taken inside the
  /// step, under the actor's step mutex -- the same mutex the reactor
  /// holds while it applies replies. Completions harvested here finished
  /// strictly before this step, and the new op's requests leave strictly
  /// after it, so recording t1 = steptime < t0 = steptime + 1 preserves
  /// the real precedence -- timestamping outside the step would let a
  /// just-finished same-key op appear concurrent with its successor,
  /// which the checkers reject as a well-formedness violation.
  bool begin(const std::string& key, bool is_put, const value_t& v,
             std::uint64_t* completed_before) {
    bool begun = false;
    std::uint64_t steptime = 0;
    std::vector<store_result> done;
    node_.invoke(actor_, [&](automaton& a, netout& net) {
      steptime = now_ns();
      auto& c = dynamic_cast<client&>(a);
      done = c.take_completions();
      if (c.has_pending(key)) {
        // Baseline for the caller's wait, captured inside the step:
        // reading the mirror afterwards would race a completion landing
        // in between and wait for one more than will ever come.
        if (completed_before != nullptr) *completed_before = c.ops_completed();
        return;
      }
      if (is_put) {
        c.begin_put(key, v);
      } else {
        c.begin_get(key);
      }
      c.flush(net);
      begun = true;
    });
    if (!done.empty()) {
      (void)log_.close(client_, done, steptime);
      stash(std::move(done));
    }
    if (begun) log_.open(client_, key, is_put, v, steptime + 1);
    return begun;
  }

  /// take_completions in an invocation step (so late server acks cannot
  /// race the drain); closes log entries and stashes the results.
  void harvest() {
    std::vector<store_result> done;
    std::uint64_t steptime = 0;
    node_.invoke(actor_, [&](automaton& a, netout&) {
      steptime = now_ns();
      done = dynamic_cast<client&>(a).take_completions();
    });
    if (done.empty()) return;
    (void)log_.close(client_, done, steptime);
    stash(std::move(done));
  }

  net::node& node_;
  std::size_t actor_;
  op_log& log_;
};

}  // namespace

std::unique_ptr<async_session> tcp_frontend::open_session(
    const process_id& client_pid, std::uint32_t depth) {
  return std::make_unique<tcp_session>(cluster_.client_node(client_pid),
                                       cluster_.client_actor(client_pid),
                                       log_, client_pid, depth);
}

store_histories tcp_frontend::gather() const { return log_.gather(); }

// ---------------------------------------------------------- sim backend --

namespace {

/// One client's session on the deterministic simulator. try_* buffers
/// admitted ops; pump() issues the whole buffer in ONE invoke_step
/// (batched envelopes) and collects the completions the sim_store
/// tapped for this client. Blocking calls run the world (run_random on
/// the frontend's rng) until admission/completion, guarded by a step
/// budget so a wedged schedule fails instead of spinning forever.
class sim_session final : public async_session {
 public:
  sim_session(sim_store& s, rng& r, process_id client, std::uint32_t depth)
      : async_session(std::move(client), depth), s_(s), r_(r) {
    s_.tap_client(client_);
  }
  ~sim_session() override { s_.untap_client(client_); }

  void pump() override {
    if (!buf_.empty()) {
      s_.invoke_ops(client_, buf_);
      buf_.clear();
    }
    stash(s_.take_tapped(client_));
  }

  bool drain(std::chrono::milliseconds) override {
    pump();
    std::uint64_t guard = 0;
    while (in_flight() > 0) {
      if (++guard > k_step_budget) return false;
      if (s_.run_random(r_, 1) == 0) return false;  // wedged
      pump();
    }
    return true;
  }

 private:
  static constexpr std::uint64_t k_step_budget = 200'000'000;

  [[nodiscard]] client& automaton_ref() {
    return client_.is_writer() ? s_.writer_client(client_.index)
                               : s_.reader_client(client_.index);
  }

  [[nodiscard]] bool key_buffered(const std::string& key) const {
    return std::any_of(buf_.begin(), buf_.end(),
                       [&](const store_op& op) { return op.key == key; });
  }

  submit_status try_submit(const std::string& key, bool is_put,
                           value_t v) override {
    if (in_flight() >= depth_) return submit_status::window_full;
    if (key_buffered(key) || automaton_ref().has_pending(key)) {
      return submit_status::key_busy;
    }
    buf_.push_back(store_op{key, is_put, std::move(v)});
    return submit_status::submitted;
  }

  bool blocking_submit(const std::string& key, bool is_put, value_t v,
                       std::chrono::milliseconds) override {
    std::uint64_t guard = 0;
    for (;;) {
      const submit_status st = try_submit(key, is_put, v);
      if (st == submit_status::submitted) {
        // Blocking semantics promise the op is ON the wire on return, so
        // the buffered batch (this op included) is issued now.
        pump();
        return true;
      }
      pump();
      if (++guard > k_step_budget) return false;
      if (s_.run_random(r_, 1) == 0) return false;  // wedged
    }
  }

  sim_store& s_;
  rng& r_;
  std::vector<store_op> buf_;
};

}  // namespace

std::unique_ptr<async_session> sim_frontend::open_session(
    const process_id& client_pid, std::uint32_t depth) {
  return std::make_unique<sim_session>(s_, r_, client_pid, depth);
}

store_histories sim_frontend::gather() const { return s_.histories(); }

}  // namespace fastreg::store
