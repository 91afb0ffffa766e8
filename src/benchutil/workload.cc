#include "benchutil/workload.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "sim/world.h"
#include "store/async_client.h"
#include "store/sim_store.h"

namespace fastreg::benchutil {

latency_report run_measured(const protocol& proto, const system_config& cfg,
                            const workload_options& opt) {
  sim::world w(cfg);
  w.install(proto);
  rng r(opt.seed);
  sim::uniform_delay delays(opt.delay_lo, opt.delay_hi);

  FASTREG_EXPECTS(opt.crash_servers <= cfg.t());
  if (!opt.crash_midway) {
    for (std::uint32_t i = 0; i < opt.crash_servers; ++i) {
      w.crash(server_id(i));
    }
  }

  std::uint32_t writes_invoked = 0;
  std::vector<std::uint32_t> reads_invoked(cfg.R(), 0);
  bool crashed_midway = false;
  std::uint64_t guard = 0;

  auto idle = [&](const process_id& p) { return !w.client_busy(p); };
  auto anything_in_flight = [&] {
    if (w.writer(0)->write_in_progress()) return true;
    for (std::uint32_t i = 0; i < cfg.R(); ++i) {
      if (w.reader(i)->read_in_progress()) return true;
    }
    return false;
  };

  for (;;) {
    FASTREG_CHECK(++guard < 100'000'000);
    if (opt.crash_midway && !crashed_midway &&
        writes_invoked >= opt.num_writes / 2) {
      crashed_midway = true;
      for (std::uint32_t i = 0; i < opt.crash_servers; ++i) {
        // Torn crash: the next send burst of each victim is truncated.
        w.crash_after_sends(server_id(i), 1);
      }
    }

    bool invoked = false;
    const bool allow_invoke = opt.concurrent || !anything_in_flight();
    if (allow_invoke) {
      if (writes_invoked < opt.num_writes && idle(writer_id(0))) {
        ++writes_invoked;
        w.invoke_write("v" + std::to_string(writes_invoked));
        invoked = true;
      }
      for (std::uint32_t i = 0; i < cfg.R(); ++i) {
        if (!opt.concurrent && (invoked || anything_in_flight())) break;
        if (reads_invoked[i] < opt.reads_per_reader && idle(reader_id(i))) {
          ++reads_invoked[i];
          w.invoke_read(i);
          invoked = true;
        }
      }
    }

    if (w.in_transit().empty()) {
      if (invoked) continue;
      break;  // drained and nothing more to start
    }
    w.run_timed(r, delays, /*max_steps=*/1);
  }

  latency_report rep;
  rep.hist = w.hist();
  std::uint64_t completed = 0;
  for (const auto& op : rep.hist.ops()) {
    if (!op.response_time) {
      rep.all_complete = false;
      continue;
    }
    ++completed;
    const double lat =
        static_cast<double>(*op.response_time - op.invoke_time);
    if (op.is_write) {
      rep.write_latency.add(lat);
      rep.write_rounds.add(op.rounds);
    } else {
      rep.read_latency.add(lat);
      rep.read_rounds.add(op.rounds);
    }
  }
  rep.msgs_per_op =
      completed == 0 ? 0
                     : static_cast<double>(w.messages_sent()) /
                           static_cast<double>(completed);
  return rep;
}

// ------------------------------------------------------- multi-key store --

zipf_sampler::zipf_sampler(std::uint32_t n, double s) {
  FASTREG_EXPECTS(n >= 1);
  FASTREG_EXPECTS(s >= 0.0);
  cdf_.reserve(n);
  double total = 0.0;
  for (std::uint32_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k) + 1.0, s);
    cdf_.push_back(total);
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding leaving the last bin short
}

std::uint32_t zipf_sampler::sample(rng& r) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), r.uniform01());
  return static_cast<std::uint32_t>(it - cdf_.begin());
}

double zipf_sampler::probability(std::uint32_t k) const {
  FASTREG_EXPECTS(k < cdf_.size());
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

std::vector<std::string> sample_distinct_keys_zipf(rng& r,
                                                   const zipf_sampler& zipf,
                                                   std::uint32_t k) {
  FASTREG_EXPECTS(k <= zipf.n());
  std::vector<std::uint32_t> picked;
  picked.reserve(k);
  std::uint64_t guard = 0;
  while (picked.size() < k) {
    // Rejection keeps the marginal distribution Zipf conditioned on
    // distinctness; the guard bounds pathological streaks (k <= n makes
    // progress certain in expectation).
    FASTREG_CHECK(++guard < 10'000ull * (k + 1ull));
    const auto pick = zipf.sample(r);
    if (std::find(picked.begin(), picked.end(), pick) == picked.end()) {
      picked.push_back(pick);
    }
  }
  std::vector<std::string> keys;
  keys.reserve(k);
  for (const auto rank : picked) {
    keys.push_back("key" + std::to_string(rank));
  }
  return keys;
}

std::vector<std::string> sample_distinct_keys(rng& r,
                                              std::vector<std::uint32_t>& idx,
                                              std::uint32_t k) {
  FASTREG_EXPECTS(k <= idx.size());
  std::vector<std::string> keys;
  keys.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto j =
        i + static_cast<std::uint32_t>(r.below(idx.size() - i));
    std::swap(idx[i], idx[j]);
    keys.push_back("key" + std::to_string(idx[i]));
  }
  return keys;
}

store_report run_store_measured(const store::store_config& cfg,
                                const store_workload_options& opt) {
  FASTREG_EXPECTS(opt.num_keys >= 1);
  store::sim_store s(cfg);
  rng r(opt.seed);
  sim::uniform_delay delays(opt.delay_lo, opt.delay_hi);
  const std::uint32_t batch = std::min(std::max(opt.batch, 1u), opt.num_keys);

  const auto& base = cfg.base;
  // One pipelined session per client through the unified front-end,
  // window = batch: a full batch is admitted back-to-back and pump()
  // issues it in ONE invocation step (batched envelopes), the same wire
  // shape the old invoke_*_batch drivers produced.
  store::sim_frontend fe(s, r);
  std::vector<std::unique_ptr<store::async_session>> wses, rses;
  for (std::uint32_t j = 0; j < base.W(); ++j) {
    wses.push_back(fe.open_session(writer_id(j), batch));
  }
  for (std::uint32_t i = 0; i < base.R(); ++i) {
    rses.push_back(fe.open_session(reader_id(i), batch));
  }
  std::vector<std::uint32_t> gets_left(base.R(), opt.gets_per_reader);
  std::vector<std::uint32_t> puts_left(base.W(), opt.puts_per_writer);
  std::vector<std::uint64_t> put_seq(base.W(), 0);
  std::vector<std::uint32_t> idx(opt.num_keys);
  for (std::uint32_t i = 0; i < opt.num_keys; ++i) idx[i] = i;
  const zipf_sampler zipf(opt.num_keys,
                          opt.dist == key_dist::zipf ? opt.zipf_s : 0.0);
  auto pick_keys = [&](std::uint32_t k) {
    return opt.dist == key_dist::zipf
               ? sample_distinct_keys_zipf(r, zipf, k)
               : sample_distinct_keys(r, idx, k);
  };
  std::uint64_t guard = 0;

  for (;;) {
    FASTREG_CHECK(++guard < 100'000'000);
    bool invoked = false;
    for (std::uint32_t j = 0; j < base.W(); ++j) {
      auto& ses = *wses[j];
      ses.pump();  // harvest, so in_flight() reflects completions
      (void)ses.take_results();
      if (puts_left[j] == 0 || ses.in_flight() != 0) continue;
      const auto k = std::min(batch, puts_left[j]);
      for (auto& key : pick_keys(k)) {
        const auto st = ses.try_put(
            key, "w" + std::to_string(j) + ":" + std::to_string(++put_seq[j]));
        FASTREG_CHECK(st == store::submit_status::submitted);
      }
      ses.pump();  // one invoke step for the whole batch
      puts_left[j] -= k;
      invoked = true;
    }
    for (std::uint32_t i = 0; i < base.R(); ++i) {
      auto& ses = *rses[i];
      ses.pump();
      (void)ses.take_results();
      if (gets_left[i] == 0 || ses.in_flight() != 0) continue;
      const auto k = std::min(batch, gets_left[i]);
      for (auto& key : pick_keys(k)) {
        const auto st = ses.try_get(key);
        FASTREG_CHECK(st == store::submit_status::submitted);
      }
      ses.pump();
      gets_left[i] -= k;
      invoked = true;
    }
    if (s.world().in_transit().empty()) {
      if (invoked) continue;
      break;  // drained and every quota exhausted
    }
    s.run_timed(r, delays, /*max_steps=*/1);
  }

  store_report rep;
  rep.hist = s.histories();
  std::uint64_t completed = 0;
  for (const auto& [key, h] : rep.hist.all()) {
    for (const auto& op : h.ops()) {
      if (!op.response_time) {
        rep.all_complete = false;
        continue;
      }
      ++completed;
      const double lat =
          static_cast<double>(*op.response_time - op.invoke_time);
      if (op.is_write) {
        rep.put_latency.add(lat);
      } else {
        rep.get_latency.add(lat);
      }
    }
  }
  if (completed > 0) {
    const auto n = static_cast<double>(completed);
    rep.msgs_per_op = static_cast<double>(s.world().messages_sent()) / n;
    rep.envelopes_per_op =
        static_cast<double>(s.world().envelopes_sent()) / n;
    if (s.world().now() > 0) {
      rep.ops_per_ktick = n * 1000.0 / static_cast<double>(s.world().now());
    }
  }
  return rep;
}

}  // namespace fastreg::benchutil
