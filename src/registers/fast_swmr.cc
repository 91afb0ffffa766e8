#include "registers/fast_swmr.h"

#include "common/check.h"

namespace fastreg {

// ---------------------------------------------------------------- writer --

fast_swmr_writer::fast_swmr_writer(system_config cfg) : cfg_(std::move(cfg)) {}

void fast_swmr_writer::invoke_write(netout& net, value_t v) {
  FASTREG_EXPECTS(!pending_);
  pending_ = true;
  cur_val_ = std::move(v);
  acks_.clear();
  message m;
  m.type = msg_type::write_req;
  m.ts = ts_;
  m.val = cur_val_;
  m.prev = last_val_;
  m.rcounter = 0;  // the writer's rCounter is always 0 (Section 4)
  for (std::uint32_t i = 0; i < cfg_.S(); ++i) {
    net.send(server_id(i), m);
  }
}

void fast_swmr_writer::on_message(netout&, const process_id& from,
                                  const message& m) {
  if (!pending_ || m.type != msg_type::write_ack || !from.is_server()) return;
  if (m.ts != ts_ || m.rcounter != 0) return;
  acks_.insert(from.index);
  if (acks_.size() >= cfg_.quorum()) {
    pending_ = false;
    last_val_ = cur_val_;
    ts_ += 1;  // line 7
    completed_ += 1;
  }
}

std::unique_ptr<automaton> fast_swmr_writer::clone() const {
  return std::make_unique<fast_swmr_writer>(*this);
}

void fast_swmr_writer::seed_writer(const register_snapshot& migrated) {
  FASTREG_EXPECTS(!pending_);
  if (migrated.ts + 1 > ts_) {
    // ts_ is the NEXT write's timestamp; the migrated value plays the role
    // of the immediately preceding write (the `prev` tag of Section 4).
    ts_ = migrated.ts + 1;
    last_val_ = migrated.val;
  }
}

// ---------------------------------------------------------------- reader --

fast_swmr_reader::fast_swmr_reader(system_config cfg, std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index) {}

void fast_swmr_reader::invoke_read(netout& net) {
  FASTREG_EXPECTS(!pending_);
  pending_ = true;
  rcounter_ += 1;  // line 13
  acks_.clear();
  ack_from_.clear();
  message m;
  m.type = msg_type::read_req;
  // Line 13-14: the read message carries the reader's previous maximum
  // (with its value tags), which servers treat exactly like a write-back.
  m.ts = maxts_.ts;
  m.val = maxts_.val;
  m.prev = maxts_.prev;
  m.rcounter = rcounter_;
  for (std::uint32_t i = 0; i < cfg_.S(); ++i) {
    net.send(server_id(i), m);
  }
}

void fast_swmr_reader::on_message(netout&, const process_id& from,
                                  const message& m) {
  if (!pending_ || m.type != msg_type::read_ack || !from.is_server()) return;
  if (m.rcounter != rcounter_) return;          // stale ack from an old read
  if (ack_from_.contains(from.index)) return;   // one ack per server
  ack_from_.insert(from.index);
  acks_.push_back(m);
  if (acks_.size() >= cfg_.quorum()) decide();
}

void fast_swmr_reader::decide() {
  // Line 17: maxTS over received READACKs.
  ts_t max_ts = k_initial_ts;
  for (const auto& a : acks_) max_ts = std::max(max_ts, a.ts);

  // Line 18: the messages carrying maxTS, plus the value tags they carry.
  std::vector<seen_set> max_seen;
  tagged_value max_val;
  max_val.ts = max_ts;
  for (const auto& a : acks_) {
    if (a.ts != max_ts) continue;
    max_seen.push_back(a.seen);
    max_val.val = a.val;
    max_val.prev = a.prev;
  }

  maxts_ = max_val;  // written back by the next read (line 13)

  // Lines 19-22: return maxTS's value iff the predicate holds, otherwise
  // the previous write's value.
  last_witness_ = fast_read_predicate_witness(
      std::span<const seen_set>(max_seen), cfg_.S(), cfg_.t(), 0, cfg_.R());
  read_result res;
  res.rounds = 1;
  if (last_witness_ > 0 || max_ts == k_initial_ts) {
    res.ts = max_ts;
    res.val = max_val.val;
  } else {
    res.ts = max_ts - 1;
    res.val = max_val.prev;
  }
  pending_ = false;
  completed_ += 1;
  last_result_ = std::move(res);
}

std::unique_ptr<automaton> fast_swmr_reader::clone() const {
  return std::make_unique<fast_swmr_reader>(*this);
}

// ---------------------------------------------------------------- server --

fast_swmr_server::fast_swmr_server(system_config cfg, std::uint32_t index)
    : cfg_(std::move(cfg)),
      index_(index),
      counters_(cfg_.R() + 1, 0) {}  // slot 0 = writer, slots 1..R = readers

void fast_swmr_server::on_message(netout& net, const process_id& from,
                                  const message& m) {
  if (m.type != msg_type::write_req && m.type != msg_type::read_req) return;
  if (from.is_server()) return;  // clients only
  const std::uint32_t slot = client_slot(from);
  if (slot >= counters_.size()) return;
  // Line 26: process only if rCounter' >= counter[pid(q)].
  if (m.rcounter < counters_[slot]) return;

  // Lines 27-30.
  if (m.ts > cur_.ts) {
    cur_ = tagged_value{m.ts, m.val, m.prev};
    seen_.clear();
    seen_.insert(from);
  } else {
    seen_.insert(from);
  }
  counters_[slot] = m.rcounter;  // line 31

  // Lines 32-35: reply with the stored timestamp, tags and seen set.
  message reply;
  reply.type = m.type == msg_type::read_req ? msg_type::read_ack
                                            : msg_type::write_ack;
  reply.ts = cur_.ts;
  reply.val = cur_.val;
  reply.prev = cur_.prev;
  reply.seen = seen_;
  reply.rcounter = m.rcounter;
  net.send(from, reply);
}

std::unique_ptr<automaton> fast_swmr_server::clone() const {
  return std::make_unique<fast_swmr_server>(*this);
}

register_snapshot fast_swmr_server::peek_state() const {
  return {cur_.ts, 0, cur_.val, cur_.prev, {}};
}

void fast_swmr_server::seed_state(const register_snapshot& s) {
  cur_ = tagged_value{s.ts, s.val, s.prev};
  // The migrated value was read from a quorum of the old generation, so
  // every client is entitled to see it: a full seen set makes the fast
  // read predicate hold until the writer's next (real) write replaces it.
  seen_ = seen_universe();
}

// -------------------------------------------------------------- protocol --

std::unique_ptr<automaton> fast_swmr_protocol::make_writer(
    const system_config& cfg, std::uint32_t index, object_id) const {
  FASTREG_EXPECTS(index == 0);  // single writer
  return std::make_unique<fast_swmr_writer>(cfg);
}

std::unique_ptr<automaton> fast_swmr_protocol::make_reader(
    const system_config& cfg, std::uint32_t index, object_id) const {
  return std::make_unique<fast_swmr_reader>(cfg, index);
}

std::unique_ptr<automaton> fast_swmr_protocol::make_server(
    const system_config& cfg, std::uint32_t index, object_id) const {
  return std::make_unique<fast_swmr_server>(cfg, index);
}

}  // namespace fastreg
