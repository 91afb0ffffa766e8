#include "registers/abd.h"

#include <algorithm>

#include "common/check.h"

namespace fastreg {

// --------------------------------------------------------- quorum_server --

quorum_server::quorum_server(system_config cfg, std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index) {}

void quorum_server::on_message(netout& net, const process_id& from,
                               const message& m) {
  if (from.is_server()) return;
  message reply;
  reply.rcounter = m.rcounter;
  switch (m.type) {
    case msg_type::write_req:
    case msg_type::wb_req: {
      if (m.wts() > ts_) {
        ts_ = m.wts();
        val_ = m.val;
      }
      reply.type = m.type == msg_type::write_req ? msg_type::write_ack
                                                 : msg_type::wb_ack;
      // Echo the request's timestamp so the client can match the ack to
      // the op even if this server already stores a larger one.
      reply.ts = m.ts;
      reply.wid = m.wid;
      break;
    }
    case msg_type::read_req: {
      reply.type = msg_type::read_ack;
      reply.ts = ts_.num;
      reply.wid = ts_.wid;
      reply.val = val_;
      break;
    }
    case msg_type::query_req: {
      reply.type = msg_type::query_ack;
      reply.ts = ts_.num;
      reply.wid = ts_.wid;
      break;
    }
    default:
      return;
  }
  net.send(from, reply);
}

std::unique_ptr<automaton> quorum_server::clone() const {
  return std::make_unique<quorum_server>(*this);
}

register_snapshot quorum_server::peek_state() const {
  // prev mirrors val: the quorum family never serves a value older than
  // its stored one, so the "preceding write" tag is the value itself.
  return {ts_.num, ts_.wid, val_, val_, {}};
}

void quorum_server::seed_state(const register_snapshot& s) {
  ts_ = {s.ts, s.wid};
  val_ = s.val;
}

// ------------------------------------------------------------ abd_writer --

abd_writer::abd_writer(system_config cfg) : cfg_(std::move(cfg)) {}

void abd_writer::invoke_write(netout& net, value_t v) {
  FASTREG_EXPECTS(!pending_);
  pending_ = true;
  ts_ += 1;  // single writer: the local counter is the latest timestamp
  rcounter_ += 1;
  acks_.clear();
  message m;
  m.type = msg_type::write_req;
  m.ts = ts_;
  m.val = std::move(v);
  m.rcounter = rcounter_;
  for (std::uint32_t i = 0; i < cfg_.S(); ++i) {
    net.send(server_id(i), m);
  }
}

void abd_writer::on_message(netout&, const process_id& from,
                            const message& m) {
  if (!pending_ || m.type != msg_type::write_ack || !from.is_server()) return;
  if (m.ts != ts_ || m.rcounter != rcounter_) return;
  acks_.insert(from.index);
  if (acks_.size() >= cfg_.quorum()) {
    pending_ = false;
    completed_ += 1;
  }
}

std::unique_ptr<automaton> abd_writer::clone() const {
  return std::make_unique<abd_writer>(*this);
}

void abd_writer::seed_writer(const register_snapshot& migrated) {
  FASTREG_EXPECTS(!pending_);
  // invoke_write pre-increments, so the next write lands above the
  // migrated timestamp.
  ts_ = std::max(ts_, migrated.ts);
}

// ------------------------------------------------------------ abd_reader --

abd_reader::abd_reader(system_config cfg, std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index) {}

void abd_reader::invoke_read(netout& net) {
  FASTREG_EXPECTS(phase_ == phase::idle);
  phase_ = phase::query;
  rcounter_ += 1;
  best_ts_ = {};
  best_val_.clear();
  acks_.clear();
  message m;
  m.type = msg_type::read_req;
  m.rcounter = rcounter_;
  for (std::uint32_t i = 0; i < cfg_.S(); ++i) {
    net.send(server_id(i), m);
  }
}

void abd_reader::on_message(netout& net, const process_id& from,
                            const message& m) {
  if (!from.is_server() || m.rcounter != rcounter_) return;
  if (phase_ == phase::query && m.type == msg_type::read_ack) {
    if (acks_.contains(from.index)) return;
    acks_.insert(from.index);
    if (m.wts() > best_ts_) {
      best_ts_ = m.wts();
      best_val_ = m.val;
    }
    if (acks_.size() >= cfg_.quorum()) {
      // Round-trip 2: propagate the chosen pair before returning, so that
      // a subsequent read cannot observe an older value.
      phase_ = phase::write_back;
      rcounter_ += 1;
      acks_.clear();
      message wb;
      wb.type = msg_type::wb_req;
      wb.ts = best_ts_.num;
      wb.wid = best_ts_.wid;
      wb.val = best_val_;
      wb.rcounter = rcounter_;
      for (std::uint32_t i = 0; i < cfg_.S(); ++i) {
        net.send(server_id(i), wb);
      }
    }
    return;
  }
  if (phase_ == phase::write_back && m.type == msg_type::wb_ack) {
    if (acks_.contains(from.index)) return;
    acks_.insert(from.index);
    if (acks_.size() >= cfg_.quorum()) {
      phase_ = phase::idle;
      completed_ += 1;
      last_result_ = read_result{best_ts_.num, best_ts_.wid, best_val_, 2};
    }
  }
}

std::unique_ptr<automaton> abd_reader::clone() const {
  return std::make_unique<abd_reader>(*this);
}

// -------------------------------------------------------------- protocol --

std::unique_ptr<automaton> abd_protocol::make_writer(const system_config& cfg,
                                                     std::uint32_t index,
                                                     object_id) const {
  FASTREG_EXPECTS(index == 0);
  return std::make_unique<abd_writer>(cfg);
}

std::unique_ptr<automaton> abd_protocol::make_reader(const system_config& cfg,
                                                     std::uint32_t index,
                                                     object_id) const {
  return std::make_unique<abd_reader>(cfg, index);
}

std::unique_ptr<automaton> abd_protocol::make_server(const system_config& cfg,
                                                     std::uint32_t index,
                                                     object_id) const {
  return std::make_unique<quorum_server>(cfg, index);
}

}  // namespace fastreg
