#include "registers/mwmr.h"

#include "common/check.h"
#include "registers/regular.h"

namespace fastreg {

// ----------------------------------------------------------- mwmr_writer --

mwmr_writer::mwmr_writer(system_config cfg, std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index) {}

void mwmr_writer::invoke_write(netout& net, value_t v) {
  FASTREG_EXPECTS(phase_ == phase::idle);
  phase_ = phase::query;
  pending_val_ = std::move(v);
  rcounter_ += 1;
  max_num_ = 0;
  acks_.clear();
  message m;
  m.type = msg_type::query_req;
  m.rcounter = rcounter_;
  for (std::uint32_t i = 0; i < cfg_.S(); ++i) {
    net.send(server_id(i), m);
  }
}

void mwmr_writer::on_message(netout& net, const process_id& from,
                             const message& m) {
  if (!from.is_server() || m.rcounter != rcounter_) return;
  if (phase_ == phase::query && m.type == msg_type::query_ack) {
    if (acks_.contains(from.index)) return;
    acks_.insert(from.index);
    max_num_ = std::max(max_num_, m.ts);
    if (acks_.size() >= cfg_.quorum()) {
      phase_ = phase::write;
      rcounter_ += 1;
      acks_.clear();
      message w;
      w.type = msg_type::write_req;
      w.ts = max_num_ + 1;
      // wid 0 is reserved for "no writer" in defaulted wts_t; writers use
      // index + 1 so that distinct writers always compare differently.
      w.wid = static_cast<std::int32_t>(index_) + 1;
      w.val = pending_val_;
      w.rcounter = rcounter_;
      for (std::uint32_t i = 0; i < cfg_.S(); ++i) {
        net.send(server_id(i), w);
      }
    }
    return;
  }
  if (phase_ == phase::write && m.type == msg_type::write_ack) {
    if (acks_.contains(from.index)) return;
    acks_.insert(from.index);
    if (acks_.size() >= cfg_.quorum()) {
      phase_ = phase::idle;
      completed_ += 1;
    }
  }
}

std::unique_ptr<automaton> mwmr_writer::clone() const {
  return std::make_unique<mwmr_writer>(*this);
}

// ----------------------------------------------------------- mwmr_reader --

mwmr_reader::mwmr_reader(system_config cfg, std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index) {}

void mwmr_reader::invoke_read(netout& net) {
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

void mwmr_reader::on_message(netout& net, const process_id& from,
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

std::unique_ptr<automaton> mwmr_reader::clone() const {
  return std::make_unique<mwmr_reader>(*this);
}

// ----------------------------------------------------- naive_mwmr_writer --

naive_mwmr_writer::naive_mwmr_writer(system_config cfg, std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index) {}

void naive_mwmr_writer::invoke_write(netout& net, value_t v) {
  FASTREG_EXPECTS(!pending_);
  pending_ = true;
  ts_ += 1;  // local counter only: this is what makes the protocol unsound
  rcounter_ += 1;
  acks_.clear();
  message m;
  m.type = msg_type::write_req;
  m.ts = ts_;
  m.wid = static_cast<std::int32_t>(index_) + 1;
  m.val = std::move(v);
  m.rcounter = rcounter_;
  for (std::uint32_t i = 0; i < cfg_.S(); ++i) {
    net.send(server_id(i), m);
  }
}

void naive_mwmr_writer::on_message(netout&, const process_id& from,
                                   const message& m) {
  if (!pending_ || m.type != msg_type::write_ack || !from.is_server()) return;
  if (m.rcounter != rcounter_) return;
  acks_.insert(from.index);
  if (acks_.size() >= cfg_.quorum()) {
    pending_ = false;
    completed_ += 1;
  }
}

std::unique_ptr<automaton> naive_mwmr_writer::clone() const {
  return std::make_unique<naive_mwmr_writer>(*this);
}

// ------------------------------------------------------------- protocols --

std::unique_ptr<automaton> mwmr_protocol::make_writer(
    const system_config& cfg, std::uint32_t index, object_id) const {
  return std::make_unique<mwmr_writer>(cfg, index);
}

std::unique_ptr<automaton> mwmr_protocol::make_reader(
    const system_config& cfg, std::uint32_t index, object_id) const {
  return std::make_unique<mwmr_reader>(cfg, index);
}

std::unique_ptr<automaton> mwmr_protocol::make_server(
    const system_config& cfg, std::uint32_t index, object_id) const {
  return std::make_unique<quorum_server>(cfg, index);
}

// ------------------------------------------------------------ lww_server --

lww_server::lww_server(system_config cfg, std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index) {}

void lww_server::on_message(netout& net, const process_id& from,
                            const message& m) {
  if (from.is_server()) return;
  message reply;
  reply.rcounter = m.rcounter;
  switch (m.type) {
    case msg_type::write_req: {
      // Last write wins among equal timestamp numbers.
      if (m.ts > ts_.num || (m.ts == ts_.num)) {
        ts_ = m.wts();
        val_ = m.val;
      }
      reply.type = msg_type::write_ack;
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
    default:
      return;
  }
  net.send(from, reply);
}

std::unique_ptr<automaton> lww_server::clone() const {
  return std::make_unique<lww_server>(*this);
}

std::unique_ptr<automaton> naive_fast_mwmr_lww_protocol::make_writer(
    const system_config& cfg, std::uint32_t index, object_id) const {
  return std::make_unique<naive_mwmr_writer>(cfg, index);
}

std::unique_ptr<automaton> naive_fast_mwmr_lww_protocol::make_reader(
    const system_config& cfg, std::uint32_t index, object_id) const {
  return std::make_unique<regular_reader>(cfg, index);
}

std::unique_ptr<automaton> naive_fast_mwmr_lww_protocol::make_server(
    const system_config& cfg, std::uint32_t index, object_id) const {
  return std::make_unique<lww_server>(cfg, index);
}

std::unique_ptr<automaton> naive_fast_mwmr_protocol::make_writer(
    const system_config& cfg, std::uint32_t index, object_id) const {
  return std::make_unique<naive_mwmr_writer>(cfg, index);
}

std::unique_ptr<automaton> naive_fast_mwmr_protocol::make_reader(
    const system_config& cfg, std::uint32_t index, object_id) const {
  // One-round max reader: same as the regular reader.
  return std::make_unique<regular_reader>(cfg, index);
}

std::unique_ptr<automaton> naive_fast_mwmr_protocol::make_server(
    const system_config& cfg, std::uint32_t index, object_id) const {
  return std::make_unique<quorum_server>(cfg, index);
}

}  // namespace fastreg
