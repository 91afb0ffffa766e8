#include "registers/regular.h"

#include "common/check.h"

namespace fastreg {

// -------------------------------------------------------- regular_reader --

regular_reader::regular_reader(system_config cfg, std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index) {}

void regular_reader::invoke_read(netout& net) {
  FASTREG_EXPECTS(!pending_);
  pending_ = true;
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

void regular_reader::on_message(netout&, const process_id& from,
                                const message& m) {
  if (!pending_ || m.type != msg_type::read_ack || !from.is_server()) return;
  if (m.rcounter != rcounter_ || acks_.contains(from.index)) return;
  acks_.insert(from.index);
  if (m.wts() > best_ts_) {
    best_ts_ = m.wts();
    best_val_ = m.val;
  }
  if (acks_.size() >= cfg_.quorum()) {
    pending_ = false;
    completed_ += 1;
    last_result_ = read_result{best_ts_.num, best_ts_.wid, best_val_, 1};
  }
}

std::unique_ptr<automaton> regular_reader::clone() const {
  return std::make_unique<regular_reader>(*this);
}

// --------------------------------------------- single_reader_fast_reader --

single_reader_fast_reader::single_reader_fast_reader(system_config cfg,
                                                     std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index) {}

void single_reader_fast_reader::invoke_read(netout& net) {
  FASTREG_EXPECTS(!pending_);
  pending_ = true;
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

void single_reader_fast_reader::on_message(netout&, const process_id& from,
                                           const message& m) {
  if (!pending_ || m.type != msg_type::read_ack || !from.is_server()) return;
  if (m.rcounter != rcounter_ || acks_.contains(from.index)) return;
  acks_.insert(from.index);
  if (m.wts() > best_ts_) {
    best_ts_ = m.wts();
    best_val_ = m.val;
  }
  if (acks_.size() >= cfg_.quorum()) {
    // Section 1: return the quorum maximum unless it is older than the
    // previously returned value; then return the previous value again.
    // With a single reader this totally orders reads and is atomic.
    if (best_ts_ > last_ts_) {
      last_ts_ = best_ts_;
      last_val_ = best_val_;
    }
    pending_ = false;
    completed_ += 1;
    last_result_ = read_result{last_ts_.num, last_ts_.wid, last_val_, 1};
  }
}

std::unique_ptr<automaton> single_reader_fast_reader::clone() const {
  return std::make_unique<single_reader_fast_reader>(*this);
}

// ------------------------------------------------------------- protocols --

std::unique_ptr<automaton> regular_protocol::make_writer(
    const system_config& cfg, std::uint32_t index, object_id) const {
  FASTREG_EXPECTS(index == 0);
  return std::make_unique<abd_writer>(cfg);
}

std::unique_ptr<automaton> regular_protocol::make_reader(
    const system_config& cfg, std::uint32_t index, object_id) const {
  return std::make_unique<regular_reader>(cfg, index);
}

std::unique_ptr<automaton> regular_protocol::make_server(
    const system_config& cfg, std::uint32_t index, object_id) const {
  return std::make_unique<quorum_server>(cfg, index);
}

std::unique_ptr<automaton> single_reader_protocol::make_writer(
    const system_config& cfg, std::uint32_t index, object_id) const {
  FASTREG_EXPECTS(index == 0);
  return std::make_unique<abd_writer>(cfg);
}

std::unique_ptr<automaton> single_reader_protocol::make_reader(
    const system_config& cfg, std::uint32_t index, object_id) const {
  return std::make_unique<single_reader_fast_reader>(cfg, index);
}

std::unique_ptr<automaton> single_reader_protocol::make_server(
    const system_config& cfg, std::uint32_t index, object_id) const {
  return std::make_unique<quorum_server>(cfg, index);
}

}  // namespace fastreg
