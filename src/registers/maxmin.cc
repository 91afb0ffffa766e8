#include "registers/maxmin.h"

#include "common/check.h"

namespace fastreg {

// --------------------------------------------------------- maxmin_server --

maxmin_server::maxmin_server(system_config cfg, std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index) {}

void maxmin_server::on_message(netout& net, const process_id& from,
                               const message& m) {
  switch (m.type) {
    case msg_type::write_req: {
      if (from.is_server()) return;
      if (m.wts() > ts_) {
        ts_ = m.wts();
        val_ = m.val;
      }
      message reply;
      reply.type = msg_type::write_ack;
      reply.ts = m.ts;
      reply.wid = m.wid;
      reply.rcounter = m.rcounter;
      net.send(from, reply);
      return;
    }
    case msg_type::read_req: {
      if (!from.is_reader()) return;
      auto& g = gathers_[{from.index, m.rcounter, m.attempt}];
      g.got_read_req = true;
      // Broadcast our current timestamp to the other servers, tagged with
      // the read instance it serves. Our own contribution is folded in
      // directly rather than routed through the network.
      message gossip;
      gossip.type = msg_type::gossip;
      gossip.ts = ts_.num;
      gossip.wid = ts_.wid;
      gossip.val = val_;
      gossip.origin = from;
      gossip.rcounter = m.rcounter;
      for (std::uint32_t i = 0; i < cfg_.S(); ++i) {
        if (i != index_) net.send(server_id(i), gossip);
      }
      if (g.senders.insert(index_).second && ts_ > g.max_ts) {
        g.max_ts = ts_;
        g.max_val = val_;
      }
      maybe_reply(net, from, m.rcounter, g);
      return;
    }
    case msg_type::gossip: {
      if (!from.is_server()) return;
      auto& g = gathers_[{m.origin.index, m.rcounter, m.attempt}];
      if (!g.senders.insert(from.index).second) return;
      if (m.wts() > g.max_ts) {
        g.max_ts = m.wts();
        g.max_val = m.val;
      }
      maybe_reply(net, m.origin, m.rcounter, g);
      return;
    }
    default:
      return;
  }
}

void maxmin_server::maybe_reply(netout& net, const process_id& reader,
                                std::uint64_t rc, gather& g) {
  if (g.replied || !g.got_read_req) return;
  if (g.senders.size() < gossip_quorum()) return;
  // Adopt the gathered maximum (the "max" half of max-min), then answer.
  if (g.max_ts > ts_) {
    ts_ = g.max_ts;
    val_ = g.max_val;
  }
  g.replied = true;
  message reply;
  reply.type = msg_type::read_ack;
  reply.ts = ts_.num;
  reply.wid = ts_.wid;
  reply.val = val_;
  reply.rcounter = rc;
  net.send(reader, reply);
}

std::unique_ptr<automaton> maxmin_server::clone() const {
  return std::make_unique<maxmin_server>(*this);
}

// --------------------------------------------------------- maxmin_reader --

maxmin_reader::maxmin_reader(system_config cfg, std::uint32_t index)
    : cfg_(std::move(cfg)), index_(index) {}

void maxmin_reader::invoke_read(netout& net) {
  FASTREG_EXPECTS(!pending_);
  pending_ = true;
  rcounter_ += 1;
  have_min_ = false;
  min_ts_ = {};
  min_val_.clear();
  acks_.clear();
  message m;
  m.type = msg_type::read_req;
  m.rcounter = rcounter_;
  for (std::uint32_t i = 0; i < cfg_.S(); ++i) {
    net.send(server_id(i), m);
  }
}

void maxmin_reader::on_message(netout&, const process_id& from,
                               const message& m) {
  if (!pending_ || m.type != msg_type::read_ack || !from.is_server()) return;
  if (m.rcounter != rcounter_ || acks_.contains(from.index)) return;
  acks_.insert(from.index);
  // The "min" half of max-min: return the smallest adopted maximum, which
  // is guaranteed to be stored at a majority of servers.
  if (!have_min_ || m.wts() < min_ts_) {
    have_min_ = true;
    min_ts_ = m.wts();
    min_val_ = m.val;
  }
  if (acks_.size() >= cfg_.quorum()) {
    pending_ = false;
    completed_ += 1;
    last_result_ = read_result{min_ts_.num, min_ts_.wid, min_val_, 1};
  }
}

std::unique_ptr<automaton> maxmin_reader::clone() const {
  return std::make_unique<maxmin_reader>(*this);
}

// -------------------------------------------------------------- protocol --

std::unique_ptr<automaton> maxmin_protocol::make_writer(
    const system_config& cfg, std::uint32_t index, object_id) const {
  FASTREG_EXPECTS(index == 0);
  return std::make_unique<abd_writer>(cfg);
}

std::unique_ptr<automaton> maxmin_protocol::make_reader(
    const system_config& cfg, std::uint32_t index, object_id) const {
  return std::make_unique<maxmin_reader>(cfg, index);
}

std::unique_ptr<automaton> maxmin_protocol::make_server(
    const system_config& cfg, std::uint32_t index, object_id) const {
  return std::make_unique<maxmin_server>(cfg, index);
}

}  // namespace fastreg
