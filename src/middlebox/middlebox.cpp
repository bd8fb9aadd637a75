#include "middlebox/middlebox.h"

#include "tcpstack/tcp_types.h"

namespace ys::mbox {

using tcp::seq_ge;
using tcp::seq_lt;

bool Middlebox::should_drop(DropMode mode) {
  switch (mode) {
    case DropMode::kPass: return false;
    case DropMode::kDrop: return true;
    case DropMode::kSometimes: return rng_.chance(cfg_.sometimes_probability);
  }
  return false;
}

void Middlebox::process(net::Packet pkt, net::Dir dir, net::Forwarder& fwd) {
  (void)dir;

  // --- IP fragment handling (Table 2 row 1)
  if (pkt.ip.is_fragmented()) {
    switch (cfg_.fragments) {
      case FragPolicy::kDrop:
        ++dropped_;
        fwd.drop(pkt, "fragment policy: discard");
        return;
      case FragPolicy::kReassemble: {
        std::optional<net::Packet> whole = reassembler_.push(pkt);
        if (!whole) return;  // buffered, waiting for the rest
        pkt = std::move(*whole);
        break;
      }
      case FragPolicy::kPass:
        break;
    }
  }

  if (cfg_.validates_ip_length && !net::ip_length_consistent(pkt)) {
    ++dropped_;
    fwd.drop(pkt, "claimed IP length mismatch");
    return;
  }

  if (pkt.is_tcp()) {
    const net::TcpHeader& t = *pkt.tcp;
    // A box that passes bad checksums never needs the sum; the RNG draw
    // (kSometimes) still happens only for a bad one.
    if (cfg_.wrong_checksum != DropMode::kPass &&
        !net::transport_checksum_ok(pkt) && should_drop(cfg_.wrong_checksum)) {
      ++dropped_;
      fwd.drop(pkt, "wrong TCP checksum");
      return;
    }
    if (!t.flags.any() && should_drop(cfg_.no_tcp_flags)) {
      ++dropped_;
      fwd.drop(pkt, "no TCP flags");
      return;
    }
    if (t.flags.rst && should_drop(cfg_.rst_packets)) {
      ++dropped_;
      fwd.drop(pkt, "RST policy");
      return;
    }
    if (t.flags.fin && should_drop(cfg_.fin_packets)) {
      ++dropped_;
      fwd.drop(pkt, "FIN policy");
      return;
    }
    const int torn_before = torn_;
    if (!track(pkt)) {
      ++dropped_;
      fwd.drop(pkt, "connection state torn down / out of window");
      return;
    }
    if (torn_ != torn_before) {
      // This packet (an accepted RST/FIN — often a strategy's insertion
      // packet) just tore the tracked connection down: the Failure-1
      // mechanism where a middlebox, not the GFW, kills the flow.
      if (obs::TraceRecorder* tr = fwd.trace()) {
        obs::TraceEvent ev;
        ev.at = fwd.now();
        ev.kind = obs::TraceKind::kState;
        ev.actor = cfg_.name;
        ev.gfw = obs::GfwTransition{obs::GfwState::kEstablished,
                                    obs::GfwState::kGone,
                                    pkt.tcp->flags.rst
                                        ? obs::GfwBehavior::kRstTeardown
                                        : obs::GfwBehavior::kFinTeardown};
        ev.packet = net::to_trace_ref(pkt, dir);
        ev.caused_by = tr->event_for_packet(pkt.trace_id);
        ev.detail = "middlebox connection tracking torn down; "
                    "later packets on this flow are blackholed";
        tr->record(std::move(ev));
      }
    }
  }

  fwd.forward(std::move(pkt));
}

bool Middlebox::track(const net::Packet& pkt) {
  if (!cfg_.stateful) return true;
  const net::TcpHeader& t = *pkt.tcp;
  const net::FourTuple key = pkt.tuple().canonical();
  ConnState& conn = conns_[key];

  if (conn.torn_down) return false;

  const bool forward_dir = pkt.tuple() == key;  // canonical orientation
  if (t.flags.syn && !t.flags.ack) {
    conn.syn_seen = true;
    (forward_dir ? conn.client_isn : conn.server_isn) = t.seq;
    if (!forward_dir) conn.server_isn_known = true;
    return true;
  }
  if (t.flags.syn && t.flags.ack) {
    (forward_dir ? conn.client_isn : conn.server_isn) = t.seq;
    if (!forward_dir) conn.server_isn_known = true;
    return true;
  }

  if (cfg_.seq_checking && conn.syn_seen) {
    const u32 isn = forward_dir ? conn.client_isn : conn.server_isn;
    const bool isn_known = forward_dir || conn.server_isn_known;
    if (isn_known) {
      if (seq_lt(t.seq, isn) ||
          seq_ge(t.seq, isn + 1 + cfg_.tracked_window)) {
        return false;  // out of tracked window
      }
    }
  }

  // The box accepts this packet; a RST or FIN flips its state so that
  // everything later on this connection is blackholed. The terminating
  // packet itself is still forwarded (we saw it on the wire).
  if (t.flags.rst || t.flags.fin) {
    conn.torn_down = true;
    ++torn_;
  }
  return true;
}

}  // namespace ys::mbox
