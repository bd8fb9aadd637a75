#include "gfw/gfw_tcb.h"

#include "tcpstack/tcp_types.h"

namespace ys::gfw {

Bytes GfwTcb::ingest(u32 seq, ByteView data, net::OverlapPolicy policy) {
  reasm_.insert(client_next, seq, data, tcp::kWindowBytes, policy);
  Bytes fresh = reasm_.pop(client_next);
  if (!fresh.empty()) {
    stream_.insert(stream_.end(), fresh.begin(), fresh.end());
    client_data_seen = true;
  }
  return fresh;
}

void GfwTcb::reanchor(u32 seq) {
  reasm_.clear();
  client_next = seq;
}

}  // namespace ys::gfw
