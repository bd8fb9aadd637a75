#include "netsim/reassembler.h"

#include <algorithm>

namespace ys::net {

void Reassembler::advance_to(u32 next) {
  // An anchor behind base_ reads as a forward move past everything buffered.
  const auto drop = static_cast<long>(
      std::min<std::size_t>(next - base_, bytes_.size()));
  bytes_.erase(bytes_.begin(), bytes_.begin() + drop);
  present_.erase(present_.begin(), present_.begin() + drop);
  base_ = next;
}

void Reassembler::insert(u32 next, u32 seq, ByteView data, u32 window,
                         OverlapPolicy policy) {
  advance_to(next);
  // Signed distance of data[0] from the anchor, safe across the 2^32 wrap.
  const i64 rel = static_cast<i32>(seq - next);
  const std::size_t skip = rel < 0 ? static_cast<std::size_t>(-rel) : 0;
  const std::size_t from = rel < 0 ? 0 : static_cast<std::size_t>(rel);
  if (skip >= data.size() || from >= window) return;
  const std::size_t len = std::min(data.size() - skip, window - from);

  if (bytes_.size() < from + len) {
    bytes_.resize(from + len);
    present_.resize(from + len);
  }
  for (std::size_t i = 0; i < len; ++i) {
    u8& seen = present_[from + i];
    if (seen && policy == OverlapPolicy::kPreferFirst) continue;
    bytes_[from + i] = data[skip + i];
    seen = 1;
  }
}

std::size_t Reassembler::ready(u32 next) const {
  const std::size_t at = next - base_;
  if (at >= present_.size()) return 0;
  const auto start = present_.begin() + static_cast<long>(at);
  return static_cast<std::size_t>(
      std::find(start, present_.end(), u8{0}) - start);
}

Bytes Reassembler::pop(u32& next) {
  advance_to(next);
  const std::size_t n = ready(next);
  Bytes out;
  if (n == bytes_.size()) {
    out.swap(bytes_);
    present_ = {};
  } else {
    const auto end = static_cast<long>(n);
    out.assign(bytes_.begin(), bytes_.begin() + end);
    bytes_.erase(bytes_.begin(), bytes_.begin() + end);
    present_.erase(present_.begin(), present_.begin() + end);
  }
  next += static_cast<u32>(n);
  base_ = next;
  return out;
}

void Reassembler::clear() {
  bytes_ = {};
  present_ = {};
}

}  // namespace ys::net
