// Byte-stream reassembly shared by the TCP endpoint, the GFW's shadow
// stream and IP fragment reassembly.
//
// The overlap strategies of §3.2 and Table 4 all turn on one decision:
// which copy of an overlapped byte wins. End hosts and the GFW decide it
// differently, so the policy is a parameter of every insert.
#pragma once

#include <cstddef>
#include <vector>

#include "core/types.h"

namespace ys::net {

/// Which copy of an overlapped byte range wins at reassembly.
enum class OverlapPolicy {
  kPreferFirst,  // GFW IP-fragment behaviour, BSD-style
  kPreferLast,   // overwrite with the newest copy
};

/// Bytes keyed by absolute 32-bit sequence number (modulo 2^32), delivered
/// in order from an anchor the caller owns: `rcv_nxt`, the GFW's
/// `client_next`, or 0 for a fragmented datagram. The anchor is passed into
/// every call, so a caller that advances it on its own (a FIN's sequence
/// slot) keeps no second copy in sync. Bytes below the anchor are never
/// delivered. The anchor only moves forward between clear() calls.
///
/// Storage is a dense anchor-relative byte buffer plus one presence byte
/// per slot, bounding a stream to about twice its window; it is released
/// once every buffered byte has been popped.
class Reassembler {
 public:
  /// Merge `data` starting at `seq`, clipped to [next, next + window). A
  /// byte already buffered keeps its value under kPreferFirst and takes the
  /// new one under kPreferLast.
  void insert(u32 next, u32 seq, ByteView data, u32 window,
              OverlapPolicy policy);

  /// Number of contiguous buffered bytes starting at `next`.
  std::size_t ready(u32 next) const;

  /// Remove and return the contiguous bytes starting at `next`, advancing
  /// `next` past them.
  Bytes pop(u32& next);

  /// Discard every buffered byte.
  void clear();

 private:
  /// Drop the slots below `next`, so bytes_[0] holds `next`'s byte.
  void advance_to(u32 next);

  u32 base_ = 0;  // sequence number of bytes_[0]
  Bytes bytes_;
  std::vector<u8> present_;
};

}  // namespace ys::net
