// RFC 1071 Internet checksum and the TCP/UDP pseudo-header checksums.
//
// The simulator validates real checksums: "bad checksum" insertion packets
// (Table 1/Table 3) are crafted by corrupting the stored checksum, and every
// endpoint/middlebox that claims to validate checksums recomputes them.
// The sum is folded directly over the pieces of the wire image (pseudo-
// header, encoded header, payload span), so no image is ever assembled.
#pragma once

#include "core/types.h"

namespace ys {

/// One's-complement sum of 16-bit words over `data`, folded to 16 bits.
/// An odd trailing byte is padded with zero per RFC 1071.
u16 internet_checksum(ByteView data);

/// Incremental helper: returns the unfolded 32-bit partial sum so callers
/// can chain pseudo-header + segment bytes. Every chained piece but the
/// last must have even length.
u32 checksum_accumulate(ByteView data, u32 acc);

/// Fold a 32-bit accumulated sum to the final 16-bit complement.
u16 checksum_finish(u32 acc);

/// TCP/UDP checksum over the IPv4 pseudo-header (src, dst, proto, length)
/// followed by the transport header+payload bytes in `segment`.
u16 transport_checksum(u32 src_ip, u32 dst_ip, u8 protocol, ByteView segment);

/// The same checksum over a segment given as its encoded `header` (even
/// length) and its `payload`, without concatenating them.
u16 transport_checksum(u32 src_ip, u32 dst_ip, u8 protocol, ByteView header,
                       ByteView payload);

}  // namespace ys
