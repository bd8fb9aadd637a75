#include "core/checksum.h"

namespace ys {

u32 checksum_accumulate(ByteView data, u32 acc) {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    acc += (static_cast<u32>(data[i]) << 8) | data[i + 1];
  }
  if (i < data.size()) {
    acc += static_cast<u32>(data[i]) << 8;  // pad odd byte with zero
  }
  return acc;
}

u16 checksum_finish(u32 acc) {
  while (acc >> 16) {
    acc = (acc & 0xFFFF) + (acc >> 16);
  }
  return static_cast<u16>(~acc & 0xFFFF);
}

u16 internet_checksum(ByteView data) {
  return checksum_finish(checksum_accumulate(data, 0));
}

u16 transport_checksum(u32 src_ip, u32 dst_ip, u8 protocol, ByteView segment) {
  return transport_checksum(src_ip, dst_ip, protocol, segment, ByteView());
}

u16 transport_checksum(u32 src_ip, u32 dst_ip, u8 protocol, ByteView header,
                       ByteView payload) {
  // Pseudo-header words: src, dst, zero|protocol, segment length.
  const u32 len = static_cast<u16>(header.size() + payload.size());
  u32 acc = (src_ip >> 16) + (src_ip & 0xFFFF) + (dst_ip >> 16) +
            (dst_ip & 0xFFFF) + protocol + len;
  acc = checksum_accumulate(header, acc);
  acc = checksum_accumulate(payload, acc);
  return checksum_finish(acc);
}

}  // namespace ys
