// Big-endian wire readers/writers used by the IPv4/TCP/UDP/DNS codecs.
#pragma once

#include <cstring>
#include <string_view>

#include "core/result.h"
#include "core/types.h"

namespace ys {

/// Appends big-endian fields to an owning buffer.
class BufWriter {
 public:
  explicit BufWriter(Bytes& out) : out_(out) {}

  void u8_(u8 v) { out_.push_back(v); }
  void u16_(u16 v) {
    out_.push_back(static_cast<u8>(v >> 8));
    out_.push_back(static_cast<u8>(v));
  }
  void u32_(u32 v) {
    out_.push_back(static_cast<u8>(v >> 24));
    out_.push_back(static_cast<u8>(v >> 16));
    out_.push_back(static_cast<u8>(v >> 8));
    out_.push_back(static_cast<u8>(v));
  }
  void bytes(ByteView v) { out_.insert(out_.end(), v.begin(), v.end()); }
  void str(std::string_view s) {
    out_.insert(out_.end(), s.begin(), s.end());
  }

  std::size_t size() const { return out_.size(); }

  /// Overwrite a previously written 16-bit field (e.g. a length or checksum
  /// backpatch).
  void patch_u16(std::size_t offset, u16 v) {
    out_[offset] = static_cast<u8>(v >> 8);
    out_[offset + 1] = static_cast<u8>(v);
  }

 private:
  Bytes& out_;
};

/// Sequential big-endian reader with bounds checking.
class BufReader {
 public:
  explicit BufReader(ByteView data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool can_read(std::size_t n) const { return remaining() >= n; }

  Result<u8> u8_() {
    if (!can_read(1)) return Error::make("buffer underrun reading u8");
    return data_[pos_++];
  }
  Result<u16> u16_() {
    if (!can_read(2)) return Error::make("buffer underrun reading u16");
    u16 v = static_cast<u16>(static_cast<u16>(data_[pos_]) << 8 | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  Result<u32> u32_() {
    if (!can_read(4)) return Error::make("buffer underrun reading u32");
    u32 v = (static_cast<u32>(data_[pos_]) << 24) |
            (static_cast<u32>(data_[pos_ + 1]) << 16) |
            (static_cast<u32>(data_[pos_ + 2]) << 8) |
            static_cast<u32>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }
  Result<Bytes> bytes(std::size_t n) {
    if (!can_read(n)) return Error::make("buffer underrun reading bytes");
    Bytes out(data_.begin() + static_cast<long>(pos_),
              data_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return out;
  }
  Status skip(std::size_t n) {
    if (!can_read(n)) return Error::make("buffer underrun skipping bytes");
    pos_ += n;
    return Status::ok_status();
  }

 private:
  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace ys
