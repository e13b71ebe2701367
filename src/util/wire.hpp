// Explicit little-endian wire codec.
//
// All on-the-wire integers in mado are little-endian with fixed widths,
// independent of host endianness, so packets produced by one driver can be
// decoded by any other (the socket driver really serializes bytes).
//
// WireWriter appends to a caller-owned byte vector; WireReader consumes a
// read-only byte span and throws CheckError on underrun, which the receiver
// surfaces as a malformed-packet error.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace mado {

using Byte = std::uint8_t;
using Bytes = std::vector<Byte>;
using ByteSpan = std::span<const Byte>;

class WireWriter {
 public:
  explicit WireWriter(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<Byte>(v & 0xff));
    out_.push_back(static_cast<Byte>((v >> 8) & 0xff));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out_.push_back(static_cast<Byte>((v >> (8 * i)) & 0xff));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out_.push_back(static_cast<Byte>((v >> (8 * i)) & 0xff));
  }
  void bytes(ByteSpan data) { out_.insert(out_.end(), data.begin(), data.end()); }
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const Byte*>(data);
    out_.insert(out_.end(), p, p + len);
  }

  /// Current size of the underlying buffer (useful for back-patching).
  std::size_t size() const { return out_.size(); }

  /// Overwrite a previously written u32 at byte offset `at`.
  void patch_u32(std::size_t at, std::uint32_t v) {
    MADO_CHECK(at + 4 <= out_.size());
    for (int i = 0; i < 4; ++i)
      out_[at + static_cast<std::size_t>(i)] =
          static_cast<Byte>((v >> (8 * i)) & 0xff);
  }

 private:
  Bytes& out_;
};

class WireReader {
 public:
  explicit WireReader(ByteSpan in) : in_(in) {}

  std::uint8_t u8() {
    need(1);
    return in_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    auto v = static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(in_[pos_]) |
        (static_cast<std::uint16_t>(in_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(in_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(in_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    pos_ += 8;
    return v;
  }
  ByteSpan bytes(std::size_t len) {
    need(len);
    ByteSpan s = in_.subspan(pos_, len);
    pos_ += len;
    return s;
  }
  void copy_to(void* dst, std::size_t len) {
    need(len);
    std::memcpy(dst, in_.data() + pos_, len);
    pos_ += len;
  }
  void skip(std::size_t len) {
    need(len);
    pos_ += len;
  }

  std::size_t remaining() const { return in_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool at_end() const { return pos_ == in_.size(); }

 private:
  void need(std::size_t n) const {
    MADO_CHECK_MSG(pos_ + n <= in_.size(),
                   "wire underrun: need " << n << " bytes, have "
                                          << (in_.size() - pos_));
  }
  ByteSpan in_;
  std::size_t pos_ = 0;
};

inline ByteSpan as_bytes(const void* p, std::size_t len) {
  return {static_cast<const Byte*>(p), len};
}

/// Serial-number order (RFC 1982) of wire sequence numbers: it survives u32
/// wraparound while the two values are less than 2^31 apart.
inline bool seq_less(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}

}  // namespace mado
