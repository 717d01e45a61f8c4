// BinaryWriter / BinaryReader: little-endian binary serialization with
// varint support, used for record-batch wire format, Bloom filter transfer,
// and the columnar file format.

#ifndef HYBRIDJOIN_COMMON_BINARY_IO_H_
#define HYBRIDJOIN_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace hybridjoin {

/// Appends primitive values to a byte buffer. Little-endian, unaligned.
class BinaryWriter {
 public:
  BinaryWriter() = default;
  explicit BinaryWriter(size_t reserve) { buf_.reserve(reserve); }
  /// Writes into a recycled buffer: contents are discarded, the allocation
  /// (capacity) is kept. Pair with Release() to get the buffer back out.
  explicit BinaryWriter(std::vector<uint8_t> reuse) : buf_(std::move(reuse)) {
    buf_.clear();
  }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI32(int32_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutF64(double v) { PutRaw(&v, sizeof(v)); }

  /// LEB128 unsigned varint.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  /// Zigzag-encoded signed varint.
  void PutSignedVarint(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }

  /// Length-prefixed string.
  void PutString(std::string_view s) {
    PutVarint(s.size());
    PutRaw(s.data(), s.size());
  }

  void PutRaw(const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Reads primitives back out of a byte range. Every read is bounds-checked,
/// so malformed/truncated input is reported, never UB: the Get* methods
/// return Status, and the Read* methods return false, for per-row decode
/// loops where each caller picks its own error.
class BinaryReader {
 public:
  BinaryReader(const void* data, size_t len)
      : data_(static_cast<const uint8_t*>(data)), len_(len) {}
  explicit BinaryReader(const std::vector<uint8_t>& buf)
      : BinaryReader(buf.data(), buf.size()) {}

  size_t remaining() const { return len_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == len_; }

  Result<uint8_t> GetU8() {
    HJ_RETURN_IF_ERROR(Need(1));
    return data_[pos_++];
  }
  Result<uint32_t> GetU32() { return GetFixed<uint32_t>(); }
  Result<uint64_t> GetU64() { return GetFixed<uint64_t>(); }
  Result<int32_t> GetI32() { return GetFixed<int32_t>(); }
  Result<int64_t> GetI64() { return GetFixed<int64_t>(); }
  Result<double> GetF64() { return GetFixed<double>(); }

  /// LEB128 varint of at most 10 bytes (bits past 64 are dropped).
  Result<uint64_t> GetVarint() {
    uint64_t v;
    if (!ReadVarint(&v)) {
      return Status::OutOfRange("truncated or overlong varint");
    }
    return v;
  }

  Result<int64_t> GetSignedVarint() {
    HJ_ASSIGN_OR_RETURN(uint64_t z, GetVarint());
    return ZigzagDecode(z);
  }

  /// GetVarint for per-row decode loops: no Status on the success path.
  /// Returns false exactly where GetVarint fails (truncated, or more than 10
  /// bytes); the position is then unspecified.
  bool ReadVarint(uint64_t* out) {
    if (len_ - pos_ >= kMaxVarintBytes) {
      // Fast path: the whole varint is in bounds, so only the continuation
      // bits are tested.
      const uint8_t* p = data_ + pos_;
      uint64_t v = 0;
#pragma GCC unroll 10
      for (size_t i = 0; i < kMaxVarintBytes; ++i) {
        const uint64_t b = p[i];
        v |= (b & 0x7f) << (7 * i);
        if (b < 0x80) {
          pos_ += i + 1;
          *out = v;
          return true;
        }
      }
      return false;
    }
    uint64_t v = 0;
    for (int shift = 0; pos_ < len_; shift += 7) {
      const uint8_t b = data_[pos_++];
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if (b < 0x80) {
        *out = v;
        return true;
      }
    }
    return false;
  }

  /// Zigzag-encoded ReadVarint.
  bool ReadSignedVarint(int64_t* out) {
    uint64_t z;
    if (!ReadVarint(&z)) return false;
    *out = ZigzagDecode(z);
    return true;
  }

  /// Bounds-checked zero-copy span for decode loops: points `*out` at the
  /// next n bytes and advances past them, or returns false if fewer remain.
  bool ReadSpan(size_t n, std::string_view* out) {
    if (n > len_ - pos_) return false;
    *out = std::string_view(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

  Result<std::string> GetString() {
    HJ_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
    HJ_RETURN_IF_ERROR(Need(n));
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  /// Zero-copy view of the next n bytes.
  Result<std::string_view> GetView(size_t n) {
    std::string_view v;
    if (!ReadSpan(n, &v)) {
      return Status::OutOfRange("binary read past end of buffer");
    }
    return v;
  }

  Status GetRaw(void* out, size_t n) {
    // An empty read may come with null pointers on both sides (an empty
    // vector's data()), which memcpy must not see.
    if (n == 0) return Status::OK();
    HJ_RETURN_IF_ERROR(Need(n));
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

 private:
  static constexpr size_t kMaxVarintBytes = 10;

  static int64_t ZigzagDecode(uint64_t z) {
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  // Written as `n > remaining` so a length near 2^64 cannot wrap the test.
  Status Need(size_t n) const {
    if (n > len_ - pos_) {
      return Status::OutOfRange("binary read past end of buffer");
    }
    return Status::OK();
  }

  template <typename T>
  Result<T> GetFixed() {
    HJ_RETURN_IF_ERROR(Need(sizeof(T)));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_COMMON_BINARY_IO_H_
