// Seeded mutation fuzz support for the scan decoders (common_test,
// compress_test, format_test).
//
// `legacy::` holds the decoders as they stood before the single-pass
// rewrite, kept only as the fuzz oracle: a Result-returning varint reader,
// the token-at-a-time LZ decoder and the copying column-chunk decoder. They
// differ from the originals in two places: the bounds test is written
// `n > remaining`, so a length near 2^64 cannot wrap it (the originals read
// past the buffer), and empty memcpys are skipped. For the kFor and kFsst
// encodings, which came later, the oracle is a bit-at-a-time reference
// decoder that decodes every row and then gathers. `Mutate` corrupts a
// valid stream the ways a bad disk or a bad writer would.

#ifndef HYBRIDJOIN_TESTS_DECODER_FUZZ_H_
#define HYBRIDJOIN_TESTS_DECODER_FUZZ_H_

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/binary_io.h"
#include "common/random.h"
#include "common/result.h"
#include "hdfs/format.h"

namespace hybridjoin {

/// A varint a corrupt stream may carry: the 10-byte maximum, lengths that
/// wrap a naive `pos + n > len` test, sizes around the LZ ceiling, or an
/// overlong 11-byte form.
inline std::vector<uint8_t> HugeVarint(Rng* rng) {
  static constexpr uint64_t kValues[] = {
      ~uint64_t{0},         ~uint64_t{0} - 1,        uint64_t{1} << 63,
      uint64_t{1} << 32,    (uint64_t{1} << 30) + 1, uint64_t{1} << 30,
      uint64_t{0x7fffffff}, uint64_t{1} << 20};
  constexpr size_t kNumValues = sizeof(kValues) / sizeof(kValues[0]);
  const uint64_t pick = rng->Uniform(kNumValues + 1);
  if (pick == kNumValues) {
    std::vector<uint8_t> overlong(10, 0xff);
    overlong.push_back(0x01);
    return overlong;
  }
  BinaryWriter w;
  w.PutVarint(kValues[pick]);
  return w.Release();
}

/// Applies one to three random edits: a bit flip, a byte overwrite, a
/// truncation, an insertion of random bytes, two inserted zero bytes (an
/// empty RLE run, or two empty lengths), or a spliced HugeVarint.
inline std::vector<uint8_t> Mutate(std::vector<uint8_t> bytes, Rng* rng) {
  const uint64_t edits = 1 + rng->Uniform(3);
  for (uint64_t e = 0; e < edits; ++e) {
    const size_t at = rng->Uniform(bytes.size() + 1);
    switch (rng->Uniform(6)) {
      case 0:
        if (at < bytes.size()) bytes[at] ^= uint8_t{1} << rng->Uniform(8);
        break;
      case 1:
        if (at < bytes.size()) bytes[at] = static_cast<uint8_t>(rng->Next());
        break;
      case 2:
        bytes.resize(at);
        break;
      case 3: {
        const uint64_t n = 1 + rng->Uniform(4);
        for (uint64_t i = 0; i < n; ++i) {
          bytes.insert(bytes.begin() + at, static_cast<uint8_t>(rng->Next()));
        }
        break;
      }
      case 4:
        bytes.insert(bytes.begin() + at, 2, 0);
        break;
      default: {
        // Replace the byte at `at`, usually the start of a length or count.
        const std::vector<uint8_t> v = HugeVarint(rng);
        if (at < bytes.size()) bytes.erase(bytes.begin() + at);
        bytes.insert(bytes.begin() + at, v.begin(), v.end());
        break;
      }
    }
  }
  return bytes;
}

namespace legacy {

class Reader {
 public:
  Reader(const void* data, size_t len)
      : data_(static_cast<const uint8_t*>(data)), len_(len) {}
  explicit Reader(const std::vector<uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  bool AtEnd() const { return pos_ == len_; }
  size_t position() const { return pos_; }

  Result<uint64_t> GetVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= len_) {
        return Status::OutOfRange("truncated varint");
      }
      const uint8_t b = data_[pos_++];
      if (shift >= 64) return Status::OutOfRange("varint overflow");
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }

  Result<int64_t> GetSignedVarint() {
    HJ_ASSIGN_OR_RETURN(uint64_t z, GetVarint());
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  Result<std::string_view> GetView(size_t n) {
    if (n > len_ - pos_) {
      return Status::OutOfRange("binary read past end of buffer");
    }
    std::string_view v(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return v;
  }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

inline Result<std::vector<uint8_t>> LzDecompress(const uint8_t* data,
                                                 size_t n) {
  constexpr size_t kMinMatch = 4;
  constexpr uint64_t kMaxDecompressedSize = uint64_t{1} << 30;
  Reader in(data, n);
  HJ_ASSIGN_OR_RETURN(uint64_t original_size, in.GetVarint());
  if (original_size > kMaxDecompressedSize) {
    return Status::IOError("lz: declared size too large");
  }
  std::vector<uint8_t> out;
  while (out.size() < original_size) {
    HJ_ASSIGN_OR_RETURN(uint64_t lit_len, in.GetVarint());
    if (lit_len > original_size - out.size()) {
      return Status::IOError("lz: literal run past declared size");
    }
    HJ_ASSIGN_OR_RETURN(std::string_view lits, in.GetView(lit_len));
    size_t pos = out.size();
    out.resize(pos + lit_len);
    if (lit_len > 0) std::memcpy(out.data() + pos, lits.data(), lit_len);
    if (out.size() == original_size) break;
    HJ_ASSIGN_OR_RETURN(uint64_t match_len, in.GetVarint());
    HJ_ASSIGN_OR_RETURN(uint64_t offset, in.GetVarint());
    if (match_len < kMinMatch || offset == 0 || offset > out.size()) {
      return Status::IOError("lz: bad match");
    }
    if (match_len > original_size - out.size()) {
      return Status::IOError("lz: match past declared size");
    }
    pos = out.size();
    out.resize(pos + match_len);
    uint8_t* dst = out.data() + pos;
    const uint8_t* src = dst - offset;
    if (offset >= match_len) {
      std::memcpy(dst, src, match_len);
    } else {
      for (uint64_t k = 0; k < match_len; ++k) dst[k] = src[k];
    }
  }
  if (!in.AtEnd()) {
    return Status::IOError("lz: trailing garbage after stream");
  }
  return out;
}

inline Result<std::vector<uint8_t>> Decompress(Codec codec,
                                               const uint8_t* data, size_t n) {
  switch (codec) {
    case Codec::kNone:
      return std::vector<uint8_t>(data, data + n);
    case Codec::kLz:
      return legacy::LzDecompress(data, n);
  }
  return Status::InvalidArgument("unknown codec");
}

template <typename T>
Result<std::vector<T>> DecodeRleInts(const std::vector<uint8_t>& data,
                                     uint32_t num_rows) {
  std::vector<T> out;
  out.reserve(num_rows);
  Reader r(data);
  while (out.size() < num_rows) {
    HJ_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
    HJ_ASSIGN_OR_RETURN(int64_t value, r.GetSignedVarint());
    if (count == 0 || count > num_rows - out.size()) {
      return Status::IOError("columnar: bad RLE run");
    }
    out.insert(out.end(), count, static_cast<T>(value));
  }
  if (!r.AtEnd()) return Status::IOError("columnar: RLE trailing bytes");
  return out;
}

/// Reads `n` values of `width` bits packed LSB first from `raw[at..]`, one
/// bit at a time: the bytes must be exactly enough and the bits after the
/// last value zero.
inline Result<std::vector<uint64_t>> ReadPackedBits(
    const std::vector<uint8_t>& raw, size_t at, uint64_t n, uint32_t width) {
  const uint64_t bits = n * width;
  if (raw.size() - at != (bits + 7) / 8) {
    return Status::IOError("packed: bad size");
  }
  auto bit = [&](uint64_t i) { return (raw[at + i / 8] >> (i % 8)) & 1; };
  std::vector<uint64_t> out(n);
  for (uint64_t i = 0; i < n; ++i) {
    for (uint32_t b = 0; b < width; ++b) {
      out[i] |= static_cast<uint64_t>(bit(i * width + b)) << b;
    }
  }
  for (uint64_t i = bits; i < (raw.size() - at) * 8; ++i) {
    if (bit(i) != 0) return Status::IOError("packed: padding bit set");
  }
  return out;
}

/// Reference kFor decoder: the minimum, the width, the packed deltas.
template <typename T>
Result<std::vector<T>> DecodeForInts(const std::vector<uint8_t>& raw,
                                     uint32_t num_rows) {
  using U = std::make_unsigned_t<T>;
  if (raw.size() < sizeof(U) + 1) return Status::IOError("for: short header");
  U base;
  std::memcpy(&base, raw.data(), sizeof(U));
  const uint32_t width = raw[sizeof(U)];
  if (width > 8 * sizeof(U)) return Status::IOError("for: width too large");
  HJ_ASSIGN_OR_RETURN(std::vector<uint64_t> deltas,
                      ReadPackedBits(raw, sizeof(U) + 1, num_rows, width));
  std::vector<T> out;
  for (uint64_t d : deltas) {
    out.push_back(static_cast<T>(static_cast<U>(base + static_cast<U>(d))));
  }
  return out;
}

/// Reference kFsst decoder: the symbol table, the width, the code count,
/// the codes, the packed end offsets; each row decoded code by code.
inline Result<std::vector<std::string>> DecodeFsstStrings(
    const std::vector<uint8_t>& raw, uint32_t num_rows) {
  auto fail = [](const char* why) { return Status::IOError(why); };
  Reader r(raw);
  HJ_ASSIGN_OR_RETURN(std::string_view count, r.GetView(1));
  const size_t num_symbols = static_cast<uint8_t>(count[0]);
  HJ_ASSIGN_OR_RETURN(std::string_view lengths, r.GetView(num_symbols));
  std::vector<std::string> symbols;
  for (char len : lengths) {
    if (len < 1 || len > 8) return fail("fsst: bad symbol length");
    HJ_ASSIGN_OR_RETURN(std::string_view sym, r.GetView(len));
    symbols.emplace_back(sym);
  }
  HJ_ASSIGN_OR_RETURN(std::string_view width, r.GetView(1));
  if (static_cast<uint8_t>(width[0]) > 32) return fail("fsst: wide offsets");
  HJ_ASSIGN_OR_RETURN(std::string_view size_bytes, r.GetView(4));
  uint32_t codes_size;
  std::memcpy(&codes_size, size_bytes.data(), 4);
  HJ_ASSIGN_OR_RETURN(std::string_view codes, r.GetView(codes_size));
  HJ_ASSIGN_OR_RETURN(std::vector<uint64_t> ends,
                      ReadPackedBits(raw, r.position(), num_rows,
                                     static_cast<uint8_t>(width[0])));
  std::vector<std::string> out;
  uint64_t begin = 0;
  for (uint64_t end : ends) {
    if (end < begin || end > codes_size) return fail("fsst: bad offset");
    std::string s;
    for (uint64_t k = begin; k < end; ++k) {
      const uint8_t code = static_cast<uint8_t>(codes[k]);
      if (code == 255) {
        if (k + 1 == end) return fail("fsst: escape ends a string");
        s.push_back(codes[++k]);
      } else if (code >= symbols.size()) {
        return fail("fsst: code past the table");
      } else {
        s += symbols[code];
      }
    }
    out.push_back(std::move(s));
    begin = end;
  }
  if (begin != codes_size) return fail("fsst: offsets end before the codes");
  return out;
}

inline Result<ColumnVector> DecodeColumnChunk(
    const ColumnChunk& chunk, DataType type,
    const std::vector<uint32_t>* sel = nullptr) {
  if (PhysicalTypeOf(type) != PhysicalTypeOf(chunk.type)) {
    return Status::Internal("columnar: chunk type mismatch");
  }
  if (sel != nullptr && !sel->empty() &&
      (sel->back() >= chunk.num_rows ||
       std::adjacent_find(sel->begin(), sel->end(),
                          std::greater_equal<uint32_t>()) != sel->end())) {
    return Status::InvalidArgument(
        "columnar: selection must be ascending rows of the chunk");
  }
  HJ_ASSIGN_OR_RETURN(
      std::vector<uint8_t> raw,
      legacy::Decompress(chunk.codec, chunk.data.data(), chunk.data.size()));

  ColumnVector out(type);
  switch (PhysicalTypeOf(type)) {
    case PhysicalType::kInt32: {
      if (chunk.encoding == ColEncoding::kFor) {
        HJ_ASSIGN_OR_RETURN(out.mutable_i32(),
                            DecodeForInts<int32_t>(raw, chunk.num_rows));
      } else if (chunk.encoding == ColEncoding::kRle) {
        HJ_ASSIGN_OR_RETURN(std::vector<int32_t> v,
                            DecodeRleInts<int32_t>(raw, chunk.num_rows));
        out.mutable_i32() = std::move(v);
      } else if (chunk.encoding == ColEncoding::kPlain) {
        if (raw.size() != chunk.num_rows * sizeof(int32_t)) {
          return Status::IOError("columnar: bad plain int32 chunk size");
        }
        out.mutable_i32().resize(chunk.num_rows);
        if (!raw.empty()) {
          std::memcpy(out.mutable_i32().data(), raw.data(), raw.size());
        }
      } else {
        return Status::IOError("columnar: bad int32 encoding");
      }
      break;
    }
    case PhysicalType::kInt64: {
      if (chunk.encoding == ColEncoding::kFor) {
        HJ_ASSIGN_OR_RETURN(out.mutable_i64(),
                            DecodeForInts<int64_t>(raw, chunk.num_rows));
      } else if (chunk.encoding == ColEncoding::kRle) {
        HJ_ASSIGN_OR_RETURN(std::vector<int64_t> v,
                            DecodeRleInts<int64_t>(raw, chunk.num_rows));
        out.mutable_i64() = std::move(v);
      } else if (chunk.encoding == ColEncoding::kPlain) {
        if (raw.size() != chunk.num_rows * sizeof(int64_t)) {
          return Status::IOError("columnar: bad plain int64 chunk size");
        }
        out.mutable_i64().resize(chunk.num_rows);
        if (!raw.empty()) {
          std::memcpy(out.mutable_i64().data(), raw.data(), raw.size());
        }
      } else {
        return Status::IOError("columnar: bad int64 encoding");
      }
      break;
    }
    case PhysicalType::kFloat64: {
      if (chunk.encoding != ColEncoding::kPlain ||
          raw.size() != chunk.num_rows * sizeof(double)) {
        return Status::IOError("columnar: bad float64 chunk");
      }
      out.mutable_f64().resize(chunk.num_rows);
      if (!raw.empty()) {
        std::memcpy(out.mutable_f64().data(), raw.data(), raw.size());
      }
      break;
    }
    case PhysicalType::kString: {
      const uint32_t* next = sel != nullptr ? sel->data() : nullptr;
      const uint32_t* const sel_end = next + (sel != nullptr ? sel->size() : 0);
      auto selected = [&](uint32_t row) {
        if (sel == nullptr) return true;
        if (next == sel_end || *next != row) return false;
        ++next;
        return true;
      };
      Reader r(raw);
      auto& v = out.mutable_str();
      v.reserve(sel != nullptr ? sel->size() : chunk.num_rows);
      if (chunk.encoding == ColEncoding::kFsst) {
        HJ_ASSIGN_OR_RETURN(std::vector<std::string> all,
                            DecodeFsstStrings(raw, chunk.num_rows));
        for (uint32_t i = 0; i < chunk.num_rows; ++i) {
          if (selected(i)) v.push_back(all[i]);
        }
        return out;
      }
      if (chunk.encoding == ColEncoding::kDict) {
        HJ_ASSIGN_OR_RETURN(uint64_t dict_size, r.GetVarint());
        if (dict_size > chunk.num_rows) {
          return Status::IOError("columnar: dict larger than chunk");
        }
        std::vector<std::string_view> dict(dict_size);
        for (auto& e : dict) {
          HJ_ASSIGN_OR_RETURN(uint64_t len, r.GetVarint());
          HJ_ASSIGN_OR_RETURN(e, r.GetView(len));
        }
        for (uint32_t i = 0; i < chunk.num_rows; ++i) {
          HJ_ASSIGN_OR_RETURN(uint64_t code, r.GetVarint());
          if (code >= dict.size()) {
            return Status::IOError("columnar: dict code out of range");
          }
          if (selected(i)) v.push_back(dict[code]);
        }
      } else if (chunk.encoding == ColEncoding::kPlain) {
        for (uint32_t i = 0; i < chunk.num_rows; ++i) {
          HJ_ASSIGN_OR_RETURN(uint64_t len, r.GetVarint());
          HJ_ASSIGN_OR_RETURN(std::string_view s, r.GetView(len));
          if (selected(i)) v.push_back(s);
        }
      } else {
        return Status::IOError("columnar: bad string encoding");
      }
      if (!r.AtEnd()) {
        return Status::IOError("columnar: trailing bytes in string chunk");
      }
      if (out.size() != (sel != nullptr ? sel->size() : chunk.num_rows)) {
        return Status::IOError("columnar: decoded row count mismatch");
      }
      return out;
    }
  }
  if (out.size() != chunk.num_rows) {
    return Status::IOError("columnar: decoded row count mismatch");
  }
  if (sel != nullptr) return out.Gather(*sel);
  return out;
}

}  // namespace legacy
}  // namespace hybridjoin

#endif  // HYBRIDJOIN_TESTS_DECODER_FUZZ_H_
