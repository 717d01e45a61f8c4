#include "common/compress.h"

#include <cstring>

#include "common/binary_io.h"

namespace hybridjoin {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 1 << 16;
constexpr size_t kHashBits = 14;
constexpr size_t kHashSize = 1 << kHashBits;
// Largest original size a stream may declare. The columnar writer's chunks
// are a few MB at most; anything beyond this is a corrupt header.
constexpr uint64_t kMaxDecompressedSize = uint64_t{1} << 30;

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t Hash4(const uint8_t* p) {
  return (Load32(p) * 2654435761u) >> (32 - kHashBits);
}

}  // namespace

const char* CodecName(Codec codec) {
  switch (codec) {
    case Codec::kNone:
      return "none";
    case Codec::kLz:
      return "lz";
  }
  return "unknown";
}

std::vector<uint8_t> LzCompress(const uint8_t* data, size_t n) {
  BinaryWriter out(n / 2 + 16);
  out.PutVarint(n);
  if (n == 0) return out.Release();

  // Position of the most recent occurrence of each 4-byte hash.
  std::vector<uint32_t> table(kHashSize, 0);
  // Entry 0 is ambiguous ("empty" vs position 0); offset by one.
  auto get = [&](uint32_t h) -> size_t { return table[h]; };
  auto put = [&](uint32_t h, size_t pos) {
    table[h] = static_cast<uint32_t>(pos + 1);
  };

  size_t lit_start = 0;
  size_t i = 0;
  while (i + kMinMatch <= n) {
    const uint32_t h = Hash4(data + i);
    const size_t cand_plus1 = get(h);
    put(h, i);
    if (cand_plus1 != 0) {
      const size_t cand = cand_plus1 - 1;
      if (i - cand <= kMaxOffset && Load32(data + cand) == Load32(data + i)) {
        // Extend the match.
        size_t len = kMinMatch;
        while (i + len < n && data[cand + len] == data[i + len]) ++len;
        // Emit literals then the match.
        out.PutVarint(i - lit_start);
        out.PutRaw(data + lit_start, i - lit_start);
        out.PutVarint(len);
        out.PutVarint(i - cand);
        // Seed the table through the matched region (sparsely, for speed).
        const size_t end = i + len;
        for (size_t j = i + 1; j + kMinMatch <= end && j + kMinMatch <= n;
             j += 2) {
          put(Hash4(data + j), j);
        }
        i = end;
        lit_start = i;
        continue;
      }
    }
    ++i;
  }
  // Trailing literals (omitted entirely when the input ends on a match).
  if (n - lit_start > 0) {
    out.PutVarint(n - lit_start);
    out.PutRaw(data + lit_start, n - lit_start);
  }
  return out.Release();
}

Result<std::vector<uint8_t>> LzDecompress(const uint8_t* data, size_t n) {
  BinaryReader in(data, n);
  HJ_ASSIGN_OR_RETURN(uint64_t original_size, in.GetVarint());
  if (original_size > kMaxDecompressedSize) {
    return Status::IOError("lz: declared size too large");
  }
  // The declared size is untrusted: the output grows one token at a time,
  // and only by bytes the stream has proven it can produce.
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
      // Offsets smaller than the match length replicate (classic LZ
      // overlapping copy), so copy byte by byte.
      for (uint64_t k = 0; k < match_len; ++k) dst[k] = src[k];
    }
  }
  if (!in.AtEnd()) {
    return Status::IOError("lz: trailing garbage after stream");
  }
  return out;
}

std::vector<uint8_t> Compress(Codec codec, const uint8_t* data, size_t n) {
  switch (codec) {
    case Codec::kNone:
      return std::vector<uint8_t>(data, data + n);
    case Codec::kLz:
      return LzCompress(data, n);
  }
  return {};
}

Result<std::vector<uint8_t>> Decompress(Codec codec, const uint8_t* data,
                                        size_t n) {
  switch (codec) {
    case Codec::kNone:
      return std::vector<uint8_t>(data, data + n);
    case Codec::kLz:
      return LzDecompress(data, n);
  }
  return Status::InvalidArgument("unknown codec");
}

}  // namespace hybridjoin
