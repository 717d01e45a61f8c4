#include "common/compress.h"

#include <algorithm>
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
// First output allocation: kExpansionGuess bytes per stream byte plus
// kGuessSlack, capped at the declared size. Columnar chunks expand about 2-4x,
// so this one allocation usually holds the whole output.
constexpr uint64_t kExpansionGuess = 4;
constexpr uint64_t kGuessSlack = 64;
// Output bytes the decoder keeps past what it has validated, so it can copy
// in fixed-size steps.
constexpr size_t kCopySlack = 16;

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
  uint64_t original_size;
  if (!in.ReadVarint(&original_size)) {
    return Status::IOError("lz: truncated header");
  }
  if (original_size > kMaxDecompressedSize) {
    return Status::IOError("lz: declared size too large");
  }
  // The declared size is untrusted: the first allocation is bounded by the
  // stream's own length, and `room` then grows geometrically, never past the
  // declared size, only for tokens that have passed validation. `out` keeps
  // kCopySlack bytes past `room` so short literals and matches are copied in
  // whole kCopySlack-byte steps; the slack is trimmed before returning.
  size_t room = std::min<uint64_t>(original_size,
                                   kExpansionGuess * n + kGuessSlack);
  std::vector<uint8_t> out(room + kCopySlack);
  size_t pos = 0;
  auto make_room = [&](size_t len) {
    if (len > room - pos) {
      room = std::min<uint64_t>(original_size, std::max(pos + len, 2 * room));
      out.resize(room + kCopySlack);
    }
  };
  while (pos < original_size) {
    uint64_t lit_len;
    if (!in.ReadVarint(&lit_len)) return Status::IOError("lz: truncated token");
    if (lit_len > original_size - pos) {
      return Status::IOError("lz: literal run past declared size");
    }
    std::string_view lits;
    if (!in.ReadSpan(lit_len, &lits)) {
      return Status::IOError("lz: truncated literals");
    }
    make_room(lit_len);
    if (lit_len <= kCopySlack && lit_len + in.remaining() >= kCopySlack) {
      std::memcpy(out.data() + pos, lits.data(), kCopySlack);
    } else if (lit_len > 0) {
      std::memcpy(out.data() + pos, lits.data(), lit_len);
    }
    pos += lit_len;
    if (pos == original_size) break;
    uint64_t match_len, offset;
    if (!in.ReadVarint(&match_len) || !in.ReadVarint(&offset)) {
      return Status::IOError("lz: truncated token");
    }
    if (match_len < kMinMatch || offset == 0 || offset > pos) {
      return Status::IOError("lz: bad match");
    }
    if (match_len > original_size - pos) {
      return Status::IOError("lz: match past declared size");
    }
    make_room(match_len);
    uint8_t* dst = out.data() + pos;
    const uint8_t* src = dst - offset;
    if (offset >= kCopySlack) {
      // Each step reads only bytes already written, and writes at most
      // kCopySlack - 1 bytes past the match, into the slack.
      for (uint64_t k = 0; k < match_len; k += kCopySlack) {
        std::memcpy(dst + k, src + k, kCopySlack);
      }
    } else {
      // A short offset may overlap the match, which then replicates (classic
      // LZ overlapping copy), so copy byte by byte.
      for (uint64_t k = 0; k < match_len; ++k) dst[k] = src[k];
    }
    pos += match_len;
  }
  if (!in.AtEnd()) {
    return Status::IOError("lz: trailing garbage after stream");
  }
  out.resize(pos);
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
  return Status::IOError("unknown codec");
}

}  // namespace hybridjoin
