// A from-scratch LZ77-family byte compressor standing in for Snappy in the
// columnar HDFS format (paper stores L in Parquet+Snappy). Greedy hash-table
// match finder, byte-aligned output:
//
//   varint original_size
//   repeat: varint lit_len, <lit_len literal bytes>,
//           [varint match_len >= kMinMatch, varint offset >= 1]
//
// The trailing sequence may omit the match when the input ends in literals.

#ifndef HYBRIDJOIN_COMMON_COMPRESS_H_
#define HYBRIDJOIN_COMMON_COMPRESS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace hybridjoin {

/// Compression codecs understood by the columnar format.
enum class Codec : uint8_t {
  kNone = 0,
  kLz = 1,
};

const char* CodecName(Codec codec);

/// Compresses `n` bytes. Always succeeds; output may be larger than input
/// for incompressible data (callers may then prefer to store raw).
std::vector<uint8_t> LzCompress(const uint8_t* data, size_t n);

/// Decompresses a buffer produced by LzCompress in one pass. The declared
/// original size is untrusted: a stream declaring more than 1 GiB is
/// rejected, the first allocation is at most the declared size and at most
/// 4 * n + 64 bytes (plus 16 bytes of copy slack), and the buffer grows,
/// capped at the declared size, only as tokens that passed validation need
/// room. Every malformed stream
/// (truncated token, literal or match past the declared size, bad offset,
/// trailing bytes) is an IOError; nothing is read or written out of bounds.
Result<std::vector<uint8_t>> LzDecompress(const uint8_t* data, size_t n);

inline std::vector<uint8_t> LzCompress(const std::vector<uint8_t>& in) {
  return LzCompress(in.data(), in.size());
}
inline Result<std::vector<uint8_t>> LzDecompress(
    const std::vector<uint8_t>& in) {
  return LzDecompress(in.data(), in.size());
}

/// Applies `codec` to a buffer (kNone returns a copy). The columnar reader
/// does not call Decompress for kNone chunks: it reads them in place.
std::vector<uint8_t> Compress(Codec codec, const uint8_t* data, size_t n);
Result<std::vector<uint8_t>> Decompress(Codec codec, const uint8_t* data,
                                        size_t n);

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_COMMON_COMPRESS_H_
