// Hash functions used across the engine: a 64-bit finalizer-quality mixer for
// join keys and Bloom filters, FNV-1a for strings, and MurmurHash3-style
// block hashing for byte ranges.
//
// All hashing is seedable so that independent uses (partitioning vs Bloom
// filter vs hash tables) are decorrelated — a classic pitfall when the same
// hash drives both the shuffle and the hash table bucket index.

#ifndef HYBRIDJOIN_COMMON_HASH_H_
#define HYBRIDJOIN_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace hybridjoin {

/// SplitMix64 finalizer: a full-avalanche mix of a 64-bit value.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seeded 64-bit hash of a 64-bit key.
inline uint64_t HashInt64(uint64_t key, uint64_t seed = 0) {
  return Mix64(key ^ Mix64(seed));
}

/// FNV-1a over bytes, seedable.
inline uint64_t HashBytes(const void* data, size_t len, uint64_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 14695981039346656037ULL ^ Mix64(seed);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return Mix64(h);
}

inline uint64_t HashString(std::string_view s, uint64_t seed = 0) {
  return HashBytes(s.data(), s.size(), seed);
}

/// The "agreed hash function" both the EDW workers and the JEN workers use to
/// route a join key to a JEN worker for repartition-based joins (paper §3.3,
/// §4.3). Keeping it in one place is the substitute for the paper's
/// coordinator-published hash function.
inline uint32_t AgreedPartition(int64_t join_key, uint32_t num_partitions) {
  // Seed chosen distinct from Bloom/hash-table seeds.
  return static_cast<uint32_t>(
      HashInt64(static_cast<uint64_t>(join_key), /*seed=*/0xA93EEDULL) %
      num_partitions);
}

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_COMMON_HASH_H_
