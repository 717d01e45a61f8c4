// Heavy-hitter detection for the skew-aware shuffle (docs/architecture.md,
// "Skew-aware shuffle"). A space-saving sketch (Metwally et al.) is fed
// during the DB-side Bloom-build scan — the pass every Bloom-assisted join
// already makes over T — so hot-key detection costs no extra scan. Each DB
// worker builds a local sketch over its partition of T'; worker 0 merges
// them and picks the hot set against the fair-share threshold
// (PickHotKeys), which then rides to every worker alongside the Bloom
// filter and splits the shuffle into a broadcast hot route and the
// agreed-hash cold route.
//
// Guarantees used by the callers (asserted in tests/heavy_hitters_test.cc):
//   - count(k) is an upper bound on k's true frequency and
//     count(k) - error(k) a lower bound;
//   - every key with true frequency > N / capacity is present;
//   - error(k) <= N / capacity;
//   - Merge() is associative and exact whenever the combined distinct-key
//     count fits the capacity, so the coordinator's merged view is the
//     serial sketch of the concatenated streams in that regime.

#ifndef HYBRIDJOIN_EXEC_HEAVY_HITTERS_H_
#define HYBRIDJOIN_EXEC_HEAVY_HITTERS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace hybridjoin {

/// Space-saving top-k frequency sketch. Thread-compatible, not thread-safe:
/// scan threads each feed their own sketch and the driver merges, exactly
/// like the per-thread Bloom filters.
class HeavyHitterSketch {
 public:
  struct Entry {
    int64_t key = 0;
    uint64_t count = 0;  ///< frequency upper bound
    uint64_t error = 0;  ///< count - error is the guaranteed lower bound
  };

  explicit HeavyHitterSketch(uint32_t capacity);

  void Add(int64_t key, uint64_t weight = 1);

  /// Folds `other` into this sketch: counts and errors of shared keys add,
  /// then the combined entry set is re-truncated to this capacity (keeping
  /// the largest counts). Associative; exact when all distinct keys fit.
  void Merge(const HeavyHitterSketch& other);

  /// Monitored entries, sorted by count descending (key ascending on ties,
  /// so the order — and everything derived from it — is deterministic).
  std::vector<Entry> Entries() const;

  uint64_t total() const { return total_; }
  uint32_t capacity() const { return capacity_; }
  size_t size() const { return entries_.size(); }

  std::vector<uint8_t> Serialize() const;
  static Result<HeavyHitterSketch> Deserialize(
      const std::vector<uint8_t>& buf);

 private:
  uint32_t capacity_;
  uint64_t total_ = 0;
  std::vector<Entry> entries_;
  std::unordered_map<int64_t, size_t> index_;  ///< key -> entries_ slot
};

/// The hot-key set every worker routes against: a sorted vector with
/// binary-search membership (the set is capped at SkewConfig::kMaxHotKeys,
/// so Contains is a handful of comparisons on the shuffle hot path).
class HotKeySet {
 public:
  HotKeySet() = default;
  explicit HotKeySet(std::vector<int64_t> keys);  ///< sorts + dedups

  bool Contains(int64_t key) const;
  bool empty() const { return keys_.empty(); }
  size_t size() const { return keys_.size(); }
  const std::vector<int64_t>& keys() const { return keys_; }

  std::vector<uint8_t> Serialize() const;
  static Result<HotKeySet> Deserialize(const std::vector<uint8_t>& buf);

 private:
  std::vector<int64_t> keys_;  ///< sorted ascending
};

/// Picks the hot set from the coordinator's merged sketch. A key is hot
/// when the estimated rows landing on its agreed-hash worker exceed
/// `hot_multiplier` x the fair per-worker share:
///
///   lower(k) + (total - lower(k)) / workers  >  c * total / workers
///
/// with lower(k) = count(k) - error(k), the sketch's guaranteed mass (so
/// sketch noise can only shrink the hot set, never promote a cold key).
/// At most `max_hot_keys` keys are returned, largest counts first. Empty
/// when workers <= 1 (a single worker has nothing to balance) or the
/// stream was empty.
HotKeySet PickHotKeys(const HeavyHitterSketch& sketch, uint32_t workers,
                      double hot_multiplier, uint32_t max_hot_keys);

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_EXEC_HEAVY_HITTERS_H_
