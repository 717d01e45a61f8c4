// Equivalence tests for the batched cache-conscious kernels: the batched
// Bloom Add/MayContain paths must be bit-identical to the scalar ones in
// both layouts, ProbeBatch must reproduce the scalar ForEachMatch output in
// exact order, ProbeBand must reproduce "every equi-match, then DiffRange"
// in exact order, Finalize must lay every bucket run out in (key, band,
// batch, row) order, and the wire format must round-trip the layout and
// reject inconsistent encodings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <tuple>

#include "bloom/bloom_filter.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "exec/join_hash_table.h"
#include "expr/predicate.h"
#include "jen/exchange.h"

namespace hybridjoin {
namespace {

std::vector<int64_t> RandomKeys(size_t n, uint64_t seed, uint64_t domain) {
  Rng rng(seed);
  std::vector<int64_t> keys(n);
  for (auto& k : keys) k = static_cast<int64_t>(rng.Uniform(domain));
  return keys;
}

// Key sets designed to stress the kernels: duplicates (multi-entry chains
// for one key), negatives (sign-extension of int32 keys), a dense run
// (adjacent cache lines), and an empty set.
std::vector<std::vector<int64_t>> AdversarialKeySets() {
  std::vector<std::vector<int64_t>> sets;
  sets.push_back({});                                    // empty batch
  sets.push_back({7, 7, 7, 7, 7, 7, 7, 7});              // all duplicates
  sets.push_back({-1, -2, 0, 1, 2, -2000000000});        // negatives
  std::vector<int64_t> dense(1000);
  for (size_t i = 0; i < dense.size(); ++i) dense[i] = static_cast<int64_t>(i);
  sets.push_back(std::move(dense));
  sets.push_back(RandomKeys(5000, 11, 300));             // heavy collisions
  sets.push_back(RandomKeys(5000, 12, 1u << 30));        // sparse
  return sets;
}

// ------------------------- Bloom batched == scalar -------------------------

class BloomLayoutTest : public ::testing::TestWithParam<BloomLayout> {};

TEST_P(BloomLayoutTest, AddKeysMatchesScalarAdd) {
  for (const auto& keys : AdversarialKeySets()) {
    const BloomParams params =
        BloomParams::ForKeys(4096, 8.0, 2, GetParam());
    BloomFilter scalar(params);
    BloomFilter batched(params);
    for (int64_t k : keys) scalar.Add(k);
    batched.AddKeys(std::span<const int64_t>(keys));
    EXPECT_EQ(scalar.Serialize(), batched.Serialize())
        << "layout=" << static_cast<int>(GetParam())
        << " keys=" << keys.size();
  }
}

TEST_P(BloomLayoutTest, AddKeysInt32MatchesScalarAdd) {
  // int32 keys must sign-extend to the same bits the scalar path sets.
  std::vector<int32_t> keys = {-1, 0, 1, -2000000000, 2000000000, 42, 42};
  const BloomParams params = BloomParams::ForKeys(256, 8.0, 2, GetParam());
  BloomFilter scalar(params);
  BloomFilter batched(params);
  for (int32_t k : keys) scalar.Add(k);
  batched.AddKeys(std::span<const int32_t>(keys));
  EXPECT_EQ(scalar.Serialize(), batched.Serialize());
}

TEST_P(BloomLayoutTest, AddKeysWithSelectionMatchesScalar) {
  const auto keys = RandomKeys(2000, 21, 1u << 20);
  std::vector<uint32_t> sel;
  for (uint32_t i = 0; i < keys.size(); i += 3) sel.push_back(i);
  const BloomParams params = BloomParams::ForKeys(1024, 8.0, 2, GetParam());
  BloomFilter scalar(params);
  BloomFilter batched(params);
  for (uint32_t r : sel) scalar.Add(keys[r]);
  batched.AddKeys(std::span<const int64_t>(keys),
                  std::span<const uint32_t>(sel));
  EXPECT_EQ(scalar.Serialize(), batched.Serialize());
}

TEST_P(BloomLayoutTest, MayContainKeysMatchesScalarFilter) {
  const BloomParams params = BloomParams::ForKeys(2048, 8.0, 2, GetParam());
  BloomFilter bloom(params);
  const auto inserted = RandomKeys(2000, 31, 1u << 16);
  bloom.AddKeys(std::span<const int64_t>(inserted));

  for (const auto& probe : AdversarialKeySets()) {
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < probe.size(); ++i) {
      if (bloom.MayContain(probe[i])) expected.push_back(i);
    }
    std::vector<uint32_t> sel(probe.size());
    for (uint32_t i = 0; i < sel.size(); ++i) sel[i] = i;
    bloom.MayContainKeys(std::span<const int64_t>(probe), &sel);
    EXPECT_EQ(sel, expected);
  }
}

TEST_P(BloomLayoutTest, MayContainKeysInt32MatchesScalar) {
  const BloomParams params = BloomParams::ForKeys(512, 8.0, 2, GetParam());
  BloomFilter bloom(params);
  std::vector<int32_t> keys = {-5, -1, 0, 3, 1000000, -2000000000};
  bloom.AddKeys(std::span<const int32_t>(keys));

  std::vector<int32_t> probe = {-5, -4, -1, 0, 1, 3, 1000000, -2000000000, 9};
  std::vector<uint32_t> expected;
  for (uint32_t i = 0; i < probe.size(); ++i) {
    if (bloom.MayContain(probe[i])) expected.push_back(i);
  }
  std::vector<uint32_t> sel(probe.size());
  for (uint32_t i = 0; i < sel.size(); ++i) sel[i] = i;
  bloom.MayContainKeys(std::span<const int32_t>(probe), &sel);
  EXPECT_EQ(sel, expected);
}

TEST_P(BloomLayoutTest, NoFalseNegatives) {
  const auto keys = RandomKeys(10000, 41, 1ull << 40);
  BloomFilter bloom(BloomParams::ForKeys(keys.size(), 8.0, 2, GetParam()));
  bloom.AddKeys(std::span<const int64_t>(keys));
  std::vector<uint32_t> sel(keys.size());
  for (uint32_t i = 0; i < sel.size(); ++i) sel[i] = i;
  bloom.MayContainKeys(std::span<const int64_t>(keys), &sel);
  EXPECT_EQ(sel.size(), keys.size());  // every inserted key survives
}

TEST_P(BloomLayoutTest, SerializationRoundTripPreservesLayout) {
  BloomFilter bloom(BloomParams::ForKeys(1000, 8.0, 2, GetParam()));
  const auto keys = RandomKeys(1000, 51, 1u << 20);
  bloom.AddKeys(std::span<const int64_t>(keys));
  const auto bytes = bloom.Serialize();
  EXPECT_EQ(bytes.size(), bloom.ByteSize());
  auto restored = BloomFilter::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->layout(), GetParam());
  EXPECT_TRUE(restored->params() == bloom.params());
  EXPECT_EQ(restored->Serialize(), bytes);
}

INSTANTIATE_TEST_SUITE_P(BothLayouts, BloomLayoutTest,
                         ::testing::Values(BloomLayout::kClassic,
                                           BloomLayout::kBlocked),
                         [](const auto& info) {
                           return info.param == BloomLayout::kClassic
                                      ? "Classic"
                                      : "Blocked";
                         });

// --------------------------- layout wire rules ----------------------------

TEST(BloomLayoutWireTest, UnionRejectsLayoutMismatch) {
  // Same bit count, different placement scheme: OR-union would be silently
  // wrong, so it must be rejected.
  BloomFilter classic(BloomParams{1024, 2, BloomLayout::kClassic});
  BloomFilter blocked(BloomParams{1024, 2, BloomLayout::kBlocked});
  EXPECT_FALSE(classic.UnionWith(blocked).ok());
  EXPECT_FALSE(blocked.UnionWith(classic).ok());
  BloomFilter blocked2(BloomParams{1024, 2, BloomLayout::kBlocked});
  EXPECT_TRUE(blocked.UnionWith(blocked2).ok());
}

TEST(BloomLayoutWireTest, DeserializeRejectsUnknownLayoutByte) {
  BloomFilter bloom(BloomParams{512, 2, BloomLayout::kBlocked});
  auto bytes = bloom.Serialize();
  bytes[12] = 7;  // layout byte follows u64 num_bits + u32 num_hashes
  EXPECT_FALSE(BloomFilter::Deserialize(bytes).ok());
}

TEST(BloomLayoutWireTest, DeserializeRejectsUnalignedBlockedBits) {
  // A blocked filter whose bit count is not a whole number of 512-bit
  // blocks cannot have been produced by this code; reject it.
  BinaryWriter w;
  w.PutU64(576);  // 512 + 64: valid classic size, invalid blocked size
  w.PutU32(2);
  w.PutU8(static_cast<uint8_t>(BloomLayout::kBlocked));
  for (int i = 0; i < 9; ++i) w.PutU64(0);
  const auto bytes = w.Release();
  EXPECT_FALSE(BloomFilter::Deserialize(bytes).ok());

  BinaryWriter w2;
  w2.PutU64(576);
  w2.PutU32(2);
  w2.PutU8(static_cast<uint8_t>(BloomLayout::kClassic));
  for (int i = 0; i < 9; ++i) w2.PutU64(0);
  EXPECT_TRUE(BloomFilter::Deserialize(w2.Release()).ok());
}

TEST(BloomLayoutWireTest, BlockedFprHigherButBounded) {
  // For equal size the blocked layout concentrates bits, so its predicted
  // FPR is above classic — but within the same order of magnitude at the
  // paper's 8 bits/key operating point.
  const BloomParams classic = BloomParams::ForKeys(1 << 16);
  const BloomParams blocked =
      BloomParams::ForKeys(1 << 16, 8.0, 2, BloomLayout::kBlocked);
  const double fc = classic.ExpectedFpr(1 << 16);
  const double fb = blocked.ExpectedFpr(1 << 16);
  EXPECT_GT(fb, fc);
  EXPECT_LT(fb, 4.0 * fc);

  // And the prediction tracks reality: measure on disjoint probe keys.
  BloomFilter bloom(blocked);
  const auto keys = RandomKeys(1 << 16, 61, 1ull << 50);
  bloom.AddKeys(std::span<const int64_t>(keys));
  Rng rng(62);
  size_t fp = 0;
  const size_t trials = 200000;
  for (size_t i = 0; i < trials; ++i) {
    // Probe keys outside the insert domain.
    if (bloom.MayContain(static_cast<int64_t>((1ull << 50) + rng.Uniform(
                             1ull << 50)))) {
      ++fp;
    }
  }
  const double observed = static_cast<double>(fp) / trials;
  EXPECT_LT(observed, 2.0 * fb);
  EXPECT_GT(observed, 0.25 * fb);
  // The fill-fraction estimate is in the same ballpark too.
  EXPECT_LT(bloom.EstimatedFpr(), 4.0 * fb);
  EXPECT_GT(bloom.EstimatedFpr(), 0.25 * fb);
}

// ------------------------------ ProbeBatch --------------------------------

RecordBatch KeyBatch(const std::vector<int64_t>& keys) {
  auto schema = Schema::Make({{"k", DataType::kInt64}});
  RecordBatch b(schema);
  for (int64_t k : keys) b.AppendRow({Value(k)});
  return b;
}

TEST(ProbeBatchTest, MatchesForEachMatchInExactOrder) {
  // Build from several batches with heavy duplication (long chains), probe
  // with adversarial sets; the batched kernel must emit the identical match
  // list — same triples, same order — as the scalar loop.
  JoinHashTable table(0);
  ASSERT_TRUE(table.AddBatch(KeyBatch(RandomKeys(3000, 71, 200))).ok());
  ASSERT_TRUE(table.AddBatch(KeyBatch(RandomKeys(3000, 72, 200))).ok());
  ASSERT_TRUE(table.AddBatch(KeyBatch({-1, -1, -1, 0, 7})).ok());
  table.Finalize();

  for (const auto& probe : AdversarialKeySets()) {
    std::vector<JoinMatch> expected;
    for (uint32_t i = 0; i < probe.size(); ++i) {
      table.ForEachMatch(probe[i], [&](uint32_t b, uint32_t r) {
        expected.push_back({i, b, r});
      });
    }
    std::vector<JoinMatch> got;
    table.ProbeBatch(std::span<const int64_t>(probe), &got);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].probe_row, expected[i].probe_row) << "at " << i;
      EXPECT_EQ(got[i].batch, expected[i].batch) << "at " << i;
      EXPECT_EQ(got[i].row, expected[i].row) << "at " << i;
    }
  }
}

TEST(ProbeBatchTest, Int32KeysMatchScalar) {
  auto schema = Schema::Make({{"k", DataType::kInt32}});
  RecordBatch b(schema);
  for (int32_t k : {-3, -3, 0, 5, 5, 5, 2000000000}) b.AppendRow({Value(k)});
  JoinHashTable table(0);
  ASSERT_TRUE(table.AddBatch(std::move(b)).ok());
  table.Finalize();

  std::vector<int32_t> probe = {-3, 5, 9, 2000000000, -3, 0};
  std::vector<JoinMatch> expected;
  for (uint32_t i = 0; i < probe.size(); ++i) {
    table.ForEachMatch(probe[i], [&](uint32_t bi, uint32_t r) {
      expected.push_back({i, bi, r});
    });
  }
  std::vector<JoinMatch> got;
  table.ProbeBatch(std::span<const int32_t>(probe), &got);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].probe_row, expected[i].probe_row);
    EXPECT_EQ(got[i].batch, expected[i].batch);
    EXPECT_EQ(got[i].row, expected[i].row);
  }
}

TEST(ProbeBatchTest, AppendsToExistingMatches) {
  JoinHashTable table(0);
  ASSERT_TRUE(table.AddBatch(KeyBatch({1, 2})).ok());
  table.Finalize();
  std::vector<JoinMatch> out = {{99, 99, 99}};
  std::vector<int64_t> probe = {1};
  table.ProbeBatch(std::span<const int64_t>(probe), &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].probe_row, 99u);  // pre-existing entry untouched
  EXPECT_EQ(out[1].probe_row, 0u);
}

TEST(ProbeBatchTest, EmptyTableAndEmptyBatch) {
  JoinHashTable empty(0);
  empty.Finalize();
  std::vector<JoinMatch> out;
  std::vector<int64_t> probe = {1, 2, 3};
  empty.ProbeBatch(std::span<const int64_t>(probe), &out);
  EXPECT_TRUE(out.empty());

  JoinHashTable table(0);
  ASSERT_TRUE(table.AddBatch(KeyBatch({1, 2, 3})).ok());
  table.Finalize();
  table.ProbeBatch(std::span<const int64_t>(), &out);
  EXPECT_TRUE(out.empty());
}

TEST(ProbeBatchTest, ContainsEarlyExitAgreesWithForEachMatch) {
  JoinHashTable table(0);
  const auto keys = RandomKeys(4000, 81, 500);
  ASSERT_TRUE(table.AddBatch(KeyBatch(keys)).ok());
  table.Finalize();
  for (int64_t k = -10; k < 520; ++k) {
    bool any = false;
    table.ForEachMatch(k, [&](uint32_t, uint32_t) { any = true; });
    EXPECT_EQ(table.Contains(k), any) << "key " << k;
  }
}

TEST(ProbeBatchTest, BuildShapeStats) {
  JoinHashTable table(0);
  std::vector<int64_t> keys(100, 42);  // one key, chain of 100
  for (int64_t k = 0; k < 28; ++k) keys.push_back(k);
  ASSERT_TRUE(table.AddBatch(KeyBatch(keys)).ok());
  table.Finalize();
  EXPECT_GE(table.num_buckets(), 2 * table.num_rows() / 2);  // pow2 >= 2x
  EXPECT_GT(table.load_factor(), 0.0);
  EXPECT_LE(table.load_factor(), 0.5 + 1e-9);
  EXPECT_GE(table.max_chain_length(), 100u);  // the duplicate chain

  JoinHashTable empty(0);
  empty.Finalize();
  EXPECT_EQ(empty.load_factor(), 0.0);
  EXPECT_EQ(empty.max_chain_length(), 0u);
}

// ------------------------------- ProbeBand --------------------------------

constexpr int32_t kI32Min = std::numeric_limits<int32_t>::min();
constexpr int32_t kI32Max = std::numeric_limits<int32_t>::max();
constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

SchemaPtr BandBuildSchema() {
  return Schema::Make({{"k", DataType::kInt64}, {"x", DataType::kInt32}});
}

/// Build batches with paper-like runs (about 40 rows per key over a narrow
/// band domain) plus the edge shapes: keys with one row, a key whose rows
/// all share one band value, and band values at the int32 extremes.
std::vector<RecordBatch> BandBuildBatches() {
  Rng rng(91);
  std::vector<RecordBatch> batches;
  for (int b = 0; b < 3; ++b) {
    RecordBatch batch(BandBuildSchema());
    for (int i = 0; i < 800; ++i) {
      batch.AppendRow({Value(static_cast<int64_t>(rng.Uniform(60))),
                       Value(static_cast<int32_t>(rng.Uniform(30)))});
    }
    batches.push_back(std::move(batch));
  }
  RecordBatch edges(BandBuildSchema());
  for (int64_t k = 1000; k < 1010; ++k) {
    edges.AppendRow({Value(k), Value(static_cast<int32_t>(k % 7))});
  }
  for (int i = 0; i < 50; ++i) {
    edges.AppendRow({Value(int64_t{2000}), Value(int32_t{7})});
  }
  for (int32_t x : {kI32Min, kI32Max, 0, kI32Min, kI32Max, -1}) {
    edges.AppendRow({Value(int64_t{3000}), Value(x)});
  }
  batches.push_back(std::move(edges));
  return batches;
}

struct BandProbe {
  std::vector<int64_t> keys;
  std::vector<int32_t> values;
};

BandProbe BandProbeRows() {
  BandProbe p;
  Rng rng(92);
  for (int i = 0; i < 600; ++i) {
    p.keys.push_back(static_cast<int64_t>(rng.Uniform(70)));  // some miss
    p.values.push_back(static_cast<int32_t>(rng.Uniform(34)) - 2);
  }
  for (int64_t k : {1000, 1003, 1009, 2000, 2000, 3000, 3000, 3000, 3000}) {
    for (int32_t v : {kI32Min, -1, 0, 7, 8, kI32Max}) {
      p.keys.push_back(k);
      p.values.push_back(v);
    }
  }
  return p;
}

/// The oracle: every equi-match in ForEachMatch order, then the DiffRange
/// test evaluated as written (`probe_first`: p - x, else x - p).
std::vector<JoinMatch> EquiThenDiffRange(const JoinHashTable& table,
                                         const BandProbe& probe,
                                         bool probe_first, int64_t lo,
                                         int64_t hi) {
  std::vector<JoinMatch> out;
  for (uint32_t i = 0; i < probe.keys.size(); ++i) {
    table.ForEachMatch(probe.keys[i], [&](uint32_t b, uint32_t r) {
      const int64_t x = table.batches()[b].column(1).i32()[r];
      const int64_t p = probe.values[i];
      const int64_t diff = probe_first ? p - x : x - p;
      if (diff >= lo && diff <= hi) out.push_back({i, b, r});
    });
  }
  return out;
}

TEST(ProbeBandTest, EqualsEveryEquiMatchThenDiffRangeInOrder) {
  const BandProbe probe = BandProbeRows();
  const SchemaPtr joined = Schema::Make(
      {{"B.k", DataType::kInt64}, {"B.x", DataType::kInt32},
       {"P.k", DataType::kInt64}, {"P.v", DataType::kInt32}});
  const std::vector<std::pair<int64_t, int64_t>> ranges = {
      {0, 1},         {-1, 0},           {-5, 20},       {-3, -2},
      {1, 0},         {kI64Min, kI64Max}, {kI64Min, 0},  {0, kI64Max},
      {kI64Min, kI64Min}, {kI64Max, kI64Max}, {kI64Max, kI64Min}};
  for (uint32_t shards : {1u, 16u}) {
    JoinHashTable table(0, shards, /*governor=*/nullptr, /*band_column=*/1);
    for (RecordBatch& b : BandBuildBatches()) {
      ASSERT_TRUE(table.AddBatch(std::move(b)).ok());
    }
    table.Finalize();
    std::vector<JoinMatch> equi;
    table.ProbeBatch(std::span<const int64_t>(probe.keys), &equi);

    for (bool probe_first : {true, false}) {
      for (const auto& [lo, hi] : ranges) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " probe_first=" + std::to_string(probe_first) +
                     " lo=" + std::to_string(lo) + " hi=" + std::to_string(hi));
        const PredicatePtr pred = probe_first ? DiffRange("P.v", "B.x", lo, hi)
                                              : DiffRange("B.x", "P.v", lo, hi);
        const auto band = ExtractJoinBand(pred, joined, 2);
        ASSERT_TRUE(band.has_value());
        EXPECT_EQ(band->build_column, 1u);
        EXPECT_EQ(band->probe_column, 1u);
        EXPECT_EQ(band->residual, nullptr);

        const std::vector<JoinMatch> expected =
            EquiThenDiffRange(table, probe, probe_first, lo, hi);
        std::vector<JoinMatch> got;
        JoinHashTable::BandStats stats;
        table.ProbeBand(std::span<const int64_t>(probe.keys),
                        std::span<const int32_t>(probe.values),
                        band->lo_offset, band->hi_offset, &got, &stats);
        EXPECT_EQ(stats.equi_matches, static_cast<int64_t>(equi.size()));
        EXPECT_GE(stats.visited, static_cast<int64_t>(got.size()));
        EXPECT_LE(stats.visited, static_cast<int64_t>(equi.size()));
        ASSERT_EQ(got.size(), expected.size());
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].probe_row, expected[i].probe_row) << "at " << i;
          ASSERT_EQ(got[i].batch, expected[i].batch) << "at " << i;
          ASSERT_EQ(got[i].row, expected[i].row) << "at " << i;
        }
        // The order contract: per probe row, band ascending, ties in
        // insertion order.
        for (size_t i = 1; i < got.size(); ++i) {
          if (got[i].probe_row != got[i - 1].probe_row) continue;
          const auto band_of = [&](const JoinMatch& m) {
            return table.batches()[m.batch].column(1).i32()[m.row];
          };
          const int32_t prev = band_of(got[i - 1]);
          const int32_t cur = band_of(got[i]);
          ASSERT_LE(prev, cur) << "at " << i;
          if (prev == cur) {
            ASSERT_LT(std::make_pair(got[i - 1].batch, got[i - 1].row),
                      std::make_pair(got[i].batch, got[i].row))
                << "at " << i;
          }
        }
      }
    }
  }
}

TEST(ProbeBandTest, Int32KeysMatchInt64Keys) {
  const BandProbe probe = BandProbeRows();
  std::vector<int32_t> keys32(probe.keys.begin(), probe.keys.end());
  JoinHashTable table(0, 4, /*governor=*/nullptr, /*band_column=*/1);
  for (RecordBatch& b : BandBuildBatches()) {
    ASSERT_TRUE(table.AddBatch(std::move(b)).ok());
  }
  table.Finalize();
  std::vector<JoinMatch> want, got;
  JoinHashTable::BandStats want_stats, got_stats;
  table.ProbeBand(std::span<const int64_t>(probe.keys),
                  std::span<const int32_t>(probe.values), -1, 0, &want,
                  &want_stats);
  table.ProbeBand(std::span<const int32_t>(keys32),
                  std::span<const int32_t>(probe.values), -1, 0, &got,
                  &got_stats);
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].probe_row, want[i].probe_row);
    EXPECT_EQ(got[i].batch, want[i].batch);
    EXPECT_EQ(got[i].row, want[i].row);
  }
  EXPECT_EQ(got_stats.equi_matches, want_stats.equi_matches);
  EXPECT_EQ(got_stats.visited, want_stats.visited);
}

TEST(ProbeBandTest, WithoutBandColumnMatchesKeepInsertionOrder) {
  JoinHashTable table(0, 16);
  for (RecordBatch& b : BandBuildBatches()) {
    ASSERT_TRUE(table.AddBatch(std::move(b)).ok());
  }
  table.Finalize();
  for (int64_t k : {0, 17, 59, 1004, 2000, 3000}) {
    std::vector<std::pair<uint32_t, uint32_t>> order;
    table.ForEachMatch(k, [&](uint32_t b, uint32_t r) {
      order.emplace_back(b, r);
    });
    ASSERT_FALSE(order.empty()) << "key " << k;
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end())) << "key " << k;
  }
}

TEST(ProbeBandTest, RejectsNonInt32BandColumn) {
  JoinHashTable table(0, 1, /*governor=*/nullptr, /*band_column=*/0);
  EXPECT_FALSE(table.AddBatch(KeyBatch({1, 2})).ok());  // int64 band column
  JoinHashTable missing(0, 1, /*governor=*/nullptr, /*band_column=*/5);
  EXPECT_FALSE(missing.AddBatch(KeyBatch({1, 2})).ok());
  EXPECT_EQ(missing.num_rows(), 0u);
}

// ----------------------------- Finalize order -----------------------------

/// Build batches of (key, band) over `keys` distinct keys (so many buckets
/// hold several keys and most keys several rows) with bands drawn from
/// [band_lo, band_lo + band_span], plus a key whose rows all share one
/// band. With `extremes`, the bands INT32_MIN and INT32_MAX appear too.
std::vector<RecordBatch> FinalizeBatches(uint64_t keys, int32_t band_lo,
                                         uint32_t band_span, bool extremes) {
  Rng rng(keys + band_span);
  std::vector<RecordBatch> batches;
  for (int b = 0; b < 3; ++b) {
    RecordBatch batch(BandBuildSchema());
    for (int i = 0; i < 2000; ++i) {
      const auto band = static_cast<int32_t>(
          int64_t{band_lo} +
          static_cast<int64_t>(rng.Uniform(uint64_t{band_span} + 1)));
      batch.AppendRow(
          {Value(static_cast<int64_t>(rng.Uniform(keys))), Value(band)});
    }
    batches.push_back(std::move(batch));
  }
  RecordBatch edges(BandBuildSchema());
  for (int i = 0; i < 40; ++i) {
    edges.AppendRow({Value(int64_t{-77}), Value(band_lo)});
  }
  if (extremes) {
    for (int32_t x : {kI32Max, kI32Min, kI32Max, 0, kI32Min}) {
      edges.AppendRow({Value(int64_t{5}), Value(x)});
    }
  }
  batches.push_back(std::move(edges));
  return batches;
}

TEST(FinalizeOrderTest, RunsAreInKeyBandBatchRowOrder) {
  struct Bands {
    const char* name;
    int32_t lo;
    uint32_t span;  ///< 0: every band equal
    bool extremes;
    bool banded = true;  ///< false: a table without a band column
  };
  const Bands kBands[] = {
      {"one band", 12, 0, false},
      {"under one digit", -100, 200, false},
      {"two digits", 16000, 40000, false},
      {"full int32", kI32Min, std::numeric_limits<uint32_t>::max(), true},
      {"no band column", 16000, 40000, false, false},
  };
  using Entry = JoinHashTable::Entry;
  auto before = [](const Entry& x, const Entry& y) {
    return std::tie(x.key, x.band, x.batch, x.row) <
           std::tie(y.key, y.band, y.batch, y.row);
  };
  ThreadPool pool(3);
  for (const Bands& bands : kBands) {
    for (uint32_t shards : {1u, 16u}) {
      for (bool parallel : {false, true}) {
        SCOPED_TRACE(std::string(bands.name) +
                     " shards=" + std::to_string(shards) +
                     (parallel ? " AddBatchesParallel" : " AddBatch"));
        JoinHashTable table(0, shards, /*governor=*/nullptr,
                            bands.banded ? std::optional<size_t>(1)
                                         : std::nullopt);
        std::vector<RecordBatch> batches =
            FinalizeBatches(4000, bands.lo, bands.span, bands.extremes);
        if (parallel) {
          ASSERT_TRUE(
              table.AddBatchesParallel(std::move(batches), &pool).ok());
          ASSERT_TRUE(table.FinalizeParallel(&pool).ok());
        } else {
          for (RecordBatch& b : batches) {
            ASSERT_TRUE(table.AddBatch(std::move(b)).ok());
          }
          table.Finalize();
        }
        // Every run is strictly ordered by the comparator, every entry
        // names its own row, each row appears once and each key in one run.
        size_t entries = 0;
        size_t shared_runs = 0;
        std::vector<std::vector<bool>> seen;
        for (const RecordBatch& b : table.batches()) {
          seen.emplace_back(b.num_rows(), false);
        }
        std::map<int64_t, std::pair<uint32_t, size_t>> run_of_key;
        for (uint32_t s = 0; s < table.num_shards(); ++s) {
          for (size_t bucket = 0; bucket < table.shard_buckets(s); ++bucket) {
            const std::span<const Entry> run = table.BucketRun(s, bucket);
            for (size_t i = 0; i < run.size(); ++i) {
              const Entry& e = run[i];
              if (i > 0) {
                ASSERT_TRUE(before(run[i - 1], e))
                    << "shard " << s << " bucket " << bucket << " at " << i;
              }
              const RecordBatch& b = table.batches()[e.batch];
              ASSERT_EQ(e.key, b.column(0).i64()[e.row]);
              ASSERT_EQ(e.band, bands.banded ? b.column(1).i32()[e.row] : 0);
              ASSERT_FALSE(seen[e.batch][e.row]);
              seen[e.batch][e.row] = true;
              const auto [it, fresh] =
                  run_of_key.try_emplace(e.key, s, bucket);
              ASSERT_TRUE(fresh || it->second == std::make_pair(s, bucket))
                  << "key " << e.key << " in two runs";
            }
            if (!run.empty() && run.front().key != run.back().key) {
              ++shared_runs;
            }
            entries += run.size();
          }
        }
        EXPECT_EQ(entries, table.num_rows());
        EXPECT_GT(shared_runs, 0u) << "no bucket held two keys";
      }
    }
  }
}

// ------------------------------ BufferPool --------------------------------

TEST(BufferPoolTest, RecyclesCapacityThroughShare) {
  auto pool = BufferPool::Create();
  EXPECT_EQ(pool->free_buffers(), 0u);
  EXPECT_TRUE(pool->Acquire().empty());  // empty pool hands out fresh buffers

  std::vector<uint8_t> buf(4096, 0xab);
  const uint8_t* storage = buf.data();
  {
    auto shared = pool->Share(std::move(buf));
    EXPECT_EQ(shared->size(), 4096u);
    EXPECT_EQ(pool->free_buffers(), 0u);  // still held by the payload
  }
  EXPECT_EQ(pool->free_buffers(), 1u);  // released -> recycled

  std::vector<uint8_t> reused = pool->Acquire();
  EXPECT_TRUE(reused.empty());
  EXPECT_GE(reused.capacity(), 4096u);  // same allocation, cleared
  EXPECT_EQ(reused.data(), storage);
  EXPECT_EQ(pool->free_buffers(), 0u);
}

TEST(BufferPoolTest, PayloadOutlivesPoolHandle) {
  std::shared_ptr<const std::vector<uint8_t>> payload;
  {
    auto pool = BufferPool::Create();
    payload = pool->Share(std::vector<uint8_t>{1, 2, 3});
  }  // pool handle dropped; deleter keeps the pool alive
  ASSERT_EQ(payload->size(), 3u);
  EXPECT_EQ((*payload)[2], 3);
  payload.reset();  // recycles into the (now unreachable) pool, then frees
}

TEST(BufferPoolTest, BoundedFreeList) {
  auto pool = BufferPool::Create(/*max_buffers=*/2);
  for (int i = 0; i < 5; ++i) {
    pool->Share(std::vector<uint8_t>(16, 1)).reset();
  }
  EXPECT_EQ(pool->free_buffers(), 2u);
}

}  // namespace
}  // namespace hybridjoin
