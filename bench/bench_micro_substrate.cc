// Micro-benchmarks (google-benchmark) for the substrate components whose
// costs drive the macro results: Bloom filter ops, the LZ codec, text
// parsing vs columnar decoding (per paper-L column too), hash-table
// build/probe, and batch serde.
//
// Besides the google-benchmark suite, main() first runs fixed before/after
// comparisons of the batched cache-conscious kernels against their scalar
// baselines, of the late-materializing paper-L scan decode against an eager
// one, and of the band walk against filtering every equi-match, and writes
// them to BENCH_kernels.json (path overridable with
// --kernels_out=FILE); CI uploads that file as the perf-trend artifact.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>

#include "bloom/bloom_filter.h"
#include "common/compress.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "exec/join_prober.h"
#include "hdfs/format.h"
#include "workload/generator.h"

namespace hybridjoin {
namespace {

void BM_BloomAdd(benchmark::State& state) {
  BloomFilter bloom(BloomParams::ForKeys(1 << 16));
  int64_t key = 0;
  for (auto _ : state) {
    bloom.Add(key++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomAdd);

void BM_BloomMayContain(benchmark::State& state) {
  BloomFilter bloom(BloomParams::ForKeys(1 << 16));
  for (int64_t k = 0; k < (1 << 16); k += 2) bloom.Add(k);
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bloom.MayContain(key++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomMayContain);

void BM_BloomUnion(benchmark::State& state) {
  BloomFilter a(BloomParams::ForKeys(1 << 16));
  BloomFilter b(BloomParams::ForKeys(1 << 16));
  for (int64_t k = 0; k < 1000; ++k) b.Add(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.UnionWith(b));
  }
  state.SetBytesProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_BloomUnion);

std::vector<uint8_t> LogLikeBytes(size_t n) {
  Rng rng(1);
  std::string s;
  while (s.size() < n) {
    s += "g" + std::to_string(rng.Uniform(200)) + "/products/item" +
         std::to_string(rng.Uniform(100000)) + "|";
  }
  return std::vector<uint8_t>(s.begin(), s.begin() + n);
}

void BM_LzCompress(benchmark::State& state) {
  const auto input = LogLikeBytes(1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzCompress(input));
  }
  state.SetBytesProcessed(state.iterations() * input.size());
}
BENCHMARK(BM_LzCompress);

void BM_LzDecompress(benchmark::State& state) {
  const auto compressed = LzCompress(LogLikeBytes(1 << 20));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzDecompress(compressed));
  }
  state.SetBytesProcessed(state.iterations() * (1 << 20));
}
BENCHMARK(BM_LzDecompress);

RecordBatch LogBatch(size_t rows) {
  auto schema = Schema::Make({{"joinKey", DataType::kInt32},
                              {"pred", DataType::kInt32},
                              {"date", DataType::kDate},
                              {"grp", DataType::kString}});
  RecordBatch b(schema);
  Rng rng(2);
  for (size_t i = 0; i < rows; ++i) {
    b.AppendRow({Value(static_cast<int32_t>(rng.Uniform(10000))),
                 Value(static_cast<int32_t>(rng.Uniform(1000000))),
                 Value(static_cast<int32_t>(16000 + rng.Uniform(30))),
                 Value("g" + std::to_string(rng.Uniform(200)) + "/item" +
                       std::to_string(rng.Uniform(100000)))});
  }
  return b;
}

void BM_TextParse(benchmark::State& state) {
  RecordBatch batch = LogBatch(10000);
  const auto text = EncodeText(batch);
  const std::vector<size_t> all = {0, 1, 2, 3};
  for (auto _ : state) {
    auto decoded = DecodeText(text.data(), text.size(), batch.schema(), all);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_TextParse);

void BM_ColumnarDecode(benchmark::State& state) {
  RecordBatch batch = LogBatch(10000);
  const auto block = EncodeColumnarBlock(batch, ColumnarWriteOptions{});
  const std::vector<size_t> all = {0, 1, 2, 3};
  for (auto _ : state) {
    auto decoded = DecodeColumnarBlock(block, batch.schema(), all);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() * block.ByteSize());
}
BENCHMARK(BM_ColumnarDecode);

void BM_ColumnarDecodeProjected(benchmark::State& state) {
  RecordBatch batch = LogBatch(10000);
  const auto block = EncodeColumnarBlock(batch, ColumnarWriteOptions{});
  const std::vector<size_t> narrow = {0};
  for (auto _ : state) {
    auto decoded = DecodeColumnarBlock(block, batch.schema(), narrow);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_ColumnarDecodeProjected);

/// One 16K-row block of the generated paper L table, as the JEN scan reads
/// it, with the paper query's L predicate at sigma_L = 0.05.
struct PaperLBlock {
  static constexpr uint32_t kRows = 16 * 1024;
  RecordBatch rows;
  StoredBlock block;
  PredicatePtr predicate;
  // The scan's split: both conjuncts (corPred, indPred) run on the encoded
  // chunks and leave no residual, so the projection (joinKey, predAfterJoin,
  // groupByExtractCol) is decoded only at the rows they keep.
  PushdownSplit split;
  std::vector<size_t> projection = {0, 3, 4};

  static const PaperLBlock& Get() {
    static const PaperLBlock* block = [] {
      WorkloadConfig config;
      config.t_rows = 4096;
      config.l_rows = kRows;
      config.batch_rows = kRows;
      SelectivitySpec spec;
      spec.sigma_l = 0.05;
      auto workload = Workload::Generate(config, spec);
      HJ_CHECK(workload.ok()) << workload.status().ToString();
      auto* b = new PaperLBlock;
      b->rows = workload->l_batches().front();
      b->block.format = HdfsFormat::kColumnar;
      b->block.num_rows = kRows;
      b->block.columnar = std::make_shared<const ColumnarBlock>(
          EncodeColumnarBlock(b->rows, ColumnarWriteOptions{}));
      b->predicate = workload->MakeQuery().hdfs.predicate;
      b->split = SplitPushdown(b->predicate, b->rows.schema());
      HJ_CHECK(b->split.residual == nullptr);
      return b;
    }();
    return *block;
  }

  std::vector<ScanStage> Stages() const { return {{projection, nullptr}}; }
};

// The JEN scan kernel on paper L: the block decoded with the scan's
// pushed conjuncts and stages.
void BM_DecodeBlockFilteredPaperL(benchmark::State& state) {
  const PaperLBlock& l = PaperLBlock::Get();
  const std::vector<ScanStage> stages = l.Stages();
  std::vector<uint32_t> sel;
  size_t survivors = 0;
  for (auto _ : state) {
    auto out = DecodeBlockFiltered(l.block, l.rows.schema(), l.split.pushed,
                                   stages, &sel);
    survivors = out.ok() ? out->num_rows() : 0;
    benchmark::DoNotOptimize(out);
  }
  state.counters["survivor_frac"] =
      static_cast<double>(survivors) / PaperLBlock::kRows;
  state.SetItemsProcessed(state.iterations() * PaperLBlock::kRows);
}
BENCHMARK(BM_DecodeBlockFilteredPaperL);

// One paper-L column of the block above (arg 0: schema index): its stored
// bytes per row and encoding, decoded whole (arg 1 = 0) or only at the
// rows the scan's predicate keeps (arg 1 = 1), as a late column is.
void BM_DecodePaperLColumn(benchmark::State& state) {
  const PaperLBlock& l = PaperLBlock::Get();
  const size_t column = static_cast<size_t>(state.range(0));
  const bool selected = state.range(1) != 0;
  const ColumnChunk& chunk = l.block.columnar->chunks[column];
  std::vector<uint32_t> sel(PaperLBlock::kRows);
  std::iota(sel.begin(), sel.end(), 0u);
  HJ_CHECK(l.predicate->Filter(l.rows, &sel).ok());
  const DataType type = l.rows.schema()->field(column).type;
  for (auto _ : state) {
    auto out = DecodeColumnChunk(chunk, type, selected ? &sel : nullptr);
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(l.rows.schema()->field(column).name + " " +
                 ColEncodingName(chunk.encoding) + "+" +
                 CodecName(chunk.codec));
  state.counters["bytes_per_row"] =
      static_cast<double>(chunk.data.size()) / PaperLBlock::kRows;
  state.SetItemsProcessed(state.iterations() * PaperLBlock::kRows);
}
BENCHMARK(BM_DecodePaperLColumn)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {0, 1}})
    ->ArgNames({"col", "sel"});

void BM_HashTableBuild(benchmark::State& state) {
  // Args: rows, shards, and whether the table is ordered by the date band
  // (the zigzag join's L' table: 16 shards, a 30-day band).
  RecordBatch batch = LogBatch(static_cast<size_t>(state.range(0)));
  const auto shards = static_cast<uint32_t>(state.range(1));
  const std::optional<size_t> band =
      state.range(2) != 0 ? std::optional<size_t>(2) : std::nullopt;
  for (auto _ : state) {
    JoinHashTable table(0, shards, /*governor=*/nullptr, band);
    RecordBatch copy = batch;
    benchmark::DoNotOptimize(table.AddBatch(std::move(copy)));
    table.Finalize();
    benchmark::DoNotOptimize(table.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashTableBuild)
    ->Args({10000, 1, 0})
    ->Args({100000, 1, 0})
    ->Args({100000, 16, 1})
    ->ArgNames({"rows", "shards", "band"});

void BM_ProbeAggregate(benchmark::State& state) {
  // The JEN back half of the paper's query: T' probes the band-ordered L'
  // table, DiffRange(T.date - L.date, 0, 1) keeps the band, and every
  // survivor folds into COUNT(*) by extract_group(L.grp). Items are probe
  // rows.
  constexpr size_t kBuildRows = 100000;
  constexpr size_t kProbeRows = 1 << 15;
  constexpr size_t kBatchRows = 4096;
  const RecordBatch build = LogBatch(kBuildRows);
  JoinHashTable table(0, 16, /*governor=*/nullptr, /*band_column=*/2);
  HJ_CHECK_OK(table.AddBatch(build));
  table.Finalize();
  auto probe_schema =
      Schema::Make({{"joinKey", DataType::kInt32}, {"date", DataType::kDate}});
  Rng rng(106);
  std::vector<RecordBatch> probe;
  for (size_t i = 0; i < kProbeRows; ++i) {
    if (i % kBatchRows == 0) probe.emplace_back(probe_schema);
    probe.back().mutable_column(0).mutable_i32().push_back(
        static_cast<int32_t>(rng.Uniform(10000)));
    probe.back().mutable_column(1).mutable_i32().push_back(
        static_cast<int32_t>(16000 + rng.Uniform(30)));
  }
  const PredicatePtr band = DiffRange("T.date", "L.date", 0, 1);
  const AggSpec spec = AggSpec::CountStar("L.grp", /*extract_group=*/true);
  int64_t rows = 0;
  for (auto _ : state) {
    HashAggregator agg(spec);
    JoinProber prober(&table, build.schema(), "L", probe_schema, "T", 0, band,
                      &agg, nullptr);
    for (const RecordBatch& b : probe) HJ_CHECK_OK(prober.ProbeBatch(b));
    HJ_CHECK_OK(prober.Flush());
    rows = prober.output_rows();
    benchmark::DoNotOptimize(agg.num_groups());
  }
  state.counters["joined_rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(state.iterations() * kProbeRows);
}
BENCHMARK(BM_ProbeAggregate);

void BM_HashTableProbe(benchmark::State& state) {
  RecordBatch batch = LogBatch(100000);
  JoinHashTable table(0);
  {
    RecordBatch copy = batch;
    (void)table.AddBatch(std::move(copy));
  }
  table.Finalize();
  int32_t key = 0;
  for (auto _ : state) {
    int64_t count = 0;
    table.ForEachMatch(key++ % 10000, [&](uint32_t, uint32_t) { ++count; });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashTableProbe);

void BM_BloomAddBatchedBlocked(benchmark::State& state) {
  const auto params =
      BloomParams::ForKeys(1 << 16, 8.0, 2, BloomLayout::kBlocked);
  Rng rng(3);
  std::vector<int64_t> keys(4096);
  for (auto& k : keys) k = static_cast<int64_t>(rng.Uniform(1u << 20));
  for (auto _ : state) {
    BloomFilter bloom(params);
    bloom.AddKeys(std::span<const int64_t>(keys));
    benchmark::DoNotOptimize(bloom.FillRatio());
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_BloomAddBatchedBlocked);

void BM_BloomMayContainBatchedBlocked(benchmark::State& state) {
  BloomFilter bloom(
      BloomParams::ForKeys(1 << 16, 8.0, 2, BloomLayout::kBlocked));
  for (int64_t k = 0; k < (1 << 16); k += 2) bloom.Add(k);
  Rng rng(4);
  std::vector<int64_t> keys(4096);
  for (auto& k : keys) k = static_cast<int64_t>(rng.Uniform(1u << 17));
  std::vector<uint32_t> sel;
  for (auto _ : state) {
    sel.resize(keys.size());
    std::iota(sel.begin(), sel.end(), 0u);
    bloom.MayContainKeys(std::span<const int64_t>(keys), &sel);
    benchmark::DoNotOptimize(sel.size());
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_BloomMayContainBatchedBlocked);

void BM_HashTableProbeBatch(benchmark::State& state) {
  RecordBatch batch = LogBatch(100000);
  JoinHashTable table(0);
  {
    RecordBatch copy = batch;
    (void)table.AddBatch(std::move(copy));
  }
  table.Finalize();
  std::vector<int32_t> keys(4096);
  Rng rng(5);
  for (auto& k : keys) k = static_cast<int32_t>(rng.Uniform(10000));
  std::vector<JoinMatch> matches;
  for (auto _ : state) {
    matches.clear();
    table.ProbeBatch(std::span<const int32_t>(keys), &matches);
    benchmark::DoNotOptimize(matches.size());
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_HashTableProbeBatch);

void BM_BatchSerde(benchmark::State& state) {
  RecordBatch batch = LogBatch(10000);
  for (auto _ : state) {
    auto bytes = batch.Serialize();
    auto decoded = RecordBatch::Deserialize(bytes, batch.schema());
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() * batch.ByteSize());
}
BENCHMARK(BM_BatchSerde);

// ------------------- kernel before/after comparisons -----------------------
// Fixed scalar-vs-batched measurements at a working-set size that exceeds L2
// (a 4 MB filter / 1M-row hash table), reported as BENCH_kernels.json. The
// scalar baselines run the exact pre-batching code path (classic layout,
// per-row ForEachMatch + per-cell AppendFrom); the candidates run what the
// join drivers now execute (blocked layout, AddKeys/MayContainKeys,
// ProbeBatch + columnar gather). The scan-decode row compares eager and late decode of
// one paper-L block; the band row compares the paper's post-join band
// filtered after the equi-join against the band walk.

struct KernelResult {
  std::string name;
  size_t keys;
  double baseline_mkeys;
  double candidate_mkeys;
  double speedup() const { return candidate_mkeys / baseline_mkeys; }
};

template <typename Fn>
double BestSeconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.ElapsedSeconds());
  }
  return best;
}

// The Bloom kernels are measured on a filter sized for 64M distinct keys
// (64 MB at the paper's 8 bits/key) — far past L2 and the STLB reach, which
// is the regime the prefetch pipeline targets and roughly the paper's 16M-
// key operating point times the fan-in a combined global filter sees.
constexpr size_t kBloomFilterKeys = 64ull << 20;
constexpr size_t kBloomOpKeys = 8ull << 20;

KernelResult CompareBloomAdd() {
  Rng rng(101);
  std::vector<int64_t> keys(kBloomOpKeys);
  for (auto& k : keys) k = static_cast<int64_t>(rng.Next());
  const auto classic = BloomParams::ForKeys(kBloomFilterKeys);
  const auto blocked =
      BloomParams::ForKeys(kBloomFilterKeys, 8.0, 2, BloomLayout::kBlocked);

  const double base = BestSeconds(3, [&] {
    BloomFilter bloom(classic);
    for (int64_t k : keys) bloom.Add(k);
    benchmark::DoNotOptimize(bloom.FillRatio());
  });
  const double cand = BestSeconds(3, [&] {
    BloomFilter bloom(blocked);
    bloom.AddKeys(std::span<const int64_t>(keys));
    benchmark::DoNotOptimize(bloom.FillRatio());
  });
  return {"bloom_add", kBloomOpKeys, kBloomOpKeys / base / 1e6,
          kBloomOpKeys / cand / 1e6};
}

KernelResult CompareBloomProbe() {
  Rng rng(102);
  BloomFilter classic(BloomParams::ForKeys(kBloomFilterKeys));
  BloomFilter blocked(
      BloomParams::ForKeys(kBloomFilterKeys, 8.0, 2, BloomLayout::kBlocked));
  // Fill both to the design point (n = expected keys) in streamed chunks.
  std::vector<int64_t> chunk(kBloomOpKeys);
  for (size_t done = 0; done < kBloomFilterKeys; done += chunk.size()) {
    for (auto& k : chunk) {
      k = static_cast<int64_t>(rng.Uniform(2 * kBloomFilterKeys));
    }
    classic.AddKeys(std::span<const int64_t>(chunk));
    blocked.AddKeys(std::span<const int64_t>(chunk));
  }
  std::vector<int64_t> probe(kBloomOpKeys);
  for (auto& k : probe) {
    k = static_cast<int64_t>(rng.Uniform(4 * kBloomFilterKeys));
  }

  const double base = BestSeconds(3, [&] {
    size_t hits = 0;
    for (int64_t k : probe) hits += classic.MayContain(k);
    benchmark::DoNotOptimize(hits);
  });
  std::vector<uint32_t> sel;
  const double cand = BestSeconds(3, [&] {
    sel.resize(probe.size());
    std::iota(sel.begin(), sel.end(), 0u);
    blocked.MayContainKeys(std::span<const int64_t>(probe), &sel);
    benchmark::DoNotOptimize(sel.size());
  });
  return {"bloom_probe", kBloomOpKeys, kBloomOpKeys / base / 1e6,
          kBloomOpKeys / cand / 1e6};
}

KernelResult CompareHtProbeMaterialize() {
  // One 1M-row build batch (int64 key + two numeric payloads), 2M probe
  // keys at ~50% hit rate, materialized in 4096-row output chunks the way
  // JoinProber gathers a residual's columns.
  constexpr size_t kBuildRows = 1 << 20;
  constexpr size_t kProbeKeys = 2 << 20;
  constexpr size_t kChunk = 4096;
  auto schema = Schema::Make({{"k", DataType::kInt64},
                              {"p1", DataType::kInt64},
                              {"p2", DataType::kFloat64}});
  RecordBatch build(schema);
  {
    Rng rng(103);
    auto& k = build.mutable_column(0);
    auto& p1 = build.mutable_column(1);
    auto& p2 = build.mutable_column(2);
    for (size_t i = 0; i < kBuildRows; ++i) {
      k.AppendValue(Value(static_cast<int64_t>(rng.Uniform(kBuildRows))));
      p1.AppendValue(Value(static_cast<int64_t>(i)));
      p2.AppendValue(Value(static_cast<double>(i) * 0.5));
    }
  }
  JoinHashTable table(0);
  {
    RecordBatch copy = build;
    (void)table.AddBatch(std::move(copy));
  }
  table.Finalize();
  const RecordBatch& stored = table.batches()[0];

  Rng rng(104);
  std::vector<int64_t> probe(kProbeKeys);
  for (auto& k : probe) k = static_cast<int64_t>(rng.Uniform(2 * kBuildRows));

  size_t base_rows = 0;
  const double base = BestSeconds(3, [&] {
    base_rows = 0;
    RecordBatch out(schema);
    for (size_t i = 0; i < probe.size(); ++i) {
      table.ForEachMatch(probe[i], [&](uint32_t b, uint32_t r) {
        for (size_t c = 0; c < out.num_columns(); ++c) {
          out.mutable_column(c).AppendFrom(table.batches()[b].column(c), r);
        }
      });
      if (out.num_rows() >= kChunk) {
        base_rows += out.num_rows();
        benchmark::DoNotOptimize(out.num_rows());
        out = RecordBatch(schema);
      }
    }
    base_rows += out.num_rows();
  });

  size_t cand_rows = 0;
  std::vector<JoinMatch> matches;
  std::vector<uint32_t> rows;
  const double cand = BestSeconds(3, [&] {
    cand_rows = 0;
    RecordBatch out(schema);
    for (size_t pos = 0; pos < probe.size(); pos += kChunk) {
      const size_t n = std::min(kChunk, probe.size() - pos);
      matches.clear();
      table.ProbeBatch(std::span<const int64_t>(probe.data() + pos, n),
                       &matches);
      rows.resize(matches.size());
      for (size_t j = 0; j < matches.size(); ++j) rows[j] = matches[j].row;
      for (size_t c = 0; c < out.num_columns(); ++c) {
        out.mutable_column(c).GatherAppendFrom(stored.column(c), rows.data(),
                                               rows.size());
      }
      if (out.num_rows() >= kChunk) {
        cand_rows += out.num_rows();
        benchmark::DoNotOptimize(out.num_rows());
        out = RecordBatch(schema);
      }
    }
    cand_rows += out.num_rows();
  });
  HJ_CHECK_EQ(base_rows, cand_rows);  // both paths materialize every match
  return {"ht_probe_materialize", kProbeKeys, kProbeKeys / base / 1e6,
          kProbeKeys / cand / 1e6};
}

KernelResult CompareScanDecodePaperL() {
  // The JEN scan's decode of one paper-L block, 200 times over: eagerly
  // (every scanned column decoded for every row, then the predicate, then
  // a gather of the projection) against DecodeBlockFiltered (the pushed
  // conjuncts on the encoded chunks, then the projection at their
  // survivors only).
  constexpr int kBlocks = 200;
  const PaperLBlock& l = PaperLBlock::Get();
  const SchemaPtr& schema = l.rows.schema();
  const std::vector<size_t> scanned = {0, 1, 2, 3, 4};
  const std::vector<ScanStage> stages = l.Stages();
  std::vector<uint32_t> sel;
  RecordBatch base_out;
  const double base = BestSeconds(3, [&] {
    for (int i = 0; i < kBlocks; ++i) {
      RecordBatch batch =
          DecodeColumnarBlock(*l.block.columnar, schema, scanned).value();
      sel.resize(batch.num_rows());
      std::iota(sel.begin(), sel.end(), 0u);
      HJ_CHECK(l.predicate->Filter(batch, &sel).ok());
      base_out = batch.Project(l.projection).Gather(sel);
    }
  });
  RecordBatch cand_out;
  const double cand = BestSeconds(3, [&] {
    for (int i = 0; i < kBlocks; ++i) {
      cand_out =
          DecodeBlockFiltered(l.block, schema, l.split.pushed, stages, &sel)
              .value();
    }
  });
  // Both keep the same survivors, byte for byte.
  HJ_CHECK_EQ(base_out.num_rows(), cand_out.num_rows());
  HJ_CHECK(base_out.Serialize() == cand_out.Serialize());
  const size_t rows = size_t{kBlocks} * PaperLBlock::kRows;
  return {"scan_decode_paper_l", rows, rows / base / 1e6, rows / cand / 1e6};
}

KernelResult CompareHtProbeBandPaper() {
  // The paper's join shape: about 40 build rows per key, and a post-join
  // band, T.v - B.x BETWEEN 0 AND 1 over a 30-day window, that keeps about
  // 6.6% of the equi-matches. Both arms run JoinProber into a count per
  // group; the baseline's table is not ordered by B.x, so it lists every
  // equi-match and filters it, while the candidate's is, so it walks only
  // the band.
  constexpr int32_t kKeys = 8192;
  constexpr int32_t kRowsPerKey = 40;
  constexpr int32_t kDays = 30;
  constexpr size_t kProbeRows = 1 << 16;
  constexpr size_t kBatchRows = 4096;
  auto build_schema = Schema::Make({{"k", DataType::kInt32},
                                    {"x", DataType::kDate},
                                    {"grp", DataType::kInt32}});
  auto probe_schema =
      Schema::Make({{"k", DataType::kInt32}, {"v", DataType::kDate}});
  Rng rng(105);
  std::vector<RecordBatch> build;
  for (int32_t i = 0; i < kKeys * kRowsPerKey; ++i) {
    if (i % kBatchRows == 0) build.emplace_back(build_schema);
    RecordBatch& b = build.back();
    b.mutable_column(0).mutable_i32().push_back(
        static_cast<int32_t>(rng.Uniform(kKeys)));
    b.mutable_column(1).mutable_i32().push_back(
        static_cast<int32_t>(rng.Uniform(kDays)));
    b.mutable_column(2).mutable_i32().push_back(
        static_cast<int32_t>(rng.Uniform(200)));
  }
  std::vector<RecordBatch> probe;
  for (size_t i = 0; i < kProbeRows; ++i) {
    if (i % kBatchRows == 0) probe.emplace_back(probe_schema);
    RecordBatch& b = probe.back();
    b.mutable_column(0).mutable_i32().push_back(
        static_cast<int32_t>(rng.Uniform(kKeys)));
    b.mutable_column(1).mutable_i32().push_back(
        static_cast<int32_t>(rng.Uniform(kDays)));
  }
  const PredicatePtr band = DiffRange("T.v", "B.x", 0, 1);
  const AggSpec agg_spec = AggSpec::CountStar("B.grp", false);

  auto run = [&](std::optional<size_t> band_column, int64_t* out_rows) {
    JoinHashTable table(0, 1, /*governor=*/nullptr, band_column);
    for (const RecordBatch& b : build) HJ_CHECK_OK(table.AddBatch(b));
    table.Finalize();
    return BestSeconds(3, [&] {
      HashAggregator agg(agg_spec);
      JoinProber prober(&table, build_schema, "B", probe_schema, "T", 0, band,
                        &agg, nullptr);
      for (const RecordBatch& b : probe) HJ_CHECK_OK(prober.ProbeBatch(b));
      HJ_CHECK_OK(prober.Flush());
      *out_rows = prober.output_rows();
      benchmark::DoNotOptimize(agg.Partial().num_rows());
    });
  };
  int64_t base_rows = 0;
  int64_t cand_rows = 0;
  const double base = run(std::nullopt, &base_rows);
  const double cand = run(/*band_column=*/1, &cand_rows);
  HJ_CHECK_EQ(base_rows, cand_rows);  // both keep the same joined rows
  return {"ht_probe_band_paper", kProbeRows, kProbeRows / base / 1e6,
          kProbeRows / cand / 1e6};
}

int RunKernelComparisons(const std::string& out_path) {
  std::vector<KernelResult> results;
  results.push_back(CompareBloomAdd());
  results.push_back(CompareBloomProbe());
  results.push_back(CompareHtProbeMaterialize());
  results.push_back(CompareScanDecodePaperL());
  results.push_back(CompareHtProbeBandPaper());

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"kernels\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"keys\": %zu, "
                 "\"baseline_mkeys_per_s\": %.2f, "
                 "\"candidate_mkeys_per_s\": %.2f, \"speedup\": %.2f}%s\n",
                 r.name.c_str(), r.keys, r.baseline_mkeys, r.candidate_mkeys,
                 r.speedup(), i + 1 < results.size() ? "," : "");
    std::printf("%-22s %8zu keys  baseline %8.2f Mkeys/s  candidate %8.2f "
                "Mkeys/s  speedup %.2fx\n",
                r.name.c_str(), r.keys, r.baseline_mkeys, r.candidate_mkeys,
                r.speedup());
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace hybridjoin

int main(int argc, char** argv) {
  std::string kernels_out = "BENCH_kernels.json";
  bool kernels_only = false;
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--kernels_out=", 14) == 0) {
      kernels_out = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--kernels_only") == 0) {
      kernels_only = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (int rc = hybridjoin::RunKernelComparisons(kernels_out); rc != 0) {
    return rc;
  }
  if (kernels_only) return 0;
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
