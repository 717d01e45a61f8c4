// Thread-scaling benchmark for the intra-node morsel parallelism
// (docs/architecture.md, "Intra-node parallelism"): sweeps 1/2/4/8 threads
// over the two CPU-bound per-node phases the exec_threads knob parallelizes
// and writes BENCH_parallelism.json (path overridable with --out=PATH).
//
//   scan_filter  — the JEN process-thread inner loop (predicate filter +
//                  selection gather + projection) fanned out over batch
//                  morsels through BatchMorselPipe, exactly the machinery
//                  ScanBlocksParallel puts behind the read queue.
//   build_probe  — key-space-sharded JoinHashTable build
//                  (AddBatchesParallel + FinalizeParallel on a ThreadPool)
//                  followed by a morsel-partitioned ProbeBatch + gather
//                  materialization, the drivers' build/probe phases.
//
// One thread runs the historical serial code paths (single shard, no pool,
// inline pipe), so the speedup column is parallel-vs-today, not
// parallel-vs-a-strawman. Wall-clock speedups need real cores: on the
// shared CI runners the JSON is a trend artifact, judged by diffing runs.
//
// Environment overrides: HJ_BENCH_SMOKE=1 shrinks everything for CI smoke.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "exec/join_hash_table.h"
#include "exec/morsel.h"
#include "expr/predicate.h"
#include "types/record_batch.h"

namespace hybridjoin {
namespace {

struct Rng {
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4568bULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  uint64_t state;
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

struct PhaseResult {
  std::string name;
  size_t rows;
  // seconds[i] for kThreadSweep[i].
  std::vector<double> seconds;
};

constexpr uint32_t kThreadSweep[] = {1, 2, 4, 8};

// ------------------------------ scan_filter -------------------------------

std::vector<RecordBatch> MakeScanBatches(size_t num_batches,
                                         size_t rows_per_batch) {
  auto schema = Schema::Make({{"k", DataType::kInt32},
                              {"v", DataType::kInt32},
                              {"p", DataType::kInt64}});
  Rng rng(11);
  std::vector<RecordBatch> batches;
  batches.reserve(num_batches);
  for (size_t b = 0; b < num_batches; ++b) {
    RecordBatch batch(schema);
    auto& k = batch.mutable_column(0);
    auto& v = batch.mutable_column(1);
    auto& p = batch.mutable_column(2);
    for (size_t r = 0; r < rows_per_batch; ++r) {
      k.AppendValue(Value(static_cast<int32_t>(rng.Uniform(1 << 20))));
      v.AppendValue(Value(static_cast<int32_t>(rng.Uniform(100))));
      p.AppendValue(Value(static_cast<int64_t>(rng.Next())));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

PhaseResult RunScanFilter(size_t num_batches, size_t rows_per_batch,
                          int reps) {
  const std::vector<RecordBatch> source =
      MakeScanBatches(num_batches, rows_per_batch);
  const PredicatePtr predicate = Cmp("v", CmpOp::kLt, 40);
  const std::vector<size_t> out_indexes = {0, 2};  // project k, p

  PhaseResult result;
  result.name = "scan_filter";
  result.rows = num_batches * rows_per_batch;

  for (uint32_t threads : kThreadSweep) {
    const double secs = BestSeconds(reps, [&] {
      std::atomic<int64_t> rows_out{0};
      // Per-thread hoisted scratch, like JenWorker's process loop.
      std::vector<std::vector<uint32_t>> sel(threads);
      BatchMorselPipe pipe(
          threads, [&](uint32_t t, RecordBatch&& batch) {
            std::vector<uint32_t>& s = sel[t];
            s.resize(batch.num_rows());
            std::iota(s.begin(), s.end(), 0u);
            Status st = predicate->Filter(batch, &s);
            if (!st.ok()) return st;
            RecordBatch out = batch.Gather(s).Project(out_indexes);
            rows_out.fetch_add(static_cast<int64_t>(out.num_rows()),
                               std::memory_order_relaxed);
            return Status::OK();
          },
          NodeId::Hdfs(0), "scan_filter");
      for (const RecordBatch& b : source) {
        RecordBatch copy = b;
        (void)pipe.Feed(std::move(copy));
      }
      Status st = pipe.Finish();
      HJ_CHECK(st.ok()) << st.ToString();
      HJ_CHECK_GT(rows_out.load(), 0);
    });
    result.seconds.push_back(secs);
  }
  return result;
}

// ------------------------------ build_probe -------------------------------

std::vector<RecordBatch> MakeBuildBatches(size_t num_batches,
                                          size_t rows_per_batch) {
  auto schema = Schema::Make({{"k", DataType::kInt64},
                              {"p1", DataType::kInt64},
                              {"p2", DataType::kFloat64}});
  Rng rng(13);
  const uint64_t key_domain = num_batches * rows_per_batch;
  std::vector<RecordBatch> batches;
  batches.reserve(num_batches);
  for (size_t b = 0; b < num_batches; ++b) {
    RecordBatch batch(schema);
    auto& k = batch.mutable_column(0);
    auto& p1 = batch.mutable_column(1);
    auto& p2 = batch.mutable_column(2);
    for (size_t r = 0; r < rows_per_batch; ++r) {
      k.AppendValue(Value(static_cast<int64_t>(rng.Uniform(key_domain))));
      p1.AppendValue(Value(static_cast<int64_t>(r)));
      p2.AppendValue(Value(static_cast<double>(b) * 0.5));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

PhaseResult RunBuildProbe(size_t num_batches, size_t rows_per_batch,
                          size_t probe_keys, int reps) {
  const std::vector<RecordBatch> source =
      MakeBuildBatches(num_batches, rows_per_batch);
  Rng rng(17);
  std::vector<int64_t> probe(probe_keys);
  const uint64_t key_domain = num_batches * rows_per_batch;
  for (auto& k : probe) {
    k = static_cast<int64_t>(rng.Uniform(2 * key_domain));  // ~50% hit rate
  }
  constexpr size_t kMorsel = 4096;

  PhaseResult result;
  result.name = "build_probe";
  result.rows = num_batches * rows_per_batch;

  for (uint32_t threads : kThreadSweep) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    const uint32_t shards = threads == 1 ? 1 : 2 * threads;

    const double secs = BestSeconds(reps, [&] {
      // Build: sharded table, range-extracted in parallel, per-shard
      // bucket directories built concurrently.
      JoinHashTable table(0, shards);
      std::vector<RecordBatch> batches = source;
      Status st = table.AddBatchesParallel(std::move(batches), pool.get());
      HJ_CHECK(st.ok()) << st.ToString();
      st = table.FinalizeParallel(pool.get());
      HJ_CHECK(st.ok()) << st.ToString();

      // Probe: morsels of the key stream, statically striped across the
      // fleet; each virtual worker keeps its own scratch and materializes
      // its own output chunks, like the drivers' per-thread probers.
      const size_t num_morsels = (probe.size() + kMorsel - 1) / kMorsel;
      std::atomic<int64_t> matched{0};
      auto probe_worker = [&](size_t w) {
        std::vector<JoinMatch> matches;
        std::vector<std::vector<uint32_t>> rows_by_batch(
            table.batches().size());
        RecordBatch out(source[0].schema());
        int64_t local = 0;
        for (size_t m = w; m < num_morsels; m += threads) {
          const size_t lo = m * kMorsel;
          const size_t n = std::min(kMorsel, probe.size() - lo);
          matches.clear();
          table.ProbeBatch(std::span<const int64_t>(probe.data() + lo, n),
                           &matches);
          for (auto& rows : rows_by_batch) rows.clear();
          for (const JoinMatch& match : matches) {
            rows_by_batch[match.batch].push_back(match.row);
          }
          for (size_t b = 0; b < rows_by_batch.size(); ++b) {
            const std::vector<uint32_t>& rows = rows_by_batch[b];
            if (rows.empty()) continue;
            const RecordBatch& stored = table.batches()[b];
            for (size_t c = 0; c < out.num_columns(); ++c) {
              out.mutable_column(c).GatherAppendFrom(
                  stored.column(c), rows.data(), rows.size());
            }
          }
          local += static_cast<int64_t>(matches.size());
          if (out.num_rows() >= kMorsel) out = RecordBatch(source[0].schema());
        }
        matched.fetch_add(local, std::memory_order_relaxed);
        return Status::OK();
      };
      if (pool == nullptr) {
        (void)probe_worker(0);
      } else {
        st = pool->ParallelFor(0, threads, 1, probe_worker);
        HJ_CHECK(st.ok()) << st.ToString();
      }
      HJ_CHECK_GT(matched.load(), 0);
    });
    result.seconds.push_back(secs);
  }
  return result;
}

// --------------------------------- output ---------------------------------

int WriteJson(const std::string& path,
              const std::vector<PhaseResult>& phases) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"phases\": [\n");
  for (size_t p = 0; p < phases.size(); ++p) {
    const PhaseResult& r = phases[p];
    std::fprintf(f, "    {\"name\": \"%s\", \"rows\": %zu, \"sweep\": [\n",
                 r.name.c_str(), r.rows);
    for (size_t i = 0; i < r.seconds.size(); ++i) {
      std::fprintf(f,
                   "      {\"threads\": %u, \"seconds\": %.6f, "
                   "\"speedup_vs_1\": %.2f}%s\n",
                   kThreadSweep[i], r.seconds[i],
                   r.seconds[0] / r.seconds[i],
                   i + 1 < r.seconds.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", p + 1 < phases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int Run(const std::string& out_path) {
  const bool smoke = [] {
    const char* s = std::getenv("HJ_BENCH_SMOKE");
    return s != nullptr && s[0] == '1';
  }();
  const size_t scan_batches = smoke ? 24 : 192;
  const size_t scan_rows = smoke ? 4096 : 16384;
  const size_t build_batches = smoke ? 16 : 64;
  const size_t build_rows = smoke ? 4096 : 16384;
  const size_t probe_keys = smoke ? (256u << 10) : (2u << 20);
  const int reps = smoke ? 2 : 3;

  std::vector<PhaseResult> phases;
  phases.push_back(RunScanFilter(scan_batches, scan_rows, reps));
  phases.push_back(RunBuildProbe(build_batches, build_rows, probe_keys, reps));

  std::printf("%-12s %8s", "phase", "rows");
  for (uint32_t t : kThreadSweep) std::printf("   t=%u(s)", t);
  std::printf("  speedup@8\n");
  for (const PhaseResult& r : phases) {
    std::printf("%-12s %8zu", r.name.c_str(), r.rows);
    for (double s : r.seconds) std::printf(" %8.3f", s);
    std::printf("      %.2fx\n", r.seconds.front() / r.seconds.back());
  }
  return WriteJson(out_path, phases);
}

}  // namespace
}  // namespace hybridjoin

int main(int argc, char** argv) {
  std::string out_path = "BENCH_parallelism.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  return hybridjoin::Run(out_path);
}
