// Ablation — memory-governed joins (the paper's §4.4 future work): a
// memory-pressure sweep of the zigzag join under a per-query
// MemoryGovernor budget, from 8x the reference footprint down to 1/8x.
// Every budgeted run's result is compared byte-for-byte against the
// unlimited run, so the sweep doubles as a correctness harness: spilling,
// recursive repartitioning and the block-nested-loop fallback must never
// change the answer, only the spill traffic and the time.
//
// The reference footprint is the unlimited run's own join.mem_peak_bytes
// gauge — an upper bound on the build side, so the 8x point never spills
// and the fractional points are under genuine pressure.
//
// The budget is a bound, not an estimate: the bench also exits 1 when a
// budgeted run's peak exceeds its budget by more than kRunwayBytes.
//
// Writes BENCH_spill.json (path overridable with --out=PATH) in the same
// perfcheck-gateable shape as the other bench artifacts: wall_seconds and
// *_bytes leaves are gated, "match" is a hard correctness bit (the bench
// exits 1 itself on any mismatch, so the committed baseline always has
// match=1 everywhere).

#include "bench_common.h"

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "exec/spill.h"
#include "testing/differential.h"

using namespace hybridjoin;
using namespace hybridjoin::bench;

namespace {

/// How far a budgeted run's join.mem_peak_bytes may exceed its budget. The
/// join charges everything it holds and spills rather than overshoot, so
/// what runs past the budget is state that cannot spill and that
/// MemoryGovernor::Reserve therefore admits over budget by design: exchange
/// payloads in flight, morsel queue slots and aggregation groups. The last
/// dominates here: 200 groups at 64 B (HashAggregator's per-group charge) in
/// each of the 4 JEN partials, the final merge and DB worker 0's result is
/// ~77 KiB when they coexist. Smoke runs have overshot by up to ~67 KiB.
constexpr int64_t kRunwayBytes = 128 * 1024;

struct SweepPoint {
  std::string name;          ///< perfcheck array key, e.g. "budget_8x"
  uint64_t budget_bytes = 0; ///< 0 = unlimited (the reference row)
  double wall_seconds = 0;
  int64_t spill_bytes = 0;
  int64_t spill_partitions = 0;
  int64_t repartition_depth = 0;
  int64_t mem_peak_bytes = 0;
  size_t rows = 0;
  bool match = true;  ///< byte-for-byte equal to the unlimited run
  std::unique_ptr<RecordBatch> batch;  ///< result rows, for the comparison
};

int WriteJson(const std::string& path, int64_t ref_bytes,
              const std::vector<SweepPoint>& sweep) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"spill\": {\n");
  std::fprintf(f, "    \"ref_peak_bytes\": %lld,\n    \"sweep\": [\n",
               static_cast<long long>(ref_bytes));
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(
        f,
        "      {\"name\": \"%s\", \"budget_bytes\": %llu, "
        "\"wall_seconds\": %.6f, \"spill_bytes\": %lld, "
        "\"spill_partitions\": %lld, \"repartition_depth\": %lld, "
        "\"mem_peak_bytes\": %lld, \"rows\": %zu, \"match\": %d}%s\n",
        p.name.c_str(), static_cast<unsigned long long>(p.budget_bytes),
        p.wall_seconds, static_cast<long long>(p.spill_bytes),
        static_cast<long long>(p.spill_partitions),
        static_cast<long long>(p.repartition_depth),
        static_cast<long long>(p.mem_peak_bytes), p.rows, p.match ? 1 : 0,
        i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_spill.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  const BenchConfig config = BenchConfig::FromEnv();
  PrintPreamble("Ablation: memory-pressure spilling",
                "zigzag under a per-query MemoryGovernor budget "
                "(grace hash join, 8x .. 1/8x of the unlimited peak)",
                config);
  const SelectivitySpec spec{0.1, 0.4, 0.5, 0.5};
  auto workload = Workload::Generate(config.workload, spec);
  if (!workload.ok()) return 1;
  const HybridQuery query = workload->MakeQuery();

  // One run of one sweep point: fresh warehouse (so the page cache and the
  // spill area start cold at every budget), warm run discarded, best of two
  // measured runs reported.
  auto run_point = [&](uint64_t budget_bytes, SweepPoint* out) -> bool {
    SimulationConfig sim = MakeSimConfig(config);
    sim.query_memory_budget_bytes = budget_bytes;
    // A single (slower) spill disk per worker.
    sim.jen.spill_write_bps = sim.datanode.disk_read_bps / 4;
    sim.jen.spill_read_bps = sim.datanode.disk_read_bps / 4;
    HybridWarehouse hw(sim);
    LoadOptions load;
    load.hdfs.rows_per_block = 32 * 1024;
    if (!LoadWorkload(&hw, *workload, load).ok()) return false;
    if (!hw.Execute(query, JoinAlgorithm::kZigzag).ok()) return false;
    double best = 1e100;
    ExecutionReport report;
    RecordBatch rows;
    for (int i = 0; i < 2; ++i) {
      auto result = hw.Execute(query, JoinAlgorithm::kZigzag);
      if (!result.ok()) {
        std::fprintf(stderr, "run failed (budget=%llu): %s\n",
                     static_cast<unsigned long long>(budget_bytes),
                     result.status().ToString().c_str());
        return false;
      }
      if (result->report.wall_seconds < best) {
        best = result->report.wall_seconds;
        report = result->report;
      }
      rows = result->rows;
    }
    out->budget_bytes = budget_bytes;
    out->wall_seconds = best;
    out->spill_bytes = report.Counter(metric::kSpillBytesWritten);
    out->spill_partitions = report.Counter(metric::kSpilledPartitions);
    out->repartition_depth = report.Counter(metric::kJoinRepartitionDepth);
    // The peak gauge is a high-water mark, not an additive counter, so the
    // report's delta view of it is meaningless across the warm-up run; the
    // per-query profile carries the real per-execution value.
    const auto* peak =
        report.profile.FindCounter("driver", metric::kJoinMemPeakBytes);
    out->mem_peak_bytes = peak != nullptr ? peak->total : 0;
    out->rows = rows.num_rows();
    out->batch = std::make_unique<RecordBatch>(std::move(rows));
    return true;
  };

  // Reference: unlimited budget. Its mem-peak gauge scales the sweep and
  // its rows are the oracle every budgeted run must reproduce exactly.
  SweepPoint unlimited;
  unlimited.name = "unlimited";
  if (!run_point(0, &unlimited)) return 1;
  const int64_t ref_bytes =
      unlimited.mem_peak_bytes > 0 ? unlimited.mem_peak_bytes : 1;

  struct Mult {
    const char* name;
    double factor;
  };
  constexpr Mult kSweep[] = {{"budget_8x", 8.0},       {"budget_4x", 4.0},
                             {"budget_2x", 2.0},       {"budget_1x", 1.0},
                             {"budget_1_2x", 1.0 / 2}, {"budget_1_4x", 1.0 / 4},
                             {"budget_1_8x", 1.0 / 8}};

  std::vector<SweepPoint> sweep;
  sweep.push_back(std::move(unlimited));
  bool all_match = true;
  bool all_bounded = true;
  for (const Mult& m : kSweep) {
    SweepPoint p;
    p.name = m.name;
    const uint64_t budget = static_cast<uint64_t>(
        static_cast<double>(ref_bytes) * m.factor);
    if (!run_point(budget, &p)) return 1;
    auto diff = testing_support::CompareBatches(*sweep.front().batch,
                                                *p.batch);
    p.match = !diff.has_value();
    if (!p.match) {
      all_match = false;
      std::fprintf(stderr, "MISMATCH at %s (budget=%llu): %s\n", p.name.c_str(),
                   static_cast<unsigned long long>(budget), diff->c_str());
    }
    if (p.mem_peak_bytes > static_cast<int64_t>(budget) + kRunwayBytes) {
      all_bounded = false;
      std::fprintf(stderr,
                   "OVER BUDGET at %s: peak %lld > budget %llu + runway %lld\n",
                   p.name.c_str(), static_cast<long long>(p.mem_peak_bytes),
                   static_cast<unsigned long long>(budget),
                   static_cast<long long>(kRunwayBytes));
    }
    sweep.push_back(std::move(p));
  }

  std::printf("%14s %14s %10s %12s %12s %8s %14s %6s\n", "point",
              "budget (KiB)", "wall(s)", "spill KiB", "spill part.",
              "depth", "peak (KiB)", "match");
  for (const SweepPoint& p : sweep) {
    std::printf("%14s %14llu %10.3f %12.1f %12lld %8lld %14.1f %6s\n",
                p.name.c_str(),
                static_cast<unsigned long long>(p.budget_bytes / 1024),
                p.wall_seconds, p.spill_bytes / 1024.0,
                static_cast<long long>(p.spill_partitions),
                static_cast<long long>(p.repartition_depth),
                p.mem_peak_bytes / 1024.0, p.match ? "ok" : "MISMATCH");
  }

  const SweepPoint& loose = sweep[1];   // 8x: fits comfortably
  const SweepPoint& tight = sweep.back();  // 1/8x: deep pressure
  ShapeCheck("8x budget completes without spilling",
             loose.spill_bytes == 0 && loose.spill_partitions == 0);
  ShapeCheck("1/8x budget forces spilling", tight.spill_bytes > 0);
  ShapeCheck("full spilling costs time vs the loosest budget",
             tight.wall_seconds > loose.wall_seconds);
  ShapeCheck("every budgeted run matches the unlimited run", all_match);
  ShapeCheck("every budgeted peak stays within budget + runway", all_bounded);

  const int json_rc = WriteJson(out_path, ref_bytes, sweep);
  if (json_rc != 0) return json_rc;
  return all_match && all_bounded ? 0 : 1;
}
