// The paper's evaluation (§5) as one table: Table 1, Figures 8-15 and the
// ablations that share their workload knobs (Bloom sizing, second-filter
// kind, scaling, memory-pressure spilling, skew-aware shuffle, adaptive
// join location, intra-node threads). Each row of the table is one panel
// of one exhibit.
//
//   bench_paper [--exhibit=NAME]... [--out=PATH]
//
// --exhibit (table1, fig8 ... fig15, bloom, semijoin, scaling, spill, skew,
// adaptive, parallelism) may repeat; without it every exhibit runs. --out
// names the JSON file (default BENCH_paper.json). Workload scale and
// repeats come from the HJ_BENCH_* variables (bench_common.h).
//
// A panel fixes an HDFS format and sigma_T, and may edit the workload shape
// and the simulated cluster; its cells are the cross product of its
// sigma_L, S_T' and S_L' values. Every arm of the panel (an algorithm, an
// ablation variant of one, or ExecuteAuto) runs in every cell through one
// runner, BenchCell::Run: a discarded warm-up run, then max(repeats, 2)
// measured runs, of which the best is reported and every one is kept. Every
// run's result rows must equal the cell's single-node RunReferenceJoin
// result byte for byte, so the arms of a cell agree with each other too.
// After a panel its checks are printed; they judge each arm's median run
// (the faster of two), which one lucky or unlucky run cannot flip. Most are
// shape claims ("who wins"); a blocking check is a bound that exits 1.
//
// The JSON has one row per (exhibit, panel, cell, arm), named
// "exhibit/panel/cell/arm", with wall_seconds (the best run), runs_s and
// the counters the panel prints (of the median run). fig8 is traced: its
// rows also carry the per-phase span summaries, and the profile of its
// last arm's median run is written to PROFILE_fig8.json. A failed
// generate, load or query, a result mismatch or a failed blocking check
// exits 1 and names the exhibit and cell.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <ranges>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "exec/spill.h"
#include "hybrid/advisor.h"
#include "hybrid/algorithms.h"
#include "hybrid/reference.h"
#include "testing/differential.h"

using namespace hybridjoin;
using namespace hybridjoin::bench;
using obs::JsonValue;

namespace {

/// How one arm executes the cell's query on its warehouse.
using RunFn =
    std::function<Result<QueryResult>(HybridWarehouse*, const HybridQuery&)>;

/// What runs in every cell of a panel: an algorithm, an ablation variant of
/// one, or any other way to execute the query.
struct Arm {
  Arm(std::string label, RunFn run,
      std::function<void(SimulationConfig*)> edit_sim = nullptr)
      : label(std::move(label)), run(std::move(run)),
        edit_sim(std::move(edit_sim)) {}
  Arm(std::string label, JoinAlgorithm algorithm,
      std::function<void(SimulationConfig*)> edit_sim = nullptr)
      : Arm(std::move(label),
            [algorithm](HybridWarehouse* hw, const HybridQuery& query) {
              return hw->Execute(query, algorithm);
            },
            std::move(edit_sim)) {}

  std::string label;  ///< printed, and the last part of the JSON row name
  RunFn run;
  std::function<void(SimulationConfig*)> edit_sim;  ///< config ablation
  bool cluster_l = false;  ///< L sorted on corPred before it is loaded
  /// > 0: the query memory budget is this multiple of the cell's first
  /// arm's join.mem_peak_bytes.
  double budget_of_first_peak = 0;
};

double Median(std::vector<double> v) {
  std::ranges::sort(v);
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// One arm measured in one cell.
struct Measured {
  double best = 0;           ///< fastest measured run (s)
  double median = 0;         ///< median measured run (s)
  std::vector<double> runs;  ///< every measured run (s)
  /// The run at the median wall (the faster of an even count's middle two).
  QueryResult median_run;
  uint64_t budget = 0;  ///< query memory budget it ran under (0: none)
};

/// A panel's measurements, with the accessors its checks use.
struct PanelRuns {
  std::vector<std::vector<Measured>> cells;  ///< [cell][arm], table order
  /// The panels of its exhibit run so far, by id (checks across panels).
  const std::map<std::string, PanelRuns>* exhibit = nullptr;

  /// The median run of one arm in one cell: what the shape checks judge.
  double Wall(size_t cell, size_t arm) const {
    return cells[cell][arm].median;
  }
  const ExecutionReport& Report(size_t cell, size_t arm) const {
    return cells[cell][arm].median_run.report;
  }
  int64_t Count(size_t cell, size_t arm, const char* metric) const {
    return Report(cell, arm).Counter(metric);
  }
  /// The algorithm that executed (after any adaptive pivot).
  JoinAlgorithm Ran(size_t cell, size_t arm) const {
    return Report(cell, arm).algorithm;
  }
  /// Max over median wall of the JEN workers: the probe-side straggler.
  double JenSkew(size_t cell, size_t arm) const {
    std::vector<double> walls;
    for (const auto& [node, us] : Report(cell, arm).profile.worker_wall_us) {
      if (node.starts_with("hdfs:")) walls.push_back(us);
    }
    if (walls.empty()) return 0;
    const double median = Median(walls);
    return median > 0 ? std::ranges::max(walls) / median : 0;
  }
  size_t Last() const { return cells.size() - 1; }
  /// The lowest wall among arms [first, last] in one cell.
  double BestOf(size_t cell, size_t first, size_t last) const {
    double best = Wall(cell, first);
    for (size_t a = first + 1; a <= last; ++a) {
      best = std::min(best, Wall(cell, a));
    }
    return best;
  }
  double SumWall(size_t arm) const {
    double sum = 0;
    for (size_t c = 0; c < cells.size(); ++c) sum += Wall(c, arm);
    return sum;
  }
  /// Mean over the cells of arm a's wall over arm b's.
  double MeanRatio(size_t a, size_t b) const {
    double sum = 0;
    for (size_t c = 0; c < cells.size(); ++c) sum += Wall(c, a) / Wall(c, b);
    return sum / cells.size();
  }
  bool Every(const std::function<bool(size_t cell)>& holds) const {
    return std::ranges::all_of(std::views::iota(size_t{0}, cells.size()),
                               holds);
  }
};

using Runs = const PanelRuns&;

struct Check {
  const char* claim;
  std::function<bool(Runs)> holds;
  bool blocking = false;  ///< a bound, not a shape: failing it exits 1
};

/// One row of the table.
struct Panel {
  const char* exhibit;
  std::string id;
  const char* title;
  HdfsFormat format;
  double sigma_t;
  std::vector<double> sigma_l, st, sl;
  std::vector<Arm> arms;
  std::vector<const char*> counters = {};
  std::vector<Check> checks = {};
  bool traced = false;
  uint32_t rows_per_block = 32 * 1024;  ///< HDFS block size of L
  /// Shape edit applied after the HJ_BENCH_* scaling, so it can pin a shape.
  std::function<void(WorkloadConfig*)> edit_workload = nullptr;
  /// Cluster edit applied before each arm's own.
  std::function<void(SimulationConfig*)> edit_sim = nullptr;
  /// Idle time before every run, so each starts with full NIC token
  /// buckets instead of the burst credit its predecessor left.
  std::chrono::milliseconds pause{0};
};

/// Generated data loaded into a throttled warehouse, ready to run arms on.
class BenchCell {
 public:
  static Result<std::unique_ptr<BenchCell>> Create(
      const BenchConfig& bench, const SimulationConfig& sim,
      const SelectivitySpec& spec, HdfsFormat format, bool cluster_l,
      uint32_t rows_per_block) {
    auto cell = std::make_unique<BenchCell>();
    HJ_ASSIGN_OR_RETURN(Workload workload,
                        Workload::Generate(bench.workload, spec));
    if (cluster_l) {
      // A Hive-style layout sorted on the predicate column, where columnar
      // min/max stats can skip chunks; arrival order spans the domain.
      RecordBatch all =
          ConcatBatches(Workload::LSchema(), workload.l_batches());
      std::vector<uint32_t> order(all.num_rows());
      for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
      const auto& cor = all.column(1).i32();
      std::sort(order.begin(), order.end(),
                [&](uint32_t a, uint32_t b) { return cor[a] < cor[b]; });
      workload.OverrideLBatches({all.Gather(order)});
    }
    cell->workload_ = std::make_unique<Workload>(std::move(workload));
    cell->warehouse_ = std::make_unique<HybridWarehouse>(sim);
    LoadOptions load;
    load.hdfs.format = format;
    load.hdfs.rows_per_block = rows_per_block;
    HJ_RETURN_IF_ERROR(
        LoadWorkload(cell->warehouse_.get(), *cell->workload_, load));

    // Page-cache sizing (paper §5.4): the columnar table fits in memory,
    // the raw text table does not. Each node gets a cache of ~40% of its
    // text footprint, which holds the columnar chunks but thrashes on text.
    EngineContext& ctx = cell->warehouse_->context();
    HJ_ASSIGN_OR_RETURN(uint64_t file_size,
                        ctx.namenode().FileSize("/warehouse/L"));
    const uint64_t per_node =
        file_size * sim.hdfs_replication / sim.jen_workers;
    const uint64_t capacity =
        format == HdfsFormat::kText ? per_node * 0.4 : per_node * 4;
    for (uint32_t i = 0; i < sim.jen_workers; ++i) {
      ctx.datanode(i)->SetCacheCapacity(capacity);
    }
    return cell;
  }

  /// The single-node oracle every run of the cell must reproduce.
  Result<RecordBatch> Reference() const {
    return RunReferenceJoin({workload_->t_rows()}, workload_->l_batches(),
                            workload_->MakeQuery());
  }

  /// Warm-up run (discarded, paper methodology), then max(repeats, 2)
  /// measured runs, each `pause` after the last and each checked against
  /// `reference`.
  Result<Measured> Run(const Arm& arm, int repeats,
                       std::chrono::milliseconds pause,
                       const RecordBatch& reference) {
    const HybridQuery query = workload_->MakeQuery();
    auto once = [&]() -> Result<QueryResult> {
      std::this_thread::sleep_for(pause);
      HJ_ASSIGN_OR_RETURN(QueryResult result, arm.run(warehouse_.get(), query));
      if (auto diff = testing_support::CompareBatches(reference, result.rows)) {
        return Status::Internal(
            "rows differ from the single-node reference: " + *diff);
      }
      return result;
    };
    HJ_RETURN_IF_ERROR(once().status());
    Measured m;
    std::vector<QueryResult> results;
    for (int i = 0; i < std::max(repeats, 2); ++i) {
      HJ_ASSIGN_OR_RETURN(QueryResult result, once());
      m.runs.push_back(result.report.wall_seconds);
      results.push_back(std::move(result));
    }
    std::vector<size_t> order(m.runs.size());
    std::iota(order.begin(), order.end(), 0);
    std::ranges::sort(order, {}, [&](size_t i) { return m.runs[i]; });
    m.best = m.runs[order.front()];
    m.median = Median(m.runs);
    m.median_run = std::move(results[order[(order.size() - 1) / 2]]);
    return m;
  }

 private:
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<HybridWarehouse> warehouse_;
};

JsonValue RowJson(const std::string& name, const Measured& m,
                  const Panel& panel) {
  const ExecutionReport& report = m.median_run.report;
  JsonValue row = JsonValue::Object();
  row.Set("name", JsonValue::Str(name));
  row.Set("wall_seconds", JsonValue::Number(m.best));
  JsonValue& runs = row.Set("runs_s", JsonValue::Array());
  for (double r : m.runs) runs.Append(JsonValue::Number(r));
  JsonValue& counters = row.Set("counters", JsonValue::Object());
  for (const char* c : panel.counters) {
    counters.Set(c, JsonValue::Int(report.Counter(c)));
  }
  if (!panel.traced) return row;
  JsonValue& phases = row.Set("phases", JsonValue::Array());
  for (const auto& [phase, h] : report.histograms) {
    phases.Append(obs::SummaryToJson(h)).Set("name", JsonValue::Str(phase));
  }
  return row;
}

/// Runs every cell of `panel`, printing one line per (cell, arm) and
/// appending one JSON row each to `rows`.
Status RunPanel(BenchConfig bench, const Panel& panel, PanelRuns* out,
                std::vector<JsonValue>* rows) {
  if (panel.edit_workload) panel.edit_workload(&bench.workload);
  std::printf("\n--- %s(%s): %s; %s, sigma_T=%g ---\n%8s %6s %6s  %-44s %9s",
              panel.exhibit, panel.id.c_str(), panel.title,
              HdfsFormatName(panel.format), panel.sigma_t, "sigma_L", "S_T'",
              "S_L'", "arm", "best(s)");
  for (const char* c : panel.counters) std::printf(" %24s", c);
  std::printf("\n");
  for (double sigma_l : panel.sigma_l) {
    for (double st : panel.st) {
      for (double sl : panel.sl) {
        char cell[160];
        std::snprintf(cell, sizeof(cell), "%s/%s/sigma_l=%g,st=%g,sl=%g",
                      panel.exhibit, panel.id.c_str(), sigma_l, st, sl);
        auto fail = [&](const std::string& what) {
          return Status::Internal(cell + (": " + what));
        };
        const SelectivitySpec spec{panel.sigma_t, sigma_l, st, sl};
        std::optional<RecordBatch> reference;
        std::unique_ptr<BenchCell> shared;
        std::vector<Measured> measured;
        for (const Arm& arm : panel.arms) {
          uint64_t budget = 0;
          if (arm.budget_of_first_peak > 0 && !measured.empty()) {
            const int64_t peak = measured[0].median_run.report.Counter(
                metric::kJoinMemPeakBytes);
            budget = static_cast<uint64_t>(arm.budget_of_first_peak *
                                           std::max<int64_t>(peak, 1));
          }
          // Arms without a config edit, layout change or budget share one
          // cell; the others get a fresh warehouse each.
          std::unique_ptr<BenchCell> own;
          std::unique_ptr<BenchCell>& slot =
              arm.edit_sim || arm.cluster_l || budget > 0 ? own : shared;
          if (slot == nullptr) {
            SimulationConfig sim = MakeSimConfig(bench);
            if (panel.edit_sim) panel.edit_sim(&sim);
            if (arm.edit_sim) arm.edit_sim(&sim);
            sim.trace.enabled = panel.traced;
            sim.query_memory_budget_bytes = budget;
            auto created = BenchCell::Create(bench, sim, spec, panel.format,
                                             arm.cluster_l,
                                             panel.rows_per_block);
            if (!created.ok()) return fail(created.status().ToString());
            slot = std::move(*created);
          }
          if (!reference) {
            auto ref = slot->Reference();
            if (!ref.ok()) return fail("reference: " + ref.status().ToString());
            reference = std::move(*ref);
          }
          auto m = slot->Run(arm, bench.repeats, panel.pause, *reference);
          if (!m.ok()) return fail(arm.label + ": " + m.status().ToString());
          m->budget = budget;
          std::printf("%8g %6g %6g  %-44s %9.3f", sigma_l, st, sl,
                      arm.label.c_str(), m->best);
          for (const char* c : panel.counters) {
            std::printf(" %24" PRId64, m->median_run.report.Counter(c));
          }
          std::printf("\n");
          rows->push_back(RowJson(cell + ("/" + arm.label), *m, panel));
          measured.push_back(std::move(*m));
        }
        out->cells.push_back(std::move(measured));
      }
    }
  }
  if (!panel.traced) return Status::OK();
  return out->cells.back().back().median_run.report.profile.WriteJson(
      std::string("PROFILE_") + panel.exhibit + ".json");
}

constexpr JoinAlgorithm kDb = JoinAlgorithm::kDbSide;
constexpr JoinAlgorithm kDbBf = JoinAlgorithm::kDbSideBloom;
constexpr JoinAlgorithm kBcast = JoinAlgorithm::kBroadcast;
constexpr JoinAlgorithm kRep = JoinAlgorithm::kRepartition;
constexpr JoinAlgorithm kRepBf = JoinAlgorithm::kRepartitionBloom;
constexpr JoinAlgorithm kZz = JoinAlgorithm::kZigzag;
constexpr HdfsFormat kColumnar = HdfsFormat::kColumnar;
constexpr HdfsFormat kText = HdfsFormat::kText;
constexpr const char* kShuffled = metric::kHdfsTuplesShuffled;
constexpr const char* kSent = metric::kDbTuplesSent;

std::vector<Arm> Algorithms(std::initializer_list<JoinAlgorithm> algorithms) {
  std::vector<Arm> arms;
  for (JoinAlgorithm a : algorithms) arms.emplace_back(JoinAlgorithmName(a), a);
  return arms;
}

/// The zigzag driver with ablation options.
RunFn ZigzagWith(JoinDriverOptions options) {
  return [options](HybridWarehouse* hw,
                   const HybridQuery& query) -> Result<QueryResult> {
    HJ_ASSIGN_OR_RETURN(PreparedQuery prepared,
                        PrepareQuery(&hw->context(), query));
    return RunRepartitionFamilyJoin(&hw->context(), prepared,
                                    /*use_db_bloom=*/true, /*zigzag=*/true,
                                    options);
  };
}

/// The engine's defaults: no simulated bandwidth limit anywhere. Keeps the
/// worker counts, Bloom sizing and tracing the bench chose.
void Unthrottle(SimulationConfig* sim) {
  SimulationConfig plain;
  plain.db.num_workers = sim->db.num_workers;
  plain.jen_workers = sim->jen_workers;
  plain.bloom = sim->bloom;
  plain.trace = sim->trace;
  *sim = plain;
}

std::vector<Panel> PaperTable(const BenchConfig& bench) {
  const std::vector<double> sigma_l4 = {0.001, 0.01, 0.1, 0.2};
  std::vector<Panel> t;

  // Paper (15B-row L): shuffled 1.00 / 0.10 / 0.10 and sent 1.00 / 1.00 /
  // 0.18 of plain repartition's.
  t.push_back({"table1", "a", "tuples shuffled and sent", kColumnar, 0.1,
               {0.4}, {0.2}, {0.1}, Algorithms({kRep, kRepBf, kZz}),
               {kShuffled, kSent}});
  t.back().checks = {
      {"BF cuts HDFS tuples shuffled to ~S_L' (= 0.10)",
       [](Runs p) {
         return p.Count(0, 1, kShuffled) < 0.25 * p.Count(0, 0, kShuffled);
       }},
      {"zigzag shuffle equals repartition(BF) shuffle",
       [](Runs p) {
         return p.Count(0, 2, kShuffled) == p.Count(0, 1, kShuffled) ||
                p.Count(0, 2, kShuffled) < 0.25 * p.Count(0, 0, kShuffled);
       }},
      {"plain repartition sends full T' both times",
       [](Runs p) { return p.Count(0, 0, kSent) == p.Count(0, 1, kSent); }},
      {"zigzag cuts DB tuples sent to ~S_T' (= 0.20)",
       [](Runs p) {
         return p.Count(0, 2, kSent) < 0.45 * p.Count(0, 0, kSent);
       }}};

  // Paper: zigzag fastest everywhere, up to 2.1x over repartition.
  for (const auto& [id, s] : {std::pair{"a", 0.1}, std::pair{"b", 0.2}}) {
    t.push_back({"fig8", id, "zigzag vs repartition joins", kColumnar, s,
                 {0.1, 0.2, 0.4}, {0.05, 0.1, 0.2}, {s},
                 Algorithms({kRep, kRepBf, kZz}), {}, {}, /*traced=*/true});
    t.back().checks = {
        {"zigzag fastest on grid average (5% tolerance)",
         [](Runs p) {
           return p.SumWall(2) <= p.SumWall(0) * 1.05 &&
                  p.SumWall(2) <= p.SumWall(1) * 1.05;
         }},
        {"zigzag within noise of best in (almost) every cell", [](Runs p) {
           int losses = 0;
           for (size_t c = 0; c < p.cells.size(); ++c) {
             losses += p.Wall(c, 2) > p.Wall(c, 0) * 1.10 ||
                       p.Wall(c, 2) > p.Wall(c, 1) * 1.10;
           }
           return losses <= 1;
         }}};
  }

  // Paper: with T' and L' fixed, zigzag gains as either join-key
  // selectivity shrinks.
  t.push_back({"fig9", "a", "zigzag as S_L' shrinks", kColumnar, 0.1, {0.4},
               {0.5}, {0.8, 0.4, 0.1}, Algorithms({kRep, kRepBf, kZz}),
               {kShuffled, kSent}});
  t.back().checks = {
      {"zigzag improves as S_L' shrinks (0.8 -> 0.1)",
       [](Runs p) { return p.Wall(0, 2) > p.Wall(p.Last(), 2); }}};
  t.push_back({"fig9", "b", "zigzag as S_T' shrinks", kColumnar, 0.1, {0.4},
               {0.5, 0.35, 0.2}, {0.4}, Algorithms({kRep, kRepBf, kZz}),
               {kShuffled, kSent}});
  t.back().checks = {
      {"zigzag's DB transfer shrinks with S_T'",
       [](Runs p) {
         return p.Count(0, 2, kSent) > p.Count(p.Last(), 2, kSent);
       }},
      {"zigzag time does not grow as S_T' shrinks",
       [](Runs p) { return p.Wall(p.Last(), 2) <= p.Wall(0, 2) * 1.15; }}};

  // Paper: broadcast wins only for a tiny T'. With 4 JEN workers the
  // broadcast penalty (n copies of T') is far below the paper's 30, so
  // panel c (ours) adds a sigma_T where the crossover is unmistakable.
  for (const auto& [id, s] :
       {std::pair{"a", 0.001}, std::pair{"b", 0.01}, std::pair{"c", 0.05}}) {
    t.push_back({"fig10", id, "broadcast vs repartition", kColumnar, s,
                 sigma_l4, {1.0}, {1.0}, Algorithms({kBcast, kRep})});
  }
  t.back().checks = {
      {"broadcast competitive for very selective sigma_T (<= ~1x)",
       [](Runs p) { return p.exhibit->at("a").MeanRatio(0, 1) <= 1.15; }},
      {"broadcast clearly loses once T' stops being tiny", [](Runs p) {
         return p.MeanRatio(0, 1) > 1.15 &&
                p.MeanRatio(0, 1) > p.exhibit->at("a").MeanRatio(0, 1);
       }}};

  // Paper: the Bloom filter helps more as sigma_L grows.
  for (const auto& [id, s] : {std::pair{"a", 0.05}, std::pair{"b", 0.1}}) {
    t.push_back({"fig11", id, "DB-side join with vs without BF", kColumnar, s,
                 sigma_l4, {0.5}, {s}, Algorithms({kDb, kDbBf}),
                 {metric::kHdfsTuplesSentToDb}});
    t.back().checks = {
        {"BF benefit grows with sigma_L",
         [](Runs p) {
           return p.Wall(p.Last(), 0) / p.Wall(p.Last(), 1) >
                  p.Wall(0, 0) / p.Wall(0, 1);
         }},
        {"BF clearly wins at sigma_L = 0.2", [](Runs p) {
           return p.Wall(p.Last(), 0) / p.Wall(p.Last(), 1) > 1.1;
         }}};
  }

  // Paper: the DB-side join wins only for sigma_L <= 0.01, then
  // deteriorates steeply while the HDFS side stays nearly flat. hdfs-best
  // is the best of arms 1-2 (Fig. 12) or 2-4 (Fig. 13).
  for (const auto& [id, s] : {std::pair{"a", 0.05}, std::pair{"b", 0.1}}) {
    t.push_back({"fig12", id, "DB-side vs best HDFS-side, no BF", kColumnar,
                 s, sigma_l4, {0.5}, {0.5}, Algorithms({kDb, kRep, kBcast})});
    t.back().checks = {
        {"db-side competitive at sigma_L <= 0.01",
         [](Runs p) {
           return p.Wall(0, 0) <= p.BestOf(0, 1, 2) * 1.3 ||
                  p.Wall(1, 0) <= p.BestOf(1, 1, 2) * 1.3;
         }},
        {"hdfs-side wins at sigma_L = 0.2",
         [](Runs p) { return p.BestOf(3, 1, 2) < p.Wall(3, 0); }},
        {"db-side deteriorates faster than hdfs-side", [](Runs p) {
           return p.Wall(3, 0) - p.Wall(0, 0) >
                  p.BestOf(3, 1, 2) - p.BestOf(0, 1, 2);
         }}};
  }
  for (const auto& [id, s] : {std::pair{"a", 0.05}, std::pair{"b", 0.1}}) {
    t.push_back({"fig13", id, "best DB-side vs best HDFS-side, with BF",
                 kColumnar, s, sigma_l4, {0.5}, {0.5},
                 Algorithms({kDbBf, kDb, kZz, kRepBf, kBcast})});
    t.back().checks = {
        {"hdfs-best (zigzag) stays flatter than db-best",
         [](Runs p) {
           return p.BestOf(3, 2, 4) / p.BestOf(0, 2, 4) <
                  p.BestOf(3, 0, 1) / p.BestOf(0, 0, 1);
         }},
        {"hdfs-best wins at sigma_L = 0.2",
         [](Runs p) { return p.BestOf(3, 2, 4) < p.BestOf(3, 0, 1); }}};
  }

  // Paper: both algorithms run much faster on the columnar format (text
  // exceeds the page cache and is disk-bound). The db(BF) panel takes the
  // selective S_L' = 0.1 of Fig. 11(b), so the L'' ingest does not drown
  // out the format effect.
  for (const auto& [id, algorithm, sl] :
       {std::tuple{"a", kZz, 0.5}, std::tuple{"b", kDbBf, 0.1}}) {
    for (HdfsFormat format : {kText, kColumnar}) {
      t.push_back({"fig14", std::string(id) + "_" + HdfsFormatName(format),
                   "text vs columnar format", format, 0.1, sigma_l4, {0.5},
                   {sl}, Algorithms({algorithm})});
    }
    auto faster = [text = std::string(id) + "_text"](Runs p, double by) {
      return p.Every([&](size_t c) {
        return p.exhibit->at(text).Wall(c, 0) / p.Wall(c, 0) > by;
      });
    };
    t.back().checks = {
        {"columnar faster than text in every cell",
         [=](Runs p) { return faster(p, 1.0); }},
        {"columnar speedup is substantial (> 1.3x everywhere)",
         [=](Runs p) { return faster(p, 1.3); }}};
  }

  // Paper: on text the scan dominates, so the BF's shuffle savings are
  // masked, yet zigzag stays best because BF_H also cuts the DB transfer.
  t.push_back({"fig15", "a", "repartition family on text", kText, 0.2,
               {0.1, 0.2, 0.4}, {0.05, 0.2}, {0.2},
               Algorithms({kRep, kRepBf, kZz})});
  t.back().checks = {
      {"zigzag still robustly best on text",
       [](Runs p) {
         return p.Every([&](size_t c) {
           return p.Wall(c, 2) <= p.BestOf(c, 0, 1) * 1.1;
         });
       }},
      {"BF gain on text muted vs columnar (scan-dominated, < 1.6x)",
       [](Runs p) {
         return p.Every(
             [&](size_t c) { return p.Wall(c, 0) / p.Wall(c, 1) < 1.6; });
       }}};
  t.push_back({"fig15", "b", "db vs db(BF) on text", kText, 0.1, sigma_l4,
               {0.5}, {0.1}, Algorithms({kDb, kDbBf})});
  t.back().checks = {
      {"BF can fail to pay off at tiny sigma_L on text",
       [](Runs p) { return p.Wall(0, 0) / p.Wall(0, 1) < 1.25; }},
      {"BF still helps at sigma_L = 0.2 (transfer still matters)",
       [](Runs p) {
         return p.Wall(p.Last(), 0) / p.Wall(p.Last(), 1) > 1.0;
       }}};

  // The paper fixes 8 bits/key and k = 2 (~5% FPR); this sweeps the m/k
  // trade-off: small filters ship cheaply but prune less.
  std::vector<Arm> bloom;
  const uint64_t keys = bench.workload.num_join_keys;
  for (double bits : {2.0, 4.0, 8.0, 16.0}) {
    for (uint32_t k : {1u, 2u, 4u}) {
      const BloomParams params = BloomParams::ForKeys(keys, bits, k);
      char label[96];
      std::snprintf(label, sizeof(label),
                    "zigzag %g bits/key k=%u (FPR %.2f%%, %llu B)", bits, k,
                    params.ExpectedFpr(keys) * 100,
                    static_cast<unsigned long long>(params.num_bits / 8));
      bloom.emplace_back(label, kZz, [=](SimulationConfig* sim) {
        sim->bloom.bits_per_key = bits;
        sim->bloom.num_hashes = k;
      });
    }
  }
  t.push_back({"bloom", "sizing", "Bloom bits/key and hash count", kColumnar,
               0.1, {0.4}, {0.2}, {0.1}, std::move(bloom),
               {kShuffled, kSent}});
  t.back().checks = {
      {"paper's 8 bits/key, k=2 prunes more than 2 bits/key, k=1",
       [](Runs p) {
         return p.Count(0, 7, kShuffled) < p.Count(0, 0, kShuffled);
       }}};

  // The paper picks Bloom filters over the exact semijoin of related work
  // (§6): a fixed small filter with ~5% false positives against shipping
  // every T' key across the interconnect and back.
  JoinDriverOptions exact;
  exact.second_filter = SecondFilterKind::kExactSemijoin;
  t.push_back({"semijoin", "second_filter", "zigzag's second filter",
               kColumnar, 0.1, {0.4}, {0.5, 0.2, 0.05}, {0.1},
               {Arm("zigzag", kZz),
                Arm("zigzag(exact semijoin)", ZigzagWith(exact))},
               {kSent, metric::kSemijoinKeyBytesSent}});
  t.back().checks = {
      {"semijoin ships <= tuples than Bloom (no false positives)",
       [](Runs p) {
         return p.Every([&](size_t c) {
           return p.Count(c, 1, kSent) <= p.Count(c, 0, kSent);
         });
       }},
      {"Bloom variant is not slower overall (the paper's pick)",
       [](Runs p) { return p.SumWall(0) <= p.SumWall(1) * 1.1; }}};

  // Engine choices DESIGN.md calls out, on Table 1's cell. L is cut into
  // at least two blocks per JEN worker of the widest arm (8) at every
  // scale, so that adding workers or moving blocks has blocks to spread.
  constexpr uint64_t kWidestJen = 8;
  const auto scaling_block_rows = static_cast<uint32_t>(
      std::clamp<uint64_t>(bench.workload.l_rows / (2 * kWidestJen), 1,
                           32 * 1024));
  auto scaling = [&](std::string id, const char* title, HdfsFormat format,
                     std::vector<Arm> arms, Check check,
                     std::vector<const char*> counters = {}) {
    t.push_back({"scaling", std::move(id), title, format, 0.1, {0.4}, {0.2},
                 {0.1}, std::move(arms), std::move(counters),
                 {std::move(check)}});
    t.back().rows_per_block = scaling_block_rows;
  };
  std::vector<Arm> width;
  for (uint32_t n : {2u, 4u, uint32_t{kWidestJen}}) {
    width.emplace_back("zigzag, " + std::to_string(n) + " JEN workers", kZz,
                       [n](SimulationConfig* sim) { sim->jen_workers = n; });
  }
  scaling("workers", "JEN worker scaling", kText, std::move(width),
          {"more JEN workers -> faster scans (2 -> 8 workers)",
           [](Runs p) { return p.Wall(0, 0) > p.Wall(0, 2); }});
  scaling("locality", "locality-aware block assignment", kText,
          {Arm("zigzag, locality-aware", kZz),
           Arm("zigzag, round-robin", kZz,
               [](SimulationConfig* sim) { sim->jen.locality_aware = false; })},
          {"locality-aware assignment reads no remote blocks",
           [](Runs p) {
             return p.Count(0, 0, metric::kHdfsBlocksRemote) == 0;
           }},
          {metric::kHdfsBlocksRemote});
  std::vector<Arm> clustered = {
      Arm("zigzag, clustered L", kZz),
      Arm("zigzag, clustered L, no skipping", kZz,
          [](SimulationConfig* sim) { sim->jen.chunk_skipping = false; })};
  for (Arm& arm : clustered) arm.cluster_l = true;
  scaling("skipping", "columnar chunk skipping", kColumnar,
          std::move(clustered),
          {"skipping reads fewer bytes on a clustered table",
           [](Runs p) {
             return p.Count(0, 0, metric::kHdfsBytesRead) <
                    p.Count(0, 1, metric::kHdfsBytesRead);
           }},
          {metric::kHdfsBytesRead, metric::kHdfsTuplesScanned});
  // §4.4 builds on the shuffled L' so the build overlaps the scan on the
  // paper's 8-core nodes; where that overlap saves nothing the classic
  // build-on-the-smaller-side plan can win, so either may lead here.
  JoinDriverOptions build_on_db;
  build_on_db.build_on_db_data = true;
  scaling("build_side", "zigzag hash-build side", kColumnar,
          {Arm("zigzag, build on L' (paper)", kZz),
           Arm("zigzag, build on T''", ZigzagWith(build_on_db))},
          {"both build sides are within 2x (choice is regime-dependent)",
           [](Runs p) {
             return p.Wall(0, 0) <= p.Wall(0, 1) * 2.0 &&
                    p.Wall(0, 1) <= p.Wall(0, 0) * 2.0;
           }});
  scaling("switch", "cross-cluster switch bandwidth", kColumnar,
          {Arm("db(BF), paper switch", kDbBf),
           Arm("db(BF), 10x switch and DB ingest", kDbBf,
               [](SimulationConfig* sim) {
                 sim->net.cross_switch_bps *= 10;
                 sim->net.db_nic_bps *= 10;
               })},
          {"db-side join is interconnect-bound (10x switch helps)",
           [](Runs p) { return p.Wall(0, 1) < p.Wall(0, 0); }});

  // Memory-governed joins (the paper's §4.4 future work): zigzag under a
  // per-query MemoryGovernor budget from 8x down to 1/8x of the unlimited
  // run's own join.mem_peak_bytes (an upper bound on the build side, so 8x
  // never spills), on one slower spill disk per worker. Spilling, recursive
  // repartitioning and the block-nested-loop fallback may change the spill
  // traffic and the time, never the answer.
  //
  // The budget is a bound, not an estimate: a peak past it by more than
  // kRunwayBytes exits 1. The join charges what it holds and spills
  // rather than overshoot, so what passes the budget is state that cannot
  // spill and that MemoryGovernor::Reserve admits over budget by design:
  // exchange payloads in flight, morsel queue slots and aggregation groups.
  // The last dominates here: 200 groups take 6 KiB of HashAggregator
  // arrays (a 512-slot index, 256 groups and their counts) in each of the
  // 4 JEN partials, the final merge and DB worker 0's result, ~36 KiB when
  // they coexist.
  constexpr int64_t kRunwayBytes = 128 * 1024;
  std::vector<Arm> budgets = {Arm("zigzag, unlimited", kZz)};
  for (double x : {8.0, 4.0, 2.0, 1.0, 1.0 / 2, 1.0 / 4, 1.0 / 8}) {
    char label[48];
    std::snprintf(label, sizeof(label), "zigzag, budget %gx peak", x);
    budgets.emplace_back(label, kZz).budget_of_first_peak = x;
  }
  t.push_back({"spill", "budget", "zigzag under a per-query memory budget",
               kColumnar, 0.1, {0.4}, {0.5}, {0.5}, std::move(budgets),
               {metric::kSpillBytesWritten, metric::kSpilledPartitions,
                metric::kJoinRepartitionDepth, metric::kJoinMemPeakBytes}});
  t.back().edit_sim = [](SimulationConfig* sim) {
    sim->jen.spill_write_bps = sim->datanode.disk_read_bps / 4;
    sim->jen.spill_read_bps = sim->datanode.disk_read_bps / 4;
  };
  constexpr size_t kTightest = 7;
  t.back().checks = {
      {"8x budget completes without spilling",
       [](Runs p) {
         return p.Count(0, 1, metric::kSpillBytesWritten) == 0 &&
                p.Count(0, 1, metric::kSpilledPartitions) == 0;
       }},
      {"1/8x budget forces spilling",
       [](Runs p) {
         return p.Count(0, kTightest, metric::kSpillBytesWritten) > 0;
       }},
      {"full spilling costs time vs the loosest budget",
       [](Runs p) { return p.Wall(0, kTightest) > p.Wall(0, 1); }},
      {"every budgeted peak stays within budget + runway",
       [](Runs p) {
         bool bounded = true;
         for (size_t a = 1; a < p.cells[0].size(); ++a) {
           const int64_t peak = p.Count(0, a, metric::kJoinMemPeakBytes);
           const auto budget = static_cast<int64_t>(p.cells[0][a].budget);
           if (peak <= budget + kRunwayBytes) continue;
           bounded = false;
           std::fprintf(stderr, "arm %zu: peak %" PRId64 " B > budget %" PRId64
                        " B + runway %" PRId64 " B\n",
                        a, peak, budget, kRunwayBytes);
         }
         return bounded;
       },
       /*blocking=*/true}};

  // Skew-aware shuffle: repartition(BF) under a Zipf key draw with the
  // hybrid hot-key route off and on. Under skew the agreed hash sends every
  // row of a hot key to one JEN worker, which straggles while the others
  // idle; the route broadcasts hot build rows, keeps hot probe rows local
  // and repartitions cold keys. Full key windows (S_T' = S_L' = 1) let the
  // hot keys join wherever their hash lands.
  for (double s : {0.0, 0.8, 1.0, 1.2}) {
    char id[16];
    std::snprintf(id, sizeof(id), "s=%g", s);
    t.push_back({"skew", id, "hot-key route off vs on under Zipf skew",
                 kColumnar, 0.5, {0.5}, {1.0}, {1.0},
                 {Arm("repartition(BF), hot route off", kRepBf,
                      [](SimulationConfig* sim) { sim->skew.enabled = false; }),
                  Arm("repartition(BF), hot route on", kRepBf,
                      [](SimulationConfig* sim) { sim->skew.enabled = true; })},
                 {metric::kShuffleHotKeys, metric::kShuffleBroadcastBytes,
                  metric::kShuffleHotRowsProbe}});
    // A slim build side and a fat probe side: with Zipf on both tables the
    // output grows as t_hot x l_hot, identically with the route on or off,
    // and would drown the shuffle straggler; only the probe side, which
    // the route rebalances, needs scale.
    t.back().edit_workload = [s](WorkloadConfig* w) {
      w->zipf_s = s;
      w->t_rows = std::min<uint64_t>(w->t_rows, 1024);
      w->l_rows = std::min<uint64_t>(w->l_rows, 96 * 1024);
      w->num_join_keys = std::min<uint64_t>(w->num_join_keys, 2048);
    };
    // A wide JEN fleet makes the fair share small, which is when the
    // straggler hurts most. A fast DB NIC keeps the paper's under-provisioned
    // ingest from masking the JEN shuffle, and throttled JEN NICs make the
    // hot key's receiver the bottleneck.
    t.back().edit_sim = [](SimulationConfig* sim) {
      sim->jen_workers = std::max<uint32_t>(sim->jen_workers, 8);
      sim->net.db_nic_bps = 12 * 1024 * 1024;
      sim->net.hdfs_nic_bps = 512 * 1024;
    };
    // Small blocks, so every JEN worker holds a slice of the probe table
    // and the kept hot rows do not become a CPU straggler on two workers.
    t.back().rows_per_block = 2 * 1024;
  }
  t[t.size() - 4].checks = {
      {"uniform workload picks no hot keys",
       [](Runs p) {
         return p.Count(0, 1, metric::kShuffleHotKeys) == 0 &&
                p.Count(0, 1, metric::kShuffleBroadcastBytes) == 0;
       }},
      {"uniform wall regression stays within noise (<= 15%)",
       [](Runs p) { return p.Wall(0, 1) <= p.Wall(0, 0) * 1.15; }}};
  t.back().checks = {
      {"s=1.2 engages the hot route",
       [](Runs p) { return p.Count(0, 1, metric::kShuffleHotKeys) > 0; }},
      {"s=1.2 hybrid wins >= 1.5x wall",
       [](Runs p) { return p.Wall(0, 1) * 1.5 <= p.Wall(0, 0); }},
      {"s=1.2 hybrid flattens the worker-wall skew",
       [](Runs p) { return p.JenSkew(0, 1) < p.JenSkew(0, 0); }}};

  // Adaptive join location (hybrid/adaptive_join.cc): can the mid-query
  // decision point recover from a misleading estimate, and what does it
  // cost when the estimate was fine? In the misleading panel T is stored
  // sorted on corPred, so the estimator's one sampled batch sees no
  // qualifying row and the advisor picks broadcast for a "tiny" T'; the
  // throttled switch makes broadcasting the real T' (20% of T) expensive.
  // The accurate panel stores T in random order. The shape is pinned, not
  // scaled: the sampled batch landing in the non-qualifying region is a
  // property of exactly this shape.
  const RunFn advisor_pick = [](HybridWarehouse* hw, const HybridQuery& query)
      -> Result<QueryResult> {
    HJ_ASSIGN_OR_RETURN(QueryEstimates est,
                        EstimateQuery(&hw->context(), query));
    return hw->Execute(query, AdviseAlgorithm(hw->context(), est).algorithm);
  };
  const RunFn adaptive = [](HybridWarehouse* hw, const HybridQuery& query) {
    return hw->ExecuteAuto(query);
  };
  for (const bool misleading : {true, false}) {
    std::vector<Arm> arms = {Arm("advisor's pick, static", advisor_pick),
                             Arm("ExecuteAuto (adaptive)", adaptive)};
    if (misleading) arms.emplace_back("zigzag (oracle)", kZz);
    t.push_back({"adaptive", misleading ? "misleading" : "accurate",
                 misleading ? "T clustered on corPred misleads the estimate"
                            : "T in random order: an accurate estimate",
                 kColumnar, 0.2, {0.1}, {0.5}, {0.5}, std::move(arms),
                 {metric::kAdvisorEstimatedDbBytes,
                  metric::kAdvisorObservedDbBytes, metric::kAdvisorPivoted}});
    // 16 stored batches per DB worker, with the qualifying 20% clustered
    // into the first ~3 when misleading.
    t.back().edit_workload = [misleading](WorkloadConfig* w) {
      w->num_join_keys = 2048;
      w->t_rows = 64 * 1024;
      w->l_rows = 192 * 1024;
      w->batch_rows = 16 * 1024;
      w->cluster_t_by_pred = misleading;
    };
    // The cost asymmetry on an otherwise unthrottled cluster: a slow switch
    // makes the broadcast mispick pay for the real T', and a modest JEN NIC
    // keeps the estimated zigzag shuffle above the scan, so the misled
    // advisor prefers broadcast in the first place.
    t.back().edit_sim = [](SimulationConfig* sim) {
      Unthrottle(sim);
      sim->db.num_workers = 2;
      sim->jen_workers = 3;
      sim->db.batch_rows = 4096;
      sim->exec_threads = 1;
      sim->net.hdfs_nic_bps = 2 * 1024 * 1024;
      sim->net.cross_switch_bps = 512 * 1024;
    };
    t.back().rows_per_block = 64 * 1024;
    // The NIC buckets accrue burst credit while idle (full again after
    // <= 125 ms at these rates). A run whose network phases interleave with
    // CPU phases, as the decision point's do, would otherwise ride credit
    // that a back-to-back static run had drained: once a nonsensical
    // "negative overhead" for the adaptive layer.
    t.back().pause = std::chrono::milliseconds(150);
  }
  t[t.size() - 2].checks = {
      {"clustered layout misleads the estimator (est T' = 0)",
       [](Runs p) {
         return p.Count(0, 1, metric::kAdvisorEstimatedDbBytes) == 0 &&
                p.Count(0, 1, metric::kAdvisorObservedDbBytes) > 0;
       }},
      {"misled advisor picks broadcast",
       [](Runs p) { return p.Ran(0, 0) == kBcast; }},
      {"decision point pivots off the mispick",
       [](Runs p) {
         return p.Count(0, 1, metric::kAdvisorPivoted) > 0 &&
                p.Ran(0, 1) == p.Ran(0, 2) && p.Ran(0, 1) != p.Ran(0, 0);
       }},
      {"adaptive recovers >= 50% of the mispick-vs-oracle gap", [](Runs p) {
         const double gap = p.Wall(0, 0) - p.Wall(0, 2);
         return gap > 0 && (p.Wall(0, 0) - p.Wall(0, 1)) / gap >= 0.5;
       }}};
  t.back().checks = {
      {"accurate stats stay on the initial pick",
       [](Runs p) {
         return p.Count(0, 1, metric::kAdvisorPivoted) == 0 &&
                p.Ran(0, 1) == p.Ran(0, 0);
       }},
      {"accurate-stats overhead <= 5%",
       [](Runs p) { return p.Wall(0, 1) <= p.Wall(0, 0) * 1.05; }}};

  // Intra-node morsel parallelism on Table 1's cell with no simulated
  // bandwidth limit, so CPU is what the threads share.
  std::vector<Arm> threads;
  for (uint32_t n : {1u, 2u, 4u, 8u}) {
    threads.emplace_back(
        "zigzag, exec_threads=" + std::to_string(n), kZz,
        [n](SimulationConfig* sim) { sim->exec_threads = n; });
  }
  t.push_back({"parallelism", "exec_threads",
               "intra-node threads on an unthrottled cluster", kColumnar, 0.1,
               {0.4}, {0.2}, {0.1}, std::move(threads), {kShuffled, kSent}});
  t.back().edit_sim = Unthrottle;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig bench = BenchConfig::FromEnv();
  const std::vector<Panel> table = PaperTable(bench);
  std::set<std::string> known;
  for (const Panel& p : table) known.insert(p.exhibit);
  std::set<std::string> wanted;
  std::string out_path = "BENCH_paper.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--exhibit=", 0) == 0 && known.count(arg.substr(10)) > 0) {
      wanted.insert(arg.substr(10));
    } else if (arg.rfind("--out=", 0) == 0 && arg.size() > 6) {
      out_path = arg.substr(6);
    } else {
      std::fprintf(stderr,
                   "bench_paper: bad argument '%s'\nusage: bench_paper "
                   "[--exhibit=NAME]... [--out=PATH]\n",
                   arg.c_str());
      return 2;
    }
  }

  PrintPreamble("Paper exhibits", "Table 1, Figures 8-15 and ablations",
                bench);
  std::vector<JsonValue> rows;
  std::vector<std::string> failed;  // blocking checks that failed
  // [exhibit][panel id]
  std::map<std::string, std::map<std::string, PanelRuns>> runs;
  for (const Panel& panel : table) {
    if (!wanted.empty() && wanted.count(panel.exhibit) == 0) continue;
    PanelRuns& panel_runs = runs[panel.exhibit][panel.id];
    panel_runs.exhibit = &runs[panel.exhibit];
    if (Status st = RunPanel(bench, panel, &panel_runs, &rows); !st.ok()) {
      std::fprintf(stderr, "bench_paper: %s\n", st.ToString().c_str());
      return 1;
    }
    for (const Check& check : panel.checks) {
      const bool holds = check.holds(panel_runs);
      ShapeCheck(check.claim, holds);
      if (!holds && check.blocking) {
        failed.push_back(std::string(panel.exhibit) + "/" + panel.id + ": " +
                         check.claim);
      }
    }
  }
  if (!WriteRows(out_path, rows)) return 1;
  for (const std::string& f : failed) {
    std::fprintf(stderr, "bench_paper: blocking check failed: %s\n", f.c_str());
  }
  return failed.empty() ? 0 : 1;
}
