#include "testing/differential.h"

#include <sstream>

#include "hdfs/format.h"
#include "hybrid/reference.h"
#include "workload/loader.h"

namespace hybridjoin {
namespace testing_support {

namespace {

// SplitMix64: every knob of a case is drawn from this generator seeded with
// the case seed, so a seed fully determines the case on every platform
// (std::mt19937's distributions are not portable across libstdc++ versions).
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4568bULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [lo, hi], inclusive.
  uint64_t Range(uint64_t lo, uint64_t hi) {
    return lo + Next() % (hi - lo + 1);
  }

  /// Uniform in [0, 1).
  double Unit() { return (Next() >> 11) * 0x1.0p-53; }

  /// Uniform in [lo, hi).
  double RangeF(double lo, double hi) { return lo + Unit() * (hi - lo); }

 private:
  uint64_t state_;
};

std::string CellToString(const ColumnVector& col, size_t row) {
  switch (col.physical_type()) {
    case PhysicalType::kInt32:
      return std::to_string(col.i32()[row]);
    case PhysicalType::kInt64:
      return std::to_string(col.i64()[row]);
    case PhysicalType::kFloat64:
      return std::to_string(col.f64()[row]);
    case PhysicalType::kString: {
      std::string quoted = "\"";
      quoted.append(col.str()[row]).push_back('"');
      return quoted;
    }
  }
  return "?";
}

bool CellsEqual(const ColumnVector& a, const ColumnVector& b, size_t row) {
  switch (a.physical_type()) {
    case PhysicalType::kInt32:
      return a.i32()[row] == b.i32()[row];
    case PhysicalType::kInt64:
      return a.i64()[row] == b.i64()[row];
    case PhysicalType::kFloat64:
      return a.f64()[row] == b.f64()[row];
    case PhysicalType::kString:
      return a.str()[row] == b.str()[row];
  }
  return false;
}

/// The post-join predicate of a case. Every shape but the last two has a
/// band the join walks (ExtractJoinBand); the dates of both sides lie in
/// [date_base_days, date_base_days + date_window_days).
PredicatePtr RandomPostJoinPredicate(SplitMix* rng,
                                     const WorkloadConfig& workload) {
  const std::string t = "T.predAfterJoin";
  const std::string l = "L.predAfterJoin";
  const auto date = [&](uint64_t offset) {
    return Value(static_cast<int32_t>(workload.date_base_days + offset));
  };
  switch (rng->Range(0, 7)) {
    case 0:  // the paper's
      return DiffRange(t, l, 0, 1);
    case 1:  // the same band, swapped orientation
      return DiffRange(l, t, -1, 0);
    case 2: {  // wide
      const auto lo = -static_cast<int64_t>(rng->Range(3, 12));
      return DiffRange(t, l, lo, static_cast<int64_t>(rng->Range(3, 12)));
    }
    case 3: {  // negative
      const auto hi = -static_cast<int64_t>(rng->Range(1, 8));
      return DiffRange(t, l, hi - static_cast<int64_t>(rng->Range(0, 3)), hi);
    }
    case 4: {  // empty: lo > hi
      const auto lo = static_cast<int64_t>(rng->Range(0, 4));
      return DiffRange(t, l, lo, lo - static_cast<int64_t>(rng->Range(1, 3)));
    }
    case 5: {  // a band and a one-sided literal, left as the residual
      const bool t_side = rng->Range(0, 1) == 0;
      return And({DiffRange(t, l, 0, 1),
                  Cmp(t_side ? t : l, rng->Range(0, 1) == 0 ? CmpOp::kLt
                                                             : CmpOp::kGe,
                      date(rng->Range(5, 25)))});
    }
    case 6:  // a band under OR: nothing to walk
      return Or({DiffRange(t, l, 0, 1),
                 Cmp(l, CmpOp::kEq, date(rng->Range(0, 29)))});
    default:
      return nullptr;
  }
}

/// The L scan predicate of a case, over corPred and indPred (both in
/// [0, pred_domain)), groupByExtractCol ("g<group>/products/item<n>") and
/// predAfterJoin; null keeps the workload's corPred < a AND indPred < b.
/// The shapes cover every op, literals outside the columns' range, OR, NOT,
/// and conjunctions whose residual cannot run on the encoded chunks.
PredicatePtr RandomLPredicate(SplitMix* rng, const WorkloadConfig& workload) {
  const auto domain = static_cast<uint64_t>(workload.pred_domain);
  const auto lit = [&](uint64_t lo, uint64_t hi) {
    return Value(static_cast<int32_t>(rng->Range(lo, hi)));
  };
  const std::string column = rng->Range(0, 1) == 0 ? "corPred" : "indPred";
  switch (rng->Range(0, 7)) {
    case 0: {  // one comparison, any op
      const auto op = static_cast<CmpOp>(rng->Range(0, 5));
      return Cmp(column, op, lit(0, domain - 1));
    }
    case 1: {  // a literal below or above every value
      const auto op = static_cast<CmpOp>(rng->Range(0, 5));
      const auto outside = static_cast<int64_t>(rng->Range(1, domain));
      return Cmp(column, op,
                 Value(rng->Range(0, 1) == 0
                           ? -outside
                           : static_cast<int64_t>(domain) - 1 + outside));
    }
    case 2:  // OR: nothing to push
      return Or({Cmp("corPred", CmpOp::kLt, lit(0, domain / 3)),
                 Cmp("indPred", CmpOp::kGe, lit(domain / 2, domain - 1))});
    case 3:  // NOT
      return Not(Cmp(column, CmpOp::kLt, lit(0, domain - 1)));
    case 4:  // a pushed conjunct and a string-prefix residual
      return And({Cmp(column, CmpOp::kLe, lit(domain / 4, domain - 1)),
                  StrPrefix("groupByExtractCol",
                            "g" + std::to_string(rng->Range(1, 9)))});
    case 5: {  // pushed conjuncts and a DiffRange residual
      const auto lo = -static_cast<int64_t>(rng->Range(0, domain / 2));
      return And({Cmp("indPred", CmpOp::kGe, lit(0, domain / 4)),
                  DiffRange("corPred", "indPred", lo,
                            lo + static_cast<int64_t>(rng->Range(0, domain))),
                  Cmp("corPred", CmpOp::kNe, lit(0, domain - 1))});
    }
    case 6:  // a band on L's date, residual beside a pushed conjunct
      return And({Cmp("predAfterJoin", CmpOp::kGe,
                      Value(static_cast<int32_t>(workload.date_base_days +
                                                 rng->Range(0, 20)))),
                  Not(Cmp(column, CmpOp::kGt, lit(0, domain - 1)))});
    default:
      return nullptr;
  }
}

}  // namespace

const std::vector<std::string>& DifferentialVariants() {
  static const std::vector<std::string> kVariants = {
      "db",     "db_bloom",          "broadcast",      "repartition",
      "repartition_bloom", "zigzag", "zigzag_semijoin"};
  return kVariants;
}

Result<QueryResult> RunVariant(HybridWarehouse* warehouse,
                               const HybridQuery& query,
                               const std::string& variant) {
  if (variant == "db") {
    return warehouse->Execute(query, JoinAlgorithm::kDbSide);
  }
  if (variant == "db_bloom") {
    return warehouse->Execute(query, JoinAlgorithm::kDbSideBloom);
  }
  if (variant == "broadcast") {
    return warehouse->Execute(query, JoinAlgorithm::kBroadcast);
  }
  if (variant == "repartition") {
    return warehouse->Execute(query, JoinAlgorithm::kRepartition);
  }
  if (variant == "repartition_bloom") {
    return warehouse->Execute(query, JoinAlgorithm::kRepartitionBloom);
  }
  if (variant == "zigzag") {
    return warehouse->Execute(query, JoinAlgorithm::kZigzag);
  }
  if (variant == "adaptive") {
    // ExecuteAuto routes through the adaptive decision point when
    // SimulationConfig::adaptive.enabled (the sweep also zeroes the pivot
    // hysteresis so estimate-vs-observation disagreements always pivot).
    return warehouse->ExecuteAuto(query);
  }
  if (variant == "zigzag_semijoin") {
    // Not reachable through the JoinAlgorithm enum: the exact-semijoin
    // second filter is a driver-level ablation, so invoke the driver.
    EngineContext* ctx = &warehouse->context();
    HJ_ASSIGN_OR_RETURN(PreparedQuery prepared, PrepareQuery(ctx, query));
    JoinDriverOptions options;
    options.second_filter = SecondFilterKind::kExactSemijoin;
    return RunRepartitionFamilyJoin(ctx, prepared, /*use_db_bloom=*/true,
                                    /*zigzag=*/true, options);
  }
  return Status::InvalidArgument("unknown variant '" + variant + "'");
}

std::optional<std::string> CompareBatches(const RecordBatch& expected,
                                          const RecordBatch& actual) {
  if (actual.num_columns() != expected.num_columns()) {
    return "column count: expected " + std::to_string(expected.num_columns()) +
           ", got " + std::to_string(actual.num_columns());
  }
  if (actual.num_rows() != expected.num_rows()) {
    return "row count: expected " + std::to_string(expected.num_rows()) +
           ", got " + std::to_string(actual.num_rows());
  }
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    if (actual.column(c).physical_type() !=
        expected.column(c).physical_type()) {
      return "column " + std::to_string(c) + ": physical type mismatch";
    }
    for (size_t r = 0; r < expected.num_rows(); ++r) {
      if (!CellsEqual(expected.column(c), actual.column(c), r)) {
        return "row " + std::to_string(r) + " col " + std::to_string(c) +
               ": expected " + CellToString(expected.column(c), r) + ", got " +
               CellToString(actual.column(c), r);
      }
    }
  }
  return std::nullopt;
}

DiffCase MakeRandomCase(uint64_t seed, bool full_key_windows) {
  SplitMix rng(seed);
  DiffCase c;

  // Small enough that 200 seeds x 7 variants x several profiles finish in
  // minutes, large enough that every worker sees multiple batches/blocks.
  c.workload.num_join_keys = rng.Range(64, 768);
  c.workload.t_rows = rng.Range(1500, 8000);
  c.workload.l_rows = rng.Range(6000, 30000);
  c.workload.num_groups = static_cast<uint32_t>(rng.Range(1, 48));
  c.workload.batch_rows = static_cast<uint32_t>(rng.Range(1024, 8192));
  c.workload.seed = rng.Next();

  // Draw selectivity targets until the solver accepts them (most draws are
  // feasible; the retry keeps the case distribution wide without biasing
  // toward a fixed fallback).
  bool solved = false;
  for (int attempt = 0; attempt < 32 && !solved; ++attempt) {
    SelectivitySpec spec;
    spec.sigma_t = rng.RangeF(0.02, 0.6);
    spec.sigma_l = rng.RangeF(0.02, 0.6);
    spec.st = rng.RangeF(0.05, 1.0);
    spec.sl = rng.RangeF(0.05, 1.0);
    if (full_key_windows) spec.st = spec.sl = 1.0;
    if (SolveSelectivities(spec, c.workload).ok()) {
      c.spec = spec;
      solved = true;
    }
  }
  if (!solved) {
    const double window = full_key_windows ? 1.0 : 0.5;
    c.spec = SelectivitySpec{0.1, 0.1, window, window};
  }

  c.db_workers = static_cast<uint32_t>(rng.Range(1, 5));
  c.jen_workers = static_cast<uint32_t>(rng.Range(1, 6));
  c.format = (rng.Next() & 1) ? HdfsFormat::kText : HdfsFormat::kColumnar;
  const uint32_t kBlockRows[] = {512, 1024, 2048, 4096};
  c.rows_per_block = kBlockRows[rng.Range(0, 3)];
  c.post_join_predicate = RandomPostJoinPredicate(&rng, c.workload);
  c.l_predicate = RandomLPredicate(&rng, c.workload);

  std::ostringstream os;
  os << "keys=" << c.workload.num_join_keys << " t=" << c.workload.t_rows
     << " l=" << c.workload.l_rows << " groups=" << c.workload.num_groups
     << " batch=" << c.workload.batch_rows << " spec={" << c.spec.sigma_t
     << "," << c.spec.sigma_l << "," << c.spec.st << "," << c.spec.sl << "}"
     << " m=" << c.db_workers << " n=" << c.jen_workers
     << " fmt=" << HdfsFormatName(c.format) << " rpb=" << c.rows_per_block
     << " post=" << (c.post_join_predicate != nullptr
                         ? c.post_join_predicate->ToString()
                         : "none")
     << " lpred="
     << (c.l_predicate != nullptr ? c.l_predicate->ToString() : "workload");
  c.summary = os.str();
  return c;
}

bool DiffCaseReport::ok() const {
  if (!setup_error.ok()) return false;
  if (outcomes.empty()) return false;
  for (const VariantOutcome& o : outcomes) {
    if (!o.leak.empty()) return false;
    if (o.status.ok()) {
      // A run that claims success must match the oracle under EVERY
      // profile — a wrong answer is never an acceptable fault outcome.
      if (!o.matched) return false;
    } else if (profile_recoverable) {
      // Recoverable profiles must be absorbed by retry/dedup.
      return false;
    }
    // Unrecoverable profile + non-OK status: clean failure, acceptable.
  }
  return true;
}

std::string DiffCaseReport::Summary() const {
  std::ostringstream os;
  os << "seed=" << seed << " profile=" << profile << " [" << case_summary
     << "]";
  if (!setup_error.ok()) {
    os << "\n  SETUP FAILED: " << setup_error.ToString();
  }
  for (const VariantOutcome& o : outcomes) {
    os << "\n  " << o.variant << ": ";
    if (!o.leak.empty()) os << "LEAKED " << o.leak << "; ";
    if (!o.status.ok()) {
      os << (profile_recoverable ? "FAILED (profile is recoverable): "
                                 : "failed cleanly: ")
         << o.status.ToString();
    } else if (!o.matched) {
      os << "MISMATCH vs reference: " << o.mismatch;
    } else {
      os << "ok";
    }
  }
  if (!ok()) {
    os << "\n  reproduce: fuzz_joins --seed=" << seed
       << " --profiles=" << profile;
    if (exec_threads != 1) os << " --exec_threads=" << exec_threads;
    if (mem_budget_bytes != 0) {
      os << " --mem_budget_bytes=" << mem_budget_bytes;
    }
    if (zipf_s != 0) os << " --zipf_s=" << zipf_s;
    if (adaptive) os << " --adaptive";
  }
  return os.str();
}

DiffCaseReport RunDifferentialCase(uint64_t seed,
                                   const std::string& profile_name,
                                   uint64_t recv_timeout_ms,
                                   uint32_t exec_threads,
                                   const std::string& profile_out_prefix,
                                   uint64_t mem_budget_bytes,
                                   double zipf_s, bool adaptive) {
  DiffCaseReport report;
  report.seed = seed;
  report.profile = profile_name;
  report.exec_threads = exec_threads;
  report.mem_budget_bytes = mem_budget_bytes;
  report.zipf_s = zipf_s;
  report.adaptive = adaptive;

  // The skew axis draws full key windows (st = sl = 1): a random window
  // usually leaves the Zipf head out of L', and then no hot probe row ever
  // takes the keep-local route. Every other knob of the case is drawn as
  // for the uniform sweep.
  DiffCase c = MakeRandomCase(seed, /*full_key_windows=*/zipf_s != 0);
  c.workload.zipf_s = zipf_s;
  if (zipf_s != 0) {
    c.summary += " zipf_s=" + std::to_string(zipf_s);
  }
  report.case_summary = c.summary;

  // The profile is seeded with the case seed so the whole run — workload,
  // cluster shape and fault schedule — reproduces from one number.
  auto profile = FaultProfile::ByName(profile_name, seed, c.jen_workers);
  if (!profile.ok()) {
    report.setup_error = profile.status();
    return report;
  }
  report.profile_recoverable = profile->recoverable();

  auto workload = Workload::Generate(c.workload, c.spec);
  if (!workload.ok()) {
    report.setup_error = workload.status();
    return report;
  }
  HybridQuery query = workload->MakeQuery();
  query.post_join_predicate = c.post_join_predicate;
  if (c.l_predicate != nullptr) query.hdfs.predicate = c.l_predicate;

  auto expected =
      RunReferenceJoin({workload->t_rows()}, workload->l_batches(), query);
  if (!expected.ok()) {
    report.setup_error = expected.status();
    return report;
  }

  std::vector<std::string> variants = DifferentialVariants();
  if (adaptive) variants.push_back("adaptive");

  for (const std::string& variant : variants) {
    // A fresh warehouse per variant: the one-shot stall re-arms, and every
    // variant sees the same deterministic fault schedule from seq 0 instead
    // of one schedule smeared across whichever variants ran earlier.
    SimulationConfig config;
    config.db.num_workers = c.db_workers;
    config.jen_workers = c.jen_workers;
    config.bloom.expected_keys = c.workload.num_join_keys;
    // Pin the sweep to the blocked Bloom layout explicitly: the differential
    // comparison must hold with the batched cache-line-blocked kernels on
    // the hot path (a false positive the filter lets through is removed by
    // the join itself, so results are layout-invariant — this asserts it).
    config.bloom.layout = BloomLayout::kBlocked;
    // Pinned (not auto-derived) so a sweep means the same thing on every
    // host; the default of 1 keeps the historical single-threaded engine.
    config.exec_threads = exec_threads;
    // Memory-pressure axis: a nonzero budget seeds every variant's
    // MemoryGovernor, forcing the grace join to spill on the larger cases
    // while the oracle stays unbudgeted — spilling must not change results.
    config.query_memory_budget_bytes = mem_budget_bytes;
    // The adaptive sweep forces every estimate-vs-observation disagreement
    // to pivot (zero hysteresis), so the mid-query handoff paths get fuzzed
    // instead of only engaging on badly wrong estimates. The sample-cost
    // fraction cap is lifted too: the cases here are deliberately tiny
    // (few blocks per worker), and with the default cap no worker would
    // ship a JEN sample, leaving the observed-HDFS paths unexercised.
    if (adaptive) {
      config.adaptive.pivot_threshold = 0.0;
      config.adaptive.hdfs_sample_max_fraction = 1.0;
    }
    config.net.recv_timeout_ms = recv_timeout_ms;
    config.fault = *profile;
    HybridWarehouse hw(config);

    LoadOptions load;
    load.hdfs.format = c.format;
    load.hdfs.rows_per_block = c.rows_per_block;
    if (Status s = LoadWorkload(&hw, *workload, load); !s.ok()) {
      report.setup_error = s;  // loading never touches the faulted network
      return report;
    }

    VariantOutcome out;
    out.variant = variant;
    // The leak check: every execution releases its channel tags and its
    // governor reservations on every exit path, faults included.
    const Network& net = hw.context().network();
    const size_t channels_before = net.num_channels();
    auto result = RunVariant(&hw, query, variant);
    out.status = result.status();
    if (net.num_channels() != channels_before) {
      out.leak = std::to_string(net.num_channels() - channels_before) +
                 " channel(s)";
    }
    if (const int64_t leaked = hw.context().metrics().Get(
            metric::kServerGovernorLeakedBytes);
        leaked != 0) {
      if (!out.leak.empty()) out.leak += ", ";
      out.leak += std::to_string(leaked) + " governor byte(s)";
    }
    if (result.ok()) {
      report.hot_rows_probe +=
          result->report.Counter(metric::kShuffleHotRowsProbe);
      auto diff = CompareBatches(*expected, result->rows);
      out.matched = !diff.has_value();
      if (diff.has_value()) out.mismatch = *diff;
      if (!profile_out_prefix.empty()) {
        // Best-effort export: a failure to write is not a case failure.
        (void)result->report.profile.WriteJson(profile_out_prefix + "." +
                                               variant + ".json");
      }
    }
    report.outcomes.push_back(std::move(out));
  }
  return report;
}

}  // namespace testing_support
}  // namespace hybridjoin
