// Randomized differential testing of the five join algorithms (seven
// variants counting the Bloom ablations and both zigzag second-filter
// kinds) against the single-node reference executor, optionally under a
// named fault-injection profile.
//
// Everything here is a pure function of the case seed: the workload shape,
// the selectivity targets, the cluster sizes, the HDFS format and the fault
// profile seed all derive from it, so any failure is reproduced by
// `fuzz_joins --seed=N --profiles=<name>` (docs/testing.md).

#ifndef HYBRIDJOIN_TESTING_DIFFERENTIAL_H_
#define HYBRIDJOIN_TESTING_DIFFERENTIAL_H_

#include <optional>
#include <string>
#include <vector>

#include "hdfs/table_writer.h"
#include "hybrid/warehouse.h"
#include "net/fault_injector.h"
#include "workload/generator.h"

namespace hybridjoin {
namespace testing_support {

/// The seven algorithm variants a differential case exercises.
/// "zigzag" is the paper's Bloom second filter; "zigzag_semijoin" swaps in
/// the exact-semijoin second filter of §6's related work.
const std::vector<std::string>& DifferentialVariants();

/// Runs one variant by name on an already-loaded warehouse.
Result<QueryResult> RunVariant(HybridWarehouse* warehouse,
                               const HybridQuery& query,
                               const std::string& variant);

/// Byte-for-byte comparison (schema, row order, every cell — no sorting):
/// nullopt when equal, else a description of the first difference.
std::optional<std::string> CompareBatches(const RecordBatch& expected,
                                          const RecordBatch& actual);

/// One seed-derived differential case: workload shape, selectivity targets
/// (re-drawn until the solver accepts them), cluster sizes, HDFS layout,
/// post-join predicate, L scan predicate, aggregate.
struct DiffCase {
  WorkloadConfig workload;
  SelectivitySpec spec;
  uint32_t db_workers = 2;
  uint32_t jen_workers = 3;
  HdfsFormat format = HdfsFormat::kColumnar;
  uint32_t rows_per_block = 4096;
  /// The query's post-join predicate, over T.predAfterJoin and
  /// L.predAfterJoin: the paper's band, its swapped orientation, a wide,
  /// negative or empty band, a band with a one-sided residual, a band under
  /// OR (no band to walk), or none.
  PredicatePtr post_join_predicate;
  /// The query's L scan predicate, drawn after every other field so each
  /// seed's other fields stay as they were: one comparison of any op, a
  /// literal outside the column's range, an OR, a NOT, or a conjunction
  /// with a string-prefix, DiffRange or NOT residual; null keeps the
  /// workload's corPred < a AND indPred < b.
  PredicatePtr l_predicate;
  /// The query's aggregate, drawn last of all: the paper's COUNT(*) by
  /// extract_group(L.groupByExtractCol), or a group by that UDF or by an
  /// integer column of either side with COUNT(*) / SUM / MIN / MAX items
  /// over integer columns of either side. The query projects every column
  /// it reads.
  AggSpec agg;
  std::string summary;  ///< one line for logs
};

/// `full_key_windows` pins both join-key selectivities to 1 (st = sl = 1),
/// so every key can reach the join; the skew axis uses it.
DiffCase MakeRandomCase(uint64_t seed, bool full_key_windows = false);

/// What happened to one variant of one case.
struct VariantOutcome {
  std::string variant;
  Status status;          ///< the run's Status
  bool matched = false;   ///< equal to the oracle (meaningful when status ok)
  std::string mismatch;   ///< first differing cell, when !matched
  /// What the run left behind — channels still in the network or governor
  /// bytes never released — whatever its status; empty when clean.
  std::string leak = {};
};

/// The verdict for one (seed, profile) pair.
struct DiffCaseReport {
  uint64_t seed = 0;
  std::string profile;
  uint32_t exec_threads = 1;
  uint64_t mem_budget_bytes = 0;
  double zipf_s = 0;
  bool adaptive = false;
  bool profile_recoverable = true;
  std::string case_summary;
  Status setup_error;  ///< generation/load/oracle failure (aborts the case)
  /// Hot probe rows kept local by the skew route, summed over the variants
  /// that ran OK (shuffle.hot_rows_probe).
  int64_t hot_rows_probe = 0;
  std::vector<VariantOutcome> outcomes;

  /// Under a recoverable profile every variant must run OK and match the
  /// oracle; under an unrecoverable one each variant must either match or
  /// fail with a non-OK Status (silent wrong answers are never acceptable).
  /// Under every profile no variant may leak channels or governor bytes.
  bool ok() const;

  /// Human-readable verdict, including the reproduction command when not ok.
  std::string Summary() const;
};

/// Runs all variants of the seed's case under the named fault profile
/// ("none", "delays", "flaky", "stall", "lossy"), comparing against
/// RunReferenceJoin. `recv_timeout_ms` bounds every blocking receive so
/// injected loss surfaces as Status::TimedOut instead of a hang.
/// `exec_threads` sets SimulationConfig::exec_threads for every variant:
/// 1 (the default) pins the historical single-threaded per-worker
/// execution; > 1 asserts that morsel-parallel scan/build/probe/aggregate
/// still match the reference byte-for-byte. A non-empty
/// `profile_out_prefix` writes each successful variant's query-profile
/// JSON to `<prefix>.<variant>.json` (best-effort; CI uploads these).
/// `mem_budget_bytes` sets SimulationConfig::query_memory_budget_bytes for
/// every variant (0 = unlimited): the grace join spills to honor it, and
/// the spilled runs must still match the oracle byte-for-byte — this is
/// the memory-pressure axis of the sweep. The single-node reference oracle
/// is never budgeted. `zipf_s` overrides the case's key-skew exponent
/// (0, the default, keeps the seed's historical uniform workload
/// bit-identical) and draws the case with full key windows: a skewed sweep
/// exercises the skew-aware hybrid shuffle route, which must also match
/// the oracle byte-for-byte. `adaptive` adds
/// an eighth variant, "adaptive", that executes through ExecuteAuto's
/// adaptive decision point with the pivot hysteresis forced to zero — any
/// disagreement between the sampled estimates and the observed prefix
/// statistics pivots mid-query, so the sweep fuzzes every pivot path (the
/// single-node reference oracle stays static, as do the other variants).
DiffCaseReport RunDifferentialCase(uint64_t seed,
                                   const std::string& profile_name,
                                   uint64_t recv_timeout_ms = 5000,
                                   uint32_t exec_threads = 1,
                                   const std::string& profile_out_prefix = "",
                                   uint64_t mem_budget_bytes = 0,
                                   double zipf_s = 0,
                                   bool adaptive = false);

}  // namespace testing_support
}  // namespace hybridjoin

#endif  // HYBRIDJOIN_TESTING_DIFFERENTIAL_H_
