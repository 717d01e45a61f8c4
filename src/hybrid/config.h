// SimulationConfig: every knob of the two-cluster substrate in one options
// struct. The defaults disable all throttling (unit tests run at memory
// speed); benches install bandwidths scaled from the paper's testbed
// (§5: 30 HDFS DataNodes with 4 data disks and 1 GbE each, 30 DB2 workers
// on faster 10 GbE servers, a 20 Gbit inter-cluster switch).

#ifndef HYBRIDJOIN_HYBRID_CONFIG_H_
#define HYBRIDJOIN_HYBRID_CONFIG_H_

#include <string>

#include "bloom/bloom_filter.h"
#include "edw/db_cluster.h"
#include "hdfs/datanode.h"
#include "jen/coordinator.h"
#include "net/fault_injector.h"
#include "net/network.h"

namespace hybridjoin {

struct TraceConfig {
  /// Master switch for span recording (see src/trace/). Off by default:
  /// a disabled tracer costs one branch per span site.
  bool enabled = false;
  /// If non-empty, every Execute() writes a Chrome trace-event JSON here
  /// (chrome://tracing / Perfetto-loadable); the path lands in
  /// ExecutionReport::trace_file. Overwritten per execution.
  std::string chrome_out;
};

struct BloomConfig {
  /// Paper uses 8 bits per distinct key and 2 hash functions (~5% FPR).
  double bits_per_key = 8.0;
  uint32_t num_hashes = 2;
  /// Expected distinct join keys (paper: 16M). Workload loaders overwrite
  /// this with the generated key-domain size.
  uint64_t expected_keys = 1 << 16;
  /// Bit placement (bloom/bloom_filter.h). The engine defaults to the
  /// cache-line-blocked layout: one memory access per key at a slightly
  /// higher FPR than kClassic for the same size.
  BloomLayout layout = BloomLayout::kBlocked;
};

/// Knobs of the skew-aware shuffle (src/exec/heavy_hitters.h,
/// docs/architecture.md "Skew-aware shuffle"). A space-saving sketch rides
/// the DB-side Bloom-build scan; the coordinator merges the per-worker
/// sketches and broadcasts the rows of keys whose estimated per-worker
/// load exceeds `kHotMultiplier` x the fair share, while the matching
/// probe-side rows stay on the worker that scanned them. Cold keys keep
/// the agreed-hash route. Only Bloom-assisted repartition joins have the
/// piggyback scan, so only they are affected; the zigzag exact-semijoin
/// variant keeps its membership-bitmap protocol and opts out.
struct SkewConfig {
  /// Master switch. On by default: with no heavy hitters the hot set is
  /// empty and the shuffle is byte-identical to the pure agreed-hash path.
  bool enabled = true;
  /// Entries per space-saving sketch (per DB worker). Error is bounded by
  /// scanned_rows / capacity, so 256 resolves any key above ~0.4% of the
  /// build side — far below every interesting hot threshold.
  static constexpr uint32_t kSketchCapacity = 256;
  /// A key is hot when its estimated rows-per-worker under agreed-hash
  /// routing exceeds this multiple of the fair per-worker share.
  static constexpr double kHotMultiplier = 1.5;
  /// Upper bound on the hot-set size (bounds both the broadcast fan-out
  /// and the per-row membership test on the shuffle hot path).
  static constexpr uint32_t kMaxHotKeys = 64;
};

/// Knobs of the adaptive join-location layer (src/hybrid/adaptive_join.cc,
/// docs/architecture.md "Adaptive join location"). ExecuteAuto's initial
/// pick comes from sampled estimates; with adaptivity on, every strategy's
/// shared prefix (DB predicate scan + Bloom build) additionally ships
/// *observed* cardinalities and selectivities to DB worker 0, which re-runs
/// the §5.5 cost model and broadcasts a stay-or-pivot decision before any
/// side commits to moving data. The built Bloom filter (and the heavy-hitter
/// sketches when the skew shuffle is on) carries over into whichever driver
/// wins, so a pivot never re-reads prefix work.
struct AdaptiveConfig {
  /// Master switch. On by default: when the observed costs confirm the
  /// initial pick the only overhead is the prefix's control-plane traffic
  /// (a few hundred bytes, fault-exempt) plus the tiny HDFS block samples.
  bool enabled = true;
  /// Hysteresis: pivot only when the observed cost of staying exceeds the
  /// observed best by this fraction. Near-ties stay put — the estimate was
  /// good enough, and a pivot's carried state is never free.
  double pivot_threshold = 0.2;
  /// HDFS blocks sampled per JEN worker at the decision point (seeded
  /// random picks from the worker's own assignment).
  static constexpr uint32_t kHdfsSampleBlocks = 2;
  /// Upper bound on the re-sample as a fraction of the worker's assigned
  /// blocks: a worker samples min(kHdfsSampleBlocks, floor(assigned *
  /// fraction)) blocks. Block decode costs the same whether the scan or the
  /// sampler does it, so without this cap a worker owning few blocks would
  /// re-decode most of its assignment just to decide where to join — the
  /// cap keeps the decision point's cost a bounded share of the scan (at
  /// realistic block counts the kHdfsSampleBlocks count binds first and
  /// the overhead is a few percent). Workers capped to zero ship no sample
  /// and the estimator's HDFS numbers stand. The differential fuzzer's
  /// --adaptive sweep forces 1.0 to keep the observed-stats paths exercised
  /// on its deliberately tiny cases.
  double hdfs_sample_max_fraction = 0.25;
  /// Join-key values (post-predicate) each JEN worker ships with its
  /// sample; DB worker 0 probes them against the just-built global Bloom
  /// filter for an observed join-key selectivity.
  static constexpr uint32_t kSampleKeys = 2048;
  /// Seed for the estimator's and the decision point's random sampling
  /// (EstimateQuery batch/block picks are derived from it too, so runs
  /// stay reproducible).
  uint64_t sample_seed = 0x51edd1ceULL;
};

struct SimulationConfig {
  DbConfig db;
  uint32_t jen_workers = 4;  ///< == number of HDFS DataNodes
  DataNodeConfig datanode;
  uint32_t hdfs_replication = 2;
  NetworkConfig net;
  JenConfig jen;
  BloomConfig bloom;
  SkewConfig skew;
  AdaptiveConfig adaptive;
  TraceConfig trace;
  /// Fault injection for the interconnect (see net/fault_injector.h).
  /// Disabled by default; the differential harness installs named profiles.
  FaultProfile fault;
  /// Intra-node execution threads per simulated worker: the morsel
  /// parallelism of every per-node phase (scan process threads, partitioned
  /// hash-table build, probe + partial aggregation). 0 derives a default
  /// from std::thread::hardware_concurrency() (see ResolveExecThreads); 1
  /// reproduces the historical single-threaded per-worker execution
  /// byte-for-byte. JenConfig::process_threads, when 0, inherits the
  /// resolved value.
  uint32_t exec_threads = 0;
  /// Per-query memory budget seeding the execution's MemoryGovernor
  /// (src/exec/memory_governor.h): hash-table builds, aggregation state,
  /// in-flight exchange/morsel batches all charge against it, and the grace
  /// join spills partitions to stay inside it. 0 = unlimited (peak is still
  /// tracked and reported as join.mem_peak_bytes). A per-execution budget —
  /// e.g. a server session's QueryQuotas::memory_bytes — overrides this.
  uint64_t query_memory_budget_bytes = 0;

  /// A scaled-down version of the paper's testbed with real throttling,
  /// used by the benches. `scale` multiplies every bandwidth (1.0 keeps the
  /// defaults below).
  static SimulationConfig PaperTestbed(uint32_t db_workers,
                                       uint32_t jen_workers,
                                       double scale = 1.0);
};

/// Resolves the exec_threads knob: a non-zero value passes through; 0 maps
/// to half the hardware concurrency clamped to [1, 8] (the simulation
/// already runs one driver thread per simulated worker, so per-worker
/// morsel threads multiply — half keeps the thread count near the core
/// count on typical hosts).
uint32_t ResolveExecThreads(uint32_t configured);

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_HYBRID_CONFIG_H_
