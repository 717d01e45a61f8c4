// perfbench: the repository benchmark. One process runs one workload through
// the public HybridWarehouse / WarehouseServer API, checks every query's rows
// against RunReferenceJoin, and prints its metrics as one JSON line:
//
//   perfbench --workload <cpu_resident|testbed_cold_text|server_mix>
//             --seed <n> --seconds <s> --trace <0|1> [--out_dir <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer ones (an untraced window, a traced window, then the benchmark's
// own spans around direct calls into each layer). perfbench/run.py builds
// this program and is the command BENCHMARK.json names.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "exec/spill.h"
#include "hybrid/reference.h"
#include "hybrid/warehouse.h"
#include "layers.h"
#include "obs/json.h"
#include "server/warehouse_server.h"
#include "stats.h"
#include "testing/differential.h"
#include "workload/loader.h"

namespace perfbench {
namespace {

using namespace hybridjoin;

constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One workload: input shape, substrate, and how clients drive it.
struct WorkloadDef {
  std::string name;
  uint64_t join_keys = 0;
  uint64_t t_rows = 0;
  uint64_t l_rows = 0;
  HdfsFormat format = HdfsFormat::kColumnar;
  SimulationConfig sim;
  /// 0: one client calling HybridWarehouse::Execute(query, kZigzag).
  /// >0: that many closed-loop sessions submitting SQL to a WarehouseServer.
  uint32_t sessions = 0;
  /// Adds shapes (b)-(d) to the paper's query (server sessions only).
  bool mix = false;
};

constexpr uint32_t kDbWorkers = 2;
constexpr uint32_t kJenWorkers = 2;
/// server_mix runs eight JEN workers: PickHotKeys calls a key hot when it
/// alone would overload its worker, so with two workers only a key above
/// half of all rows qualifies, and with four the Zipf 1.2 head sits on the
/// threshold and comes and goes with the seed.
constexpr uint32_t kMixJenWorkers = 8;
constexpr uint32_t kExecThreads = 2;   // morsel threads per simulated worker
constexpr uint32_t kRowsPerBlock = 16 * 1024;
constexpr uint32_t kServerSessions = 4;
constexpr uint32_t kAdmissionSlots = 3;
/// Shape (c)'s per-query memory quota: above the server's minimum, below
/// the zigzag join's build peak, so the grace join spills.
constexpr uint64_t kSpillQuotaBytes = 96 * 1024;
constexpr double kZipfS = 1.2;

/// Pins every knob that otherwise derives from the host.
void PinHostKnobs(SimulationConfig* sim, uint64_t join_keys,
                  uint32_t jen_workers) {
  sim->db.num_workers = kDbWorkers;
  sim->jen_workers = jen_workers;
  sim->exec_threads = kExecThreads;
  sim->jen.process_threads = kExecThreads;
  sim->bloom.expected_keys = join_keys;
}

std::optional<WorkloadDef> FindWorkload(const std::string& name) {
  WorkloadDef w;
  w.name = name;
  uint32_t jen_workers = kJenWorkers;
  if (name == "cpu_resident") {
    w.join_keys = 8192;
    w.t_rows = 256 * 1024;
    w.l_rows = 640 * 1024;
    w.sim = SimulationConfig{};
    w.sim.datanode.cache_capacity_bytes = 1ULL << 30;
  } else if (name == "testbed_cold_text") {
    w.join_keys = 4096;
    w.t_rows = 40 * 1024;
    w.l_rows = 128 * 1024;
    w.format = HdfsFormat::kText;
    w.sim = SimulationConfig::PaperTestbed(kDbWorkers, kJenWorkers);
    w.sim.datanode.cache_capacity_bytes = 0;
  } else if (name == "server_mix") {
    w.join_keys = 8192;
    w.t_rows = 96 * 1024;
    w.l_rows = 288 * 1024;
    jen_workers = kMixJenWorkers;
    w.sim = SimulationConfig::PaperTestbed(kDbWorkers, jen_workers);
    w.sim.datanode.cache_capacity_bytes = 1ULL << 30;
    w.sessions = kServerSessions;
    w.mix = true;
  } else {
    return std::nullopt;
  }
  PinHostKnobs(&w.sim, w.join_keys, jen_workers);
  return w;
}

WorkloadConfig DataConfig(const WorkloadDef& w, uint64_t seed, double zipf) {
  WorkloadConfig wc;
  wc.num_join_keys = w.join_keys;
  wc.t_rows = w.t_rows;
  wc.l_rows = w.l_rows;
  wc.seed = seed;
  wc.zipf_s = zipf;
  return wc;
}

/// One query shape: the SQL a session submits, the equivalent built query,
/// the memory quota it runs under, and its reference answer.
struct Shape {
  std::string name;
  std::string sql;
  HybridQuery query;
  uint64_t memory_quota = 0;
  RecordBatch expected;
};

std::string PaperSql(const std::string& from, const SolvedSpec& s,
                     int32_t l_ind_lit) {
  return "SELECT extract_group(L.groupByExtractCol), COUNT(*) FROM " + from +
         " WHERE T.corPred < " + std::to_string(s.t_cor_lit) +
         " AND T.indPred < " + std::to_string(s.t_ind_lit) +
         " AND L.corPred < " + std::to_string(s.l_cor_lit) +
         " AND L.indPred < " + std::to_string(l_ind_lit) +
         " AND T.joinKey = L.joinKey"
         " AND T.predAfterJoin - L.predAfterJoin BETWEEN 0 AND 1"
         " GROUP BY extract_group(L.groupByExtractCol)";
}

/// Generated inputs (outside set-up time) and the shapes over them.
struct Inputs {
  std::optional<Workload> main;
  std::optional<Workload> skewed;  ///< server_mix shape (d)
  std::vector<Shape> shapes;
};

Status MakeInputs(const WorkloadDef& w, uint64_t seed, Inputs* in) {
  const SelectivitySpec spec{0.1, 0.1, 0.5, 0.5};
  HJ_ASSIGN_OR_RETURN(Workload main,
                      Workload::Generate(DataConfig(w, seed, 0), spec));
  in->main = std::move(main);
  const SolvedSpec& s = in->main->solved();

  Shape a;
  a.name = "a_paper";
  a.sql = PaperSql("T, L", s, s.l_ind_lit);
  a.query = in->main->MakeQuery();
  in->shapes.push_back(a);
  if (!w.mix) return Status::OK();

  Shape b;
  b.name = "b_selective_l";
  const int32_t b_lit = std::max<int32_t>(1, s.l_ind_lit / 100);
  b.sql = PaperSql("T, L", s, b_lit);
  b.query = a.query;
  b.query.hdfs.predicate = And({Cmp("corPred", CmpOp::kLt, s.l_cor_lit),
                                Cmp("indPred", CmpOp::kLt, b_lit)});
  in->shapes.push_back(b);

  Shape c = a;
  c.name = "c_spilling";
  c.memory_quota = kSpillQuotaBytes;
  in->shapes.push_back(c);

  HJ_ASSIGN_OR_RETURN(Workload skewed,
                      Workload::Generate(DataConfig(w, seed + 1, kZipfS), spec));
  in->skewed = std::move(skewed);
  const SolvedSpec& z = in->skewed->solved();
  Shape d;
  d.name = "d_zipf";
  d.sql = PaperSql("TZ T, LZ L", z, z.l_ind_lit);
  d.query = in->skewed->MakeQuery();
  d.query.db.table = "TZ";
  d.query.hdfs.table = "LZ";
  in->shapes.push_back(d);
  return Status::OK();
}

/// Each shape's answer from the single-node reference executor.
Status ComputeReferences(Inputs* in) {
  for (Shape& shape : in->shapes) {
    const Workload& data = shape.query.db.table == "TZ" ? *in->skewed : *in->main;
    HJ_ASSIGN_OR_RETURN(shape.expected,
                        RunReferenceJoin({data.t_rows()}, data.l_batches(),
                                         shape.query));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// One set-up instance and its closed-loop clients
// ---------------------------------------------------------------------------

struct Instance {
  std::unique_ptr<HybridWarehouse> warehouse;
  std::unique_ptr<server::WarehouseServer> server;  // destroyed first
};

HdfsWriteOptions WriteOptions(const WorkloadDef& w) {
  HdfsWriteOptions options;
  options.format = w.format;
  options.rows_per_block = kRowsPerBlock;
  return options;
}

/// Loads the skewed T/L pair under the names shape (d) queries.
Status LoadSkewedPair(HybridWarehouse* hw, const Workload& data,
                      const HdfsWriteOptions& options) {
  DbTableMeta meta;
  meta.name = "TZ";
  meta.schema = Workload::TSchema();
  meta.distribution_column = "uniqKey";
  HJ_RETURN_IF_ERROR(hw->CreateDbTable(std::move(meta)));
  HJ_RETURN_IF_ERROR(hw->LoadDbTable("TZ", data.t_rows()));
  HJ_RETURN_IF_ERROR(hw->CreateDbIndex("TZ", {"corPred", "indPred"}));
  HJ_RETURN_IF_ERROR(hw->CreateDbIndex("TZ", {"corPred", "indPred", "joinKey"}));
  return hw->WriteHdfsTable("LZ", Workload::LSchema(), options,
                            data.l_batches());
}

/// What one measured query left behind.
struct QueryRecord {
  size_t shape = 0;
  double latency_s = 0;
  bool ok = false;       ///< ran and matched the reference
  bool wrong = false;    ///< ran but differed from the reference
  JoinAlgorithm algorithm = JoinAlgorithm::kZigzag;  ///< what executed
  Phases phases;
  double wall_s = 0;
  // Per-query values from report.profile (concurrency-safe).
  double mem_peak_bytes = 0;
  double est_fpr_ppm = 0;
  double tuples_scanned = 0;
  double tuples_after_filter = 0;
  double tuples_shuffled = 0;
  double tuples_sent_to_db = 0;
  double hdfs_bytes_read = 0;
  double spill_bytes = 0;
  double broadcast_bytes = 0;
  double hot_keys = 0;
  double worker_wall_skew = 0;
  bool pivoted = false;
  // From the server's ticket.
  bool queued = false;
  double queue_wait_s = 0;
  // Engine span totals per name (only when traced and running alone).
  std::map<std::string, double> span_seconds;
};

/// A counter's per-query total across the profile's phases (maximum for
/// gauges, sum otherwise).
double ProfileTotal(const obs::QueryProfile& profile, const std::string& name) {
  int64_t total = 0;
  for (const obs::ProfilePhase& phase : profile.phases) {
    for (const obs::ProfileCounterRow& row : phase.counters) {
      if (row.name != name) continue;
      total = row.gauge ? std::max(total, row.total) : total + row.total;
    }
  }
  return static_cast<double>(total);
}

void Extract(const QueryResult& result, QueryRecord* rec) {
  const ExecutionReport& report = result.report;
  const obs::QueryProfile& p = report.profile;
  rec->algorithm = report.algorithm;
  rec->phases = report.phases;
  rec->wall_s = report.wall_seconds;
  rec->mem_peak_bytes = ProfileTotal(p, metric::kJoinMemPeakBytes);
  rec->est_fpr_ppm = ProfileTotal(p, metric::kBloomEstFprPpm);
  rec->tuples_scanned = ProfileTotal(p, metric::kHdfsTuplesScanned);
  rec->tuples_after_filter = ProfileTotal(p, metric::kHdfsTuplesAfterFilter);
  rec->tuples_shuffled = ProfileTotal(p, metric::kHdfsTuplesShuffled);
  rec->tuples_sent_to_db = ProfileTotal(p, metric::kHdfsTuplesSentToDb);
  rec->hdfs_bytes_read = ProfileTotal(p, metric::kHdfsBytesRead);
  rec->spill_bytes = ProfileTotal(p, metric::kSpillBytesWritten);
  rec->broadcast_bytes = ProfileTotal(p, metric::kShuffleBroadcastBytes);
  rec->hot_keys = ProfileTotal(p, metric::kShuffleHotKeys);
  rec->worker_wall_skew = p.worker_wall_skew;
  rec->pivoted = ProfileTotal(p, metric::kAdvisorPivoted) > 0;
  for (const auto& [name, summary] : report.histograms) {
    rec->span_seconds[name] = summary.total_seconds;
  }
}

QueryRecord RunQuery(Instance* inst, const std::vector<Shape>& shapes,
                     size_t shape_index, uint64_t session) {
  const Shape& shape = shapes[shape_index];
  QueryRecord rec;
  rec.shape = shape_index;
  Stopwatch watch;
  Result<QueryResult> result = Status::Internal("not run");
  if (inst->server != nullptr) {
    server::QueryQuotas quotas;
    quotas.memory_bytes = shape.memory_quota;
    Result<server::ServerResult> sr =
        inst->server->Execute(session, shape.sql, quotas);
    if (sr.ok()) {
      rec.queued = sr->ticket.queued;
      rec.queue_wait_s = static_cast<double>(sr->ticket.queue_wait_us) * 1e-6;
      result = std::move(sr->result);
    } else {
      result = sr.status();
    }
  } else {
    result = inst->warehouse->Execute(shape.query, JoinAlgorithm::kZigzag,
                                      shape.memory_quota);
  }
  rec.latency_s = watch.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "query %s failed: %s\n", shape.name.c_str(),
                 result.status().ToString().c_str());
    return rec;
  }
  if (auto diff = testing_support::CompareBatches(shape.expected, result->rows)) {
    rec.wrong = true;
    std::fprintf(stderr, "query %s differs from the reference: %s\n",
                 shape.name.c_str(), diff->c_str());
    return rec;
  }
  rec.ok = true;
  Extract(*result, &rec);
  return rec;
}

/// Closed-loop clients: each runs its next query when the previous one
/// returns, cycling through the shapes from a per-client offset. A client
/// stops after `per_client` queries, or (per_client == 0) once `seconds`
/// have passed and at least `min_queries` completed overall, or at the
/// hard cap.
std::vector<QueryRecord> RunClients(Instance* inst,
                                    const std::vector<Shape>& shapes,
                                    uint32_t clients, int per_client,
                                    double seconds, size_t min_queries,
                                    double cap_seconds) {
  std::mutex mu;
  std::vector<QueryRecord> records;
  std::atomic<size_t> done{0};
  Stopwatch watch;
  auto client = [&](uint32_t id) {
    const uint64_t session =
        inst->server != nullptr ? inst->server->OpenSession() : 0;
    for (int k = 0;; ++k) {
      if (per_client > 0) {
        if (k >= per_client) break;
      } else {
        const double t = watch.ElapsedSeconds();
        if (t >= cap_seconds) break;
        if (t >= seconds && done.load() >= min_queries) break;
      }
      QueryRecord rec = RunQuery(inst, shapes, (id + k) % shapes.size(), session);
      done.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      records.push_back(std::move(rec));
    }
    if (inst->server != nullptr) (void)inst->server->CloseSession(session);
  };
  std::vector<std::thread> threads;
  for (uint32_t id = 0; id < clients; ++id) threads.emplace_back(client, id);
  for (std::thread& t : threads) t.join();
  return records;
}

uint32_t Clients(const WorkloadDef& w) { return std::max<uint32_t>(1, w.sessions); }

/// Builds a warehouse, loads the inputs, starts the server and runs the
/// warm-up queries that bring page caches and token buckets to their
/// closed-loop state. The whole of it is set-up time.
Result<std::unique_ptr<Instance>> SetUp(const WorkloadDef& w, const Inputs& in) {
  auto inst = std::make_unique<Instance>();
  inst->warehouse = std::make_unique<HybridWarehouse>(w.sim);
  LoadOptions load;
  load.hdfs = WriteOptions(w);
  HJ_RETURN_IF_ERROR(LoadWorkload(inst->warehouse.get(), *in.main, load));
  if (in.skewed) {
    HJ_RETURN_IF_ERROR(
        LoadSkewedPair(inst->warehouse.get(), *in.skewed, load.hdfs));
  }
  if (w.sessions > 0) {
    server::ServerConfig sc;
    sc.admission.max_concurrent_queries = kAdmissionSlots;
    sc.admission.max_queued = 64;
    sc.admission.queue_timeout = std::chrono::milliseconds(120000);
    inst->server =
        std::make_unique<server::WarehouseServer>(inst->warehouse.get(), sc);
  }
  // A lone client runs two queries: the first fills the caches and drains
  // the token buckets' initial burst, the second runs in the steady state.
  // Server sessions start at different shapes, so one query each warms
  // every shape while the sessions drain the buckets together.
  const int warm_up = w.sessions > 0 ? 1 : 2;
  for (const QueryRecord& r :
       RunClients(inst.get(), in.shapes, Clients(w), warm_up, 0, 0, 0)) {
    if (!r.ok) return Status::Internal("warm-up query failed");
  }
  return inst;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Window {
  std::vector<QueryRecord> records;
  double wall_s = 0;
  double cpu_s = 0;
  ByteWindow bytes;
  int64_t completed() const {
    return std::count_if(records.begin(), records.end(),
                         [](const QueryRecord& r) { return r.ok; });
  }
};

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Window Measure(Instance* inst, const WorkloadDef& w, const Inputs& in,
               double seconds, size_t min_queries, double cap_seconds) {
  Window win;
  Network& net = inst->warehouse->context().network();
  win.bytes.Begin(net);
  const double cpu0 = CpuSeconds();
  Stopwatch watch;
  win.records = RunClients(inst, in.shapes, Clients(w), 0, seconds,
                           min_queries, cap_seconds);
  win.wall_s = watch.ElapsedSeconds();
  win.cpu_s = CpuSeconds() - cpu0;
  win.bytes.End(net);
  return win;
}

/// `f` over the completed queries, as a vector (optional values skipped).
template <typename F>
std::vector<double> Collect(const Window& win, F f) {
  std::vector<double> out;
  for (const QueryRecord& r : win.records) {
    if (!r.ok) continue;
    if (std::optional<double> v = f(r)) out.push_back(*v);
  }
  return out;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Fraction(const Window& win, bool (*pred)(const QueryRecord&)) {
  const auto n = static_cast<double>(win.completed());
  return n > 0 ? static_cast<double>(
                     std::count_if(win.records.begin(), win.records.end(),
                                   [&](const QueryRecord& r) {
                                     return r.ok && pred(r);
                                   })) /
                     n
               : 0.0;
}

double StoredMb(Instance* inst) {
  EngineContext& ctx = inst->warehouse->context();
  double bytes = 0;
  for (const std::string& table : ctx.hcatalog().ListTables()) {
    auto meta = ctx.hcatalog().Lookup(table);
    if (!meta.ok()) continue;
    auto size = ctx.namenode().FileSize(meta->path);
    if (size.ok()) bytes += static_cast<double>(*size);
  }
  return bytes / kMiB;
}

/// The mean over query shapes of each shape's median. A pooled median of a
/// mix jumps between shapes whose values differ by an order of magnitude
/// as their counts shift by one; this stays put.
double MeanOfShapeMedians(const Window& win, double QueryRecord::*field) {
  std::map<size_t, std::vector<double>> per_shape;
  for (const QueryRecord& r : win.records) {
    if (r.ok) per_shape[r.shape].push_back(r.*field);
  }
  double sum = 0;
  for (auto& [shape, values] : per_shape) sum += Median(std::move(values));
  return per_shape.empty() ? 0.0 : sum / static_cast<double>(per_shape.size());
}

std::vector<Metric> EndToEnd(const Window& win, Instance* inst,
                             double setup_s) {
  const int64_t n = win.completed();
  const std::vector<double> latency =
      Collect(win, [](const QueryRecord& r) { return std::optional(r.latency_s); });
  return {
      {"queries_per_s", "1/s", static_cast<double>(n) / win.wall_s},
      {"latency_p50_s", "s", Percentile(latency, 0.5)},
      {"latency_p90_s", "s", Percentile(latency, 0.9)},
      {"cpu_s_per_query", "s", n > 0 ? win.cpu_s / static_cast<double>(n) : 0},
      {"cross_cluster_mb_per_query", "MB",
       win.bytes.MbPerQuery(FlowClass::kCrossCluster, n)},
      {"mem_peak_mb", "MB", MeanOfShapeMedians(win, &QueryRecord::mem_peak_bytes) / kMiB},
      {"rss_peak_mb", "MB", PeakRssMb()},
      {"hdfs_stored_mb", "MB", StoredMb(inst)},
      {"setup_s", "s", setup_s},
  };
}

/// The per-layer metrics every run can read from the program's per-query
/// outputs: phase marks, profiles, tickets, and the window byte totals.
std::vector<Metric> PerLayerFromOutputs(const Window& win) {
  const int64_t n = win.completed();
  auto phase = [&](std::initializer_list<std::string_view> marks) {
    return Median(Collect(win, [&](const QueryRecord& r) {
      return PhaseEndingAt(r.phases, marks);
    }));
  };
  auto median = [&](double QueryRecord::*field) {
    return Median(Collect(win, [&](const QueryRecord& r) {
      return std::optional(r.*field);
    }));
  };
  auto mean = [&](double QueryRecord::*field) {
    return Mean(Collect(win, [&](const QueryRecord& r) {
      return std::optional(r.*field);
    }));
  };
  const std::vector<double> waits = Collect(
      win, [](const QueryRecord& r) { return std::optional(r.queue_wait_s); });
  return {
      {"hybrid.bloom_prefix_s", "s",
       Median(Collect(win, [](const QueryRecord& r) {
         return MarkTime(r.phases, {"bf_db_sent", "bf_db_carried"});
       }))},
      {"hybrid.scan_shuffle_s", "s", phase({"jen_scan_done"})},
      {"hybrid.bf_h_s", "s", phase({"bf_h_applied"})},
      {"hybrid.probe_s", "s", phase({"jen_probe_done"})},
      {"hybrid.db_ingest_s", "s", phase({"hdfs_ingest_done"})},
      {"hybrid.db_join_s", "s", phase({"db_join_done"})},
      {"hybrid.adapt_s", "s", phase({"adapt_decision"})},
      {"hybrid.finish_s", "s",
       Median(Collect(win, [](const QueryRecord& r) {
         return std::optional(TailAfterLastMark(r.phases, r.wall_s));
       }))},
      {"server.queue_wait_p50_s", "s", Percentile(waits, 0.5)},
      {"server.queue_wait_p90_s", "s", Percentile(waits, 0.9)},
      {"server.queued_frac", "fraction",
       Fraction(win, [](const QueryRecord& r) { return r.queued; })},
      {"advisor.pick_db_frac", "fraction",
       Fraction(win, [](const QueryRecord& r) { return !IsHdfsSide(r.algorithm); })},
      {"advisor.pivot_frac", "fraction",
       Fraction(win, [](const QueryRecord& r) { return r.pivoted; })},
      {"net.intra_hdfs_mb_per_query", "MB",
       win.bytes.MbPerQuery(FlowClass::kIntraHdfs, n)},
      {"net.intra_db_mb_per_query", "MB",
       win.bytes.MbPerQuery(FlowClass::kIntraDb, n)},
      {"bloom.est_fpr_ppm", "ppm", median(&QueryRecord::est_fpr_ppm)},
      {"bloom.pass_frac", "fraction",
       Median(Collect(win, [](const QueryRecord& r) -> std::optional<double> {
         if (r.tuples_scanned <= 0) return std::nullopt;
         return r.tuples_after_filter / r.tuples_scanned;
       }))},
      {"jen.tuples_shuffled", "count", median(&QueryRecord::tuples_shuffled)},
      {"jen.tuples_sent_to_db", "count", median(&QueryRecord::tuples_sent_to_db)},
      {"hdfs.mb_read_per_query", "MB", mean(&QueryRecord::hdfs_bytes_read) / kMiB},
      {"join.spill_mb_per_query", "MB", mean(&QueryRecord::spill_bytes) / kMiB},
      {"shuffle.hot_keys_per_query", "count", mean(&QueryRecord::hot_keys)},
      {"shuffle.broadcast_mb_per_query", "MB",
       mean(&QueryRecord::broadcast_bytes) / kMiB},
      {"jen.worker_wall_skew", "ratio", median(&QueryRecord::worker_wall_skew)},
  };
}

/// Per-query totals of the engine's own spans, from the traced window.
std::vector<Metric> EngineSpans(const Window& traced) {
  auto total = [&](const char* span) {
    return Median(Collect(traced, [&](const QueryRecord& r) -> std::optional<double> {
      auto it = r.span_seconds.find(span);
      if (it == r.span_seconds.end()) return std::nullopt;
      return it->second;
    }));
  };
  return {
      {"span.jen_scan_s", "s", total(trace::span::kJenScan)},
      {"span.jen_build_s", "s", total(trace::span::kJenBuild)},
      {"span.jen_probe_s", "s", total(trace::span::kJenProbe)},
      {"span.net_recv_s", "s", total(trace::span::kNetRecv)},
      {"span.edw_bloom_build_s", "s", total(trace::span::kDbBloomBuild)},
  };
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string ResolvedConfigJson(const WorkloadDef& w, uint64_t seed) {
  const SimulationConfig& c = w.sim;
  auto i = [](uint64_t v) { return obs::JsonValue::Int(static_cast<int64_t>(v)); };
  auto j = obs::JsonValue::Object();
  j.Set("workload", obs::JsonValue::Str(w.name));
  j.Set("seed", i(seed));
  j.Set("nproc", i(static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN))));
  j.Set("join_keys", i(w.join_keys));
  j.Set("t_rows", i(w.t_rows));
  j.Set("l_rows", i(w.l_rows));
  j.Set("hdfs_format", obs::JsonValue::Str(HdfsFormatName(w.format)));
  j.Set("rows_per_block", i(kRowsPerBlock));
  j.Set("zipf_s_shape_d", obs::JsonValue::Number(w.mix ? kZipfS : 0.0));
  j.Set("sessions", i(w.sessions));
  j.Set("admission_slots", i(w.sessions > 0 ? kAdmissionSlots : 0));
  j.Set("spill_quota_bytes", i(w.mix ? kSpillQuotaBytes : 0));
  j.Set("db_workers", i(c.db.num_workers));
  j.Set("db_batch_rows", i(c.db.batch_rows));
  j.Set("jen_workers", i(c.jen_workers));
  j.Set("exec_threads", i(c.exec_threads));
  j.Set("jen_process_threads", i(c.jen.process_threads));
  j.Set("jen_send_threads", i(c.jen.send_threads));
  j.Set("jen_shuffle_batch_rows", i(c.jen.shuffle_batch_rows));
  j.Set("disks_per_node", i(c.datanode.num_disks));
  j.Set("disk_read_bps", i(c.datanode.disk_read_bps));
  j.Set("cache_read_bps", i(c.datanode.cache_read_bps));
  j.Set("cache_capacity_bytes", i(c.datanode.cache_capacity_bytes));
  j.Set("hdfs_replication", i(c.hdfs_replication));
  j.Set("db_nic_bps", i(c.net.db_nic_bps));
  j.Set("hdfs_nic_bps", i(c.net.hdfs_nic_bps));
  j.Set("cross_switch_bps", i(c.net.cross_switch_bps));
  j.Set("bloom_bits_per_key", obs::JsonValue::Number(c.bloom.bits_per_key));
  j.Set("bloom_hashes", i(c.bloom.num_hashes));
  j.Set("bloom_expected_keys", i(c.bloom.expected_keys));
  j.Set("skew_enabled", obs::JsonValue::Bool(c.skew.enabled));
  j.Set("adaptive_enabled", obs::JsonValue::Bool(c.adaptive.enabled));
  j.Set("adaptive_sample_seed", i(c.adaptive.sample_seed));
  j.Set("query_memory_budget_bytes", i(c.query_memory_budget_bytes));
  return j.Dump();
}

/// One human-readable line per shape, ahead of the result line.
void PrintShapes(const std::vector<Shape>& shapes,
                 const std::vector<QueryRecord>& records) {
  for (size_t s = 0; s < shapes.size(); ++s) {
    std::vector<double> latency, peak, spill, broadcast;
    int completed = 0, db_side = 0;
    for (const QueryRecord& r : records) {
      if (r.shape != s || !r.ok) continue;
      ++completed;
      db_side += IsHdfsSide(r.algorithm) ? 0 : 1;
      latency.push_back(r.latency_s);
      peak.push_back(r.mem_peak_bytes);
      spill.push_back(r.spill_bytes);
      broadcast.push_back(r.broadcast_bytes);
    }
    std::printf("shape %s: %d queries, p50 %.4f s, db-side %d, mem peak %.0f B, "
                "spill %.0f B, hot-key broadcast %.0f B\n",
                shapes[s].name.c_str(), completed, Median(latency), db_side,
                Median(peak), Median(spill), Median(broadcast));
  }
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v);
    else if (flag == "--trace") a.trace = std::atoi(v) != 0;
    else if (flag == "--out_dir") a.out_dir = v;
    else return std::nullopt;
  }
  if (argc % 2 != 1 || a.workload.empty() || a.seconds <= 0) return std::nullopt;
  return a;
}

/// Set-ups per run; the reported setup_s is their median.
constexpr int kSetups = 5;
/// The p90 needs ten samples beyond it.
const size_t kMinQueries = MinSamplesForTail(0.9);

int Run(const Args& args) {
  const std::optional<WorkloadDef> def = FindWorkload(args.workload);
  if (!def) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadDef& w = *def;
  std::printf("config %s\n", ResolvedConfigJson(w, args.seed).c_str());

  Inputs in;
  Status st = MakeInputs(w, args.seed, &in);
  if (st.ok()) st = ComputeReferences(&in);
  if (!st.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Set up several times and keep the last instance; setup_s is the median.
  std::vector<double> setups;
  std::unique_ptr<Instance> inst;
  for (int i = 0; i < kSetups; ++i) {
    inst.reset();
    Stopwatch watch;
    Result<std::unique_ptr<Instance>> made = SetUp(w, in);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", made.status().ToString().c_str());
      return 1;
    }
    setups.push_back(watch.ElapsedSeconds());
    inst = std::move(made).value();
  }
  const double setup_s = Median(setups);
  std::printf("setup runs (s):");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");

  // The measured work may run past --seconds only to reach the p90's
  // minimum sample; the cap keeps a run inside its time limit.
  const double cap = std::max(3 * args.seconds, 60.0);
  std::vector<Metric> metrics;
  std::vector<QueryRecord> all;
  if (!args.trace) {
    Window win = Measure(inst.get(), w, in, args.seconds, kMinQueries, cap);
    metrics = EndToEnd(win, inst.get(), setup_s);
    all = std::move(win.records);
  } else {
    // Untraced and traced windows of equal length, then the direct calls.
    const double part = args.seconds * 0.4;
    Window plain = Measure(inst.get(), w, in, part, 1, cap);
    trace::Tracer& tracer = inst->warehouse->context().tracer();
    tracer.set_enabled(true);
    Window traced = Measure(inst.get(), w, in, part, 1, cap);
    tracer.set_enabled(false);
    tracer.Clear();

    metrics = PerLayerFromOutputs(plain);
    for (Metric& m : EngineSpans(traced)) metrics.push_back(std::move(m));

    LayerInputs layer_in;
    layer_in.warehouse = inst->warehouse.get();
    for (const Shape& s : in.shapes) {
      layer_in.sql.push_back(s.sql);
      layer_in.queries.push_back(s.query);
    }
    layer_in.grace_budget_bytes = kSpillQuotaBytes;
    SpanLog log;
    st = MeasureLayers(layer_in, &log, &metrics);
    if (!st.ok()) {
      std::fprintf(stderr, "layer calls failed: %s\n", st.ToString().c_str());
      return 1;
    }
    const double p50_plain = Percentile(
        Collect(plain, [](const QueryRecord& r) { return std::optional(r.latency_s); }), 0.5);
    const double p50_traced = Percentile(
        Collect(traced, [](const QueryRecord& r) { return std::optional(r.latency_s); }), 0.5);
    metrics.push_back({"trace_overhead_pct", "%",
                       p50_plain > 0 ? (p50_traced / p50_plain - 1.0) * 100.0 : 0});
    const std::string spans_path = args.out_dir + "/spans_" + w.name + "_" +
                                   std::to_string(args.seed) + ".json";
    st = log.WriteChromeJson(spans_path);
    if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
    all = std::move(plain.records);
    for (QueryRecord& r : traced.records) all.push_back(std::move(r));
  }

  PrintShapes(in.shapes, all);
  int64_t failed = 0;
  bool correct = true;
  for (const QueryRecord& r : all) {
    if (!r.ok) ++failed;
    if (r.wrong) correct = false;
  }
  PrintResult(correct, static_cast<int64_t>(all.size()), failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::optional<perfbench::Args> args = perfbench::ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out_dir <dir>]\n");
    return 2;
  }
  return perfbench::Run(*args);
}
