#include "layers.h"

#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>

#include "bloom/bloom_filter.h"
#include "exec/aggregator.h"
#include "exec/grace_join.h"
#include "exec/join_hash_table.h"
#include "exec/join_prober.h"
#include "exec/spill.h"
#include "hdfs/format.h"
#include "hybrid/algorithms.h"
#include "hybrid/driver_common.h"
#include "jen/worker.h"
#include "stats.h"

namespace perfbench {

using namespace hybridjoin;

SpanLog::Scope::Scope(SpanLog* log, std::string name)
    : log_(log), index_(static_cast<int>(log->spans_.size())) {
  Span span;
  span.name = std::move(name);
  span.parent = log->open_.empty() ? -1 : log->open_.back();
  span.start_ns = log->NowNs();
  log->spans_.push_back(std::move(span));
  log->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  log_->spans_[index_].end_ns = log_->NowNs();
  log_->open_.pop_back();
}

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

double SpanLog::SelfSeconds(size_t index) const {
  double self = spans_[index].seconds();
  for (const Span& s : spans_) {
    if (s.parent == static_cast<int>(index)) self -= s.seconds();
  }
  return self;
}

Status SpanLog::WriteChromeJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"parent\": %d, "
                 "\"self_us\": %.3f}}%s\n",
                 s.name.c_str(), static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.parent,
                 SelfSeconds(i) * 1e6, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IOError("cannot write " + path);
}

namespace {

/// Repetitions of each timed call; the metrics are medians over them.
constexpr int kRepetitions = 5;

std::vector<int32_t> KeysOf(const std::vector<RecordBatch>& batches,
                            size_t column) {
  std::vector<int32_t> keys;
  for (const RecordBatch& b : batches) {
    const std::vector<int32_t>& k = b.column(column).i32();
    keys.insert(keys.end(), k.begin(), k.end());
  }
  return keys;
}

size_t RowsOf(const std::vector<RecordBatch>& batches) {
  size_t rows = 0;
  for (const RecordBatch& b : batches) rows += b.num_rows();
  return rows;
}

std::vector<uint32_t> AllRows(size_t n) {
  std::vector<uint32_t> sel(n);
  std::iota(sel.begin(), sel.end(), 0u);
  return sel;
}

/// Median over `log`'s spans called `name`, scaled by `scale` / `per`.
double MedianOf(const SpanLog& log, const std::string& name, double scale,
                double per = 1.0) {
  return per > 0 ? Median(log.Durations(name)) * scale / per : 0.0;
}

}  // namespace

Status MeasureLayers(const LayerInputs& in, SpanLog* log, std::vector<Metric>* out) {
  EngineContext& ctx = in.warehouse->context();
  const HybridQuery& query = in.queries.front();
  const int reps = kRepetitions;

  // sql: the front end's parse of every statement the workload submits.
  for (int r = 0; r < reps; ++r) {
    for (const std::string& sql : in.sql) {
      SpanLog::Scope span(log, "sql.parse");
      HJ_RETURN_IF_ERROR(in.warehouse->ParseSql(sql).status());
    }
  }
  out->emplace_back("sql.parse_us", "us", MedianOf(*log, "sql.parse", 1e6));

  // advisor: sampled estimates plus the cost-model pick, per shape.
  for (int r = 0; r < reps; ++r) {
    for (const HybridQuery& q : in.queries) {
      SpanLog::Scope span(log, "advisor");
      QueryEstimates est;
      {
        SpanLog::Scope child(log, "advisor.estimate_query");
        HJ_ASSIGN_OR_RETURN(est, EstimateQuery(&ctx, q));
      }
      SpanLog::Scope child(log, "advisor.advise");
      (void)AdviseAlgorithm(ctx, est);
    }
  }
  out->emplace_back("advisor.estimate_ms", "ms", MedianOf(*log, "advisor", 1e3));

  // hybrid: name resolution and the HDFS scan plan.
  PreparedQuery prepared;
  for (int r = 0; r < reps; ++r) {
    SpanLog::Scope span(log, "hybrid.prepare");
    HJ_ASSIGN_OR_RETURN(prepared, PrepareQuery(&ctx, query));
  }
  out->emplace_back("hybrid.prepare_ms", "ms", MedianOf(*log, "hybrid.prepare", 1e3));

  // edw: every DB worker's predicate scan, then its local Bloom filter.
  Metrics layer_metrics;
  std::vector<RecordBatch> t_rows;
  for (int r = 0; r < reps; ++r) {
    t_rows.clear();
    SpanLog::Scope span(log, "edw.scan_filter");
    for (uint32_t w = 0; w < ctx.num_db_workers(); ++w) {
      HJ_ASSIGN_OR_RETURN(
          std::vector<RecordBatch> part,
          ctx.db().worker(w)->ScanFilterProject(
              query.db.table, query.db.predicate, query.db.projection,
              &layer_metrics));
      for (RecordBatch& b : part) t_rows.push_back(std::move(b));
    }
  }
  out->emplace_back("edw.scan_filter_ms", "ms",
                    MedianOf(*log, "edw.scan_filter", 1e3));

  BloomFilter bf_db(prepared.bloom_params);
  for (int r = 0; r < reps; ++r) {
    BloomFilter combined(prepared.bloom_params);
    SpanLog::Scope span(log, "edw.bloom_build");
    for (uint32_t w = 0; w < ctx.num_db_workers(); ++w) {
      bool used_index = false;
      HJ_ASSIGN_OR_RETURN(
          BloomFilter local,
          ctx.db().worker(w)->BuildLocalBloom(
              query.db.table, query.db.predicate, query.db.join_key,
              prepared.bloom_params, &used_index));
      HJ_RETURN_IF_ERROR(combined.UnionWith(local));
    }
    bf_db = std::move(combined);
  }
  out->emplace_back("edw.bloom_build_ms", "ms",
                    MedianOf(*log, "edw.bloom_build", 1e3));

  // hdfs: fetch + decode of every planned block, then the read charge.
  const HdfsTableMeta& meta = prepared.scan_plan.meta;
  std::vector<size_t> columns;
  for (size_t i = 0; i < meta.schema->num_fields(); ++i) columns.push_back(i);
  std::vector<RecordBatch> l_rows;
  uint64_t planned_bytes = 0;
  for (int r = 0; r < reps; ++r) {
    l_rows.clear();
    planned_bytes = 0;
    SpanLog::Scope span(log, "hdfs.fetch_decode");
    for (const auto& blocks : prepared.scan_plan.per_worker) {
      for (const BlockAssignment& a : blocks) {
        HJ_ASSIGN_OR_RETURN(std::shared_ptr<const StoredBlock> block,
                            ctx.datanode(a.replica.node)->Fetch(a.info.block_id));
        planned_bytes += a.info.byte_size;
        if (block->format == HdfsFormat::kText) {
          HJ_ASSIGN_OR_RETURN(
              RecordBatch b, DecodeText(block->text->data(),
                                        block->text->size(), meta.schema,
                                        columns));
          l_rows.push_back(std::move(b));
        } else {
          HJ_ASSIGN_OR_RETURN(
              RecordBatch b,
              DecodeColumnarBlock(*block->columnar, meta.schema, columns));
          l_rows.push_back(std::move(b));
        }
      }
    }
  }
  const double l_count = static_cast<double>(RowsOf(l_rows));
  out->emplace_back("hdfs.decode_ns_per_row", "ns",
                    MedianOf(*log, "hdfs.fetch_decode", 1e9, l_count));

  for (int r = 0; r < reps; ++r) {
    SpanLog::Scope span(log, "hdfs.account_read");
    for (const auto& blocks : prepared.scan_plan.per_worker) {
      for (const BlockAssignment& a : blocks) {
        ctx.datanode(a.replica.node)->AccountRead(a.info.block_id,
                                                  a.info.byte_size);
      }
    }
  }
  out->emplace_back(
      "hdfs.read_wait_ms_per_mb", "ms/MB",
      MedianOf(*log, "hdfs.account_read", 1e3,
               static_cast<double>(planned_bytes) / (1024.0 * 1024.0)));

  // jen: each worker's scan pipeline with the query's predicate and BF_DB.
  // The timed scans discard their output; one more untimed scan keeps L'.
  auto scan_all = [&](bool keep, std::vector<RecordBatch>* kept,
                      int64_t* scanned) -> Status {
    std::mutex mu;
    for (uint32_t w = 0; w < ctx.num_jen_workers(); ++w) {
      ScanTask task;
      task.meta = meta;
      task.blocks = prepared.scan_plan.per_worker[w];
      task.predicate = query.hdfs.predicate;
      task.projection = query.hdfs.projection;
      task.bloom = &bf_db;
      task.bloom_column = query.hdfs.join_key;
      ScanStats stats;
      HJ_RETURN_IF_ERROR(ctx.jen_worker(w)->ScanBlocksParallel(
          task,
          [&](uint32_t) -> ScanConsumer {
            return [&, keep](RecordBatch&& batch) -> Status {
              if (keep) {
                std::lock_guard<std::mutex> lock(mu);
                kept->push_back(std::move(batch));
              }
              return Status::OK();
            };
          },
          &stats));
      *scanned += stats.rows_scanned;
    }
    return Status::OK();
  };
  int64_t scanned = 0;
  for (int r = 0; r < reps; ++r) {
    scanned = 0;
    SpanLog::Scope span(log, "jen.scan");
    HJ_RETURN_IF_ERROR(scan_all(false, nullptr, &scanned));
  }
  out->emplace_back("jen.scan_ns_per_row", "ns",
                    MedianOf(*log, "jen.scan", 1e9, static_cast<double>(scanned)));
  std::vector<RecordBatch> l_prime;
  int64_t unused_scanned = 0;
  HJ_RETURN_IF_ERROR(scan_all(true, &l_prime, &unused_scanned));

  // bloom: BF_DB's build over T' keys, its probe over every L key.
  const std::vector<int32_t> t_keys = KeysOf(t_rows, prepared.db_key_idx);
  HJ_ASSIGN_OR_RETURN(size_t l_key_col, meta.schema->IndexOf(query.hdfs.join_key));
  const std::vector<int32_t> l_keys = KeysOf(l_rows, l_key_col);
  for (int r = 0; r < reps; ++r) {
    BloomFilter bf(prepared.bloom_params);
    SpanLog::Scope span(log, "bloom.add_keys");
    bf.AddKeys(std::span<const int32_t>(t_keys));
  }
  for (int r = 0; r < reps; ++r) {
    std::vector<uint32_t> sel = AllRows(l_keys.size());
    SpanLog::Scope span(log, "bloom.may_contain_keys");
    bf_db.MayContainKeys(std::span<const int32_t>(l_keys), &sel);
  }
  out->emplace_back("bloom.add_ns_per_key", "ns",
                    MedianOf(*log, "bloom.add_keys", 1e9,
                             static_cast<double>(t_keys.size())));
  out->emplace_back("bloom.probe_ns_per_key", "ns",
                    MedianOf(*log, "bloom.may_contain_keys", 1e9,
                             static_cast<double>(l_keys.size())));

  // exec: the zigzag join's build on L', probe with T', aggregation.
  const SchemaPtr l_schema = prepared.hdfs_out_schema;
  const SchemaPtr t_schema = prepared.db_proj_schema;
  const double build_rows = static_cast<double>(RowsOf(l_prime));
  const double probe_rows = static_cast<double>(RowsOf(t_rows));
  for (int r = 0; r < reps; ++r) {
    JoinHashTable table(prepared.hdfs_key_idx, driver::HashTableShards(&ctx));
    HashAggregator agg(query.agg);
    {
      SpanLog::Scope span(log, "exec.build");
      HJ_RETURN_IF_ERROR(table.AddBatchesParallel(l_prime, ctx.exec_pool()));
      HJ_RETURN_IF_ERROR(table.FinalizeParallel(ctx.exec_pool()));
    }
    JoinProber prober(&table, l_schema, query.hdfs.alias, t_schema,
                      query.db.alias, prepared.db_key_idx,
                      query.post_join_predicate, &agg, &layer_metrics);
    SpanLog::Scope span(log, "exec.probe");
    {
      SpanLog::Scope child(log, "exec.probe_kernel");
      std::vector<JoinMatch> matches;
      for (const RecordBatch& b : t_rows) {
        matches.clear();
        table.ProbeBatch(std::span<const int32_t>(
                             b.column(prepared.db_key_idx).i32()),
                         &matches);
      }
    }
    SpanLog::Scope child(log, "exec.join_prober");
    for (const RecordBatch& b : t_rows) {
      HJ_RETURN_IF_ERROR(prober.ProbeBatch(b));
    }
    HJ_RETURN_IF_ERROR(prober.Flush());
  }
  out->emplace_back("exec.build_ns_per_row", "ns",
                    MedianOf(*log, "exec.build", 1e9, build_rows));
  out->emplace_back("exec.probe_ns_per_row", "ns",
                    MedianOf(*log, "exec.probe", 1e9, probe_rows));

  const AggSpec l_agg = AggSpec::CountStar("groupByExtractCol", true);
  for (int r = 0; r < reps; ++r) {
    HashAggregator agg(l_agg);
    SpanLog::Scope span(log, "exec.aggregate");
    for (const RecordBatch& b : l_prime) {
      HJ_RETURN_IF_ERROR(agg.Update(b, AllRows(b.num_rows())));
    }
  }
  out->emplace_back("exec.agg_ns_per_row", "ns",
                    MedianOf(*log, "exec.aggregate", 1e9, build_rows));

  // exec: the grace join under the spilling shape's budget.
  std::vector<double> spill_mb;
  for (int r = 0; r < reps; ++r) {
    Metrics grace_metrics;
    SpillArea spill(ctx.config().jen.spill_write_bps,
                    ctx.config().jen.spill_read_bps, &grace_metrics);
    HashAggregator agg(query.agg);
    GraceJoinOptions options;
    options.memory_budget_bytes = in.grace_budget_bytes;
    GraceHashJoin join(l_schema, query.hdfs.alias, prepared.hdfs_key_idx,
                       t_schema, query.db.alias, prepared.db_key_idx,
                       query.post_join_predicate, &agg, &grace_metrics,
                       &spill, options);
    SpanLog::Scope span(log, "exec.grace_join");
    for (const RecordBatch& b : l_prime) {
      RecordBatch copy = b;
      HJ_RETURN_IF_ERROR(join.AddBuild(std::move(copy)));
    }
    HJ_RETURN_IF_ERROR(join.FinishBuild());
    for (const RecordBatch& b : t_rows) HJ_RETURN_IF_ERROR(join.AddProbe(b));
    HJ_RETURN_IF_ERROR(join.Finish());
    spill_mb.push_back(
        static_cast<double>(grace_metrics.Get(metric::kSpillBytesWritten)) /
        (1024.0 * 1024.0));
  }
  out->emplace_back("exec.grace_ms", "ms", MedianOf(*log, "exec.grace_join", 1e3));
  out->emplace_back("exec.grace_spill_mb", "MB", Median(spill_mb));

  // net: serialized T' batches, cycled until the volume is well past the
  // token buckets' burst, from DB worker 0 across the inter-cluster switch
  // to JEN worker 0 under the workload's NIC and switch settings.
  constexpr int64_t kTransferBytes = 4 << 20;
  Network& net = ctx.network();
  int64_t sent_bytes = 0;
  for (int r = 0; r < reps && !t_rows.empty(); ++r) {
    const uint64_t tag = net.AllocateTagBlock(1);
    sent_bytes = 0;
    size_t messages = 0;
    SpanLog::Scope span(log, "net.transfer");
    while (sent_bytes < kTransferBytes) {
      std::vector<uint8_t> bytes = t_rows[messages % t_rows.size()].Serialize();
      sent_bytes += static_cast<int64_t>(bytes.size());
      HJ_RETURN_IF_ERROR(
          net.Send(NodeId::Db(0), NodeId::Hdfs(0), tag, std::move(bytes)));
      ++messages;
    }
    for (size_t i = 0; i < messages; ++i) {
      HJ_RETURN_IF_ERROR(net.Recv(NodeId::Hdfs(0), tag).status());
    }
  }
  const double transfer_s = Median(log->Durations("net.transfer"));
  out->emplace_back("net.transfer_mb_per_s", "MB/s",
                    transfer_s > 0 ? static_cast<double>(sent_bytes) /
                                         (1024.0 * 1024.0) / transfer_s
                                   : 0.0);
  return Status::OK();
}

}  // namespace perfbench
