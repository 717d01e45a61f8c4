// HDFS-side join drivers: the broadcast join (§3.2, Figure 2), the
// repartition join with and without Bloom filter (§3.3, Figure 3), and the
// zigzag join (§3.4, Figure 4). Every DB worker and every JEN worker runs
// on its own thread; data moves through the simulated interconnect.

#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "exec/grace_join.h"
#include "exec/partitioned_appender.h"
#include "hybrid/algorithms.h"
#include "hybrid/driver_common.h"
#include "jen/exchange.h"
#include "jen/worker.h"
#include "trace/tracer.h"

namespace hybridjoin {

using driver::AllDbNodes;
using driver::AllJenNodes;
using driver::AllRows;
using driver::ReportBuilder;
using driver::StatusCollector;
using driver::Tags;

namespace {

/// Builds the ScanTask for one JEN worker from the prepared query.
ScanTask MakeScanTask(const PreparedQuery& prepared, uint32_t worker,
                      const BloomFilter* bloom) {
  ScanTask task;
  task.meta = prepared.scan_plan.meta;
  task.blocks = prepared.scan_plan.per_worker[worker];
  task.predicate = prepared.query.hdfs.predicate;
  task.projection = prepared.query.hdfs.projection;
  task.bloom = bloom;
  task.bloom_column = prepared.query.hdfs.join_key;
  return task;
}

/// Appends the join-key column values of a batch to a Bloom filter.
void AddKeysToBloom(const RecordBatch& batch, size_t key_idx,
                    BloomFilter* bloom) {
  const ColumnVector& key = batch.column(key_idx);
  if (key.physical_type() == PhysicalType::kInt32) {
    bloom->AddKeys(std::span<const int32_t>(key.i32()));
  } else {
    bloom->AddKeys(std::span<const int64_t>(key.i64()));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Broadcast join (§3.2)
// ---------------------------------------------------------------------------

Result<QueryResult> RunBroadcastJoin(EngineContext* ctx,
                                     const PreparedQuery& prepared,
                                     uint64_t memory_budget_bytes,
                                     const driver::AdaptiveCarry* carry) {
  const HybridQuery& query = prepared.query;
  const uint32_t m = ctx->num_db_workers();
  const uint32_t n = ctx->num_jen_workers();
  Network& net = ctx->network();
  const Tags tags = Tags::Allocate(&net);
  const std::vector<NodeId> jen_nodes = AllJenNodes(ctx);

  // With a carry the adaptive layer owns the execution (report, query id,
  // governor). The broadcast join has no use for the carried Bloom filter:
  // it ships T' whole, exactly like the static form — which is what keeps
  // a pivot into broadcast byte-identical to the static pick.
  std::optional<ReportBuilder> owned_report;
  if (carry == nullptr || carry->report == nullptr) {
    owned_report.emplace(ctx, JoinAlgorithm::kBroadcast, memory_budget_bytes);
  }
  ReportBuilder& report =
      owned_report.has_value() ? *owned_report : *carry->report;
  StatusCollector errors;
  RecordBatch result_rows;

  std::vector<std::thread> threads;
  threads.reserve(m + n);

  // --- DB workers: filter/project T', broadcast it to every JEN node. ---
  for (uint32_t i = 0; i < m; ++i) {
    threads.emplace_back([&, i] {
      QueryScope query_scope(report.query_id());
      MemoryGovernor::Scope governor_scope(report.governor());
      trace::ThreadScope thread_scope(NodeId::Db(i), "db_worker");
      driver::NodeProfileScope profile_scope(ctx, NodeId::Db(i), tags);
      trace::Span driver_span(&ctx->tracer(), trace::span::kDriverDbWorker,
                              trace::span::kCatDriver);
      BatchSender sender(&net, NodeId::Db(i), tags.db_data,
                         ctx->config().jen.send_threads, &ctx->metrics(),
                         metric::kDbTuplesSent);
      auto scanned = ctx->db().worker(i)->ScanFilterProject(
          query.db.table, query.db.predicate, query.db.projection,
          &ctx->metrics());
      if (scanned.ok()) {
        for (const RecordBatch& batch : *scanned) {
          sender.SendToAll(jen_nodes, batch);
        }
      } else {
        errors.Record(scanned.status());
      }
      errors.Record(sender.Finish(jen_nodes));  // EOS obligation even on error
      if (i == 0) {
        report.Mark("db_broadcast_done");
        auto rows = driver::DbReceiveResult(ctx, query.agg, tags);
        if (rows.ok()) {
          result_rows = std::move(rows).value();
        } else {
          errors.Record(rows.status());
        }
      }
    });
  }

  // --- JEN workers: hash T', scan L probing in the pipeline, aggregate. ---
  for (uint32_t w = 0; w < n; ++w) {
    threads.emplace_back([&, w] {
      QueryScope query_scope(report.query_id());
      MemoryGovernor::Scope governor_scope(report.governor());
      trace::ThreadScope thread_scope(NodeId::Hdfs(w), "jen_worker");
      driver::NodeProfileScope profile_scope(ctx, NodeId::Hdfs(w), tags);
      trace::Span driver_span(&ctx->tracer(), trace::span::kDriverJenWorker,
                              trace::span::kCatDriver);
      // Build side is the (small) database table, received straight into
      // the join; an oversized broadcast side spills instead of erroring.
      const JenConfig& jen_config = ctx->config().jen;
      const driver::JoinSide t_side = driver::DbJoinSide(prepared);
      const driver::JoinSide l_side = driver::HdfsJoinSide(prepared);
      HashAggregator agg(query.agg);
      SpillArea spill(jen_config.spill_write_bps, jen_config.spill_read_bps,
                      &ctx->metrics());
      GraceHashJoin join(t_side.schema, t_side.alias, t_side.key,
                         l_side.schema, l_side.alias, l_side.key,
                         query.post_join_predicate, &agg, &ctx->metrics(),
                         &spill);
      Status st;
      {
        trace::Span build_span(&ctx->tracer(), trace::span::kJenBuild,
                               trace::span::kCatJoin);
        st = ReceiveEach(&net, NodeId::Hdfs(w), tags.db_data, m,
                         t_side.schema, [&](RecordBatch&& batch) {
                           return join.AddBuild(std::move(batch));
                         });
        if (st.ok()) st = driver::FinishJoinBuild(ctx, &join);
      }
      if (w == ctx->coordinator().designated_worker()) {
        report.Mark("jen_hash_built");
      }
      // Probe with L during the scan so network wait, scan and join
      // overlap: each scan process thread is one of the probe's threads.
      if (st.ok()) {
        driver::ParallelProbe probe(ctx, NodeId::Hdfs(w), &join, &agg,
                                    trace::span::kJenProbe);
        const ScanTask task = MakeScanTask(prepared, w, nullptr);
        st = ctx->jen_worker(w)->ScanBlocksParallel(
            task, [&](uint32_t t) -> ScanConsumer {
              return [&, t](RecordBatch&& batch) {
                return probe.Probe(t, batch);
              };
            });
        const Status fin = probe.Finish();
        if (st.ok()) st = fin;
      }
      errors.Record(st);
      if (w == ctx->coordinator().designated_worker()) {
        report.Mark("jen_scan_probe_done");
      }
      trace::Span agg_span(&ctx->tracer(), trace::span::kJenAggregate,
                           trace::span::kCatJoin);
      errors.Record(driver::JenAggregateAndReturn(ctx, w, &agg, tags));
    });
  }

  for (auto& t : threads) t.join();
  report.CollectProfiles(tags, m + n);
  HJ_RETURN_IF_ERROR(errors.First());

  QueryResult result;
  result.rows = std::move(result_rows);
  // Under a carry the adaptive layer finishes the shared report.
  if (owned_report.has_value()) result.report = report.Finish();
  return result;
}

// ---------------------------------------------------------------------------
// Repartition join (§3.3) and zigzag join (§3.4)
// ---------------------------------------------------------------------------

Result<QueryResult> RunRepartitionFamilyJoin(EngineContext* ctx,
                                             const PreparedQuery& prepared,
                                             bool use_db_bloom, bool zigzag,
                                             const JoinDriverOptions& options,
                                             uint64_t memory_budget_bytes,
                                             const driver::AdaptiveCarry* carry) {
  if (zigzag && !use_db_bloom) {
    return Status::InvalidArgument("zigzag join requires the DB Bloom filter");
  }
  const bool semijoin =
      zigzag && options.second_filter == SecondFilterKind::kExactSemijoin;
  if (semijoin && options.build_on_db_data) {
    return Status::InvalidArgument(
        "exact semijoin needs the hash table on the HDFS side");
  }
  const HybridQuery& query = prepared.query;
  const uint32_t m = ctx->num_db_workers();
  const uint32_t n = ctx->num_jen_workers();
  Network& net = ctx->network();
  const Tags tags = Tags::Allocate(&net);
  const std::vector<NodeId> jen_nodes = AllJenNodes(ctx);
  const auto groups = ctx->coordinator().GroupWorkersForDb(m);
  const uint32_t designated = ctx->coordinator().designated_worker();
  const JoinAlgorithm algorithm =
      zigzag ? JoinAlgorithm::kZigzag
             : (use_db_bloom ? JoinAlgorithm::kRepartitionBloom
                             : JoinAlgorithm::kRepartition);

  // With a carry the adaptive layer owns the execution: reuse its report
  // and resume from the prefix's global Bloom filter + sketches. The JEN
  // side is untouched — the carried filter is re-sent on the normal
  // bloom_to_jen tag, so the cross-cluster BF transfer keeps its charge.
  const bool carried =
      carry != nullptr && carry->report != nullptr &&
      carry->global_bloom != nullptr;
  std::optional<ReportBuilder> owned_report;
  if (!carried) owned_report.emplace(ctx, algorithm, memory_budget_bytes);
  ReportBuilder& report =
      owned_report.has_value() ? *owned_report : *carry->report;
  StatusCollector errors;
  RecordBatch result_rows;

  auto agreed_hash = [n](int64_t key) { return AgreedPartition(key, n); };

  // Skew-aware shuffle (docs/architecture.md): hot-key detection piggybacks
  // on the DB Bloom-build scan, so the hybrid route exists exactly when
  // that scan runs. The semijoin variant opts out (its key/bitmap protocol
  // assumes agreed-hash placement of every T' key), and a single JEN
  // worker has nothing to balance. Both sides compute this flag from the
  // same inputs, so the DB send and the JEN receive of the hot set always
  // pair up.
  const bool skew_route =
      ctx->config().skew.enabled && use_db_bloom && !semijoin && n > 1;

  std::vector<std::thread> threads;
  threads.reserve(m + n);

  // --- DB workers (Figures 3/4, left column). ---
  for (uint32_t i = 0; i < m; ++i) {
    threads.emplace_back([&, i] {
      QueryScope query_scope(report.query_id());
      MemoryGovernor::Scope governor_scope(report.governor());
      const NodeId self = NodeId::Db(i);
      trace::ThreadScope thread_scope(self, "db_worker");
      driver::NodeProfileScope profile_scope(ctx, self, tags);
      trace::Span driver_span(&ctx->tracer(), trace::span::kDriverDbWorker,
                              trace::span::kCatDriver);
      Status st;

      // Step 1-2: local Bloom filters, combined and multicast to JEN. The
      // same scan feeds this worker's heavy-hitter sketch when the skew
      // route is on, and the hot set rides to the JEN group right behind
      // the Bloom filter.
      HotKeySet hot;
      if (use_db_bloom && carried) {
        // The adaptive prefix already built and combined BF_DB (and fed the
        // sketches). Resume from the carried state: multicast the global
        // filter to this worker's JEN group exactly as the static form
        // does, then run the hot-set combine with the carried sketch (its
        // route width is this exchange's n, which the prefix couldn't
        // know).
        for (uint32_t w : groups[i]) {
          SendBloom(&net, self, NodeId::Hdfs(w), tags.bloom_to_jen,
                    *carry->global_bloom, &ctx->metrics());
        }
        if (i == 0) report.Mark("bf_db_carried");
        if (skew_route) {
          HeavyHitterSketch sketch =
              carry->sketches != nullptr && i < carry->sketches->size()
                  ? (*carry->sketches)[i]
                  : HeavyHitterSketch(ctx->config().skew.sketch_capacity);
          auto global_hot =
              driver::CombineHotKeysAtDbWorker0(ctx, i, sketch, n, tags);
          if (global_hot.ok()) {
            hot = std::move(global_hot).value();
          } else if (st.ok()) {
            st = global_hot.status();
          }
          for (uint32_t w : groups[i]) {
            SendHotKeys(&net, self, NodeId::Hdfs(w), tags.hot_to_jen, hot);
          }
          if (i == 0 && !hot.empty()) report.Mark("hot_set_sent");
        }
      } else if (use_db_bloom) {
        HeavyHitterSketch sketch(ctx->config().skew.sketch_capacity);
        bool used_index = false;
        auto local = ctx->db().worker(i)->BuildLocalBloom(
            query.db.table, query.db.predicate, query.db.join_key,
            prepared.bloom_params, &used_index,
            skew_route ? &sketch : nullptr);
        BloomFilter local_bf = local.ok() ? std::move(local).value()
                                          : BloomFilter(prepared.bloom_params);
        if (!local.ok()) st = local.status();
        auto global = driver::CombineBloomAtDbWorker0(ctx, i, local_bf, tags);
        if (!global.ok() && st.ok()) st = global.status();
        if (global.ok() && i == 0) {
          driver::RecordBloomStats(ctx, global.value());
        }
        // Multicast BF_DB to this worker's JEN group (Figure 5).
        const BloomFilter& to_send =
            global.ok() ? global.value() : local_bf;
        for (uint32_t w : groups[i]) {
          SendBloom(&net, self, NodeId::Hdfs(w), tags.bloom_to_jen, to_send,
                    &ctx->metrics());
        }
        if (i == 0) report.Mark("bf_db_sent");
        if (skew_route) {
          // Even after an error the combine runs (with whatever the sketch
          // holds) and the hot set is forwarded: every JEN worker blocks on
          // exactly one hot-set message from its owner.
          auto global_hot =
              driver::CombineHotKeysAtDbWorker0(ctx, i, sketch, n, tags);
          if (global_hot.ok()) {
            hot = std::move(global_hot).value();
          } else if (st.ok()) {
            st = global_hot.status();
          }
          for (uint32_t w : groups[i]) {
            SendHotKeys(&net, self, NodeId::Hdfs(w), tags.hot_to_jen, hot);
          }
          if (i == 0 && !hot.empty()) report.Mark("hot_set_sent");
        }
      }

      // Apply local predicates & projection; materialize T'.
      std::vector<RecordBatch> t_prime;
      {
        auto scanned = ctx->db().worker(i)->ScanFilterProject(
            query.db.table, query.db.predicate, query.db.projection,
            &ctx->metrics());
        if (scanned.ok()) {
          t_prime = std::move(scanned).value();
        } else if (st.ok()) {
          st = scanned.status();
        }
      }

      // Zigzag step 5: wait for BF_H and prune T' down to T''.
      if (zigzag && !semijoin) {
        auto bf_h = RecvBloom(&net, self, tags.bloom_h_global);
        if (bf_h.ok()) {
          auto pruned = driver::FilterBatchesByBloom(
              t_prime, query.db.join_key, bf_h.value());
          if (pruned.ok()) {
            t_prime = std::move(pruned).value();
          } else if (st.ok()) {
            st = pruned.status();
          }
          if (i == 0) report.Mark("bf_h_applied");
        } else if (st.ok()) {
          st = bf_h.status();
        }
      }

      // Ship T' (or T'') to the JEN workers with the agreed hash function.
      BatchSender sender(&net, self, tags.db_data,
                         ctx->config().jen.send_threads, &ctx->metrics(),
                         metric::kDbTuplesSent);
      if (semijoin) {
        // Exact-semijoin variant of the second filter: ship the T' join
        // keys (partitioned by the agreed hash) to the responsible JEN
        // workers, receive exact membership bitmaps, and send only the
        // surviving rows. The key/bitmap exchange is a protocol
        // obligation, so it runs even after an earlier error (with empty
        // key lists) to keep every JEN worker unblocked.
        if (!st.ok()) t_prime.clear();
        std::vector<RecordBatch> parts;
        parts.reserve(n);
        for (uint32_t p = 0; p < n; ++p) {
          parts.emplace_back(prepared.db_proj_schema);
        }
        for (const RecordBatch& batch : t_prime) {
          const ColumnVector& key = batch.column(prepared.db_key_idx);
          const bool is32 = key.physical_type() == PhysicalType::kInt32;
          for (uint32_t r = 0; r < batch.num_rows(); ++r) {
            const int64_t k = is32 ? key.i32()[r] : key.i64()[r];
            parts[agreed_hash(k)].AppendRowFrom(batch, r);
          }
        }
        for (uint32_t p = 0; p < n; ++p) {
          const ColumnVector& key = parts[p].column(prepared.db_key_idx);
          const bool is32 = key.physical_type() == PhysicalType::kInt32;
          BinaryWriter keys;
          keys.PutVarint(parts[p].num_rows());
          for (uint32_t r = 0; r < parts[p].num_rows(); ++r) {
            keys.PutI64(is32 ? key.i32()[r] : key.i64()[r]);
          }
          ctx->metrics().Add("semijoin.key_bytes_sent",
                             static_cast<int64_t>(keys.size()));
          Status sent = SendWithRetry(&net, self, NodeId::Hdfs(p),
                                      tags.bloom_h_local, keys.Release());
          if (!sent.ok() && st.ok()) st = sent;
        }
        // Collect one bitmap per JEN worker (any arrival order).
        std::vector<std::vector<uint8_t>> bitmaps(n);
        for (uint32_t b = 0; b < n; ++b) {
          auto msg = net.Recv(self, tags.bloom_h_global);
          if (!msg.ok()) {
            if (st.ok()) st = msg.status();
            break;
          }
          if (msg->eos || msg->payload == nullptr) {
            if (st.ok()) st = Status::Internal("expected semijoin bitmap");
            continue;
          }
          bitmaps[msg->from.index] = *msg->payload;
        }
        for (uint32_t p = 0; p < n && st.ok(); ++p) {
          std::vector<uint32_t> keep;
          for (uint32_t r = 0; r < parts[p].num_rows(); ++r) {
            if (r / 8 < bitmaps[p].size() &&
                (bitmaps[p][r / 8] >> (r % 8)) & 1) {
              keep.push_back(r);
            }
          }
          if (!keep.empty()) {
            sender.Send(NodeId::Hdfs(p), parts[p].Gather(keep));
          }
        }
        if (i == 0) report.Mark("semijoin_applied");
      } else if (st.ok()) {
        // Hybrid route: cold T' rows keep the agreed-hash path; rows of a
        // hot key broadcast to every JEN worker (serialize-once SendToAll),
        // where they meet the hot probe rows that stayed local. Exactly-once
        // pairing holds because each hot L row lives on precisely one
        // worker — the one that scanned it.
        SkewRouter router(
            prepared.db_proj_schema, n, prepared.db_key_idx, agreed_hash,
            ctx->config().jen.shuffle_batch_rows,
            [&](uint32_t p, RecordBatch&& batch) {
              sender.Send(NodeId::Hdfs(p), batch);
              return Status::OK();
            },
            skew_route ? &hot : nullptr,
            [&](RecordBatch&& batch) {
              const int64_t rows = static_cast<int64_t>(batch.num_rows());
              const int64_t bytes = static_cast<int64_t>(batch.ByteSize()) *
                                    static_cast<int64_t>(jen_nodes.size());
              sender.SendToAll(jen_nodes, batch);
              ctx->metrics().Add(metric::kShuffleHotRowsBuild, rows);
              ctx->metrics().Add(metric::kShuffleBroadcastBytes, bytes);
              return Status::OK();
            });
        for (const RecordBatch& batch : t_prime) {
          Status append = router.Append(batch, AllRows(batch.num_rows()));
          if (!append.ok()) {
            st = append;
            break;
          }
        }
        Status flush = router.FlushAll();
        if (st.ok()) st = flush;
      }
      const Status fin = sender.Finish(jen_nodes);  // EOS obligation
      errors.Record(st);
      errors.Record(fin);

      if (i == 0) {
        auto rows = driver::DbReceiveResult(ctx, query.agg, tags);
        if (rows.ok()) {
          result_rows = std::move(rows).value();
        } else {
          errors.Record(rows.status());
        }
      }
    });
  }

  // --- JEN workers (Figures 3/4, right column; pipeline of Figure 7). ---
  for (uint32_t w = 0; w < n; ++w) {
    threads.emplace_back([&, w] {
      QueryScope query_scope(report.query_id());
      MemoryGovernor::Scope governor_scope(report.governor());
      const NodeId self = NodeId::Hdfs(w);
      trace::ThreadScope thread_scope(self, "jen_worker");
      driver::NodeProfileScope profile_scope(ctx, self, tags);
      trace::Span driver_span(&ctx->tracer(), trace::span::kDriverJenWorker,
                              trace::span::kCatDriver);
      Status st;

      // Blocking wait for BF_DB before the scan starts (paper §4.4).
      BloomFilter bf_db_storage;
      const BloomFilter* bf_db = nullptr;
      if (use_db_bloom) {
        auto received = RecvBloom(&net, self, tags.bloom_to_jen);
        if (received.ok()) {
          bf_db_storage = std::move(received).value();
          bf_db = &bf_db_storage;
        } else {
          st = received.status();
        }
      }

      // The coordinator's hot-key set arrives right behind the Bloom
      // filter; scanned rows of a hot key will stay on this worker.
      HotKeySet hot;
      if (skew_route) {
        auto received = RecvHotKeys(&net, self, tags.hot_to_jen);
        if (received.ok()) {
          hot = std::move(received).value();
        } else if (st.ok()) {
          st = received.status();
        }
      }

      // Receive threads drain the shuffled L' as it arrives (Figure 7,
      // right side) straight into the join's build — the paper's choice:
      // the shuffle completes with the scan, long before any database
      // record can arrive. The build-on-DB-data ablation buffers L' instead
      // and builds on the database records, which only arrive after BF_H.
      const JenConfig& jen_config = ctx->config().jen;
      const driver::JoinSide l_side = driver::HdfsJoinSide(prepared);
      const driver::JoinSide t_side = driver::DbJoinSide(prepared);
      const bool build_l = !options.build_on_db_data;
      const driver::JoinSide& build = build_l ? l_side : t_side;
      const driver::JoinSide& probe_side = build_l ? t_side : l_side;
      HashAggregator agg(query.agg);
      SpillArea spill(jen_config.spill_write_bps, jen_config.spill_read_bps,
                      &ctx->metrics());
      GraceHashJoin join(build.schema, build.alias, build.key,
                         probe_side.schema, probe_side.alias, probe_side.key,
                         query.post_join_predicate, &agg, &ctx->metrics(),
                         &spill);
      std::vector<RecordBatch> l_buffer;  // the ablation's probe side
      // L' rows for the build (or the ablation's buffer).
      auto take_l = [&](RecordBatch&& batch) -> Status {
        if (build_l) return join.AddBuild(std::move(batch));
        l_buffer.push_back(std::move(batch));
        return Status::OK();
      };
      Status receive_status;
      const uint64_t query_id = QueryScope::Current();
      std::thread receiver([&, query_id] {
        QueryScope receiver_query_scope(query_id);
        MemoryGovernor::Scope receiver_governor_scope(report.governor());
        trace::ThreadScope receive_scope(self, "jen_receive");
        trace::Span build_span(&ctx->tracer(), trace::span::kJenBuild,
                               trace::span::kCatJoin);
        receive_status =
            ReceiveEach(&net, self, tags.shuffle, n, l_side.schema, take_l);
      });

      // Scan + filter + BF_DB + projection, shuffling L' with the agreed
      // hash while building the local HDFS Bloom filter (zigzag).
      BloomFilter bf_h_local(prepared.bloom_params);
      BatchSender shuffle_sender(&net, self, tags.shuffle,
                                 ctx->config().jen.send_threads,
                                 &ctx->metrics(),
                                 metric::kHdfsTuplesShuffled);
      // Per-process-thread shuffle state: PartitionedAppender keeps
      // unsynchronized per-partition buffers and the zigzag Bloom filter
      // has no atomic bit-set, so every scan process thread gets its own
      // of both (the shared BatchSender is thread-safe). The per-thread
      // filters are OR-ed into bf_h_local after the scan — union is
      // commutative, so the combined filter does not depend on which
      // thread saw which block.
      const uint32_t exec_threads = ctx->exec_threads();
      std::vector<std::unique_ptr<BloomFilter>> thread_blooms;
      std::vector<std::unique_ptr<SkewRouter>> appenders;
      // Hot probe rows bypass the network entirely: each scan thread parks
      // its hot batches here, and after the receiver drains they fold into
      // the local build. Buffered bytes are charged to the governor (the
      // shuffle's in-flight payloads are charged the same way) and released
      // once the build takes ownership.
      std::vector<std::vector<RecordBatch>> hot_parked(exec_threads);
      std::vector<uint64_t> hot_parked_bytes(exec_threads, 0);
      MemoryGovernor* governor = report.governor();
      for (uint32_t t = 0; t < exec_threads; ++t) {
        thread_blooms.push_back(
            std::make_unique<BloomFilter>(prepared.bloom_params));
        appenders.push_back(std::make_unique<SkewRouter>(
            prepared.hdfs_out_schema, n, prepared.hdfs_key_idx, agreed_hash,
            ctx->config().jen.shuffle_batch_rows,
            [&](uint32_t p, RecordBatch&& batch) {
              trace::Span shuffle_span(&ctx->tracer(),
                                       trace::span::kJenShuffle,
                                       trace::span::kCatExchange);
              shuffle_sender.Send(NodeId::Hdfs(p), batch);
              return Status::OK();
            },
            skew_route ? &hot : nullptr,
            [&, t](RecordBatch&& batch) {
              const uint64_t bytes = batch.ByteSize();
              if (governor != nullptr) governor->Reserve(bytes);
              hot_parked_bytes[t] += bytes;
              hot_parked[t].push_back(std::move(batch));
              return Status::OK();
            }));
      }
      if (st.ok()) {
        const ScanTask task = MakeScanTask(prepared, w, bf_db);
        st = ctx->jen_worker(w)->ScanBlocksParallel(
            task, [&](uint32_t t) -> ScanConsumer {
              SkewRouter* appender = appenders[t].get();
              BloomFilter* bloom = thread_blooms[t].get();
              return [&, appender, bloom](RecordBatch&& batch) {
                if (zigzag && !semijoin) {
                  // BF_H covers every scanned L' key — hot keys included,
                  // routing must not change what the filter admits.
                  AddKeysToBloom(batch, prepared.hdfs_key_idx, bloom);
                }
                return appender->Append(batch, AllRows(batch.num_rows()));
              };
            });
        for (auto& appender : appenders) {
          if (st.ok()) st = appender->FlushAll();
        }
        if (zigzag && !semijoin) {
          for (auto& bloom : thread_blooms) {
            Status u = bf_h_local.UnionWith(*bloom);
            if (!u.ok() && st.ok()) st = u;
          }
        }
      }
      {
        const Status fin = shuffle_sender.Finish(jen_nodes);  // EOS obligation
        if (st.ok()) st = fin;
      }
      if (w == designated) report.Mark("jen_scan_done");

      // Zigzag steps 3b/4: combine BF_H at the designated worker and send
      // it to every DB worker.
      if (zigzag && !semijoin) {
        SendBloom(&net, self, NodeId::Hdfs(designated), tags.bloom_h_local,
                  bf_h_local, &ctx->metrics());
        if (w == designated) {
          BloomFilter bf_h(prepared.bloom_params);
          for (uint32_t j = 0; j < n; ++j) {
            auto local = RecvBloom(&net, self, tags.bloom_h_local);
            if (local.ok()) {
              Status u = bf_h.UnionWith(local.value());
              if (!u.ok() && st.ok()) st = u;
            } else if (st.ok()) {
              st = local.status();
            }
          }
          driver::RecordBloomStats(ctx, bf_h);
          for (uint32_t j = 0; j < m; ++j) {
            SendBloom(&net, self, NodeId::Db(j), tags.bloom_h_global, bf_h,
                      &ctx->metrics());
          }
          report.Mark("bf_h_sent");
        }
      }

      // Drain the shuffle.
      receiver.join();
      if (st.ok()) st = receive_status;

      // Fold the parked hot probe rows into the local build (or the probe
      // buffer for the build-on-DB ablation) now that the receive side is
      // quiet. Every hot L row exists on exactly one worker — this one —
      // while the matching hot T' rows were broadcast everywhere, so each
      // (t, l) pair meets exactly once and no duplicate elimination is
      // needed. The buffered-bytes charge returns here; whatever the build
      // keeps it re-charges itself.
      if (skew_route) {
        int64_t hot_probe_rows = 0;
        uint64_t parked_bytes = 0;
        for (uint64_t b : hot_parked_bytes) parked_bytes += b;
        for (auto& thread_batches : hot_parked) {
          for (RecordBatch& batch : thread_batches) {
            hot_probe_rows += static_cast<int64_t>(batch.num_rows());
            if (st.ok()) st = take_l(std::move(batch));
          }
          thread_batches.clear();
        }
        if (governor != nullptr) governor->Release(parked_bytes);
        if (hot_probe_rows > 0) {
          ctx->metrics().Add(metric::kShuffleHotRowsProbe, hot_probe_rows);
        }
      }

      // Paper's plan: the join over L' probes with the arriving database
      // records (buffered by the network while we were building). The
      // ablation builds on those records and probes with the buffered L'.
      if (!build_l) {
        const Status built =
            ReceiveEach(&net, self, tags.db_data, m, t_side.schema,
                        [&](RecordBatch&& batch) {
                          return join.AddBuild(std::move(batch));
                        });
        if (st.ok()) st = built;
      }
      if (st.ok()) st = driver::FinishJoinBuild(ctx, &join);
      if (w == designated) report.Mark("jen_hash_built");
      if (semijoin) {
        // Answer each DB worker's key list with a membership bitmap over
        // this worker's shuffled L' keys — exact for resident partitions,
        // "present" for spilled ones, whose extra T'' rows the join drops.
        // Replying to all m lists is a protocol obligation, even after an
        // earlier error (an all-zero bitmap then suffices to unblock the
        // sender).
        for (uint32_t j = 0; j < m; ++j) {
          auto msg = net.Recv(self, tags.bloom_h_local);
          if (!msg.ok()) {
            if (st.ok()) st = msg.status();
            break;
          }
          if (msg->eos || msg->payload == nullptr) {
            if (st.ok()) {
              st = Status::Internal("expected semijoin key list");
            }
            continue;
          }
          BinaryReader r(*msg->payload);
          std::vector<uint8_t> bitmap;
          auto count = r.GetVarint();
          if (count.ok()) {
            bitmap.assign((*count + 7) / 8, 0);
            for (uint64_t k = 0; k < *count; ++k) {
              auto key = r.GetI64();
              if (!key.ok()) {
                if (st.ok()) st = key.status();
                break;
              }
              if (st.ok() && join.Contains(*key)) {
                bitmap[k / 8] |= static_cast<uint8_t>(1u << (k % 8));
              }
            }
          } else if (st.ok()) {
            st = count.status();
          }
          Status sent = SendWithRetry(&net, self, msg->from,
                                      tags.bloom_h_global,
                                      std::move(bitmap));
          if (!sent.ok() && st.ok()) st = sent;
        }
      }
      std::optional<driver::ParallelProbe> probe;
      if (st.ok()) {
        probe.emplace(ctx, self, &join, &agg, trace::span::kJenProbe);
      }
      auto feed = [&](RecordBatch&& batch) {
        return probe ? probe->Feed(std::move(batch)) : Status::OK();
      };
      if (build_l) {
        // Drained even after an error, to honor the protocol.
        const Status received = ReceiveEach(&net, self, tags.db_data, m,
                                            t_side.schema, feed);
        if (st.ok()) st = received;
      } else {
        for (RecordBatch& batch : l_buffer) {
          if (!st.ok()) break;
          st = feed(std::move(batch));
        }
      }
      if (probe) {
        const Status fin = probe->Finish();  // joins probe threads
        if (st.ok()) st = fin;
      }
      errors.Record(st);
      if (w == designated) report.Mark("jen_probe_done");
      trace::Span agg_span(&ctx->tracer(), trace::span::kJenAggregate,
                           trace::span::kCatJoin);
      errors.Record(driver::JenAggregateAndReturn(ctx, w, &agg, tags));
    });
  }

  for (auto& t : threads) t.join();
  report.CollectProfiles(tags, m + n);
  HJ_RETURN_IF_ERROR(errors.First());

  QueryResult result;
  result.rows = std::move(result_rows);
  // Under a carry the adaptive layer finishes the shared report.
  if (owned_report.has_value()) result.report = report.Finish();
  return result;
}

}  // namespace hybridjoin
