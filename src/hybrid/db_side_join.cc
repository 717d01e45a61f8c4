// DB-side join driver (§3.1, Figure 1): the approach of PolyBase / HAWQ /
// SQL-H / Big Data SQL — JEN workers scan, filter and project L (optionally
// pruned by BF_DB) and ship it into the database; the parallel database then
// joins, using whatever internal strategy its optimizer picks (broadcast
// either side or repartition both), since the arriving HDFS rows are not
// partitioned on the DB's hash.

#include <optional>
#include <thread>

#include "common/hash.h"
#include "exec/grace_join.h"
#include "exec/partitioned_appender.h"
#include "hybrid/algorithms.h"
#include "hybrid/driver_common.h"
#include "jen/exchange.h"
#include "jen/worker.h"
#include "trace/tracer.h"

namespace hybridjoin {

using driver::AllDbNodes;
using driver::AllRows;
using driver::ReportBuilder;
using driver::StatusCollector;
using driver::Tags;

namespace {

/// DB-internal join strategies the mini optimizer chooses among.
enum class DbJoinStrategy : uint8_t {
  kBroadcastDb = 0,    ///< broadcast T' to all DB workers
  kBroadcastHdfs = 1,  ///< broadcast the received L'' to all DB workers
  kRepartition = 2,    ///< hash both sides on the join key
};

const char* StrategyName(DbJoinStrategy s) {
  switch (s) {
    case DbJoinStrategy::kBroadcastDb:
      return "broadcast_db";
    case DbJoinStrategy::kBroadcastHdfs:
      return "broadcast_hdfs";
    case DbJoinStrategy::kRepartition:
      return "repartition";
  }
  return "?";
}

/// Classic communication-cost model: broadcasting a side costs its size
/// times (workers - 1); repartitioning costs roughly the sum of both sides
/// (each row moves once, (W-1)/W of the time).
DbJoinStrategy ChooseStrategy(uint64_t db_bytes, uint64_t hdfs_bytes,
                              uint32_t workers) {
  if (workers <= 1) return DbJoinStrategy::kBroadcastDb;
  const double w = static_cast<double>(workers);
  const double broadcast_db = static_cast<double>(db_bytes) * (w - 1);
  const double broadcast_hdfs = static_cast<double>(hdfs_bytes) * (w - 1);
  const double repartition =
      static_cast<double>(db_bytes + hdfs_bytes) * (w - 1) / w;
  if (broadcast_db <= broadcast_hdfs && broadcast_db <= repartition) {
    return DbJoinStrategy::kBroadcastDb;
  }
  if (broadcast_hdfs <= repartition) return DbJoinStrategy::kBroadcastHdfs;
  return DbJoinStrategy::kRepartition;
}

uint64_t TotalBytes(const std::vector<RecordBatch>& batches) {
  uint64_t total = 0;
  for (const auto& b : batches) total += b.ByteSize();
  return total;
}

// DB-internal repartition hash; deliberately unrelated to both the table
// distribution hash and the JEN agreed hash.
constexpr uint64_t kDbRepartitionSeed = 0x0dbdbULL;

uint32_t DbPartition(int64_t key, uint32_t workers) {
  return static_cast<uint32_t>(
      HashInt64(static_cast<uint64_t>(key), kDbRepartitionSeed) % workers);
}

/// Broadcasts `batches` to every DB worker over `tag` and returns all
/// batches received from the `m` workers.
Status BroadcastAmongDb(EngineContext* ctx, uint32_t worker, uint64_t tag,
                        const std::vector<RecordBatch>& batches,
                        const SchemaPtr& schema,
                        std::vector<RecordBatch>* received) {
  Network& net = ctx->network();
  const NodeId self = NodeId::Db(worker);
  const std::vector<NodeId> db_nodes = AllDbNodes(ctx);
  BatchSender sender(&net, self, tag, /*num_threads=*/1, &ctx->metrics(),
                     metric::kDbTuplesShuffledInternal);
  for (const RecordBatch& batch : batches) {
    sender.SendToAll(db_nodes, batch);
  }
  const Status fin = sender.Finish(db_nodes);
  HJ_ASSIGN_OR_RETURN(*received,
                      ReceiveAllBatches(&net, self, tag,
                                        ctx->num_db_workers(), schema));
  return fin;
}

/// How the repartition exchange treats rows whose key is in the hot set
/// (skew-aware shuffle; kNone = pure agreed-hash repartition).
enum class HotRouteMode {
  kNone,       ///< no hot set: every row takes the DbPartition route
  kBroadcast,  ///< hot rows replicate to every DB worker (the T' side)
  kKeepLocal,  ///< hot rows never leave this worker (the L'' side)
};

/// Repartitions `batches` by join key among the DB workers over `tag` and
/// returns this worker's received partition. With a hot set, hot rows
/// either broadcast to every worker or stay local (see HotRouteMode); the
/// combination — hot T' everywhere, each hot L'' row on exactly one
/// worker — produces every hot match exactly once, mirroring the JEN-side
/// hybrid route.
Status RepartitionAmongDb(EngineContext* ctx, uint32_t worker, uint64_t tag,
                          const std::vector<RecordBatch>& batches,
                          const SchemaPtr& schema, size_t key_idx,
                          const HotKeySet* hot, HotRouteMode mode,
                          std::vector<RecordBatch>* received) {
  Network& net = ctx->network();
  const NodeId self = NodeId::Db(worker);
  const std::vector<NodeId> db_nodes = AllDbNodes(ctx);
  const uint32_t m = ctx->num_db_workers();
  BatchSender sender(&net, self, tag, /*num_threads=*/1, &ctx->metrics(),
                     metric::kDbTuplesShuffledInternal);
  std::vector<RecordBatch> kept;  ///< kKeepLocal parking
  SkewRouter router(
      schema, m, key_idx, [m](int64_t key) { return DbPartition(key, m); },
      4096,
      [&](uint32_t p, RecordBatch&& batch) {
        sender.Send(NodeId::Db(p), batch);
        return Status::OK();
      },
      mode == HotRouteMode::kNone ? nullptr : hot,
      [&](RecordBatch&& batch) {
        const int64_t rows = static_cast<int64_t>(batch.num_rows());
        if (mode == HotRouteMode::kBroadcast) {
          const int64_t bytes = static_cast<int64_t>(batch.ByteSize()) *
                                static_cast<int64_t>(db_nodes.size());
          sender.SendToAll(db_nodes, batch);
          ctx->metrics().Add(metric::kShuffleHotRowsBuild, rows);
          ctx->metrics().Add(metric::kShuffleBroadcastBytes, bytes);
        } else {
          kept.push_back(std::move(batch));
          ctx->metrics().Add(metric::kShuffleHotRowsProbe, rows);
        }
        return Status::OK();
      });
  Status st;
  for (const RecordBatch& batch : batches) {
    st = router.Append(batch, AllRows(batch.num_rows()));
    if (!st.ok()) break;
  }
  if (st.ok()) st = router.FlushAll();
  const Status fin = sender.Finish(db_nodes);
  HJ_RETURN_IF_ERROR(st);
  HJ_ASSIGN_OR_RETURN(*received,
                      ReceiveAllBatches(&net, self, tag, m, schema));
  for (RecordBatch& batch : kept) received->push_back(std::move(batch));
  return fin;
}

}  // namespace

Result<QueryResult> RunDbSideJoin(EngineContext* ctx,
                                  const PreparedQuery& prepared,
                                  bool use_bloom,
                                  uint64_t memory_budget_bytes,
                                  const driver::AdaptiveCarry* carry) {
  const HybridQuery& query = prepared.query;
  const uint32_t m = ctx->num_db_workers();
  const uint32_t n = ctx->num_jen_workers();
  Network& net = ctx->network();
  const Tags tags = Tags::Allocate(&net);
  const auto groups = ctx->coordinator().GroupWorkersForDb(m);
  const auto owner = driver::OwnerOfJenWorkers(ctx);
  const JoinAlgorithm algorithm =
      use_bloom ? JoinAlgorithm::kDbSideBloom : JoinAlgorithm::kDbSide;

  // With a carry the adaptive layer owns the execution: reuse its report
  // (same query id, same governor) and start from the prefix's global
  // Bloom filter + heavy-hitter sketches instead of rebuilding them.
  const bool carried =
      carry != nullptr && carry->report != nullptr &&
      carry->global_bloom != nullptr;
  std::optional<ReportBuilder> owned_report;
  if (!carried) owned_report.emplace(ctx, algorithm, memory_budget_bytes);
  ReportBuilder& report = carried ? *carry->report : *owned_report;
  StatusCollector errors;
  RecordBatch result_rows;

  std::vector<std::thread> threads;
  threads.reserve(m + n);

  // --- DB workers. ---
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

      // Skew-aware shuffle engages only when the Bloom pass runs (the
      // heavy-hitter sketch piggybacks on that scan) and the DB-internal
      // exchange actually fans out. All workers compute the gate from the
      // same inputs, so the sketch combine below always pairs up.
      const bool skew_route =
          ctx->config().skew.enabled && use_bloom && m > 1;

      // Bloom filter (steps 1-2 of Figure 1). The heavy-hitter sketch rides
      // the same scan; worker 0 merges the sketches and redistributes the
      // hot set right after the Bloom combine.
      std::optional<BloomFilter> global_bloom;
      HotKeySet hot;
      if (use_bloom && carried) {
        // The adaptive prefix already built and combined BF_DB (and fed the
        // sketches); resume from the carried state. The hot-set combine
        // still runs below — its route width is this driver's m, which the
        // prefix could not know.
        global_bloom = *carry->global_bloom;
        if (i == 0) report.Mark("bf_db_carried");
        HeavyHitterSketch sketch =
            carry->sketches != nullptr && i < carry->sketches->size()
                ? (*carry->sketches)[i]
                : HeavyHitterSketch(ctx->config().skew.sketch_capacity);
        if (skew_route) {
          auto combined =
              driver::CombineHotKeysAtDbWorker0(ctx, i, sketch, m, tags);
          if (combined.ok()) {
            hot = std::move(combined).value();
            if (i == 0 && !hot.empty()) report.Mark("hot_set_sent");
          } else if (st.ok()) {
            st = combined.status();
          }
        }
      } else if (use_bloom) {
        bool used_index = false;
        HeavyHitterSketch sketch(ctx->config().skew.sketch_capacity);
        auto local = ctx->db().worker(i)->BuildLocalBloom(
            query.db.table, query.db.predicate, query.db.join_key,
            prepared.bloom_params, &used_index,
            skew_route ? &sketch : nullptr);
        BloomFilter local_bf = local.ok() ? std::move(local).value()
                                          : BloomFilter(prepared.bloom_params);
        if (!local.ok()) st = local.status();
        auto global = driver::CombineBloomAtDbWorker0(ctx, i, local_bf, tags);
        if (global.ok()) {
          global_bloom = std::move(global).value();
          if (i == 0) driver::RecordBloomStats(ctx, *global_bloom);
        } else if (st.ok()) {
          st = global.status();
        }
        if (i == 0) report.Mark("bf_db_sent");
        if (skew_route) {
          // Protocol obligation even after an earlier error: worker 0 blocks
          // for every sketch and every worker blocks for the hot set.
          auto combined =
              driver::CombineHotKeysAtDbWorker0(ctx, i, sketch, m, tags);
          if (combined.ok()) {
            hot = std::move(combined).value();
            if (i == 0 && !hot.empty()) report.Mark("hot_set_sent");
          } else if (st.ok()) {
            st = combined.status();
          }
        }
      }

      // read_hdfs UDF, part 1: multicast the scan request to this worker's
      // JEN group (Figure 5).
      ScanRequest request;
      request.predicate = query.hdfs.predicate;
      request.projection = query.hdfs.projection;
      if (global_bloom.has_value()) {
        request.bloom = global_bloom;
        request.bloom_column = query.hdfs.join_key;
      }
      auto request_payload = std::make_shared<const std::vector<uint8_t>>(
          request.Serialize());
      for (uint32_t w : groups[i]) {
        net.SendControl(self, NodeId::Hdfs(w), tags.control,
                        request_payload);
      }

      // Apply local predicates & projection on T while HDFS data streams in.
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

      // read_hdfs UDF, part 2: ingest L'' from the group in parallel.
      std::vector<RecordBatch> l_received;
      {
        trace::Span ingest_span(&ctx->tracer(), trace::span::kDbIngest,
                                trace::span::kCatExchange);
        auto received = ReceiveAllBatches(
            &net, self, tags.l_data,
            static_cast<uint32_t>(groups[i].size()),
            prepared.hdfs_out_schema);
        if (received.ok()) {
          l_received = std::move(received).value();
        } else if (st.ok()) {
          st = received.status();
        }
      }
      if (i == 0) report.Mark("hdfs_ingest_done");

      // The DB optimizer's strategy decision, from global size statistics.
      {
        BinaryWriter w;
        w.PutU64(TotalBytes(t_prime));
        w.PutU64(TotalBytes(l_received));
        net.SendControl(self, NodeId::Db(0), tags.counts, w.Release());
      }
      DbJoinStrategy strategy = DbJoinStrategy::kRepartition;
      bool build_db_side = true;
      if (i == 0) {
        uint64_t db_total = 0;
        uint64_t hdfs_total = 0;
        for (uint32_t j = 0; j < m; ++j) {
          auto msg = net.Recv(self, tags.counts);
          if (!msg.ok()) {
            // Keep going: the strategy decision below must still reach every
            // worker or the whole query deadlocks instead of failing.
            if (st.ok()) st = msg.status();
            break;
          }
          if (msg->eos || msg->payload == nullptr) continue;
          BinaryReader r(*msg->payload);
          auto a = r.GetU64();
          auto b = r.GetU64();
          if (a.ok() && b.ok()) {
            db_total += a.value();
            hdfs_total += b.value();
          }
        }
        const DbJoinStrategy chosen = ChooseStrategy(db_total, hdfs_total, m);
        const uint8_t build_db = db_total <= hdfs_total ? 1 : 0;
        for (uint32_t j = 0; j < m; ++j) {
          BinaryWriter w;
          w.PutU8(static_cast<uint8_t>(chosen));
          w.PutU8(build_db);
          net.SendControl(self, NodeId::Db(j), tags.strategy, w.Release());
        }
        report.Mark(std::string("strategy_") + StrategyName(chosen));
      }
      {
        auto msg = net.Recv(self, tags.strategy);
        if (!msg.ok()) {
          if (st.ok()) st = msg.status();
        } else if (!msg->eos && msg->payload != nullptr) {
          BinaryReader r(*msg->payload);
          auto s = r.GetU8();
          auto b = r.GetU8();
          if (s.ok() && b.ok()) {
            strategy = static_cast<DbJoinStrategy>(s.value());
            build_db_side = b.value() != 0;
          }
        }
      }

      // Execute the DB-internal join. All workers received the same
      // strategy decision, so they agree on which exchange tags are used.
      std::vector<RecordBatch> build_batches;
      std::vector<RecordBatch> probe_batches;
      const driver::JoinSide t_side = driver::DbJoinSide(prepared);
      const driver::JoinSide l_side = driver::HdfsJoinSide(prepared);
      driver::JoinSide build = t_side;
      driver::JoinSide probe_side = l_side;
      switch (strategy) {
        case DbJoinStrategy::kBroadcastDb: {
          std::vector<RecordBatch> t_all;
          Status b = BroadcastAmongDb(ctx, i, tags.db_shuffle_t, t_prime,
                                      t_side.schema, &t_all);
          if (!b.ok() && st.ok()) st = b;
          build_batches = std::move(t_all);
          probe_batches = std::move(l_received);
          break;
        }
        case DbJoinStrategy::kBroadcastHdfs: {
          std::vector<RecordBatch> l_all;
          Status b = BroadcastAmongDb(ctx, i, tags.db_shuffle_l, l_received,
                                      l_side.schema, &l_all);
          if (!b.ok() && st.ok()) st = b;
          build_batches = std::move(l_all);
          probe_batches = std::move(t_prime);
          build = l_side;
          probe_side = t_side;
          break;
        }
        case DbJoinStrategy::kRepartition: {
          std::vector<RecordBatch> t_part;
          std::vector<RecordBatch> l_part;
          // Hybrid route: hot T' rows go everywhere, hot L'' rows stay put,
          // so each hot match forms on exactly one worker; cold keys keep
          // the plain DbPartition exchange. With an empty hot set both calls
          // degenerate to the historical repartition byte-for-byte.
          Status rt = RepartitionAmongDb(ctx, i, tags.db_shuffle_t, t_prime,
                                         t_side.schema, t_side.key, &hot,
                                         HotRouteMode::kBroadcast, &t_part);
          Status rl = RepartitionAmongDb(ctx, i, tags.db_shuffle_l,
                                         l_received, l_side.schema,
                                         l_side.key, &hot,
                                         HotRouteMode::kKeepLocal, &l_part);
          if (!rt.ok() && st.ok()) st = rt;
          if (!rl.ok() && st.ok()) st = rl;
          if (build_db_side) {
            build_batches = std::move(t_part);
            probe_batches = std::move(l_part);
          } else {
            build_batches = std::move(l_part);
            probe_batches = std::move(t_part);
            build = l_side;
            probe_side = t_side;
          }
          break;
        }
      }

      // Local hash join + aggregation through the one join operator, under
      // the query's memory budget: a build side that exceeds it spills
      // partitions to a per-worker spill area rather than erroring. Both
      // phases are morsel-parallel — the resident table builds on the
      // shared exec pool, the probe runs on per-thread probers with
      // thread-local partial aggregates.
      HashAggregator agg(query.agg);
      if (st.ok()) {
        trace::Span join_span(&ctx->tracer(), trace::span::kDbJoin,
                              trace::span::kCatJoin);
        SpillArea spill(ctx->config().jen.spill_write_bps,
                        ctx->config().jen.spill_read_bps, &ctx->metrics());
        GraceHashJoin join(build.schema, build.alias, build.key,
                           probe_side.schema, probe_side.alias,
                           probe_side.key, query.post_join_predicate, &agg,
                           &ctx->metrics(), &spill);
        for (RecordBatch& batch : build_batches) {
          st = join.AddBuild(std::move(batch));
          if (!st.ok()) break;
        }
        if (st.ok()) st = driver::FinishJoinBuild(ctx, &join);
        if (st.ok()) {
          driver::ParallelProbe probe(ctx, self, &join, &agg);
          for (RecordBatch& batch : probe_batches) {
            st = probe.Feed(std::move(batch));
            if (!st.ok()) break;
          }
          const Status fin = probe.Finish();  // joins probe threads
          if (st.ok()) st = fin;
        }
      }
      if (i == 0) report.Mark("db_join_done");
      errors.Record(st);

      // Final aggregation at DB worker 0.
      net.SendControl(self, NodeId::Db(0), tags.agg,
                      agg.Partial().Serialize());
      if (i == 0) {
        HashAggregator final_agg(query.agg);
        const SchemaPtr partial_schema = query.agg.ResultSchema();
        for (uint32_t j = 0; j < m; ++j) {
          auto msg = net.Recv(self, tags.agg);
          if (!msg.ok()) {
            errors.Record(msg.status());
            break;
          }
          if (msg->eos || msg->payload == nullptr) continue;
          auto batch = RecordBatch::Deserialize(*msg->payload, partial_schema);
          if (batch.ok()) {
            errors.Record(final_agg.Merge(batch.value()));
          } else {
            errors.Record(batch.status());
          }
        }
        result_rows = final_agg.Finish();
      }
    });
  }

  // --- JEN workers: answer the scan request (read_hdfs server side). ---
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
      ScanRequest request;
      {
        auto msg = net.Recv(self, tags.control);
        if (!msg.ok()) {
          st = msg.status();
        } else if (msg->eos || msg->payload == nullptr) {
          st = Status::Internal("expected scan request, got EOS");
        } else {
          auto parsed = ScanRequest::Deserialize(*msg->payload);
          if (parsed.ok()) {
            request = std::move(parsed).value();
          } else {
            st = parsed.status();
          }
        }
      }

      const NodeId db_owner = NodeId::Db(owner[w]);
      BatchSender sender(&net, self, tags.l_data,
                         ctx->config().jen.send_threads, &ctx->metrics(),
                         metric::kHdfsTuplesSentToDb);
      if (st.ok()) {
        ScanTask task;
        task.meta = prepared.scan_plan.meta;
        task.blocks = prepared.scan_plan.per_worker[w];
        task.predicate = request.predicate;
        task.projection = request.projection;
        task.bloom = request.bloom.has_value() ? &*request.bloom : nullptr;
        task.bloom_column = request.bloom_column;
        // BatchSender::Send is thread-safe (serializes on the caller), so
        // every scan process thread shares one consumer.
        st = ctx->jen_worker(w)->ScanBlocksParallel(
            task, [&](uint32_t) -> ScanConsumer {
              return [&](RecordBatch&& batch) {
                sender.Send(db_owner, batch);
                return Status::OK();
              };
            });
      }
      errors.Record(sender.Finish({db_owner}));  // EOS obligation
      errors.Record(st);
    });
  }

  for (auto& t : threads) t.join();
  report.CollectProfiles(tags, m + n);
  HJ_RETURN_IF_ERROR(errors.First());

  QueryResult result;
  result.rows = std::move(result_rows);
  // Under a carry the adaptive layer finishes the shared report (its wall
  // clock spans prefix + driver).
  if (owned_report.has_value()) result.report = report.Finish();
  return result;
}

}  // namespace hybridjoin
