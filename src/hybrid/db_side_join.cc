// DB-side join driver (§3.1, Figure 1): the approach of PolyBase / HAWQ /
// SQL-H / Big Data SQL — JEN workers scan, filter and project L (optionally
// pruned by BF_DB) and ship it into the database; the parallel database then
// joins, using whatever internal strategy its optimizer picks (broadcast
// either side or repartition both), since the arriving HDFS rows are not
// partitioned on the DB's hash.

#include "common/binary_io.h"
#include "hybrid/algorithms.h"
#include "hybrid/driver_common.h"
#include "jen/worker.h"
#include "trace/tracer.h"

namespace hybridjoin {

using driver::AllNodes;
using driver::Coordinate;
using driver::Exchange;
using driver::Execution;

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

/// A DB-internal exchange of T' (`db_side`) or L'' among the DB workers.
/// Hybrid route of a repartition: hot T' rows go everywhere, hot L'' rows
/// stay put, so each hot match forms on exactly one worker; cold keys keep
/// the plain DB-internal hash. With an empty hot set both degenerate to the
/// plain repartition byte-for-byte.
Exchange::Spec AmongDb(EngineContext* ctx, const PreparedQuery& prepared,
                       bool db_side, Exchange::Route route) {
  return {.senders = AllNodes(ctx, ClusterId::kDb),
          .receivers = AllNodes(ctx, ClusterId::kDb),
          .route = route,
          .hot_mode = db_side ? Exchange::HotMode::kBroadcast
                              : Exchange::HotMode::kKeepLocal,
          .schema =
              db_side ? prepared.db_proj_schema : prepared.hdfs_out_schema,
          .key_column = db_side ? prepared.db_key_idx : prepared.hdfs_key_idx,
          .tuple_counter = metric::kDbTuplesShuffledInternal};
}

}  // namespace

namespace driver {

Result<RecordBatch> RunDbSideOn(Execution* exec,
                                const PreparedQuery& prepared, bool use_bloom,
                                const PrefixState* prefix) {
  EngineContext* ctx = exec->ctx();
  const HybridQuery& query = prepared.query;
  const uint32_t m = ctx->num_db_workers();
  const auto groups = ctx->coordinator().GroupWorkersForDb(m);
  std::vector<uint32_t> owner(ctx->num_jen_workers());  // DB worker of w
  for (uint32_t g = 0; g < groups.size(); ++g) {
    for (uint32_t w : groups[g]) owner[w] = g;
  }
  const std::vector<NodeId> db_nodes = AllNodes(ctx, ClusterId::kDb);
  RecordBatch result_rows;

  // Skew-aware shuffle engages only when the Bloom pass runs (the
  // heavy-hitter sketch piggybacks on that scan) and the DB-internal
  // exchange actually fans out.
  const bool skew_route = ctx->config().skew.enabled && use_bloom && m > 1;

  // The plan: BF_DB (optional), the scan request multicast to the JEN
  // groups, L'' into the database, the strategy round, the DB-internal
  // exchanges it picks among, and the final aggregation at DB worker 0.
  std::optional<DbBloomPrefix> bf_db;
  if (use_bloom) {
    bf_db.emplace(exec, prepared, prefix,
                  BloomPrefixOptions{.feed_sketch = skew_route,
                                     .route_workers = skew_route ? m : 0});
  }
  const Coordinate scan_request = Coordinate::Multicast(exec, groups);
  Exchange l_ingest(exec, {.senders = AllNodes(ctx, ClusterId::kHdfs),
                           .receivers = db_nodes,
                           .route = Exchange::Route::kOwner,
                           .schema = prepared.hdfs_out_schema,
                           .owner = owner,
                           .send_threads = ctx->config().jen.send_threads,
                           .tuple_counter = metric::kHdfsTuplesSentToDb});
  const Coordinate strategy_round(exec, db_nodes, NodeId::Db(0), db_nodes);
  // A broadcast of either side, or a repartition of both.
  using Route = Exchange::Route;
  Exchange t_broadcast(exec, AmongDb(ctx, prepared, true, Route::kBroadcast));
  Exchange l_broadcast(exec, AmongDb(ctx, prepared, false, Route::kBroadcast));
  Exchange t_hash(exec, AmongDb(ctx, prepared, true, Route::kDbHash));
  Exchange l_hash(exec, AmongDb(ctx, prepared, false, Route::kDbHash));
  const Coordinate final_agg(exec, db_nodes, NodeId::Db(0), {});

  // --- DB workers. ---
  auto db_worker = [&](uint32_t i) -> Status {
    const NodeId self = NodeId::Db(i);
    Status st;

    // read_hdfs UDF, part 1: multicast the scan request to this worker's
    // JEN group (Figure 5), pruned by BF_DB (steps 1-2 of Figure 1) when
    // the Bloom pass runs. The heavy-hitter sketch rides the Bloom-build
    // scan; worker 0 merges the sketches and redistributes the hot set
    // right after the Bloom combine.
    ScanRequest request;
    request.predicate = query.hdfs.predicate;
    request.projection = query.hdfs.projection;
    HotKeySet hot;
    if (bf_db) {
      BloomPrefix bloom_prefix = bf_db->Run(i, &st);
      request.bloom = std::move(bloom_prefix.bloom);
      request.bloom_column = query.hdfs.join_key;
      hot = std::move(bloom_prefix.hot);
    }
    scan_request.Scatter(self, request);

    // Apply local predicates & projection on T while HDFS data streams in.
    std::vector<RecordBatch> t_prime = ScanDbTable(ctx, query, i, &st);

    // read_hdfs UDF, part 2: ingest L'' from the group in parallel.
    std::vector<RecordBatch> l_received;
    {
      trace::Span ingest_span(&ctx->tracer(), trace::span::kDbIngest,
                              trace::span::kCatExchange);
      l_received = l_ingest.ReceiveAll(self).ValueOr(&st);
    }
    if (i == 0) exec->Mark("hdfs_ingest_done");

    // The DB optimizer's strategy decision, from global size statistics
    // (each worker's T' and L'' bytes); every worker receives the same
    // decision (the strategy, and for a repartition whether T' builds), so
    // all pick the same exchanges.
    BinaryWriter sizes;
    sizes.PutU64(TotalBytes(t_prime));
    sizes.PutU64(TotalBytes(l_received));
    uint64_t db_bytes = 0;
    uint64_t hdfs_bytes = 0;
    const ControlBytes decision =
        strategy_round
            .Round(
                self, &sizes.buffer(),
                [&](ControlBytes&& worker_sizes) -> Status {
                  BinaryReader r(worker_sizes);
                  HJ_ASSIGN_OR_RETURN(const uint64_t db, r.GetU64());
                  HJ_ASSIGN_OR_RETURN(const uint64_t hdfs, r.GetU64());
                  db_bytes += db;
                  hdfs_bytes += hdfs;
                  return Status::OK();
                },
                [&] {
                  const DbJoinStrategy chosen =
                      ChooseStrategy(db_bytes, hdfs_bytes, m);
                  exec->Mark(std::string("strategy_") + StrategyName(chosen));
                  BinaryWriter w;
                  w.PutU8(static_cast<uint8_t>(chosen));
                  w.PutU8(db_bytes <= hdfs_bytes ? 1 : 0);
                  return w.Release();
                })
            .ValueOr(&st);
    // After an error the decision is empty and the repartition runs, so
    // both of its exchanges still send their EOS and drain.
    BinaryReader verdict(decision);
    const auto strategy = static_cast<DbJoinStrategy>(verdict.GetU8().ValueOr(
        static_cast<uint8_t>(DbJoinStrategy::kRepartition)));
    const bool build_db = verdict.GetU8().ValueOr(1) != 0;

    // Execute the DB-internal join: a broadcast of one side (the other
    // stays local and probes), or a repartition of both.
    std::vector<RecordBatch> t_side = std::move(t_prime);
    std::vector<RecordBatch> l_side = std::move(l_received);
    bool build_t = true;
    auto exchange = [&](Exchange& among, std::vector<RecordBatch>* side) {
      st.Update(among.Send(self, *side, &hot));
      *side = among.ReceiveAll(self).ValueOr(&st);
    };
    switch (strategy) {
      case DbJoinStrategy::kBroadcastDb:
        exchange(t_broadcast, &t_side);
        break;
      case DbJoinStrategy::kBroadcastHdfs:
        exchange(l_broadcast, &l_side);
        build_t = false;
        break;
      case DbJoinStrategy::kRepartition:
        exchange(t_hash, &t_side);
        exchange(l_hash, &l_side);
        build_t = build_db;
        break;
    }
    std::vector<RecordBatch>& build_batches = build_t ? t_side : l_side;
    std::vector<RecordBatch>& probe_batches = build_t ? l_side : t_side;

    // Local hash join + aggregation through the one join operator, under
    // the query's memory budget: a build side that exceeds it spills
    // partitions to a per-worker spill area rather than erroring. Both
    // phases are morsel-parallel — the resident table builds on the
    // shared exec pool, the probe runs on per-thread probers with
    // thread-local partial aggregates.
    LocalJoin local(ctx, prepared, /*build_db=*/build_t);
    if (st.ok()) {
      trace::Span join_span(&ctx->tracer(), trace::span::kDbJoin,
                            trace::span::kCatJoin);
      for (RecordBatch& batch : build_batches) {
        st = local.join.AddBuild(std::move(batch));
        if (!st.ok()) break;
      }
      if (st.ok()) st = FinishJoinBuild(ctx, &local.join);
      if (st.ok()) {
        ParallelProbe probe(ctx, self, &local.join, &local.agg);
        for (RecordBatch& batch : probe_batches) {
          st = probe.Feed(std::move(batch));
          if (!st.ok()) break;
        }
        st.Update(probe.Finish());  // joins probe threads
      }
    }
    if (i == 0) exec->Mark("db_join_done");

    // Final aggregation at DB worker 0.
    RecordBatch rows =
        FinalAggregate(final_agg, self, query.agg, &local.agg).ValueOr(&st);
    if (i == 0) result_rows = std::move(rows);
    return st;
  };

  // --- JEN workers: answer the scan request (read_hdfs server side). ---
  auto jen_worker = [&](uint32_t w) -> Status {
    const NodeId self = NodeId::Hdfs(w);
    Status st;
    const ScanRequest request =
        scan_request.Receive<ScanRequest>(self).ValueOr(&st);
    Exchange::Sender sender =
        l_ingest.Open(self, nullptr, ctx->exec_threads());
    if (st.ok()) {
      ScanTask task;
      task.meta = prepared.scan_plan.meta;
      task.blocks = prepared.scan_plan.per_worker[w];
      task.predicate = request.predicate;
      task.projection = request.projection;
      task.bloom = request.bloom.has_value() ? &*request.bloom : nullptr;
      task.bloom_column = request.bloom_column;
      st = ctx->jen_worker(w)->ScanBlocksParallel(
          task, [&](uint32_t t) -> ScanConsumer {
            return [&, t](RecordBatch&& batch) {
              sender.Append(t, batch);
              return Status::OK();
            };
          });
    }
    st.Update(sender.Finish());  // EOS obligation
    return st;
  };

  HJ_RETURN_IF_ERROR(exec->RunWorkers(db_worker, jen_worker));
  return result_rows;
}

}  // namespace driver

Result<QueryResult> RunDbSideJoin(EngineContext* ctx,
                                  const PreparedQuery& prepared,
                                  bool use_bloom,
                                  uint64_t memory_budget_bytes) {
  Execution exec(ctx,
                 use_bloom ? JoinAlgorithm::kDbSideBloom
                           : JoinAlgorithm::kDbSide,
                 memory_budget_bytes);
  return exec.Finish(
      driver::RunDbSideOn(&exec, prepared, use_bloom, /*prefix=*/nullptr));
}

}  // namespace hybridjoin
