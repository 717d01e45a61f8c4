// HDFS-side join drivers: the broadcast join (§3.2, Figure 2), the
// repartition join with and without Bloom filter (§3.3, Figure 3), and the
// zigzag join (§3.4, Figure 4). Each is a plan of driver stages: every DB
// worker and every JEN worker runs on its own thread of a
// driver::Execution, and data moves through the stages' channels on the
// simulated interconnect.

#include <optional>
#include <span>
#include <vector>

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

/// T' from every DB worker to the JEN workers (the broadcast join's build
/// side, the repartition family's probe side).
Exchange::Spec DbToJen(EngineContext* ctx, const PreparedQuery& prepared,
                       Exchange::Route route) {
  return {.senders = AllNodes(ctx, ClusterId::kDb),
          .receivers = AllNodes(ctx, ClusterId::kHdfs),
          .route = route,
          .hot_mode = Exchange::HotMode::kBroadcast,
          .schema = prepared.db_proj_schema,
          .key_column = prepared.db_key_idx,
          .send_threads = ctx->config().jen.send_threads,
          .flush_rows = ctx->config().jen.shuffle_batch_rows,
          .tuple_counter = metric::kDbTuplesSent};
}

/// The HDFS-side tail: the JEN workers' partial aggregates merge at the
/// designated worker, which sends the final rows to DB worker 0.
Coordinate AggregateAtJen(Execution* exec) {
  EngineContext* ctx = exec->ctx();
  return Coordinate(exec, AllNodes(ctx, ClusterId::kHdfs),
                    NodeId::Hdfs(ctx->coordinator().designated_worker()),
                    {NodeId::Db(0)});
}

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

namespace driver {

Result<RecordBatch> RunBroadcastOn(Execution* exec,
                                   const PreparedQuery& prepared) {
  EngineContext* ctx = exec->ctx();
  const HybridQuery& query = prepared.query;
  const uint32_t designated = ctx->coordinator().designated_worker();
  Exchange t_prime(exec, DbToJen(ctx, prepared, Exchange::Route::kBroadcast));
  const Coordinate final_agg = AggregateAtJen(exec);
  RecordBatch result_rows;

  // --- DB workers: filter/project T', broadcast it to every JEN node. ---
  auto db_worker = [&](uint32_t i) -> Status {
    Status st;
    st.Update(t_prime.Send(NodeId::Db(i), ScanDbTable(ctx, query, i, &st)));
    if (i == 0) {
      exec->Mark("db_broadcast_done");
      result_rows = FinalAggregate(final_agg, NodeId::Db(0), query.agg,
                                   nullptr)
                        .ValueOr(&st);
    }
    return st;
  };

  // --- JEN workers: hash T', scan L probing in the pipeline, aggregate. ---
  auto jen_worker = [&](uint32_t w) -> Status {
    const NodeId self = NodeId::Hdfs(w);
    // Build side is the (small) database table, received straight into
    // the join; an oversized broadcast side spills instead of erroring.
    LocalJoin local(ctx, prepared, /*build_db=*/true);
    Status st;
    {
      trace::Span build_span(&ctx->tracer(), trace::span::kJenBuild,
                             trace::span::kCatJoin);
      st = t_prime.Receive(self, [&](RecordBatch&& batch) {
        return local.join.AddBuild(std::move(batch));
      });
      if (st.ok()) st = FinishJoinBuild(ctx, &local.join);
    }
    if (w == designated) exec->Mark("jen_hash_built");
    // Probe with L during the scan so network wait, scan and join
    // overlap: each scan process thread is one of the probe's threads.
    if (st.ok()) {
      ParallelProbe probe(ctx, self, &local.join, &local.agg,
                          trace::span::kJenProbe);
      const ScanTask task = MakeScanTask(prepared, w, nullptr);
      st = ctx->jen_worker(w)->ScanBlocksParallel(
          task, [&](uint32_t t) -> ScanConsumer {
            return [&, t](RecordBatch&& batch) {
              return probe.Probe(t, batch);
            };
          });
      st.Update(probe.Finish());
    }
    if (w == designated) exec->Mark("jen_scan_probe_done");
    trace::Span agg_span(&ctx->tracer(), trace::span::kJenAggregate,
                         trace::span::kCatJoin);
    st.Update(FinalAggregate(final_agg, self, query.agg, &local.agg).status());
    return st;
  };

  HJ_RETURN_IF_ERROR(exec->RunWorkers(db_worker, jen_worker));
  return result_rows;
}

}  // namespace driver

Result<QueryResult> RunBroadcastJoin(EngineContext* ctx,
                                     const PreparedQuery& prepared,
                                     uint64_t memory_budget_bytes) {
  Execution exec(ctx, JoinAlgorithm::kBroadcast, memory_budget_bytes);
  return exec.Finish(driver::RunBroadcastOn(&exec, prepared));
}

// ---------------------------------------------------------------------------
// Repartition join (§3.3) and zigzag join (§3.4)
// ---------------------------------------------------------------------------

namespace driver {

Result<RecordBatch> RunRepartitionFamilyOn(Execution* exec,
                                           const PreparedQuery& prepared,
                                           bool use_db_bloom, bool zigzag,
                                           const JoinDriverOptions& options,
                                           const PrefixState* prefix) {
  EngineContext* ctx = exec->ctx();
  const bool semijoin =
      zigzag && options.second_filter == SecondFilterKind::kExactSemijoin;
  const HybridQuery& query = prepared.query;
  const uint32_t n = ctx->num_jen_workers();
  const uint32_t designated = ctx->coordinator().designated_worker();
  RecordBatch result_rows;

  // Skew-aware shuffle (docs/architecture.md): hot-key detection piggybacks
  // on the DB Bloom-build scan, so the hybrid route exists exactly when
  // that scan runs. The semijoin variant opts out (its key/bitmap protocol
  // assumes agreed-hash placement of every T' key), and a single JEN
  // worker has nothing to balance.
  const bool skew_route =
      ctx->config().skew.enabled && use_db_bloom && !semijoin && n > 1;

  // The plan: which stages run is the whole difference between the
  // repartition join, its Bloom variant and the zigzag join's two
  // second filters.
  std::optional<DbBloomPrefix> bf_db;  // steps 1-2: BF_DB to the JEN groups
  if (use_db_bloom) {
    bf_db.emplace(exec, prepared, prefix,
                  BloomPrefixOptions{.feed_sketch = skew_route,
                                     .route_workers = skew_route ? n : 0,
                                     .to_jen = true});
  }
  // L' shuffled by the agreed hash; hot probe rows stay where scanned.
  Exchange l_shuffle(exec, {.senders = AllNodes(ctx, ClusterId::kHdfs),
                            .receivers = AllNodes(ctx, ClusterId::kHdfs),
                            .route = Exchange::Route::kAgreedHash,
                            .hot_mode = Exchange::HotMode::kKeepLocal,
                            .schema = prepared.hdfs_out_schema,
                            .key_column = prepared.hdfs_key_idx,
                            .send_threads = ctx->config().jen.send_threads,
                            .flush_rows = ctx->config().jen.shuffle_batch_rows,
                            .tuple_counter = metric::kHdfsTuplesShuffled,
                            .send_span = trace::span::kJenShuffle});
  // T' (or T'') with the agreed hash; hot rows broadcast to every worker,
  // where they meet the hot probe rows that stayed local. Exactly-once
  // pairing holds because each hot L row lives on precisely one worker.
  Exchange t_ship(exec, DbToJen(ctx, prepared, Exchange::Route::kAgreedHash));
  // Zigzag steps 3b-5: BF_H unioned at the designated JEN worker and sent
  // to every DB worker, or the exact semijoin in its place.
  std::optional<Coordinate> bf_h;
  if (zigzag && !semijoin) {
    bf_h.emplace(exec, AllNodes(ctx, ClusterId::kHdfs),
                 NodeId::Hdfs(designated), AllNodes(ctx, ClusterId::kDb));
  }
  std::optional<SemijoinFilter> semijoin_filter;
  if (semijoin) semijoin_filter.emplace(exec, prepared);
  const Coordinate final_agg = AggregateAtJen(exec);

  // --- DB workers (Figures 3/4, left column). ---
  auto db_worker = [&](uint32_t i) -> Status {
    const NodeId self = NodeId::Db(i);
    Status st;
    HotKeySet hot;
    if (bf_db) hot = bf_db->Run(i, &st).hot;

    // Apply local predicates & projection; materialize T'.
    std::vector<RecordBatch> t_prime = ScanDbTable(ctx, query, i, &st);

    // Zigzag step 5: wait for BF_H and prune T' down to T''.
    if (bf_h) {
      Result<BloomFilter> filter =
          UnionBlooms(ctx, *bf_h, self, nullptr, prepared.bloom_params);
      if (filter.ok()) {
        t_prime = FilterBatchesByBloom(t_prime, query.db.join_key, *filter)
                      .ValueOr(&st, std::move(t_prime));
        if (i == 0) exec->Mark("bf_h_applied");
      } else {
        st.Update(filter.status());
      }
    }

    // Ship T' (or T'') to the JEN workers; after an error only the EOS
    // goes out.
    if (semijoin_filter) {
      semijoin_filter->Ship(i, std::move(t_prime), &t_ship, &st);
    } else {
      if (!st.ok()) t_prime.clear();
      st.Update(t_ship.Send(self, t_prime, &hot));
    }
    if (i == 0) {
      result_rows = FinalAggregate(final_agg, self, query.agg, nullptr)
                        .ValueOr(&st);
    }
    return st;
  };

  // --- JEN workers (Figures 3/4, right column; pipeline of Figure 7). ---
  auto jen_worker = [&](uint32_t w) -> Status {
    const NodeId self = NodeId::Hdfs(w);
    Status st;

    // Blocking wait for BF_DB before the scan starts (paper §4.4), with
    // the coordinator's hot-key set right behind it.
    BloomFilter bf_db_filter;
    HotKeySet hot;
    if (bf_db) bf_db->Receive(w, &bf_db_filter, &hot, &st);

    // Receive threads drain the shuffled L' as it arrives (Figure 7,
    // right side) straight into the join's build — the paper's choice:
    // the shuffle completes with the scan, long before any database
    // record can arrive. The build-on-DB-data ablation buffers L' instead
    // and builds on the database records, which only arrive after BF_H.
    // The hot probe rows this worker kept come last; each exists on
    // exactly one worker while the matching hot T' rows were broadcast
    // everywhere, so each (t, l) pair meets exactly once.
    const bool build_l = !options.build_on_db_data;
    LocalJoin local(ctx, prepared, /*build_db=*/!build_l);
    std::vector<RecordBatch> l_buffer;  // the ablation's probe side
    Status receive_status;
    WorkerThread receiver(self, "jen_receive", [&] {
      trace::Span build_span(&ctx->tracer(), trace::span::kJenBuild,
                             trace::span::kCatJoin);
      receive_status = l_shuffle.Receive(self, [&](RecordBatch&& batch) {
        if (build_l) return local.join.AddBuild(std::move(batch));
        l_buffer.push_back(std::move(batch));
        return Status::OK();
      });
    });

    // Scan + filter + BF_DB + projection, shuffling L' with the agreed
    // hash while building the local HDFS Bloom filter (zigzag). Every scan
    // process thread gets its own producer and its own BF_H part (the
    // filter has no atomic bit-set); the parts are OR-ed after the scan —
    // union is commutative, so BF_H does not depend on which thread saw
    // which block.
    const uint32_t exec_threads = ctx->exec_threads();
    std::vector<BloomFilter> thread_blooms(
        bf_h ? exec_threads : 0, BloomFilter(prepared.bloom_params));
    BloomFilter bf_h_local(prepared.bloom_params);
    {
      Exchange::Sender shuffle = l_shuffle.Open(self, &hot, exec_threads);
      if (st.ok()) {
        const ScanTask task =
            MakeScanTask(prepared, w, bf_db ? &bf_db_filter : nullptr);
        st = ctx->jen_worker(w)->ScanBlocksParallel(
            task, [&](uint32_t t) -> ScanConsumer {
              return [&, t](RecordBatch&& batch) {
                // BF_H covers every scanned L' key — hot keys included,
                // routing must not change what the filter admits.
                if (bf_h) {
                  AddKeysToBloom(batch, prepared.hdfs_key_idx,
                                 &thread_blooms[t]);
                }
                shuffle.Append(t, batch);
                return Status::OK();
              };
            });
        for (const BloomFilter& bloom : thread_blooms) {
          st.Update(bf_h_local.UnionWith(bloom));
        }
      }
      st.Update(shuffle.Finish());
    }
    if (w == designated) exec->Mark("jen_scan_done");

    if (bf_h) {
      st.Update(UnionBlooms(ctx, *bf_h, self, &bf_h_local,
                            prepared.bloom_params)
                    .status());
      if (w == designated) exec->Mark("bf_h_sent");
    }

    // Drain the shuffle.
    receiver.Join();
    st.Update(receive_status);

    // Paper's plan: the join over L' probes with the arriving database
    // records (buffered by the network while we were building). The
    // ablation builds on those records and probes with the buffered L'.
    if (!build_l) {
      st.Update(t_ship.Receive(self, [&](RecordBatch&& batch) {
        return local.join.AddBuild(std::move(batch));
      }));
    }
    if (st.ok()) st = FinishJoinBuild(ctx, &local.join);
    if (w == designated) exec->Mark("jen_hash_built");
    if (semijoin_filter) {
      st.Update(semijoin_filter->Answer(w, st.ok() ? &local.join : nullptr));
    }
    std::optional<ParallelProbe> probe;
    if (st.ok()) {
      probe.emplace(ctx, self, &local.join, &local.agg,
                    trace::span::kJenProbe);
    }
    auto feed = [&](RecordBatch&& batch) {
      return probe ? probe->Feed(std::move(batch)) : Status::OK();
    };
    if (build_l) {
      st.Update(t_ship.Receive(self, feed));  // drained even after an error
    } else {
      for (RecordBatch& batch : l_buffer) {
        if (!st.ok()) break;
        st = feed(std::move(batch));
      }
    }
    if (probe) st.Update(probe->Finish());  // joins probe threads
    if (w == designated) exec->Mark("jen_probe_done");
    trace::Span agg_span(&ctx->tracer(), trace::span::kJenAggregate,
                         trace::span::kCatJoin);
    st.Update(FinalAggregate(final_agg, self, query.agg, &local.agg).status());
    return st;
  };

  HJ_RETURN_IF_ERROR(exec->RunWorkers(db_worker, jen_worker));
  return result_rows;
}

}  // namespace driver

Result<QueryResult> RunRepartitionFamilyJoin(EngineContext* ctx,
                                             const PreparedQuery& prepared,
                                             bool use_db_bloom, bool zigzag,
                                             const JoinDriverOptions& options,
                                             uint64_t memory_budget_bytes) {
  if (zigzag && !use_db_bloom) {
    return Status::InvalidArgument("zigzag join requires the DB Bloom filter");
  }
  if (zigzag && options.second_filter == SecondFilterKind::kExactSemijoin &&
      options.build_on_db_data) {
    return Status::InvalidArgument(
        "exact semijoin needs the hash table on the HDFS side");
  }
  const JoinAlgorithm algorithm =
      zigzag ? JoinAlgorithm::kZigzag
             : (use_db_bloom ? JoinAlgorithm::kRepartitionBloom
                             : JoinAlgorithm::kRepartition);
  Execution exec(ctx, algorithm, memory_budget_bytes);
  return exec.Finish(driver::RunRepartitionFamilyOn(
      &exec, prepared, use_db_bloom, zigzag, options, /*prefix=*/nullptr));
}

}  // namespace hybridjoin
