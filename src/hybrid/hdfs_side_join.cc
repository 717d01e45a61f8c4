// HDFS-side join drivers: the broadcast join (§3.2, Figure 2), the
// repartition join with and without Bloom filter (§3.3, Figure 3), and the
// zigzag join (§3.4, Figure 4). Every DB worker and every JEN worker runs
// on its own thread of a driver::Execution; data moves through the
// simulated interconnect.

#include <memory>
#include <optional>
#include <vector>

#include "exec/grace_join.h"
#include "exec/partitioned_appender.h"
#include "hybrid/algorithms.h"
#include "hybrid/driver_common.h"
#include "jen/exchange.h"
#include "jen/worker.h"
#include "trace/tracer.h"

namespace hybridjoin {

using driver::AllNodes;
using driver::AllRows;
using driver::Execution;
using driver::ReportBuilder;
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

namespace driver {

Result<RecordBatch> RunBroadcastOn(Execution* exec,
                                   const PreparedQuery& prepared) {
  EngineContext* ctx = exec->ctx();
  const HybridQuery& query = prepared.query;
  const uint32_t m = ctx->num_db_workers();
  Network& net = ctx->network();
  const Tags& tags = exec->tags();
  ReportBuilder& report = exec->report();
  const std::vector<NodeId> jen_nodes = AllNodes(ctx, ClusterId::kHdfs);
  const uint32_t designated = ctx->coordinator().designated_worker();
  RecordBatch result_rows;

  // --- DB workers: filter/project T', broadcast it to every JEN node. ---
  auto db_worker = [&](uint32_t i) -> Status {
    BatchSender sender(&net, NodeId::Db(i), tags.db_data,
                       ctx->config().jen.send_threads, &ctx->metrics(),
                       metric::kDbTuplesSent);
    Status st;
    for (const RecordBatch& batch : ScanDbTable(ctx, query, i, &st)) {
      sender.SendToAll(jen_nodes, batch);
    }
    st.Update(sender.Finish(jen_nodes));  // EOS obligation even on error
    if (i == 0) {
      report.Mark("db_broadcast_done");
      st.Update(DbReceiveResult(ctx, query.agg, tags, &result_rows));
    }
    return st;
  };

  // --- JEN workers: hash T', scan L probing in the pipeline, aggregate. ---
  auto jen_worker = [&](uint32_t w) -> Status {
    // Build side is the (small) database table, received straight into
    // the join; an oversized broadcast side spills instead of erroring.
    LocalJoin local(ctx, prepared, /*build_db=*/true);
    Status st;
    {
      trace::Span build_span(&ctx->tracer(), trace::span::kJenBuild,
                             trace::span::kCatJoin);
      st = ReceiveEach(&net, NodeId::Hdfs(w), tags.db_data, m,
                       prepared.db_proj_schema, [&](RecordBatch&& batch) {
                         return local.join.AddBuild(std::move(batch));
                       });
      if (st.ok()) st = FinishJoinBuild(ctx, &local.join);
    }
    if (w == designated) report.Mark("jen_hash_built");
    // Probe with L during the scan so network wait, scan and join
    // overlap: each scan process thread is one of the probe's threads.
    if (st.ok()) {
      ParallelProbe probe(ctx, NodeId::Hdfs(w), &local.join, &local.agg,
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
    if (w == designated) report.Mark("jen_scan_probe_done");
    trace::Span agg_span(&ctx->tracer(), trace::span::kJenAggregate,
                         trace::span::kCatJoin);
    st.Update(JenAggregateAndReturn(ctx, w, local.agg, tags));
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
  const uint32_t m = ctx->num_db_workers();
  const uint32_t n = ctx->num_jen_workers();
  Network& net = ctx->network();
  const Tags& tags = exec->tags();
  ReportBuilder& report = exec->report();
  const std::vector<NodeId> jen_nodes = AllNodes(ctx, ClusterId::kHdfs);
  const auto groups = ctx->coordinator().GroupWorkersForDb(m);
  const uint32_t designated = ctx->coordinator().designated_worker();
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

  // --- DB workers (Figures 3/4, left column). ---
  auto db_worker = [&](uint32_t i) -> Status {
    const NodeId self = NodeId::Db(i);
    Status st;

    // Step 1-2: BF_DB, built and combined (or carried over from the
    // adaptive prefix), multicast to this worker's JEN group with the hot
    // set right behind it when the skew route is on.
    HotKeySet hot;
    if (use_db_bloom) {
      hot = RunDbBloomPrefix(exec, prepared, i, prefix,
                             {.feed_sketch = skew_route,
                              .route_workers = skew_route ? n : 0,
                              .forward_to = groups[i]},
                             &st)
                .hot;
    }

    // Apply local predicates & projection; materialize T'.
    std::vector<RecordBatch> t_prime = ScanDbTable(ctx, query, i, &st);

    // Zigzag step 5: wait for BF_H and prune T' down to T''.
    if (zigzag && !semijoin) {
      auto bf_h = RecvBloom(&net, self, tags.bloom_h_global);
      if (bf_h.ok()) {
        t_prime = FilterBatchesByBloom(t_prime, query.db.join_key, *bf_h)
                      .ValueOr(&st, std::move(t_prime));
        if (i == 0) report.Mark("bf_h_applied");
      } else {
        st.Update(bf_h.status());
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
        st.Update(SendWithRetry(&net, self, NodeId::Hdfs(p),
                                tags.bloom_h_local, keys.Release()));
      }
      // Collect one bitmap per JEN worker (any arrival order).
      std::vector<std::vector<uint8_t>> bitmaps(n);
      for (uint32_t b = 0; b < n; ++b) {
        auto msg = net.Recv(self, tags.bloom_h_global);
        if (!msg.ok()) {
          st.Update(msg.status());
          break;
        }
        if (msg->eos || msg->payload == nullptr) {
          st.Update(Status::Internal("expected semijoin bitmap"));
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
        st = router.Append(batch, AllRows(batch.num_rows()));
        if (!st.ok()) break;
      }
      st.Update(router.FlushAll());
    }
    st.Update(sender.Finish(jen_nodes));  // EOS obligation
    if (i == 0) st.Update(DbReceiveResult(ctx, query.agg, tags, &result_rows));
    return st;
  };

  // --- JEN workers (Figures 3/4, right column; pipeline of Figure 7). ---
  auto jen_worker = [&](uint32_t w) -> Status {
    const NodeId self = NodeId::Hdfs(w);
    Status st;

    // Blocking wait for BF_DB before the scan starts (paper §4.4).
    BloomFilter bf_db;
    if (use_db_bloom) {
      bf_db = RecvBloom(&net, self, tags.bloom_to_jen).ValueOr(&st);
    }
    // The coordinator's hot-key set arrives right behind the Bloom
    // filter; scanned rows of a hot key will stay on this worker.
    const HotKeySet hot = skew_route
                              ? RecvHotKeys(&net, self, tags.hot_to_jen)
                                    .ValueOr(&st)
                              : HotKeySet();

    // Receive threads drain the shuffled L' as it arrives (Figure 7,
    // right side) straight into the join's build — the paper's choice:
    // the shuffle completes with the scan, long before any database
    // record can arrive. The build-on-DB-data ablation buffers L' instead
    // and builds on the database records, which only arrive after BF_H.
    const bool build_l = !options.build_on_db_data;
    LocalJoin local(ctx, prepared, /*build_db=*/!build_l);
    std::vector<RecordBatch> l_buffer;  // the ablation's probe side
    // L' rows for the build (or the ablation's buffer).
    auto take_l = [&](RecordBatch&& batch) -> Status {
      if (build_l) return local.join.AddBuild(std::move(batch));
      l_buffer.push_back(std::move(batch));
      return Status::OK();
    };
    Status receive_status;
    WorkerThread receiver(self, "jen_receive", [&] {
      trace::Span build_span(&ctx->tracer(), trace::span::kJenBuild,
                             trace::span::kCatJoin);
      receive_status = ReceiveEach(&net, self, tags.shuffle, n,
                                   prepared.hdfs_out_schema, take_l);
    });

    // Scan + filter + BF_DB + projection, shuffling L' with the agreed
    // hash while building the local HDFS Bloom filter (zigzag).
    BloomFilter bf_h_local(prepared.bloom_params);
    BatchSender shuffle_sender(&net, self, tags.shuffle,
                               ctx->config().jen.send_threads,
                               &ctx->metrics(), metric::kHdfsTuplesShuffled);
    // Per-process-thread shuffle state: PartitionedAppender keeps
    // unsynchronized per-partition buffers and the zigzag Bloom filter
    // has no atomic bit-set, so every scan process thread gets its own
    // of both (the shared BatchSender is thread-safe). The per-thread
    // filters are OR-ed into bf_h_local after the scan — union is
    // commutative, so the combined filter does not depend on which
    // thread saw which block.
    const uint32_t exec_threads = ctx->exec_threads();
    std::vector<BloomFilter> thread_blooms(
        exec_threads, BloomFilter(prepared.bloom_params));
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
            governor->Reserve(bytes);
            hot_parked_bytes[t] += bytes;
            hot_parked[t].push_back(std::move(batch));
            return Status::OK();
          }));
    }
    if (st.ok()) {
      const ScanTask task =
          MakeScanTask(prepared, w, use_db_bloom ? &bf_db : nullptr);
      st = ctx->jen_worker(w)->ScanBlocksParallel(
          task, [&](uint32_t t) -> ScanConsumer {
            SkewRouter* appender = appenders[t].get();
            BloomFilter* bloom = &thread_blooms[t];
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
        for (const BloomFilter& bloom : thread_blooms) {
          st.Update(bf_h_local.UnionWith(bloom));
        }
      }
    }
    st.Update(shuffle_sender.Finish(jen_nodes));  // EOS obligation
    if (w == designated) report.Mark("jen_scan_done");

    // Zigzag steps 3b/4: combine BF_H at the designated worker and send
    // it to every DB worker.
    if (zigzag && !semijoin) {
      st.Update(CombineBloom(ctx, self, NodeId::Hdfs(designated), n,
                             bf_h_local, tags.bloom_h_local,
                             AllNodes(ctx, ClusterId::kDb),
                             tags.bloom_h_global));
      if (w == designated) report.Mark("bf_h_sent");
    }

    // Drain the shuffle.
    receiver.Join();
    st.Update(receive_status);

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
      governor->Release(parked_bytes);
      if (hot_probe_rows > 0) {
        ctx->metrics().Add(metric::kShuffleHotRowsProbe, hot_probe_rows);
      }
    }

    // Paper's plan: the join over L' probes with the arriving database
    // records (buffered by the network while we were building). The
    // ablation builds on those records and probes with the buffered L'.
    if (!build_l) {
      st.Update(ReceiveEach(&net, self, tags.db_data, m,
                            prepared.db_proj_schema, [&](RecordBatch&& batch) {
                              return local.join.AddBuild(std::move(batch));
                            }));
    }
    if (st.ok()) st = FinishJoinBuild(ctx, &local.join);
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
          st.Update(msg.status());
          break;
        }
        if (msg->eos || msg->payload == nullptr) {
          st.Update(Status::Internal("expected semijoin key list"));
          continue;
        }
        BinaryReader r(*msg->payload);
        const uint64_t count = r.GetVarint().ValueOr(&st);
        std::vector<uint8_t> bitmap((count + 7) / 8, 0);
        for (uint64_t k = 0; k < count && st.ok(); ++k) {
          const int64_t key = r.GetI64().ValueOr(&st);
          if (st.ok() && local.join.Contains(key)) {
            bitmap[k / 8] |= static_cast<uint8_t>(1u << (k % 8));
          }
        }
        st.Update(SendWithRetry(&net, self, msg->from, tags.bloom_h_global,
                                std::move(bitmap)));
      }
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
      // Drained even after an error, to honor the protocol.
      st.Update(ReceiveEach(&net, self, tags.db_data, m,
                            prepared.db_proj_schema, feed));
    } else {
      for (RecordBatch& batch : l_buffer) {
        if (!st.ok()) break;
        st = feed(std::move(batch));
      }
    }
    if (probe) st.Update(probe->Finish());  // joins probe threads
    if (w == designated) report.Mark("jen_probe_done");
    trace::Span agg_span(&ctx->tracer(), trace::span::kJenAggregate,
                         trace::span::kCatJoin);
    st.Update(JenAggregateAndReturn(ctx, w, local.agg, tags));
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
