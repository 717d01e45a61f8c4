#include "jen/worker.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <optional>
#include <thread>

#include "common/blocking_queue.h"
#include "exec/worker_thread.h"

namespace hybridjoin {

namespace {

/// True when chunk stats prove no row can satisfy `cmp`: no value in
/// [min_val, max_val] passes it.
bool StatsRefute(const ConjunctiveIntCmp& cmp, int64_t min_val,
                 int64_t max_val) {
  const auto base = static_cast<uint64_t>(min_val);
  return IntCmpTest<int64_t>::Make(cmp.op, cmp.literal)
             .Rebased(base)
             .Decide(static_cast<uint64_t>(max_val) - base) ==
         IntCmpTest<int64_t>::Outcome::kNone;
}

/// How a scan reads a block: the predicate split into the conjuncts run on
/// encoded chunks and the residual, and the columns, as schema indexes in
/// schema order, of the steps after the pushed conjuncts. `residual` holds
/// what the residual predicate reads, `bloom` the Bloom key column unless
/// the residual reads it too, and `late` the rest of the projection; each
/// is decoded only at the rows the steps before it keep. `read` is every
/// chunk the scan reads, pushed columns included.
struct ScanColumns {
  PushdownSplit split;
  std::vector<size_t> residual;
  std::vector<size_t> bloom;
  std::vector<size_t> late;
  std::vector<size_t> read;
};

Result<ScanColumns> SplitScanColumns(const ScanTask& task) {
  auto indexes_of = [&](const std::vector<std::string>& names)
      -> Result<std::vector<size_t>> {
    std::vector<size_t> indexes;
    for (const std::string& name : names) {
      HJ_ASSIGN_OR_RETURN(size_t idx, task.meta.schema->IndexOf(name));
      indexes.push_back(idx);
    }
    std::sort(indexes.begin(), indexes.end());
    indexes.erase(std::unique(indexes.begin(), indexes.end()), indexes.end());
    return indexes;
  };
  auto minus = [](const std::vector<size_t>& a, const std::vector<size_t>& b) {
    std::vector<size_t> out;
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
    return out;
  };
  ScanColumns cols;
  std::vector<std::string> names;
  if (task.predicate != nullptr) task.predicate->CollectColumns(&names);
  if (task.bloom != nullptr) names.push_back(task.bloom_column);
  names.insert(names.end(), task.projection.begin(), task.projection.end());
  HJ_ASSIGN_OR_RETURN(cols.read, indexes_of(names));

  cols.split = SplitPushdown(task.predicate, task.meta.schema);
  names.clear();
  if (cols.split.residual != nullptr) {
    cols.split.residual->CollectColumns(&names);
  }
  HJ_ASSIGN_OR_RETURN(cols.residual, indexes_of(names));
  if (task.bloom != nullptr) {
    HJ_ASSIGN_OR_RETURN(size_t key,
                        task.meta.schema->IndexOf(task.bloom_column));
    if (!std::binary_search(cols.residual.begin(), cols.residual.end(), key)) {
      cols.bloom.push_back(key);
    }
  }
  HJ_ASSIGN_OR_RETURN(std::vector<size_t> projected,
                      indexes_of(task.projection));
  cols.late = minus(minus(projected, cols.residual), cols.bloom);
  return cols;
}

struct ReadItem {
  std::shared_ptr<const StoredBlock> block;
};

}  // namespace

Result<SchemaPtr> JenWorker::OutputSchema(const ScanTask& task) {
  std::vector<size_t> indexes;
  for (const std::string& name : task.projection) {
    HJ_ASSIGN_OR_RETURN(size_t idx, task.meta.schema->IndexOf(name));
    indexes.push_back(idx);
  }
  return task.meta.schema->Project(indexes);
}

Status FilterByBloom(const RecordBatch& batch, const std::string& column,
                     const BloomFilter& bloom, std::vector<uint32_t>* sel) {
  HJ_ASSIGN_OR_RETURN(size_t idx, batch.schema()->IndexOf(column));
  const ColumnVector& cv = batch.column(idx);
  switch (cv.physical_type()) {
    case PhysicalType::kInt32:
      bloom.MayContainKeys(std::span<const int32_t>(cv.i32()), sel);
      break;
    case PhysicalType::kInt64:
      bloom.MayContainKeys(std::span<const int64_t>(cv.i64()), sel);
      break;
    default:
      return Status::InvalidArgument("Bloom column must be integer-typed");
  }
  return Status::OK();
}

Status JenWorker::ScanBlocks(const ScanTask& task,
                             const ScanConsumer& consumer, ScanStats* stats) {
  return ScanImpl(
      task, [&consumer](uint32_t) { return consumer; }, stats,
      /*process_threads=*/1);
}

Status JenWorker::ScanBlocksParallel(const ScanTask& task,
                                     const ScanConsumerFactory& factory,
                                     ScanStats* stats) {
  return ScanImpl(task, factory, stats,
                  std::max(1u, config_.process_threads));
}

Status JenWorker::ScanImpl(const ScanTask& task,
                           const ScanConsumerFactory& factory,
                           ScanStats* stats, uint32_t process_threads) {
  trace::Span scan_span(tracer_, trace::span::kJenScan,
                        trace::span::kCatScan, node());
  ScanStats local_stats;
  ScanStats* st = stats != nullptr ? stats : &local_stats;

  HJ_ASSIGN_OR_RETURN(ScanColumns columns, SplitScanColumns(task));

  // Conjunctive comparisons for columnar chunk skipping.
  std::vector<ConjunctiveIntCmp> skip_cmps;
  if (config_.chunk_skipping && task.predicate != nullptr &&
      task.meta.format == HdfsFormat::kColumnar) {
    task.predicate->CollectConjunctiveIntCmps(&skip_cmps);
  }
  // Map predicate columns to schema indexes once.
  std::map<std::string, size_t> col_index;
  for (size_t i = 0; i < task.meta.schema->num_fields(); ++i) {
    col_index[task.meta.schema->field(i).name] = i;
  }

  // Partition assigned blocks into per-read-thread lists: one list per
  // local disk plus one list for remote blocks.
  std::map<uint32_t, std::vector<const BlockAssignment*>> by_disk;
  std::vector<const BlockAssignment*> remote;
  for (const BlockAssignment& a : task.blocks) {
    if (a.local) {
      by_disk[a.replica.disk].push_back(&a);
    } else {
      remote.push_back(&a);
    }
  }

  BlockingQueue<ReadItem> queue(config_.read_queue_capacity);
  std::mutex status_mu;
  Status first_error;
  auto record_error = [&](const Status& s) {
    std::lock_guard<std::mutex> lock(status_mu);
    if (first_error.ok()) first_error = s;
  };
  std::atomic<int64_t> bytes_read{0};
  std::atomic<int64_t> blocks_read{0};
  std::atomic<int64_t> blocks_skipped{0};
  std::atomic<int64_t> blocks_remote{0};

  auto read_loop = [&](const std::vector<const BlockAssignment*>& blocks) {
    for (const BlockAssignment* a : blocks) {
      trace::Span read_span(tracer_, trace::span::kJenReadBlock,
                            trace::span::kCatScan, node());
      DataNode* owner = datanodes_[a->replica.node];
      auto fetched = owner->Fetch(a->info.block_id);
      if (!fetched.ok()) {
        record_error(fetched.status());
        return;
      }
      std::shared_ptr<const StoredBlock> block = std::move(fetched).value();

      // Columnar: chunk skipping + projection pushdown decide the I/O.
      uint64_t read_bytes = 0;
      bool skip = false;
      if (block->format == HdfsFormat::kColumnar) {
        for (const ConjunctiveIntCmp& cmp : skip_cmps) {
          auto it = col_index.find(cmp.column);
          if (it == col_index.end()) continue;
          const ColumnChunk& chunk = block->columnar->chunks[it->second];
          if (chunk.has_stats &&
              StatsRefute(cmp, chunk.min_val, chunk.max_val)) {
            skip = true;
            break;
          }
        }
        if (skip) {
          read_bytes = config_.footer_read_bytes;
        } else {
          for (size_t idx : columns.read) {
            read_bytes += block->columnar->chunks[idx].ByteSize();
          }
        }
      } else {
        read_bytes = block->ByteSize();
      }

      read_span.set_bytes(static_cast<int64_t>(read_bytes));
      owner->AccountRead(a->info.block_id, read_bytes);
      if (!a->local) {
        network_->Transfer(NodeId::Hdfs(a->replica.node), node(),
                           read_bytes);
        blocks_remote.fetch_add(1, std::memory_order_relaxed);
      }
      bytes_read.fetch_add(static_cast<int64_t>(read_bytes),
                           std::memory_order_relaxed);
      if (skip) {
        blocks_skipped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      blocks_read.fetch_add(1, std::memory_order_relaxed);
      if (!queue.Push(ReadItem{std::move(block)})) return;  // aborted
    }
  };

  // Launch the read threads (Figure 7: one per disk, plus one draining the
  // remote blocks).
  std::vector<WorkerThread> readers;
  for (auto& [disk, blocks] : by_disk) {
    readers.emplace_back(node(), "jen_read",
                         [&read_loop, &blocks] { read_loop(blocks); });
  }
  if (!remote.empty()) {
    readers.emplace_back(node(), "jen_read",
                         [&read_loop, &remote] { read_loop(remote); });
  }
  std::thread closer([&readers, &queue] {
    for (WorkerThread& t : readers) t.Join();
    queue.Close();
  });

  // Process side: the pushed conjuncts on the encoded chunks -> the
  // residual predicate -> Bloom -> the late columns for the survivors ->
  // projection -> per-thread consumer. The queue is the only work
  // dispenser; the abort flag and the error slot are the only other shared
  // state.
  Status process_status;
  // Indexes of projection columns within the decoded (residual ++ bloom ++
  // late) batch.
  std::vector<size_t> decoded = columns.residual;
  decoded.insert(decoded.end(), columns.bloom.begin(), columns.bloom.end());
  decoded.insert(decoded.end(), columns.late.begin(), columns.late.end());
  SchemaPtr decoded_schema = task.meta.schema->Project(decoded);
  std::vector<size_t> out_indexes;
  for (const std::string& name : task.projection) {
    auto idx = decoded_schema->IndexOf(name);
    if (!idx.ok()) {
      process_status = idx.status();
      break;
    }
    out_indexes.push_back(idx.value());
  }

  std::atomic<bool> aborted{false};
  std::mutex process_mu;
  std::vector<ScanStats> thread_stats(process_threads);
  std::vector<ScanConsumer> consumers;
  consumers.reserve(process_threads);
  if (process_status.ok()) {
    for (uint32_t t = 0; t < process_threads; ++t) {
      consumers.push_back(factory(t));
    }
  }

  // One process thread's loop. `sel` is hoisted scratch: its allocation is
  // reused across blocks.
  auto process_loop = [&](const ScanConsumer& consume,
                          ScanStats* pst) -> Status {
    std::vector<uint32_t> sel;
    std::vector<ScanStage> stages(3);
    stages[0].columns = columns.residual;
    if (columns.split.residual != nullptr) {
      stages[0].filter = [&](const RecordBatch& batch,
                             std::vector<uint32_t>* rows) {
        return columns.split.residual->Filter(batch, rows);
      };
    }
    stages[1].columns = columns.bloom;
    if (task.bloom != nullptr) {
      stages[1].filter = [&](const RecordBatch& batch,
                             std::vector<uint32_t>* rows) -> Status {
        const size_t after_pred = rows->size();
        HJ_RETURN_IF_ERROR(
            FilterByBloom(batch, task.bloom_column, *task.bloom, rows));
        pst->rows_dropped_by_bloom +=
            static_cast<int64_t>(after_pred - rows->size());
        return Status::OK();
      };
    }
    stages[2].columns = columns.late;
    for (;;) {
      if (aborted.load(std::memory_order_relaxed)) return Status::OK();
      std::optional<ReadItem> item;
      {
        trace::Span wait_span(tracer_, trace::span::kJenQueueWait,
                              trace::span::kCatScan, node());
        item = queue.Pop();
      }
      if (!item.has_value()) return Status::OK();
      HJ_ASSIGN_OR_RETURN(
          RecordBatch survivors,
          DecodeBlockFiltered(*item->block, task.meta.schema,
                              columns.split.pushed, stages, &sel));
      pst->rows_scanned += item->block->num_rows;
      pst->rows_after_filter += static_cast<int64_t>(sel.size());
      if (survivors.empty()) continue;
      HJ_RETURN_IF_ERROR(consume(std::move(survivors).Project(out_indexes)));
    }
  };

  auto run_process = [&](uint32_t t) {
    Status s = process_loop(consumers[t], &thread_stats[t]);
    if (!s.ok()) {
      {
        std::lock_guard<std::mutex> lock(process_mu);
        if (process_status.ok()) process_status = std::move(s);
      }
      aborted.store(true, std::memory_order_relaxed);
      queue.Close();  // unblocks readers and sibling process threads
    }
  };

  if (process_status.ok()) {
    if (process_threads == 1) {
      // Single process thread runs inline on the calling thread — the
      // historical Figure-7 pipeline, byte-for-byte.
      run_process(0);
    } else {
      std::vector<WorkerThread> procs;
      procs.reserve(process_threads);
      for (uint32_t t = 0; t < process_threads; ++t) {
        procs.emplace_back(node(), trace::InternedRole("jen_proc", t),
                           [&run_process, t] { run_process(t); });
      }
      for (WorkerThread& th : procs) th.Join();
    }
  }

  // Tear down readers regardless of processing outcome.
  queue.Close();
  closer.join();

  for (const ScanStats& ts : thread_stats) {
    st->rows_scanned += ts.rows_scanned;
    st->rows_after_filter += ts.rows_after_filter;
    st->rows_dropped_by_bloom += ts.rows_dropped_by_bloom;
  }
  st->blocks_read += blocks_read.load();
  st->blocks_skipped += blocks_skipped.load();
  st->bytes_read += bytes_read.load();
  if (metrics_ != nullptr) {
    metrics_->Add(metric::kHdfsBytesRead, bytes_read.load());
    metrics_->Add(metric::kHdfsTuplesScanned, st->rows_scanned);
    metrics_->Add(metric::kHdfsTuplesAfterFilter, st->rows_after_filter);
    metrics_->Add(metric::kHdfsBlocksLocal,
                  blocks_read.load() + blocks_skipped.load() -
                      blocks_remote.load());
    metrics_->Add(metric::kHdfsBlocksRemote, blocks_remote.load());
  }

  HJ_RETURN_IF_ERROR(process_status);
  {
    std::lock_guard<std::mutex> lock(status_mu);
    HJ_RETURN_IF_ERROR(first_error);
  }
  return Status::OK();
}

}  // namespace hybridjoin
