// BatchMorselPipe: fans a stream of record batches out to a fixed set of
// per-thread consumers through a bounded queue — the morsel-driven probe /
// partial-aggregation stage of the intra-node parallelism model
// (docs/architecture.md). The feeding thread stays the producer (typically
// a network receive loop), so pipelining with the upstream stage is kept;
// with one thread the pipe degenerates to an inline call on the feeder,
// reproducing single-threaded execution exactly.

#ifndef HYBRIDJOIN_EXEC_MORSEL_H_
#define HYBRIDJOIN_EXEC_MORSEL_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "common/blocking_queue.h"
#include "common/status.h"
#include "exec/memory_governor.h"
#include "exec/worker_thread.h"
#include "obs/query_registry.h"
#include "trace/tracer.h"
#include "types/record_batch.h"

namespace hybridjoin {

class BatchMorselPipe {
 public:
  /// `consume(t, batch)` runs for every fed batch with a stable thread
  /// index t in [0, threads) — always on the same worker thread for a given
  /// t, so consumers may keep unsynchronized per-thread state (a JoinProber,
  /// a partial HashAggregator). With threads == 1 no worker is spawned and
  /// consume(0, ...) runs inline on the feeding thread. The worker threads
  /// are WorkerThreads acting for `node` in the feeder's query, on trace
  /// lanes "<role_base>/<t>".
  BatchMorselPipe(uint32_t threads,
                  std::function<Status(uint32_t, RecordBatch&&)> consume,
                  NodeId node, const char* role_base)
      : consume_(std::move(consume)),
        governor_(MemoryGovernor::Current()),
        queue_(std::max<size_t>(2 * threads, 2)) {
    if (threads <= 1) return;
    workers_.reserve(threads);
    for (uint32_t t = 0; t < threads; ++t) {
      const char* role = trace::InternedRole(role_base, t);
      workers_.emplace_back(node, role, [this, t] {
        while (auto batch = queue_.Pop()) {
          if (governor_ != nullptr) governor_->Release(batch->ByteSize());
          // After a failure, keep draining so the feeder never blocks on a
          // full queue, but stop doing work.
          if (failed_.load(std::memory_order_relaxed)) continue;
          Status st = consume_(t, std::move(*batch));
          if (!st.ok()) Fail(st);
        }
      });
    }
  }

  ~BatchMorselPipe() { Finish(); }

  BatchMorselPipe(const BatchMorselPipe&) = delete;
  BatchMorselPipe& operator=(const BatchMorselPipe&) = delete;

  /// Hands one batch to the pipe. Inline mode returns the consumer's
  /// Status; threaded mode returns OK and surfaces consumer errors at
  /// Finish (the feeder may keep feeding — batches are then discarded).
  Status Feed(RecordBatch&& batch) {
    // Morsel boundaries are the cooperative cancellation points of the
    // probe/aggregate stage: a KILLed query stops accepting work here and
    // the cancel status rides the pipe's normal first-error propagation.
    if (obs::QueryRegistry::IsCancelled()) {
      Status st = obs::QueryRegistry::CheckCancelled();
      Fail(st);
      return st;
    }
    if (workers_.empty()) {
      if (failed_.load(std::memory_order_relaxed)) return First();
      Status st = consume_(0, std::move(batch));
      if (!st.ok()) Fail(st);
      return st;
    }
    // Queued batches are in-flight memory: charged here, released by the
    // worker that pops them (never refused — the queue bound is the real
    // backpressure).
    if (governor_ != nullptr) governor_->Reserve(batch.ByteSize());
    queue_.Push(std::move(batch));
    return Status::OK();
  }

  /// Drains the queue, joins the workers and returns the first consumer
  /// error. Idempotent; also run by the destructor.
  Status Finish() {
    queue_.Close();
    workers_.clear();  // joins every worker
    return First();
  }

 private:
  void Fail(const Status& st) {
    failed_.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (first_error_.ok()) first_error_ = st;
  }
  Status First() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_error_;
  }

  std::function<Status(uint32_t, RecordBatch&&)> consume_;
  MemoryGovernor* governor_;
  BlockingQueue<RecordBatch> queue_;
  std::atomic<bool> failed_{false};
  mutable std::mutex mu_;
  Status first_error_;
  std::vector<WorkerThread> workers_;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_EXEC_MORSEL_H_
