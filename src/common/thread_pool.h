// ThreadPool: fixed-size worker pool with a Wait() barrier, used to run
// per-worker phases of the distributed join drivers and JEN's internal
// thread pools (send/receive/read threads).
//
// Tasks are queued into per-query *lanes* keyed by the submitter's
// QueryScope id, and workers round-robin across non-empty lanes, so when N
// concurrent queries share one exec pool each gets a fair share of the
// workers instead of FIFO ordering letting one query's large fan-out starve
// the others. Workers re-install the submitter's QueryScope before running
// a task, so scoped metric writes inside pool tasks stay attributed to the
// right query.

#ifndef HYBRIDJOIN_COMMON_THREAD_POOL_H_
#define HYBRIDJOIN_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/query_scope.h"
#include "common/status.h"

namespace hybridjoin {

/// A fixed pool of threads consuming per-query task lanes.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads) {
    HJ_CHECK_GT(num_threads, 0u);
    threads_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() { Shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task into the calling thread's query lane. Must not be
  /// called after Shutdown().
  void Submit(std::function<void()> task) {
    pending_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      HJ_CHECK(!closed_) << "Submit after Shutdown";
      lanes_[QueryScope::Current()].push_back(std::move(task));
      ++queued_;
    }
    queue_cv_.notify_one();
  }

  /// Blocks until every submitted task has finished.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock, [&] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }

  /// Drains remaining tasks and joins all threads. Idempotent.
  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      closed_ = true;
    }
    queue_cv_.notify_all();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }

  size_t num_threads() const { return threads_.size(); }

  /// Runs `fn(i)` for every i in [begin, end), split into queue tasks of
  /// `grain` consecutive indices each, and blocks the caller until all of
  /// them finish. Returns the first non-OK Status; once any index fails,
  /// chunks that have not started yet are skipped (indices already running
  /// complete their current call).
  ///
  /// Completion is tracked per call (not through the pool-wide Wait()), so
  /// several threads may run ParallelFor on one shared pool concurrently.
  /// Must not be called from inside a task running on this same pool: the
  /// caller blocks while holding a worker slot's attention, and a pool
  /// whose every thread waits this way deadlocks.
  Status ParallelFor(size_t begin, size_t end, size_t grain,
                     const std::function<Status(size_t)>& fn) {
    if (begin >= end) return Status::OK();
    if (grain == 0) grain = 1;
    struct Latch {
      std::mutex mu;
      std::condition_variable done;
      size_t remaining;
      Status first;
      std::atomic<bool> failed{false};
    } latch;
    const size_t chunks = (end - begin + grain - 1) / grain;
    latch.remaining = chunks;
    for (size_t c = 0; c < chunks; ++c) {
      const size_t lo = begin + c * grain;
      const size_t hi = std::min(end, lo + grain);
      Submit([&latch, &fn, lo, hi] {
        if (!latch.failed.load(std::memory_order_relaxed)) {
          for (size_t i = lo; i < hi; ++i) {
            Status st = fn(i);
            if (!st.ok()) {
              latch.failed.store(true, std::memory_order_relaxed);
              std::lock_guard<std::mutex> lock(latch.mu);
              if (latch.first.ok()) latch.first = std::move(st);
              break;
            }
          }
        }
        std::lock_guard<std::mutex> lock(latch.mu);
        if (--latch.remaining == 0) latch.done.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(latch.mu);
    latch.done.wait(lock, [&latch] { return latch.remaining == 0; });
    return latch.first;
  }

 private:
  void WorkerLoop() {
    while (true) {
      uint64_t lane_id = 0;
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        queue_cv_.wait(lock, [&] { return closed_ || queued_ > 0; });
        if (queued_ == 0) return;  // closed and drained
        // Fair share: resume scanning strictly after the lane served last,
        // wrapping, so every query's lane is visited before any lane is
        // served twice. Empty lanes are erased on pop, so whatever we land
        // on is non-empty.
        auto it = lanes_.upper_bound(last_lane_);
        if (it == lanes_.end()) it = lanes_.begin();
        lane_id = it->first;
        task = std::move(it->second.front());
        it->second.pop_front();
        if (it->second.empty()) lanes_.erase(it);
        --queued_;
        last_lane_ = lane_id;
      }
      {
        QueryScope scope(lane_id);
        task();
      }
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mu_);
        idle_.notify_all();
      }
    }
  }

  std::vector<std::thread> threads_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  /// query id -> FIFO of that query's tasks; never holds an empty deque.
  std::map<uint64_t, std::deque<std::function<void()>>> lanes_;
  size_t queued_ = 0;
  uint64_t last_lane_ = 0;
  bool closed_ = false;

  std::atomic<int64_t> pending_{0};
  std::mutex mu_;
  std::condition_variable idle_;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_COMMON_THREAD_POOL_H_
