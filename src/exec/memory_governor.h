// MemoryGovernor: the per-query memory-reservation tracker behind the
// engine's "robust under memory pressure" story (ROADMAP item 4; the paper
// defers spilling as §4.4 future work). One governor is created per query
// execution, seeded from the session's QueryQuotas::memory_bytes (falling
// back to the engine-wide SimulationConfig::query_memory_budget_bytes), and
// every sizeable consumer charges it: JoinHashTable batches + entries,
// HashAggregator group state, BatchMorselPipe queue slots, and payloads
// queued in an exchange sender.
//
// Two charging disciplines, by consumer kind:
//  - TryReserve(): fails fast with no side effects. GraceHashJoin uses it
//    for its resident build partitions and reacts to failure itself by
//    spilling its largest resident partition and retrying — eviction policy
//    stays with the component that owns the evictable state.
//  - Reserve(): never fails. When the budget is short it first invokes the
//    registered spillers (largest-first by their reported resident bytes)
//    to free memory, then — if still short — accepts the charge anyway and
//    tracks the shortfall as overcommit. Consumers with no spillable
//    representation (aggregation state, in-flight exchange buffers) use
//    this, so correctness never depends on an allocation being refusable.
//
// Like QueryScope / Metrics::NodeScope, the governor travels by thread-local
// scope: the driver installs MemoryGovernor::Scope in every worker lambda,
// and thread-spawn sites (morsel pipes, exchange senders, thread pools)
// capture MemoryGovernor::Current() at construction and re-install it in
// their workers. Components therefore pick the governor up implicitly at
// construction with zero signature churn; a null governor (no scope, or
// budget 0) makes every charge a no-op except peak tracking.

#ifndef HYBRIDJOIN_EXEC_MEMORY_GOVERNOR_H_
#define HYBRIDJOIN_EXEC_MEMORY_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

namespace hybridjoin {

/// A spill callback: asked to free up to `want_bytes`; returns how many
/// bytes it actually released (0 when it has nothing left to evict). Called
/// with the governor's spiller lock held, so implementations must not call
/// back into Reserve()/TryReserve() on the same governor.
using SpillFn = std::function<uint64_t(uint64_t want_bytes)>;

class MemoryGovernor {
 public:
  /// `budget_bytes` 0 means unlimited: charges are tracked (used/peak) but
  /// never fail and never trigger spilling.
  explicit MemoryGovernor(uint64_t budget_bytes) : budget_(budget_bytes) {}

  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  uint64_t budget() const { return budget_; }
  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  /// Bytes accepted beyond the budget because no spiller could free room
  /// (diagnostic; nonzero means the budget was too tight for the
  /// non-spillable state alone).
  uint64_t overcommitted() const {
    return overcommit_.load(std::memory_order_relaxed);
  }

  /// Attempts to reserve `bytes`. Returns false — charging nothing and
  /// invoking no spillers — when the reservation would exceed the budget.
  /// The caller owns the reaction (GraceHashJoin spills and retries).
  bool TryReserve(uint64_t bytes) {
    if (bytes == 0) return true;
    uint64_t cur = used_.load(std::memory_order_relaxed);
    do {
      if (budget_ != 0 && cur + bytes > budget_) return false;
    } while (!used_.compare_exchange_weak(cur, cur + bytes,
                                          std::memory_order_relaxed));
    BumpPeak(cur + bytes);
    return true;
  }

  /// Reserves `bytes` unconditionally. Over budget it first runs the
  /// registered spillers (largest resident first) until the shortfall is
  /// covered or every spiller reports empty; any remaining shortfall is
  /// accepted and accounted as overcommit. Returns the bytes freed by
  /// spillers on this call (0 on the in-budget fast path).
  uint64_t Reserve(uint64_t bytes);

  /// Charges unconditionally without running spillers. For callers that own
  /// their eviction policy (GraceHashJoin): after their own spilling could
  /// not make room, the charge must land anyway, and going through
  /// Reserve() would re-enter their spill callback under their own lock.
  void ForceReserve(uint64_t bytes) {
    if (bytes == 0) return;
    const uint64_t cur = used_.fetch_add(bytes, std::memory_order_relaxed);
    BumpPeak(cur + bytes);
    if (budget_ != 0 && cur + bytes > budget_) {
      const uint64_t over =
          bytes < cur + bytes - budget_ ? bytes : cur + bytes - budget_;
      overcommit_.fetch_add(over, std::memory_order_relaxed);
    }
  }

  void Release(uint64_t bytes) {
    if (bytes == 0) return;
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Registers a spill callback paired with a resident-bytes probe (how
  /// much the spiller could free right now; used to order largest-first).
  /// Returns a token for UnregisterSpiller. Thread-safe.
  uint64_t RegisterSpiller(std::function<uint64_t()> resident_bytes,
                           SpillFn spill);
  void UnregisterSpiller(uint64_t token);

  /// RAII thread-local governor attribution, mirroring QueryScope: installs
  /// `governor` (may be null) as the calling thread's current governor until
  /// destruction; nests and restores.
  class Scope {
   public:
    explicit Scope(MemoryGovernor* governor) : saved_(tls_governor_) {
      tls_governor_ = governor;
    }
    ~Scope() { tls_governor_ = saved_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    MemoryGovernor* saved_;
  };

  /// The calling thread's current governor (null outside any Scope).
  static MemoryGovernor* Current() { return tls_governor_; }

 private:
  void BumpPeak(uint64_t candidate) {
    uint64_t cur = peak_.load(std::memory_order_relaxed);
    while (cur < candidate &&
           !peak_.compare_exchange_weak(cur, candidate,
                                        std::memory_order_relaxed)) {
    }
  }

  struct Spiller {
    uint64_t token;
    std::function<uint64_t()> resident_bytes;
    SpillFn spill;
  };

  static inline thread_local MemoryGovernor* tls_governor_ = nullptr;

  const uint64_t budget_;
  std::atomic<uint64_t> used_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<uint64_t> overcommit_{0};

  std::mutex spillers_mu_;  ///< guards spillers_ and serializes spill runs
  std::vector<Spiller> spillers_;
  uint64_t next_token_ = 1;
};

/// RAII charge against the calling thread's (or an explicit) governor via
/// the never-failing Reserve path. Null governor = no-op. Grow() adds to
/// the reservation in place; everything is released on destruction.
class MemoryReservation {
 public:
  MemoryReservation() : governor_(MemoryGovernor::Current()) {}
  explicit MemoryReservation(MemoryGovernor* governor)
      : governor_(governor) {}
  ~MemoryReservation() { Clear(); }

  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  void Grow(uint64_t bytes) {
    if (governor_ == nullptr || bytes == 0) return;
    governor_->Reserve(bytes);
    bytes_ += bytes;
  }

  void Shrink(uint64_t bytes) {
    if (governor_ == nullptr) return;
    if (bytes > bytes_) bytes = bytes_;
    governor_->Release(bytes);
    bytes_ -= bytes;
  }

  void Clear() {
    if (governor_ != nullptr && bytes_ > 0) governor_->Release(bytes_);
    bytes_ = 0;
  }

  uint64_t bytes() const { return bytes_; }
  MemoryGovernor* governor() const { return governor_; }

 private:
  MemoryGovernor* governor_;
  uint64_t bytes_ = 0;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_EXEC_MEMORY_GOVERNOR_H_
