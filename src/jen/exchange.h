// Wire helpers under the join drivers' stages (hybrid/driver_common.h): the
// retrying data-plane send and the serialization buffer pool that
// driver::Exchange ships its payloads with, the typed control-plane
// transfer that driver::Coordinate rounds use, and the DB->JEN
// scan-request control message.

#ifndef HYBRIDJOIN_JEN_EXCHANGE_H_
#define HYBRIDJOIN_JEN_EXCHANGE_H_

#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "bloom/bloom_filter.h"
#include "expr/predicate.h"
#include "net/network.h"

namespace hybridjoin {

/// Sends one logical message with bounded retry: a fresh sequence number is
/// reserved once so every attempt draws the same fault decisions, transient
/// kUnavailable failures back off (exponentially from `backoff_us`) and
/// retry up to `max_attempts` times total. Returns the last attempt's error
/// when they are all exhausted — hard (injected) message loss surfaces here.
Status SendWithRetry(Network* network, NodeId from, NodeId to, uint64_t tag,
                     std::shared_ptr<const std::vector<uint8_t>> payload,
                     uint32_t max_attempts = 5, uint64_t backoff_us = 100);

inline Status SendWithRetry(Network* network, NodeId from, NodeId to,
                            uint64_t tag, std::vector<uint8_t> payload,
                            uint32_t max_attempts = 5,
                            uint64_t backoff_us = 100) {
  return SendWithRetry(
      network, from, to, tag,
      std::make_shared<const std::vector<uint8_t>>(std::move(payload)),
      max_attempts, backoff_us);
}

/// Recycles serialization buffers so steady-state batch sends stop paying
/// one heap allocation (and its page faults) per batch. Acquire() hands out
/// an empty vector with whatever capacity its previous life grew; Share()
/// wraps a filled buffer as the shared payload the network queues hold, and
/// its deleter returns the storage here once the last queue drops it. The
/// deleter keeps the pool alive, so payloads may outlive the sender that
/// filled them.
class BufferPool : public std::enable_shared_from_this<BufferPool> {
 public:
  static std::shared_ptr<BufferPool> Create(size_t max_buffers = 64) {
    return std::shared_ptr<BufferPool>(new BufferPool(max_buffers));
  }

  /// An empty buffer, reusing a recycled allocation when one is available.
  std::vector<uint8_t> Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return {};
    std::vector<uint8_t> buf = std::move(free_.back());
    free_.pop_back();
    return buf;
  }

  /// Wraps a filled buffer as a shared payload that recycles its storage
  /// into this pool when released.
  std::shared_ptr<const std::vector<uint8_t>> Share(std::vector<uint8_t> buf) {
    auto* heap = new std::vector<uint8_t>(std::move(buf));
    auto self = shared_from_this();
    return std::shared_ptr<const std::vector<uint8_t>>(
        heap, [self](const std::vector<uint8_t>* p) {
          self->Recycle(std::move(*const_cast<std::vector<uint8_t>*>(p)));
          delete p;
        });
  }

  size_t free_buffers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_.size();
  }

 private:
  explicit BufferPool(size_t max_buffers) : max_buffers_(max_buffers) {}

  void Recycle(std::vector<uint8_t> buf) {
    buf.clear();
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.size() < max_buffers_) free_.push_back(std::move(buf));
  }

  mutable std::mutex mu_;
  std::vector<std::vector<uint8_t>> free_;
  const size_t max_buffers_;
};

/// A control value with no type of its own (plan statistics, decisions):
/// the caller writes its fields with BinaryWriter and reads them back with
/// BinaryReader, and the bytes travel as they are.
using ControlBytes = std::vector<uint8_t>;

/// Typed control-plane transfer, the one wire helper for Bloom filters,
/// hot-key sets, sketches, scan requests, partial aggregates and plan
/// decisions: `value.Serialize()` (a ControlBytes value as it is),
/// serialized once, goes to every node of `to` on the fault-exempt control
/// channel (a lost control message would break a protocol obligation, e.g.
/// the exactly-once pairing of the hybrid route), and the receiver decodes
/// it with `T::Deserialize(payload, decode...)`. An EOS in place of the
/// value means the sender abandoned the round after an error of its own;
/// the receiver then returns kAborted. Bloom filters are metered under the
/// bloom.* counters when `metrics` is given.
template <typename T>
void SendControlValue(Network* network, NodeId from,
                      const std::vector<NodeId>& to, uint64_t tag,
                      const T& value, Metrics* metrics = nullptr) {
  if (to.empty()) return;
  std::shared_ptr<const std::vector<uint8_t>> payload;
  if constexpr (std::is_same_v<T, ControlBytes>) {
    payload = std::make_shared<const ControlBytes>(value);
  } else {
    payload = std::make_shared<const ControlBytes>(value.Serialize());
  }
  for (NodeId dest : to) {
    if constexpr (std::is_same_v<T, BloomFilter>) {
      if (metrics != nullptr) {
        metrics->Add(metric::kBloomFiltersSent, 1);
        metrics->Add(metric::kBloomBytesSent,
                     static_cast<int64_t>(payload->size()));
      }
    }
    network->SendControl(from, dest, tag, payload);
  }
}

template <typename T, typename... Decode>
Result<T> RecvControlValue(Network* network, NodeId self, uint64_t tag,
                           const Decode&... decode) {
  HJ_ASSIGN_OR_RETURN(Message msg, network->Recv(self, tag));
  if (msg.eos || msg.payload == nullptr) {
    return Status::Aborted("control round abandoned by " +
                           msg.from.ToString() + " after an error");
  }
  if constexpr (std::is_same_v<T, ControlBytes>) {
    return *msg.payload;
  } else {
    return T::Deserialize(*msg.payload, decode...);
  }
}

/// The DB->JEN scan request of the DB-side join (paper Figure 5): local
/// predicates on the HDFS table, required columns, optional Bloom filter
/// and its key column.
struct ScanRequest {
  PredicatePtr predicate;  // may be null
  std::vector<std::string> projection;
  std::optional<BloomFilter> bloom;
  std::string bloom_column;

  std::vector<uint8_t> Serialize() const;
  static Result<ScanRequest> Deserialize(const std::vector<uint8_t>& buf);
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_JEN_EXCHANGE_H_
