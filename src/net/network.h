// The simulated interconnect of the hybrid warehouse: a DB cluster and an
// HDFS cluster, each node with its own NIC bandwidth, joined by a shared
// inter-cluster switch (the paper's 20 Gbit link between the DB2 DPF rack
// and the HDFS rack).
//
// Every worker is a real thread; Send() physically moves bytes through
// in-memory channels and *blocks* on token buckets sized to the configured
// bandwidths, so measured wall-clock reflects the testbed's asymmetries.
// All traffic is metered per flow class as one counter cell per class,
// net.<FlowClassName>_bytes, in the Metrics slice of the thread that moves
// the bytes (its QueryScope and node): the query's report and profile read
// them there, and BytesMoved folds them for the process.
//
// An optional FaultInjector (see fault_injector.h) makes the interconnect
// misbehave deterministically: Send can fail transiently (callers retry via
// SendWithRetry in jen/exchange.h), deliver duplicates (Recv dedups by
// per-stream sequence number), or stall; Recv honors a configurable timeout
// so a lost message surfaces as Status::TimedOut instead of a hang.

#ifndef HYBRIDJOIN_NET_NETWORK_H_
#define HYBRIDJOIN_NET_NETWORK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/blocking_queue.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/token_bucket.h"
#include "net/fault_injector.h"

namespace hybridjoin {

namespace trace {
class Tracer;
}  // namespace trace

/// Which cluster a node belongs to.
enum class ClusterId : uint8_t { kDb = 0, kHdfs = 1 };

/// Globally unique node address.
struct NodeId {
  ClusterId cluster = ClusterId::kDb;
  uint32_t index = 0;

  static NodeId Db(uint32_t i) { return {ClusterId::kDb, i}; }
  static NodeId Hdfs(uint32_t i) { return {ClusterId::kHdfs, i}; }

  bool operator==(const NodeId& o) const {
    return cluster == o.cluster && index == o.index;
  }
  bool operator<(const NodeId& o) const {
    if (cluster != o.cluster) return cluster < o.cluster;
    return index < o.index;
  }
  std::string ToString() const {
    return (cluster == ClusterId::kDb ? "db" : "hdfs") +
           std::string(":") + std::to_string(index);
  }
};

/// Stable small-integer key for per-node metric attribution
/// (Metrics::NodeScope): DB worker i -> i, HDFS worker i -> (1 << 20) + i.
inline int32_t MetricNodeKey(NodeId node) {
  return static_cast<int32_t>(node.index) +
         (node.cluster == ClusterId::kHdfs ? (1 << 20) : 0);
}

/// Traffic classes, for accounting and for picking which buckets to charge.
enum class FlowClass : uint8_t {
  kLoopback = 0,     ///< same node; free
  kIntraDb = 1,      ///< DB worker <-> DB worker
  kIntraHdfs = 2,    ///< JEN worker <-> JEN worker (shuffle)
  kCrossCluster = 3, ///< through the inter-cluster switch
};

const char* FlowClassName(FlowClass fc);

/// The counter cell holding a flow class's bytes: "net.<FlowClassName>_bytes".
const std::string& FlowBytesMetric(FlowClass fc);

/// Bytes per flow class (FlowClassName -> bytes, classes with traffic only)
/// read from a set of counters holding FlowBytesMetric cells, e.g. one
/// query's ExecutionReport::counters.
std::map<std::string, int64_t> NetworkBytesOf(
    const std::map<std::string, int64_t>& counters);

FlowClass ClassifyFlow(NodeId from, NodeId to);

/// One message on a channel. Payload is shared so broadcasts don't copy.
/// `seq` numbers the data messages of one (from, to, tag) stream starting
/// at 1 and is used to drop duplicated deliveries under fault injection;
/// 0 means "untracked" (EOS, or no injector installed).
struct Message {
  NodeId from;
  std::shared_ptr<const std::vector<uint8_t>> payload;
  bool eos = false;
  uint64_t seq = 0;
};

/// Bandwidths in bytes/sec; 0 disables throttling for that resource.
struct NetworkConfig {
  uint64_t db_nic_bps = 0;
  uint64_t hdfs_nic_bps = 0;
  uint64_t cross_switch_bps = 0;
  /// Fixed framing overhead charged per message (headers etc.).
  uint64_t per_message_overhead_bytes = 64;
  /// Upper bound on any single Recv wait; 0 blocks forever (the default,
  /// for fault-free runs). With faults enabled this is the engine's
  /// no-hang guarantee: a lost peer surfaces as Status::TimedOut.
  uint64_t recv_timeout_ms = 0;
};

/// The interconnect. Channels are identified by (destination, tag); any
/// number of senders may feed one channel, and exactly one logical receiver
/// drains it (multiple receiver threads are allowed — the queue is MPMC).
class Network {
 public:
  /// `metrics` (required) receives the byte cells and must outlive this.
  Network(const NetworkConfig& config, uint32_t num_db_nodes,
          uint32_t num_hdfs_nodes, Metrics* metrics);

  /// Installs the tracer that records per-flow-class byte+latency spans
  /// for Send/SendControl/Recv/Transfer (nullptr disables, the default).
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Installs the fault injector consulted on every data-plane Send and
  /// Transfer (nullptr disables, the default).
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Sends a payload. Blocks while the configured bandwidths admit the
  /// bytes (sender NIC, receiver NIC, and the cross switch if applicable).
  /// Under fault injection an attempt may fail with kUnavailable; callers
  /// that can retry reserve a seq once with ReserveSeq and pass it with an
  /// incremented `attempt` on each try (see SendWithRetry in jen/exchange.h)
  /// so every attempt of one logical message draws the same fault decisions.
  Status Send(NodeId from, NodeId to, uint64_t tag,
              std::shared_ptr<const std::vector<uint8_t>> payload,
              uint32_t attempt = 0, uint64_t seq = 0);

  Status Send(NodeId from, NodeId to, uint64_t tag,
              std::vector<uint8_t> payload, uint32_t attempt = 0,
              uint64_t seq = 0) {
    return Send(from, to, tag,
                std::make_shared<const std::vector<uint8_t>>(
                    std::move(payload)),
                attempt, seq);
  }

  /// Reserves the per-stream sequence number for one logical message, for
  /// callers that retry: all attempts must reuse it. Returns 0 (untracked)
  /// when no fault injector is installed.
  uint64_t ReserveSeq(NodeId from, NodeId to, uint64_t tag) {
    return injector_ == nullptr ? 0 : NextSeq(from, to, tag);
  }

  /// Control-plane send: bytes are accounted but not throttled. Used for
  /// Bloom filters, scan requests, plan decisions and final aggregates —
  /// the paper observes these are "much smaller than the actual data, how
  /// to transfer them has little impact on the overall performance" (§4.3),
  /// and unlike the row-ingest path they move over raw sockets, not through
  /// per-row UDF processing. Exempt from fault injection: control messages
  /// carry protocol obligations (plan decisions, EOS-like handshakes) whose
  /// loss the simulated engine does not model.
  void SendControl(NodeId from, NodeId to, uint64_t tag,
                   std::shared_ptr<const std::vector<uint8_t>> payload);
  void SendControl(NodeId from, NodeId to, uint64_t tag,
                   std::vector<uint8_t> payload) {
    SendControl(from, to, tag, std::make_shared<const std::vector<uint8_t>>(
                                   std::move(payload)));
  }

  /// Marks end-of-stream from `from` on this channel. Receivers count
  /// these. Exempt from fault injection (a transport would piggyback
  /// stream termination on connection teardown, which is reliable).
  void SendEos(NodeId from, NodeId to, uint64_t tag);

  /// Blocking receive of the next message on (to, tag) — data or EOS.
  /// Returns Status::TimedOut once config.recv_timeout_ms (if non-zero)
  /// elapses without a message. Duplicated deliveries injected on the
  /// sender side are dropped here (dedup by per-stream sequence number).
  Result<Message> Recv(NodeId to, uint64_t tag);

  /// Charges a raw byte transfer without enqueuing a message (used for the
  /// pull-style remote HDFS block reads). Fault injection can delay it or
  /// charge extra bytes for a truncated-then-retried read, but the read
  /// itself always completes.
  void Transfer(NodeId from, NodeId to, uint64_t bytes);

  /// Total bytes moved in a flow class: the process fold of its
  /// FlowBytesMetric cell. A send is charged to the sending thread's slice,
  /// a Transfer to the reading thread's; bytes moved outside any query land
  /// in query id 0's slices, so they count here but in no query's report.
  int64_t BytesMoved(FlowClass fc) const;

  /// Allocates a fresh tag namespace (monotone); drivers carve per-purpose
  /// tags out of it so concurrent queries never collide.
  uint64_t AllocateTagBlock(uint64_t width = 64);

  /// Frees the channels and sequence counters of the tags [base, base +
  /// width), with any messages still queued on them. Call only once every
  /// sender and receiver on those tags is done.
  void ReleaseTagBlock(uint64_t base, uint64_t width);

  /// Number of live channels (one per destination and tag in use).
  size_t num_channels() const;

 private:
  /// A channel plus the receiver-side dedup state for duplicated
  /// deliveries: the set of already-delivered sequence numbers per sender.
  struct ChannelState {
    BlockingQueue<Message> queue;
    std::mutex dedup_mu;
    std::map<NodeId, std::set<uint64_t>> delivered;
  };

  ChannelState* GetChannel(NodeId to, uint64_t tag);
  void Throttle(NodeId from, NodeId to, uint64_t bytes);
  void Charge(FlowClass fc, uint64_t bytes);
  TokenBucket* NicBucket(NodeId node);
  uint64_t NextSeq(NodeId from, NodeId to, uint64_t tag);

  const NetworkConfig config_;
  Metrics* metrics_;
  trace::Tracer* tracer_ = nullptr;
  FaultInjector* injector_ = nullptr;

  std::vector<std::unique_ptr<TokenBucket>> db_nics_;
  std::vector<std::unique_ptr<TokenBucket>> hdfs_nics_;
  TokenBucket cross_switch_;

  mutable std::mutex mu_;
  std::map<std::pair<NodeId, uint64_t>, std::unique_ptr<ChannelState>>
      channels_;
  std::mutex seq_mu_;
  std::map<std::tuple<NodeId, NodeId, uint64_t>, uint64_t> stream_seq_;
  std::atomic<uint64_t> next_tag_{1};
};

/// Helper that drains a channel fed by `expected_senders` streams and stops
/// after seeing that many EOS markers. A Recv error (e.g. timeout) also
/// ends the stream: Next() returns nullopt and the error is held in
/// status() — callers must check it after the drain loop.
class StreamReceiver {
 public:
  StreamReceiver(Network* net, NodeId to, uint64_t tag,
                 uint32_t expected_senders)
      : net_(net), to_(to), tag_(tag), remaining_eos_(expected_senders) {}

  /// Next data message, or nullopt once every sender has finished (or an
  /// error occurred — see status()).
  std::optional<Message> Next() {
    while (remaining_eos_ > 0 && status_.ok()) {
      Result<Message> m = net_->Recv(to_, tag_);
      if (!m.ok()) {
        status_ = std::move(m).status();
        return std::nullopt;
      }
      if (m->eos) {
        --remaining_eos_;
        continue;
      }
      return std::move(m).value();
    }
    return std::nullopt;
  }

  /// OK while the stream is healthy; the first Recv error otherwise.
  const Status& status() const { return status_; }

 private:
  Network* net_;
  NodeId to_;
  uint64_t tag_;
  uint32_t remaining_eos_;
  Status status_;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_NET_NETWORK_H_
