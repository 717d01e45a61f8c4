#include "net/network.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <tuple>

#include "common/hash.h"
#include "obs/query_registry.h"
#include "trace/tracer.h"

namespace hybridjoin {

namespace {

/// Pseudo-tag identifying the raw Transfer stream between two nodes, so its
/// fault draws don't collide with any real channel's.
constexpr uint64_t kTransferTag = ~0ULL;

uint64_t HashNode(NodeId n) {
  return (static_cast<uint64_t>(n.cluster) << 32) | n.index;
}

/// Stable identity of one (from, to, tag) stream for fault draws.
uint64_t StreamHash(NodeId from, NodeId to, uint64_t tag) {
  return Mix64(HashNode(from) ^ Mix64(HashNode(to) ^ Mix64(tag)));
}

void SleepUs(uint64_t us) {
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace

const char* FlowClassName(FlowClass fc) {
  switch (fc) {
    case FlowClass::kLoopback:
      return "loopback";
    case FlowClass::kIntraDb:
      return "intra_db";
    case FlowClass::kIntraHdfs:
      return "intra_hdfs";
    case FlowClass::kCrossCluster:
      return "cross_cluster";
  }
  return "unknown";
}

const std::string& FlowBytesMetric(FlowClass fc) {
  static const std::string kNames[] = {
      "net.loopback_bytes", "net.intra_db_bytes", "net.intra_hdfs_bytes",
      "net.cross_cluster_bytes"};
  return kNames[static_cast<int>(fc)];
}

std::map<std::string, int64_t> NetworkBytesOf(
    const std::map<std::string, int64_t>& counters) {
  std::map<std::string, int64_t> out;
  for (int fc = 0; fc < 4; ++fc) {
    auto it = counters.find(FlowBytesMetric(static_cast<FlowClass>(fc)));
    if (it != counters.end() && it->second != 0) {
      out[FlowClassName(static_cast<FlowClass>(fc))] = it->second;
    }
  }
  return out;
}

FlowClass ClassifyFlow(NodeId from, NodeId to) {
  if (from == to) return FlowClass::kLoopback;
  if (from.cluster != to.cluster) return FlowClass::kCrossCluster;
  return from.cluster == ClusterId::kDb ? FlowClass::kIntraDb
                                        : FlowClass::kIntraHdfs;
}

Network::Network(const NetworkConfig& config, uint32_t num_db_nodes,
                 uint32_t num_hdfs_nodes, Metrics* metrics)
    : config_(config),
      metrics_(metrics),
      cross_switch_(config.cross_switch_bps) {
  HJ_CHECK(metrics_ != nullptr);
  db_nics_.reserve(num_db_nodes);
  for (uint32_t i = 0; i < num_db_nodes; ++i) {
    db_nics_.push_back(std::make_unique<TokenBucket>(config.db_nic_bps));
  }
  hdfs_nics_.reserve(num_hdfs_nodes);
  for (uint32_t i = 0; i < num_hdfs_nodes; ++i) {
    hdfs_nics_.push_back(std::make_unique<TokenBucket>(config.hdfs_nic_bps));
  }
}

Network::ChannelState* Network::GetChannel(NodeId to, uint64_t tag) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = channels_[{to, tag}];
  if (!slot) slot = std::make_unique<ChannelState>();
  return slot.get();
}

TokenBucket* Network::NicBucket(NodeId node) {
  if (node.cluster == ClusterId::kDb) {
    HJ_CHECK_LT(node.index, db_nics_.size());
    return db_nics_[node.index].get();
  }
  HJ_CHECK_LT(node.index, hdfs_nics_.size());
  return hdfs_nics_[node.index].get();
}

uint64_t Network::NextSeq(NodeId from, NodeId to, uint64_t tag) {
  std::lock_guard<std::mutex> lock(seq_mu_);
  return ++stream_seq_[{from, to, tag}];
}

void Network::Charge(FlowClass fc, uint64_t bytes) {
  if (bytes == 0) return;
  metrics_->Add(FlowBytesMetric(fc), static_cast<int64_t>(bytes));
}

void Network::Throttle(NodeId from, NodeId to, uint64_t bytes) {
  const FlowClass fc = ClassifyFlow(from, to);
  Charge(fc, bytes);
  if (fc == FlowClass::kLoopback) return;
  NicBucket(from)->Acquire(bytes);
  NicBucket(to)->Acquire(bytes);
  if (fc == FlowClass::kCrossCluster) cross_switch_.Acquire(bytes);
}

Status Network::Send(NodeId from, NodeId to, uint64_t tag,
                     std::shared_ptr<const std::vector<uint8_t>> payload,
                     uint32_t attempt, uint64_t seq) {
  HJ_CHECK(payload != nullptr);
  const FlowClass fc = ClassifyFlow(from, to);
  const uint64_t bytes =
      payload->size() + config_.per_message_overhead_bytes;
  trace::Span span(tracer_, trace::span::kNetSend, FlowClassName(fc), from);
  span.set_bytes(static_cast<int64_t>(bytes));

  bool duplicate = false;
  if (injector_ != nullptr) {
    SleepUs(injector_->TakeStall(from));
    if (seq == 0) seq = NextSeq(from, to, tag);
    const FaultDecision d = injector_->OnSend(
        static_cast<uint8_t>(1u << static_cast<int>(fc)),
        StreamHash(from, to, tag), seq, attempt, bytes);
    SleepUs(d.delay_us);
    if (d.fail) {
      // A truncated attempt still burned wire bytes before failing.
      if (d.charged_bytes > 0) Throttle(from, to, d.charged_bytes);
      return Status::Unavailable(
          "injected send failure " + from.ToString() + " -> " +
          to.ToString() + " tag " + std::to_string(tag) + " attempt " +
          std::to_string(attempt));
    }
    duplicate = d.duplicate;
  }

  Throttle(from, to, bytes);
  ChannelState* ch = GetChannel(to, tag);
  ch->queue.Push(Message{from, payload, /*eos=*/false, seq});
  if (duplicate) {
    // The duplicate is a real second delivery: it costs wire bytes and
    // arrives with the same sequence number for the receiver to drop.
    Throttle(from, to, bytes);
    ch->queue.Push(Message{from, std::move(payload), /*eos=*/false, seq});
  }
  return Status::OK();
}

void Network::SendControl(
    NodeId from, NodeId to, uint64_t tag,
    std::shared_ptr<const std::vector<uint8_t>> payload) {
  HJ_CHECK(payload != nullptr);
  const FlowClass fc = ClassifyFlow(from, to);
  const uint64_t bytes =
      payload->size() + config_.per_message_overhead_bytes;
  trace::Span span(tracer_, trace::span::kNetSendControl, FlowClassName(fc),
                   from);
  span.set_bytes(static_cast<int64_t>(bytes));
  Charge(fc, bytes);
  GetChannel(to, tag)->queue.Push(
      Message{from, std::move(payload), /*eos=*/false, /*seq=*/0});
}

void Network::SendEos(NodeId from, NodeId to, uint64_t tag) {
  Throttle(from, to, config_.per_message_overhead_bytes);
  GetChannel(to, tag)->queue.Push(
      Message{from, nullptr, /*eos=*/true, /*seq=*/0});
}

Result<Message> Network::Recv(NodeId to, uint64_t tag) {
  trace::Span span(tracer_, trace::span::kNetRecv, "net", to);
  ChannelState* ch = GetChannel(to, tag);
  // The wait is sliced so a blocked receiver notices cooperative
  // cancellation (KILL <query_id>) within kCancelSliceMs even when the
  // configured recv timeout is infinite. The overall deadline semantics
  // are unchanged: kTimedOut still fires after recv_timeout_ms.
  constexpr auto kCancelSlice = std::chrono::milliseconds(50);
  const bool bounded = config_.recv_timeout_ms > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.recv_timeout_ms);
  while (true) {
    HJ_RETURN_IF_ERROR(obs::QueryRegistry::CheckCancelled());
    auto slice = kCancelSlice;
    if (bounded) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now());
      if (remaining <= std::chrono::milliseconds::zero()) {
        return Status::TimedOut("recv timed out after " +
                                std::to_string(config_.recv_timeout_ms) +
                                " ms on " + to.ToString() + " tag " +
                                std::to_string(tag));
      }
      slice = std::min(slice, std::max(remaining,
                                       std::chrono::milliseconds(1)));
    }
    bool timed_out = false;
    std::optional<Message> m = ch->queue.PopFor(slice, &timed_out);
    if (timed_out) continue;  // slice expired: re-check cancel + deadline
    if (!m.has_value()) {
      return Status::Unavailable("channel closed while receiving on " +
                                 to.ToString() + " tag " +
                                 std::to_string(tag));
    }
    if (m->seq != 0 && !m->eos) {
      // Drop an injected duplicate delivery: the (from, seq) pair has been
      // handed out before on this channel.
      std::lock_guard<std::mutex> lock(ch->dedup_mu);
      if (!ch->delivered[m->from].insert(m->seq).second) continue;
    }
    if (m->payload != nullptr) {
      span.set_bytes(static_cast<int64_t>(m->payload->size()));
    }
    return std::move(*m);
  }
}

void Network::Transfer(NodeId from, NodeId to, uint64_t bytes) {
  // Attributed to the reader: Transfer models a pull-style remote read.
  trace::Span span(tracer_, trace::span::kNetTransfer,
                   FlowClassName(ClassifyFlow(from, to)), to);
  span.set_bytes(static_cast<int64_t>(bytes));
  if (injector_ != nullptr) {
    SleepUs(injector_->TakeStall(to));
    const FlowClass fc = ClassifyFlow(from, to);
    const FaultDecision d = injector_->OnSend(
        static_cast<uint8_t>(1u << static_cast<int>(fc)),
        StreamHash(from, to, kTransferTag),
        NextSeq(from, to, kTransferTag), /*attempt=*/0, bytes);
    SleepUs(d.delay_us);
    // A pull-style read retries transparently inside the reader; a failed
    // first attempt only costs the bytes it burned before breaking off.
    if (d.fail && d.charged_bytes > 0) Throttle(from, to, d.charged_bytes);
  }
  Throttle(from, to, bytes);
  if (from.cluster == ClusterId::kHdfs &&
      to.cluster == ClusterId::kHdfs && !(from == to)) {
    metrics_->Add(metric::kHdfsBytesReadRemote, static_cast<int64_t>(bytes));
  }
}

int64_t Network::BytesMoved(FlowClass fc) const {
  return metrics_->Get(FlowBytesMetric(fc));
}

uint64_t Network::AllocateTagBlock(uint64_t width) {
  return next_tag_.fetch_add(width, std::memory_order_relaxed);
}

void Network::ReleaseTagBlock(uint64_t base, uint64_t width) {
  auto in_block = [base, width](uint64_t tag) {
    return tag >= base && tag - base < width;
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(channels_, [&](const auto& entry) {
      return in_block(entry.first.second);
    });
  }
  std::lock_guard<std::mutex> lock(seq_mu_);
  std::erase_if(stream_seq_, [&](const auto& entry) {
    return in_block(std::get<2>(entry.first));
  });
}

size_t Network::num_channels() const {
  std::lock_guard<std::mutex> lock(mu_);
  return channels_.size();
}

}  // namespace hybridjoin
