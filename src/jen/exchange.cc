#include "jen/exchange.h"

#include <chrono>
#include <thread>

namespace hybridjoin {

Status SendWithRetry(Network* network, NodeId from, NodeId to, uint64_t tag,
                     std::shared_ptr<const std::vector<uint8_t>> payload,
                     uint32_t max_attempts, uint64_t backoff_us) {
  HJ_CHECK_GT(max_attempts, 0u);
  const uint64_t seq = network->ReserveSeq(from, to, tag);
  Status last;
  for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0 && backoff_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(backoff_us << (attempt - 1)));
    }
    last = network->Send(from, to, tag, payload, attempt, seq);
    if (last.ok() || !last.IsUnavailable()) return last;
  }
  return last;
}

std::vector<uint8_t> ScanRequest::Serialize() const {
  BinaryWriter w;
  if (predicate != nullptr) {
    w.PutU8(1);
    predicate->SerializeTo(&w);
  } else {
    w.PutU8(0);
  }
  w.PutVarint(projection.size());
  for (const auto& name : projection) w.PutString(name);
  if (bloom.has_value()) {
    w.PutU8(1);
    w.PutString(bloom_column);
    bloom->SerializeTo(&w);
  } else {
    w.PutU8(0);
  }
  return w.Release();
}

Result<ScanRequest> ScanRequest::Deserialize(
    const std::vector<uint8_t>& buf) {
  ScanRequest req;
  BinaryReader r(buf);
  HJ_ASSIGN_OR_RETURN(uint8_t has_pred, r.GetU8());
  if (has_pred != 0) {
    HJ_ASSIGN_OR_RETURN(req.predicate, Predicate::Deserialize(&r));
  }
  HJ_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  if (n > 4096) return Status::IOError("scan request projection too large");
  req.projection.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    HJ_ASSIGN_OR_RETURN(std::string name, r.GetString());
    req.projection.push_back(std::move(name));
  }
  HJ_ASSIGN_OR_RETURN(uint8_t has_bloom, r.GetU8());
  if (has_bloom != 0) {
    HJ_ASSIGN_OR_RETURN(req.bloom_column, r.GetString());
    HJ_ASSIGN_OR_RETURN(BloomFilter bloom, BloomFilter::Deserialize(&r));
    req.bloom = std::move(bloom);
  }
  if (!r.AtEnd()) return Status::IOError("scan request trailing bytes");
  return req;
}

}  // namespace hybridjoin
