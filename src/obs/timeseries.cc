#include "obs/timeseries.h"

namespace hybridjoin {
namespace obs {

namespace {
int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

MetricsSampler::MetricsSampler(Metrics* metrics, TimeseriesConfig config)
    : metrics_(metrics), config_(std::move(config)) {}

MetricsSampler::~MetricsSampler() { Stop(); }

void MetricsSampler::Start() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (thread_.joinable()) return;
  stop_requested_ = false;
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { ThreadMain(); });
}

void MetricsSampler::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (!thread_.joinable()) return;
    stop_requested_ = true;
    stop_cv_.notify_all();
    to_join = std::move(thread_);
  }
  to_join.join();
  running_.store(false, std::memory_order_relaxed);
  // Final sample after the join: the rings (and any on_sample sink, e.g.
  // the server's metrics_out file) reflect the terminal state even when
  // the lifetime was shorter than one sample interval.
  SampleOnce();
  if (on_sample_) on_sample_();
}

void MetricsSampler::ThreadMain() {
  std::unique_lock<std::mutex> lock(thread_mu_);
  while (!stop_requested_) {
    // Sample outside the lifecycle lock so a concurrent Stop() is never
    // blocked behind a registry walk.
    lock.unlock();
    SampleOnce();
    if (on_sample_) on_sample_();
    lock.lock();
    stop_cv_.wait_for(lock, config_.sample_interval,
                      [this] { return stop_requested_; });
  }
}

void MetricsSampler::SampleOnce() {
  const int64_t t_us = NowMicros();
  const auto counters = metrics_->Snapshot();
  const auto histograms = metrics_->HistogramCounts();
  std::lock_guard<std::mutex> lock(series_mu_);
  for (const auto& [name, value] : counters) {
    auto& ring = counter_series_[name];
    ring.push_back({t_us, value});
    while (ring.size() > config_.ring_capacity) ring.pop_front();
  }
  for (const auto& [name, counts] : histograms) {
    auto& ring = histogram_series_[name];
    ring.push_back({t_us, counts.Summarize()});
    while (ring.size() > config_.ring_capacity) ring.pop_front();
  }
  samples_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SeriesPoint> MetricsSampler::CounterSeries(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(series_mu_);
  auto it = counter_series_.find(name);
  if (it == counter_series_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::vector<HistogramPoint> MetricsSampler::HistogramSeries(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(series_mu_);
  auto it = histogram_series_.find(name);
  if (it == histogram_series_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

double MetricsSampler::RatePerSecond(const std::string& name) const {
  std::lock_guard<std::mutex> lock(series_mu_);
  auto it = counter_series_.find(name);
  if (it == counter_series_.end() || it->second.size() < 2) return 0.0;
  const SeriesPoint& a = it->second[it->second.size() - 2];
  const SeriesPoint& b = it->second.back();
  if (b.t_us <= a.t_us) return 0.0;
  return static_cast<double>(b.value - a.value) /
         (static_cast<double>(b.t_us - a.t_us) * 1e-6);
}

std::map<std::string, int64_t> MetricsSampler::LatestCounters() const {
  std::lock_guard<std::mutex> lock(series_mu_);
  std::map<std::string, int64_t> out;
  for (const auto& [name, ring] : counter_series_) {
    if (!ring.empty()) out[name] = ring.back().value;
  }
  return out;
}

}  // namespace obs
}  // namespace hybridjoin
