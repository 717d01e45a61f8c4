// Unit tests for the common substrate: Status/Result, binary serde,
// hashing, RNG, queues, thread pool, token bucket, metrics.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "common/binary_io.h"
#include "common/blocking_queue.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/query_scope.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/token_bucket.h"
#include "decoder_fuzz.h"
#include "exec/aggregator.h"
#include "types/record_batch.h"

namespace hybridjoin {
namespace {

// --------------------------- Status / Result ------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such table");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "no such table");
  EXPECT_EQ(s.ToString(), "NotFound: no such table");
}

TEST(StatusTest, CopyAndMovePreserveState) {
  Status s = Status::IOError("disk gone");
  Status copy = s;
  EXPECT_EQ(copy, s);
  Status moved = std::move(s);
  EXPECT_TRUE(moved.IsIOError());
  EXPECT_EQ(moved.message(), "disk gone");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 9; ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Internal("boom"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(9));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 9);
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Status UseAssignOrReturn(int v, int* out) {
  HJ_ASSIGN_OR_RETURN(int half, Half(v));
  HJ_ASSIGN_OR_RETURN(int quarter, Half(half));
  *out = quarter;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(8, &out).ok());
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(UseAssignOrReturn(6, &out).IsInvalidArgument());
}

// ------------------------------ Binary IO ---------------------------------

TEST(BinaryIoTest, RoundTripPrimitives) {
  BinaryWriter w;
  w.PutU8(7);
  w.PutI32(-123456);
  w.PutI64(-99887766554433LL);
  w.PutF64(3.5);
  w.PutString("hello|world");
  const auto buf = w.Release();

  BinaryReader r(buf);
  EXPECT_EQ(r.GetU8().value(), 7);
  EXPECT_EQ(r.GetI32().value(), -123456);
  EXPECT_EQ(r.GetI64().value(), -99887766554433LL);
  EXPECT_EQ(r.GetF64().value(), 3.5);
  EXPECT_EQ(r.GetString().value(), "hello|world");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIoTest, VarintBoundaries) {
  BinaryWriter w;
  const uint64_t values[] = {0,    1,       127,        128,
                             300,  16383,   16384,      (1ULL << 32),
                             ~0ULL};
  for (uint64_t v : values) w.PutVarint(v);
  BinaryReader r(w.buffer());
  for (uint64_t v : values) {
    EXPECT_EQ(r.GetVarint().value(), v);
  }
}

TEST(BinaryIoTest, SignedVarintZigzag) {
  BinaryWriter w;
  const int64_t values[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (int64_t v : values) w.PutSignedVarint(v);
  BinaryReader r(w.buffer());
  for (int64_t v : values) {
    EXPECT_EQ(r.GetSignedVarint().value(), v);
  }
}

TEST(BinaryIoTest, TruncatedReadsAreErrors) {
  BinaryWriter w;
  w.PutU32(1);
  BinaryReader r(w.buffer());
  EXPECT_TRUE(r.GetU64().status().code() == StatusCode::kOutOfRange);
}

TEST(BinaryIoTest, TruncatedVarintIsError) {
  std::vector<uint8_t> bad = {0x80, 0x80};  // never terminates
  BinaryReader r(bad);
  EXPECT_FALSE(r.GetVarint().ok());
}

TEST(BinaryIoTest, TruncatedStringIsError) {
  BinaryWriter w;
  w.PutVarint(100);  // declared length 100, no bytes follow
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.GetString().ok());
}

TEST(BinaryIoTest, EmptyReadsTouchNoMemory) {
  // Zero-byte reads come with null pointers on both sides (an empty
  // vector's data()); under -fsanitize=undefined a memcpy of them aborts.
  const std::vector<uint8_t> empty;
  BinaryReader r(empty);
  EXPECT_TRUE(r.GetRaw(nullptr, 0).ok());

  // The engine's case: a worker whose partial aggregate has no groups.
  const AggSpec spec = AggSpec::CountStar("g", /*extract_group=*/false);
  const HashAggregator partial(spec);
  auto batch =
      RecordBatch::Deserialize(partial.Partial().Serialize(),
                               spec.ResultSchema());
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->num_rows(), 0u);
}

/// ReadVarint and the legacy GetVarint agree on ok-ness, value and (on
/// success) position for the varint at the start of `bytes`.
void ExpectVarintAgreesWithLegacy(const std::vector<uint8_t>& bytes) {
  BinaryReader r(bytes);
  legacy::Reader want_r(bytes);
  uint64_t got = 0;
  const bool ok = r.ReadVarint(&got);
  auto want = want_r.GetVarint();
  ASSERT_EQ(ok, want.ok()) << bytes.size() << " bytes";
  if (ok) {
    EXPECT_EQ(got, *want);
    EXPECT_EQ(r.position(), want_r.position());
  }
  BinaryReader g(bytes);
  EXPECT_EQ(g.GetVarint().ok(), ok);
}

TEST(BinaryIoTest, ReadVarintEdgeCasesMatchLegacy) {
  // Every length from 1 to 11 bytes, with 0 to 12 bytes of padding after
  // it, so each length is read by the fast path (10+ bytes remaining), by
  // the tail path, and exactly at the hand-over between them.
  for (size_t len = 1; len <= 11; ++len) {
    for (uint8_t last : {uint8_t{0x00}, uint8_t{0x01}, uint8_t{0x7f}}) {
      std::vector<uint8_t> varint(len - 1, 0xff);
      varint.push_back(last);
      for (size_t pad = 0; pad <= 12; ++pad) {
        std::vector<uint8_t> bytes = varint;
        bytes.insert(bytes.end(), pad, 0x05);
        ExpectVarintAgreesWithLegacy(bytes);
        // Truncation at every offset.
        for (size_t cut = 0; cut < bytes.size(); ++cut) {
          ExpectVarintAgreesWithLegacy(
              std::vector<uint8_t>(bytes.begin(), bytes.begin() + cut));
        }
      }
    }
  }
  // A 10-byte varint is accepted (bits past 64 dropped); 11 bytes are not.
  const std::vector<uint8_t> ten = {0xff, 0xff, 0xff, 0xff, 0xff,
                                    0xff, 0xff, 0xff, 0xff, 0x7f};
  uint64_t v = 0;
  BinaryReader r10(ten);
  ASSERT_TRUE(r10.ReadVarint(&v));
  EXPECT_EQ(v, ~uint64_t{0});
  EXPECT_TRUE(r10.AtEnd());
  std::vector<uint8_t> eleven(10, 0x80);
  eleven.push_back(0x00);
  BinaryReader r11(eleven);
  EXPECT_FALSE(r11.ReadVarint(&v));

  // Random bytes at every alignment.
  Rng rng(10);
  for (int i = 0; i < 20000; ++i) {
    std::vector<uint8_t> bytes(rng.Uniform(16));
    for (auto& b : bytes) {
      // Mostly continuation bytes, so long varints are common.
      b = static_cast<uint8_t>(rng.Next() | (rng.Uniform(4) != 0 ? 0x80 : 0));
    }
    ExpectVarintAgreesWithLegacy(bytes);
  }
}

TEST(BinaryIoTest, ReadSpanIsBoundsChecked) {
  const std::vector<uint8_t> buf = {1, 2, 3, 4, 5};
  BinaryReader r(buf);
  std::string_view s;
  ASSERT_TRUE(r.ReadSpan(2, &s));
  EXPECT_EQ(s, std::string_view("\x01\x02", 2));
  EXPECT_FALSE(r.ReadSpan(4, &s));
  ASSERT_TRUE(r.ReadSpan(3, &s));
  EXPECT_TRUE(r.AtEnd());
  ASSERT_TRUE(r.ReadSpan(0, &s));
  EXPECT_TRUE(s.empty());
}

TEST(BinaryIoTest, HugeLengthDoesNotWrapTheBoundsCheck) {
  // After 4 bytes, a length of 2^64 - 4 makes `pos + n` wrap to 0.
  const std::vector<uint8_t> buf(8, 0);
  // Volatile, so the compiler does not fold the doomed memcpy's bound.
  volatile size_t huge = ~size_t{0} - 3;
  const size_t wraps = huge;
  BinaryReader view(buf);
  ASSERT_TRUE(view.GetU32().ok());
  EXPECT_EQ(view.GetView(wraps).status().code(), StatusCode::kOutOfRange);
  std::string_view s;
  EXPECT_FALSE(view.ReadSpan(wraps, &s));
  std::vector<uint8_t> sink(8);
  EXPECT_EQ(view.GetRaw(sink.data(), wraps).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(view.position(), 4u);

  // A string whose length varint wraps the same way.
  BinaryWriter w;
  w.PutU8(0);
  w.PutVarint(~uint64_t{0} - 10);
  w.PutRaw("tail", 4);
  BinaryReader str(w.buffer());
  ASSERT_TRUE(str.GetU8().ok());
  EXPECT_EQ(str.GetString().status().code(), StatusCode::kOutOfRange);
}

TEST(BinaryIoTest, DeserializeRejectsRowCountPastTheBytes) {
  // A batch header claiming 2^40 rows over a few bytes must fail before it
  // reserves memory for them.
  const SchemaPtr schema = Schema::Make({{"k", DataType::kInt64}});
  BinaryWriter w;
  w.PutVarint(uint64_t{1} << 40);
  w.PutVarint(1);
  w.PutU8(static_cast<uint8_t>(DataType::kInt64));
  w.PutI64(7);
  auto batch = RecordBatch::Deserialize(w.buffer(), schema);
  EXPECT_EQ(batch.status().code(), StatusCode::kOutOfRange) << batch.status();
}

// ------------------------------- Hashing ----------------------------------

TEST(HashTest, Mix64Avalanches) {
  // Flipping one input bit should flip roughly half the output bits.
  int total = 0;
  for (int bit = 0; bit < 64; ++bit) {
    total += __builtin_popcountll(Mix64(12345) ^ Mix64(12345 ^ (1ULL << bit)));
  }
  EXPECT_GT(total / 64, 20);
  EXPECT_LT(total / 64, 44);
}

TEST(HashTest, SeedsDecorrelate) {
  EXPECT_NE(HashInt64(42, 1), HashInt64(42, 2));
  EXPECT_NE(HashString("abc", 1), HashString("abc", 2));
}

TEST(HashTest, AgreedPartitionIsBalancedAndStable) {
  const uint32_t parts = 7;
  std::vector<int> counts(parts, 0);
  for (int64_t k = 0; k < 70000; ++k) {
    const uint32_t p = AgreedPartition(k, parts);
    ASSERT_LT(p, parts);
    EXPECT_EQ(p, AgreedPartition(k, parts));  // deterministic
    counts[p]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 700);
  }
}

// -------------------------------- Random ----------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(9), b(9), c(10);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// ---------------------------- BlockingQueue -------------------------------

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_EQ(*q.Pop(), 3);
}

TEST(BlockingQueueTest, CloseDrainsThenEnds) {
  BlockingQueue<int> q;
  q.Push(5);
  q.Close();
  EXPECT_FALSE(q.Push(6));
  EXPECT_EQ(*q.Pop(), 5);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, BoundedBlocksProducerUntilConsumed) {
  BlockingQueue<int> q(2);
  q.Push(1);
  q.Push(2);
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    q.Push(3);
    third_pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(*q.Pop(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
}

TEST(BlockingQueueTest, PushWithDeadlineTimesOutOnFullQueue) {
  BlockingQueue<int> q(1);
  q.Push(1);
  bool timed_out = false;
  Stopwatch sw;
  EXPECT_FALSE(q.PushWithDeadline(2, std::chrono::milliseconds(30),
                                  &timed_out));
  EXPECT_TRUE(timed_out);
  EXPECT_GT(sw.ElapsedSeconds(), 0.02);
  // Space frees up: the next deadline push succeeds immediately.
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_TRUE(q.PushWithDeadline(3, std::chrono::milliseconds(30),
                                 &timed_out));
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(*q.Pop(), 3);
}

TEST(BlockingQueueTest, PushWithDeadlineDistinguishesClosedFromTimeout) {
  BlockingQueue<int> q(1);
  q.Push(1);
  q.Close();
  bool timed_out = true;
  EXPECT_FALSE(q.PushWithDeadline(2, std::chrono::milliseconds(30),
                                  &timed_out));
  EXPECT_FALSE(timed_out);  // closed, not timed out
}

TEST(BlockingQueueTest, PushWithDeadlineNonPositiveTimeoutBlocksLikePush) {
  BlockingQueue<int> q(1);
  q.Push(1);
  std::atomic<bool> pushed{false};
  bool timed_out = true;
  std::thread producer([&] {
    EXPECT_TRUE(q.PushWithDeadline(2, std::chrono::milliseconds(0),
                                   &timed_out));
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(*q.Pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_FALSE(timed_out);
}

TEST(BlockingQueueTest, CloseWakesBlockedDeadlinePushers) {
  // The admission-path race: waiters blocked on a full queue while another
  // thread closes it. Every pusher must wake promptly with closed (not
  // timed out), and no pusher may deadlock.
  BlockingQueue<int> q(1);
  q.Push(1);
  constexpr int kPushers = 4;
  bool timed_out[kPushers] = {true, true, true, true};
  bool pushed[kPushers] = {true, true, true, true};
  std::vector<std::thread> pushers;
  for (int i = 0; i < kPushers; ++i) {
    pushers.emplace_back([&, i] {
      pushed[i] = q.PushWithDeadline(100 + i, std::chrono::milliseconds(60000),
                                     &timed_out[i]);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Stopwatch sw;
  q.Close();
  for (auto& t : pushers) t.join();
  EXPECT_LT(sw.ElapsedSeconds(), 10.0);  // woken by Close, not the deadline
  for (int i = 0; i < kPushers; ++i) {
    EXPECT_FALSE(pushed[i]) << i;
    EXPECT_FALSE(timed_out[i]) << i;
  }
}

TEST(BlockingQueueTest, ManyProducersManyConsumers) {
  BlockingQueue<int> q(8);
  constexpr int kPerProducer = 1000;
  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  std::atomic<int64_t> sum{0};
  std::atomic<int> seen{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum += *v;
        seen++;
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(seen.load(), kProducers * kPerProducer);
  const int64_t n = kProducers * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// ------------------------------ ThreadPool --------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count++; });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count++; });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count++; });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

// ------------------------------ TokenBucket -------------------------------

TEST(TokenBucketTest, UnlimitedNeverBlocks) {
  TokenBucket tb(0);
  Stopwatch sw;
  tb.Acquire(1ULL << 30);
  EXPECT_LT(sw.ElapsedSeconds(), 0.05);
}

TEST(TokenBucketTest, RateLimitsThroughput) {
  // 10 MB/s, ask for ~2 MB beyond the burst: should take ~0.2 s.
  TokenBucket tb(10 * 1024 * 1024, /*burst_bytes=*/64 * 1024);
  tb.Acquire(64 * 1024);  // drain the initial burst
  Stopwatch sw;
  tb.Acquire(2 * 1024 * 1024);
  const double elapsed = sw.ElapsedSeconds();
  EXPECT_GT(elapsed, 0.12);
  EXPECT_LT(elapsed, 0.8);
}

TEST(TokenBucketTest, ConcurrentAcquirersShareTheRate) {
  TokenBucket tb(20 * 1024 * 1024, 64 * 1024);
  tb.Acquire(64 * 1024);
  Stopwatch sw;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&tb] { tb.Acquire(1024 * 1024); });
  }
  for (auto& t : threads) t.join();
  // 4 MB at 20 MB/s shared => ~0.2 s total regardless of thread count.
  EXPECT_GT(sw.ElapsedSeconds(), 0.1);
}

TEST(TokenBucketTest, TryAcquireForSucceedsWithinBudget) {
  TokenBucket tb(1024 * 1024, /*burst_bytes=*/64 * 1024);
  // The burst is available immediately, even with a zero timeout.
  EXPECT_TRUE(tb.TryAcquireFor(64 * 1024, std::chrono::milliseconds(0)));
  // ~64 KiB more at 1 MiB/s refills in ~62 ms: a generous deadline wins.
  EXPECT_TRUE(tb.TryAcquireFor(64 * 1024, std::chrono::milliseconds(2000)));
}

TEST(TokenBucketTest, TryAcquireForTimesOutWhenStarved) {
  TokenBucket tb(1024, /*burst_bytes=*/16);  // 1 KiB/s: glacial refill
  EXPECT_TRUE(tb.TryAcquireFor(16, std::chrono::milliseconds(0)));
  Stopwatch sw;
  // 1024 tokens need a full second; a 30 ms deadline must fail fast.
  EXPECT_FALSE(tb.TryAcquireFor(1024, std::chrono::milliseconds(30)));
  EXPECT_LT(sw.ElapsedSeconds(), 0.5);
}

TEST(TokenBucketTest, TryAcquireForUnlimitedAlwaysSucceeds) {
  TokenBucket tb(0);
  EXPECT_TRUE(tb.TryAcquireFor(1ULL << 40, std::chrono::milliseconds(0)));
}

// -------------------------------- Metrics ---------------------------------

TEST(MetricsTest, CountersAccumulate) {
  Metrics m;
  m.Add("x", 5);
  m.Add("x", 7);
  m.Add("y", 1);
  EXPECT_EQ(m.Get("x"), 12);
  EXPECT_EQ(m.Get("y"), 1);
  auto snap = m.Snapshot();
  EXPECT_EQ(snap.at("x"), 12);
  m.Reset();
  EXPECT_EQ(m.Get("x"), 0);
}

TEST(MetricsTest, ConcurrentNamedAddsAreExact) {
  Metrics m;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&m] {
      for (int i = 0; i < 10000; ++i) m.Add("hot", 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(m.Get("hot"), 40000);
}

TEST(MetricsTest, MaxUnderConcurrentWritersKeepsTheMaximum) {
  Metrics m;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&m, t] {
      Metrics::NodeScope node(t);
      for (int i = 0; i < 5000; ++i) {
        // Interleave from every thread; the winner must be the global max
        // regardless of CAS races, and each node slice keeps its own max.
        m.Max("gauge", t * 10000 + i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(m.Get("gauge"), 7 * 10000 + 4999);
  for (int t = 0; t < 8; ++t) {
    const auto snap = m.ScopedSnapshot(t);
    const auto& c = snap.counters.at("gauge");
    EXPECT_TRUE(c.gauge);
    EXPECT_EQ(c.value, t * 10000 + 4999);
  }
}

TEST(MetricsTest, HistogramCountsUnderConcurrentWriters) {
  Metrics m;
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  // Reader thread races Summarize against the recording threads; the final
  // snapshot below must still see every observation.
  threads.emplace_back([&m, &stop] {
    while (!stop.load()) {
      (void)m.HistogramCounts();
    }
  });
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&m] {
      for (int i = 1; i <= 2500; ++i) m.Record("lat", i);
    });
  }
  for (size_t t = 1; t < threads.size(); ++t) threads[t].join();
  stop.store(true);
  threads[0].join();
  const auto counts = m.HistogramCounts();
  ASSERT_EQ(counts.count("lat"), 1u);
  EXPECT_EQ(counts.at("lat").Count(), 4 * 2500);
  EXPECT_DOUBLE_EQ(counts.at("lat").Summarize().min_seconds, 1e-6);
}

// Every figure a reader reports comes from one Counts copy, so the count,
// the bucket sum and the cumulative top bucket agree while writers record.
// A reader that re-reads the live buckets per figure tears here on any core
// count: the writers run for as long as the reader does, so on one core
// the scheduler still lands their records between the reader's passes.
TEST(MetricsTest, HistogramCountsCopyIsConsistentUnderConcurrentWriters) {
  LatencyHistogram hist;
  constexpr int kWriters = 4;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> recorded{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&hist, &stop, &recorded, w] {
      int64_t n = 0;
      for (; !stop.load(std::memory_order_relaxed); ++n) {
        hist.RecordMicros(n % 2 == 0 ? 1 : 1000 + w);
      }
      recorded.fetch_add(n);
    });
  }
  int64_t copies = 0;
  int64_t torn = 0;
  int64_t last = 0;
  Stopwatch sw;
  while (sw.ElapsedSeconds() < 0.3) {
    const LatencyHistogram::Counts counts = hist.Load();
    int64_t bucket_sum = 0;
    for (const int64_t c : counts.buckets) bucket_sum += c;
    const int64_t count = counts.Summarize().count;
    if (count != bucket_sum ||
        count != counts.CountAtOrBelowMicros(
                     std::numeric_limits<int64_t>::max()) ||
        count < last) {
      ++torn;
    }
    last = count;
    ++copies;
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_EQ(torn, 0) << "of " << copies << " copies";
  EXPECT_GT(copies, 0);
  EXPECT_EQ(hist.Count(), recorded.load());
}

TEST(MetricsTest, ScopedAttributionFollowsNodeScopes) {
  Metrics m;
  m.Add("unattributed", 5);  // no scope: the kNoNode slice
  {
    Metrics::NodeScope node(3);
    m.Add("x", 10);
    {
      Metrics::NodeScope inner(4);  // nested node scope wins
      m.Add("x", 1);
    }
    m.Add("x", 2);  // inner scope popped
    m.Record("lat", 100);
  }
  EXPECT_EQ(m.Get("x"), 13);
  EXPECT_EQ(m.Get("unattributed"), 5);
  EXPECT_EQ(Metrics::CurrentNodeKey(), Metrics::kNoNode);

  const auto node3 = m.ScopedSnapshot(3);
  EXPECT_EQ(node3.counters.at("x").value, 12);
  EXPECT_EQ(node3.counters.count("unattributed"), 0u);
  EXPECT_EQ(node3.histograms.at("lat").count, 1);
  EXPECT_EQ(m.ScopedSnapshot(4).counters.at("x").value, 1);
  EXPECT_EQ(
      m.ScopedSnapshot(Metrics::kNoNode).counters.at("unattributed").value, 5);
}

TEST(MetricsTest, ScopedSlicesAreIsolatedPerQuery) {
  // Two concurrent queries writing to the same node key must land in
  // separate slices, and clearing one query's slices must not touch the
  // other's — the invariant behind concurrent EXPLAIN ANALYZE.
  Metrics m;
  {
    QueryScope q1(101);
    Metrics::NodeScope node(3);
    m.Add("x", 10);
  }
  {
    QueryScope q2(202);
    Metrics::NodeScope node(3);
    m.Add("x", 7);
  }
  Metrics::NodeScope node(3);
  m.Add("x", 1);  // query id 0: the "no query" slice

  EXPECT_EQ(m.Get("x"), 18);  // process totals fold every slice
  EXPECT_EQ(m.ScopedSnapshot(101, 3).counters.at("x").value, 10);
  EXPECT_EQ(m.ScopedSnapshot(202, 3).counters.at("x").value, 7);
  EXPECT_EQ(m.ScopedSnapshot(0, 3).counters.at("x").value, 1);
  // The legacy single-arg snapshot reads the calling thread's query slice.
  EXPECT_EQ(m.ScopedSnapshot(3).counters.at("x").value, 1);
  {
    QueryScope q1(101);
    EXPECT_EQ(m.ScopedSnapshot(3).counters.at("x").value, 10);
  }

  m.ClearScoped(101);
  EXPECT_TRUE(m.ScopedSnapshot(101, 3).empty());
  EXPECT_EQ(m.ScopedSnapshot(202, 3).counters.at("x").value, 7);
  EXPECT_EQ(m.Get("x"), 18);
}

/// Every figure of two folded histogram reads, compared exactly.
void ExpectSameHistogramCounts(
    const std::map<std::string, LatencyHistogram::Counts>& a,
    const std::map<std::string, LatencyHistogram::Counts>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, counts] : a) {
    SCOPED_TRACE(name);
    ASSERT_EQ(b.count(name), 1u);
    const LatencyHistogram::Counts& other = b.at(name);
    EXPECT_EQ(counts.buckets, other.buckets);
    EXPECT_EQ(counts.total_micros, other.total_micros);
    EXPECT_EQ(counts.min_micros, other.min_micros);
    EXPECT_EQ(counts.max_micros, other.max_micros);
  }
}

// Retiring a query folds its slices into the retired record: every
// process-wide read is exactly what it was, and the query's slices are gone.
TEST(MetricsTest, ClearScopedLeavesProcessReadsUnchanged) {
  Metrics m;
  m.Set("open", 3);
  for (const uint64_t query : {7u, 8u}) {
    QueryScope q(query);
    for (const int32_t node : {1, 2, Metrics::kNoNode}) {
      Metrics::NodeScope scope(node);
      m.Add("rows", 10 * node + static_cast<int64_t>(query));
      m.Max("peak", 100 * node + static_cast<int64_t>(query));
      m.Record("lat", 5 + node);
    }
  }
  {
    Metrics::NodeScope scope(1);
    m.Add("rows", 1);  // query 0
    m.Record("lat", 4000);
  }
  for (const uint64_t query : {7u, 8u}) {
    const auto before = m.Snapshot();
    const auto counts_before = m.HistogramCounts();
    const int64_t rows_before = m.Get("rows");
    m.ClearScoped(query);
    EXPECT_EQ(m.Snapshot(), before);
    ExpectSameHistogramCounts(m.HistogramCounts(), counts_before);
    EXPECT_EQ(m.Get("rows"), rows_before);
    EXPECT_TRUE(m.ScopedQueryTotals(query).empty());
    for (const int32_t node : {1, 2, Metrics::kNoNode}) {
      EXPECT_TRUE(m.ScopedSnapshot(query, node).empty());
    }
  }
  EXPECT_EQ(m.Get("rows"), (10 + 20 - 10 + 3 * 7) + (10 + 20 - 10 + 3 * 8) + 1);
  EXPECT_EQ(m.Get("peak"), 208);
  EXPECT_EQ(m.Get("open"), 3);
  EXPECT_EQ(m.HistogramCounts().at("lat").Count(), 7);
  EXPECT_EQ(m.ScopedSnapshot(0, 1).counters.at("rows").value, 1);
}

// Writers, a retirer and a reader race: process totals never go down
// between reads, and the final totals are the exact sums written (gauges
// the exact maximum), whatever was retired when.
TEST(MetricsTest, ProcessTotalsAreMonotoneWhileQueriesRetire) {
  Metrics m;
  constexpr int kWriters = 8;
  constexpr int kQueriesPerWriter = 200;
  constexpr int kAddsPerQuery = 10;
  std::mutex retire_mu;
  std::vector<uint64_t> to_retire;
  std::atomic<int> writers_left{kWriters};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      Metrics::NodeScope node(t);
      for (int r = 0; r < kQueriesPerWriter; ++r) {
        const uint64_t id = 1 + static_cast<uint64_t>(t * kQueriesPerWriter + r);
        {
          QueryScope q(id);
          for (int i = 0; i < kAddsPerQuery; ++i) {
            m.Add("rows", 1);
            m.Record("lat", i);
          }
          m.Max("peak", t * kQueriesPerWriter + r);
        }
        std::lock_guard<std::mutex> lock(retire_mu);
        to_retire.push_back(id);
      }
      writers_left.fetch_sub(1);
    });
  }
  std::atomic<bool> retired_all{false};
  threads.emplace_back([&] {
    for (bool last = false; !last;) {
      last = writers_left.load() == 0;
      std::vector<uint64_t> batch;
      {
        std::lock_guard<std::mutex> lock(retire_mu);
        batch.swap(to_retire);
      }
      for (const uint64_t id : batch) m.ClearScoped(id);
      if (batch.empty()) std::this_thread::yield();
    }
    retired_all.store(true);
  });
  int64_t went_down = 0;
  int64_t reads = 0;
  std::map<std::string, int64_t> last;
  int64_t last_count = 0;
  while (!retired_all.load()) {
    const auto snapshot = m.Snapshot();
    const auto counts = m.HistogramCounts();
    for (const auto& [name, value] : last) {
      auto it = snapshot.find(name);
      if (it == snapshot.end() || it->second < value) ++went_down;
    }
    const int64_t count =
        counts.count("lat") == 0 ? 0 : counts.at("lat").Count();
    if (count < last_count) ++went_down;
    last = snapshot;
    last_count = count;
    ++reads;
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(went_down, 0) << "over " << reads << " reads";
  constexpr int64_t kWrites =
      int64_t{kWriters} * kQueriesPerWriter * kAddsPerQuery;
  EXPECT_EQ(m.Get("rows"), kWrites);
  EXPECT_EQ(m.Get("peak"), kWriters * kQueriesPerWriter - 1);
  EXPECT_EQ(m.HistogramCounts().at("lat").Count(), kWrites);
  for (int t = 0; t < kWriters; ++t) {
    EXPECT_TRUE(m.ScopedSnapshot(1 + static_cast<uint64_t>(t * kQueriesPerWriter),
                                 t)
                    .empty());
  }
}

TEST(ThreadPoolTest, TasksInheritTheSubmittersQueryScope) {
  ThreadPool pool(4);
  std::atomic<int> wrong{0};
  {
    QueryScope q(7);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&wrong] {
        if (QueryScope::Current() != 7) wrong.fetch_add(1);
      });
    }
  }
  pool.Wait();
  EXPECT_EQ(wrong.load(), 0);
  // Outside any scope, submissions run under the legacy id 0.
  std::atomic<int> zero_ok{0};
  pool.Submit([&zero_ok] {
    if (QueryScope::Current() == 0) zero_ok.fetch_add(1);
  });
  pool.Wait();
  EXPECT_EQ(zero_ok.load(), 1);
}

TEST(ThreadPoolTest, LanesFromManyQueriesAllDrain) {
  ThreadPool pool(3);
  constexpr int kQueries = 5;
  constexpr int kTasksEach = 40;
  std::atomic<int> per_query[kQueries] = {};
  for (int q = 0; q < kQueries; ++q) {
    QueryScope scope(1000 + q);
    for (int i = 0; i < kTasksEach; ++i) {
      pool.Submit([&per_query, q] { per_query[q].fetch_add(1); });
    }
  }
  pool.Wait();
  for (int q = 0; q < kQueries; ++q) {
    EXPECT_EQ(per_query[q].load(), kTasksEach) << "query " << q;
  }
}

}  // namespace
}  // namespace hybridjoin
