// Unit tests for the simulated interconnect: channels, EOS streams, flow
// classification and accounting, bandwidth throttling.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include <cstring>
#include <map>

#include "common/stopwatch.h"
#include "jen/exchange.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "trace/tracer.h"

namespace hybridjoin {
namespace {

std::vector<uint8_t> Bytes(size_t n, uint8_t fill = 7) {
  return std::vector<uint8_t>(n, fill);
}

TEST(FlowClassTest, Classification) {
  EXPECT_EQ(ClassifyFlow(NodeId::Db(1), NodeId::Db(1)), FlowClass::kLoopback);
  EXPECT_EQ(ClassifyFlow(NodeId::Db(0), NodeId::Db(1)), FlowClass::kIntraDb);
  EXPECT_EQ(ClassifyFlow(NodeId::Hdfs(0), NodeId::Hdfs(2)),
            FlowClass::kIntraHdfs);
  EXPECT_EQ(ClassifyFlow(NodeId::Db(0), NodeId::Hdfs(0)),
            FlowClass::kCrossCluster);
  EXPECT_EQ(ClassifyFlow(NodeId::Hdfs(3), NodeId::Db(2)),
            FlowClass::kCrossCluster);
}

TEST(NetworkTest, SendRecvPreservesPayloadAndSender) {
  Metrics metrics;
  Network net(NetworkConfig{}, 2, 2, &metrics);
  net.Send(NodeId::Db(1), NodeId::Hdfs(0), 5, Bytes(10, 42));
  Message m = net.Recv(NodeId::Hdfs(0), 5).value();
  EXPECT_FALSE(m.eos);
  EXPECT_EQ(m.from, NodeId::Db(1));
  ASSERT_EQ(m.payload->size(), 10u);
  EXPECT_EQ((*m.payload)[0], 42);
}

TEST(NetworkTest, TagsIsolateChannels) {
  Metrics metrics;
  Network net(NetworkConfig{}, 1, 1, &metrics);
  net.Send(NodeId::Db(0), NodeId::Hdfs(0), 1, Bytes(1, 1));
  net.Send(NodeId::Db(0), NodeId::Hdfs(0), 2, Bytes(1, 2));
  EXPECT_EQ((*net.Recv(NodeId::Hdfs(0), 2)->payload)[0], 2);
  EXPECT_EQ((*net.Recv(NodeId::Hdfs(0), 1)->payload)[0], 1);
}

TEST(NetworkTest, RecvBlocksUntilSend) {
  Metrics metrics;
  Network net(NetworkConfig{}, 1, 1, &metrics);
  std::atomic<bool> got{false};
  std::thread receiver([&] {
    net.Recv(NodeId::Db(0), 9);
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  net.Send(NodeId::Hdfs(0), NodeId::Db(0), 9, Bytes(1));
  receiver.join();
  EXPECT_TRUE(got.load());
}

TEST(NetworkTest, StreamReceiverCountsEos) {
  Metrics metrics;
  Network net(NetworkConfig{}, 3, 1, &metrics);
  for (uint32_t s = 0; s < 3; ++s) {
    net.Send(NodeId::Db(s), NodeId::Hdfs(0), 4, Bytes(1, s));
    net.SendEos(NodeId::Db(s), NodeId::Hdfs(0), 4);
  }
  StreamReceiver receiver(&net, NodeId::Hdfs(0), 4, 3);
  int data = 0;
  while (receiver.Next()) ++data;
  EXPECT_EQ(data, 3);
}

TEST(NetworkTest, StreamReceiverZeroSendersEndsImmediately) {
  Metrics metrics;
  Network net(NetworkConfig{}, 1, 1, &metrics);
  StreamReceiver receiver(&net, NodeId::Hdfs(0), 4, 0);
  EXPECT_FALSE(receiver.Next().has_value());
}

TEST(NetworkTest, BytesAccountedPerFlowClass) {
  NetworkConfig config;
  config.per_message_overhead_bytes = 0;
  Metrics metrics;
  Network net(config, 2, 2, &metrics);
  net.Send(NodeId::Db(0), NodeId::Db(1), 1, Bytes(100));
  net.Send(NodeId::Hdfs(0), NodeId::Hdfs(1), 1, Bytes(200));
  net.Send(NodeId::Db(0), NodeId::Hdfs(1), 1, Bytes(300));
  net.Transfer(NodeId::Hdfs(0), NodeId::Hdfs(1), 50);
  EXPECT_EQ(net.BytesMoved(FlowClass::kIntraDb), 100);
  EXPECT_EQ(net.BytesMoved(FlowClass::kIntraHdfs), 250);
  EXPECT_EQ(net.BytesMoved(FlowClass::kCrossCluster), 300);
  EXPECT_EQ(net.BytesMoved(FlowClass::kLoopback), 0);
}

// Bytes are cells of the moving thread's slice: a send inside a query lands
// in that query's slice, a Transfer in the reader's, and bytes moved
// outside any query count in BytesMoved but in no query's slice.
TEST(NetworkTest, BytesOutsideAnyQueryCountOnlyInTheProcessTotal) {
  NetworkConfig config;
  config.per_message_overhead_bytes = 0;
  Metrics metrics;
  Network net(config, 1, 2, &metrics);
  const int32_t db0 = MetricNodeKey(NodeId::Db(0));
  const int32_t hdfs1 = MetricNodeKey(NodeId::Hdfs(1));
  const std::string& cross = FlowBytesMetric(FlowClass::kCrossCluster);
  const std::string& intra = FlowBytesMetric(FlowClass::kIntraHdfs);
  {
    QueryScope query(7);
    {
      Metrics::NodeScope node(db0);
      net.Send(NodeId::Db(0), NodeId::Hdfs(0), 1, Bytes(100));
    }
    Metrics::NodeScope node(hdfs1);
    net.Transfer(NodeId::Hdfs(0), NodeId::Hdfs(1), 40);
  }
  {
    Metrics::NodeScope node(db0);
    net.Send(NodeId::Db(0), NodeId::Hdfs(0), 1, Bytes(30));
    net.Transfer(NodeId::Hdfs(0), NodeId::Hdfs(1), 5);
  }
  EXPECT_EQ(net.BytesMoved(FlowClass::kCrossCluster), 130);
  EXPECT_EQ(net.BytesMoved(FlowClass::kIntraHdfs), 45);
  EXPECT_EQ(metrics.ScopedSnapshot(7, db0).counters.at(cross).value, 100);
  EXPECT_EQ(metrics.ScopedSnapshot(7, hdfs1).counters.at(intra).value, 40);
  const auto query_totals = metrics.ScopedQueryTotals(7);
  EXPECT_EQ(query_totals.at(cross), 100);
  EXPECT_EQ(query_totals.at(intra), 40);
  EXPECT_EQ(NetworkBytesOf(query_totals),
            (std::map<std::string, int64_t>{{"cross_cluster", 100},
                                            {"intra_hdfs", 40}}));
  // The rest sits in the "no query" slices (id 0).
  EXPECT_EQ(NetworkBytesOf(metrics.ScopedQueryTotals(0)),
            (std::map<std::string, int64_t>{{"cross_cluster", 30},
                                            {"intra_hdfs", 5}}));
  // Retiring the query moves its cells into the process record unchanged.
  metrics.ClearScoped(7);
  EXPECT_TRUE(metrics.ScopedQueryTotals(7).empty());
  EXPECT_EQ(net.BytesMoved(FlowClass::kCrossCluster), 130);
  EXPECT_EQ(net.BytesMoved(FlowClass::kIntraHdfs), 45);
}

TEST(NetworkTest, TracedExchangeBytesMatchFlowClassAccounting) {
  // Every byte BytesMoved() counts must show up on exactly one send or
  // transfer span whose category is the flow-class name (EOS has no span,
  // so overhead is zeroed to keep the two accountings comparable).
  NetworkConfig config;
  config.per_message_overhead_bytes = 0;
  Metrics metrics;
  Network net(config, 2, 2, &metrics);
  trace::Tracer tracer(/*enabled=*/true);
  net.set_tracer(&tracer);

  const uint64_t tag = net.AllocateTagBlock();
  net.Send(NodeId::Db(0), NodeId::Db(1), tag, Bytes(100));
  net.Send(NodeId::Db(1), NodeId::Db(0), tag, Bytes(11));
  net.Send(NodeId::Hdfs(0), NodeId::Hdfs(1), tag, Bytes(200));
  net.Send(NodeId::Db(0), NodeId::Hdfs(1), tag, Bytes(300));
  net.SendControl(NodeId::Hdfs(1), NodeId::Db(0), tag, Bytes(40));
  net.Send(NodeId::Hdfs(0), NodeId::Hdfs(0), tag, Bytes(7));
  net.Transfer(NodeId::Hdfs(0), NodeId::Hdfs(1), 50);
  net.Recv(NodeId::Db(1), tag);
  net.Recv(NodeId::Db(0), tag);
  net.Recv(NodeId::Hdfs(1), tag);
  net.Recv(NodeId::Hdfs(1), tag);
  net.Recv(NodeId::Db(0), tag);
  net.Recv(NodeId::Hdfs(0), tag);

  std::map<std::string, int64_t> span_bytes;
  for (const trace::TraceEvent& e : tracer.Snapshot()) {
    if (std::strcmp(e.name, trace::span::kNetSend) == 0 ||
        std::strcmp(e.name, trace::span::kNetSendControl) == 0 ||
        std::strcmp(e.name, trace::span::kNetTransfer) == 0) {
      span_bytes[e.category] += e.bytes;
    }
  }
  for (int i = 0; i < 4; ++i) {
    const auto fc = static_cast<FlowClass>(i);
    EXPECT_EQ(span_bytes[FlowClassName(fc)], net.BytesMoved(fc))
        << FlowClassName(fc);
  }
  // Recv spans see the payloads, not the wire accounting.
  int64_t recv_bytes = 0;
  int recv_spans = 0;
  for (const trace::TraceEvent& e : tracer.Snapshot()) {
    if (std::strcmp(e.name, trace::span::kNetRecv) == 0) {
      recv_bytes += e.bytes;
      ++recv_spans;
    }
  }
  EXPECT_EQ(recv_spans, 6);
  EXPECT_EQ(recv_bytes, 100 + 11 + 200 + 300 + 40 + 7);
}

TEST(NetworkTest, LoopbackIsFreeAndUnthrottled) {
  NetworkConfig config;
  config.db_nic_bps = 1024;  // brutally slow
  Metrics metrics;
  Network net(config, 1, 1, &metrics);
  Stopwatch sw;
  net.Send(NodeId::Db(0), NodeId::Db(0), 1, Bytes(1 << 20));
  EXPECT_LT(sw.ElapsedSeconds(), 0.1);
  EXPECT_EQ(net.BytesMoved(FlowClass::kLoopback),
            static_cast<int64_t>((1 << 20) +
                                 config.per_message_overhead_bytes));
}

TEST(NetworkTest, CrossTrafficThrottledBySwitch) {
  NetworkConfig config;
  config.cross_switch_bps = 10 * 1024 * 1024;  // 10 MB/s
  Metrics metrics;
  Network net(config, 1, 1, &metrics);
  // Drain the burst, then time 1 MB: ~0.1 s.
  net.Send(NodeId::Db(0), NodeId::Hdfs(0), 1, Bytes(1024 * 1024));
  Stopwatch sw;
  net.Send(NodeId::Db(0), NodeId::Hdfs(0), 1, Bytes(1024 * 1024));
  EXPECT_GT(sw.ElapsedSeconds(), 0.05);
}

TEST(NetworkTest, IntraClusterAvoidsTheSwitch) {
  NetworkConfig config;
  config.cross_switch_bps = 1024;  // nearly stalled switch
  Metrics metrics;
  Network net(config, 2, 2, &metrics);
  Stopwatch sw;
  net.Send(NodeId::Hdfs(0), NodeId::Hdfs(1), 1, Bytes(1 << 20));
  EXPECT_LT(sw.ElapsedSeconds(), 0.2);  // unaffected by the switch
}

TEST(NetworkTest, TagBlocksAreDisjoint) {
  Metrics metrics;
  Network net(NetworkConfig{}, 1, 1, &metrics);
  const uint64_t a = net.AllocateTagBlock(16);
  const uint64_t b = net.AllocateTagBlock(16);
  EXPECT_GE(b, a + 16);
}

TEST(NetworkTest, SharedPayloadBroadcastDoesNotCopy) {
  Metrics metrics;
  Network net(NetworkConfig{}, 1, 2, &metrics);
  auto payload = std::make_shared<const std::vector<uint8_t>>(Bytes(8, 3));
  net.Send(NodeId::Db(0), NodeId::Hdfs(0), 1, payload);
  net.Send(NodeId::Db(0), NodeId::Hdfs(1), 1, payload);
  Message m0 = net.Recv(NodeId::Hdfs(0), 1).value();
  Message m1 = net.Recv(NodeId::Hdfs(1), 1).value();
  EXPECT_EQ(m0.payload.get(), m1.payload.get());  // same buffer
}

TEST(NetworkStressTest, ManySendersManyTagsDeliverExactly) {
  Metrics metrics;
  Network net(NetworkConfig{}, 4, 4, &metrics);
  constexpr int kMessagesPerPair = 200;
  const uint64_t tag = net.AllocateTagBlock();
  std::atomic<int64_t> payload_sum{0};
  std::vector<std::thread> threads;
  // Every node sends to every HDFS node on one shared tag.
  for (uint32_t s = 0; s < 4; ++s) {
    threads.emplace_back([&net, s, tag] {
      for (int i = 0; i < kMessagesPerPair; ++i) {
        for (uint32_t d = 0; d < 4; ++d) {
          net.Send(NodeId::Db(s), NodeId::Hdfs(d), tag,
                   std::vector<uint8_t>{static_cast<uint8_t>(i % 251)});
        }
      }
      for (uint32_t d = 0; d < 4; ++d) {
        net.SendEos(NodeId::Db(s), NodeId::Hdfs(d), tag);
      }
    });
  }
  std::atomic<int64_t> received{0};
  for (uint32_t d = 0; d < 4; ++d) {
    threads.emplace_back([&, d] {
      StreamReceiver receiver(&net, NodeId::Hdfs(d), tag, 4);
      while (auto msg = receiver.Next()) {
        payload_sum += (*msg->payload)[0];
        received++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(received.load(), 4 * 4 * kMessagesPerPair);
  int64_t expected_sum = 0;
  for (int i = 0; i < kMessagesPerPair; ++i) expected_sum += i % 251;
  EXPECT_EQ(payload_sum.load(), expected_sum * 16);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, DecisionsAreDeterministic) {
  const FaultProfile profile = FaultProfile::Flaky(/*seed=*/123);
  FaultInjector a(profile);
  FaultInjector b(profile);
  for (uint64_t seq = 1; seq <= 500; ++seq) {
    const FaultDecision da = a.OnSend(0b1000, /*stream_hash=*/77, seq,
                                      /*attempt=*/0, /*wire_bytes=*/1000);
    const FaultDecision db = b.OnSend(0b1000, 77, seq, 0, 1000);
    EXPECT_EQ(da.delay_us, db.delay_us);
    EXPECT_EQ(da.fail, db.fail);
    EXPECT_EQ(da.charged_bytes, db.charged_bytes);
    EXPECT_EQ(da.duplicate, db.duplicate);
  }
  EXPECT_EQ(a.failures_injected(), b.failures_injected());
  EXPECT_EQ(a.duplicates_injected(), b.duplicates_injected());
}

TEST(FaultInjectionTest, DifferentSeedsDiffer) {
  FaultInjector a(FaultProfile::Flaky(1));
  FaultInjector b(FaultProfile::Flaky(2));
  int differing = 0;
  for (uint64_t seq = 1; seq <= 200; ++seq) {
    const FaultDecision da = a.OnSend(0b1000, 77, seq, 0, 1000);
    const FaultDecision db = b.OnSend(0b1000, 77, seq, 0, 1000);
    if (da.fail != db.fail || da.duplicate != db.duplicate) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjectionTest, DuplicateDeliveredExactlyOnce) {
  FaultProfile profile;
  profile.name = "dup";
  profile.seed = 7;
  profile.duplicate_prob = 1.0;
  FaultInjector injector(profile);
  NetworkConfig config;
  config.recv_timeout_ms = 100;
  config.per_message_overhead_bytes = 0;
  Metrics metrics;
  Network net(config, 1, 1, &metrics);
  net.set_fault_injector(&injector);

  constexpr int kMessages = 5;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(
        net.Send(NodeId::Db(0), NodeId::Hdfs(0), 3, Bytes(10, i)).ok());
  }
  EXPECT_EQ(injector.duplicates_injected(), kMessages);
  // Both copies hit the wire...
  EXPECT_EQ(net.BytesMoved(FlowClass::kCrossCluster), 2 * kMessages * 10);
  // ...but the receiver sees each message exactly once.
  for (int i = 0; i < kMessages; ++i) {
    auto m = net.Recv(NodeId::Hdfs(0), 3);
    ASSERT_TRUE(m.ok()) << m.status();
    EXPECT_EQ((*m->payload)[0], i);
  }
  auto extra = net.Recv(NodeId::Hdfs(0), 3);
  ASSERT_FALSE(extra.ok());
  EXPECT_TRUE(extra.status().IsTimedOut()) << extra.status();
}

TEST(FaultInjectionTest, TransientFailureRecoversWithRetry) {
  FaultProfile profile;
  profile.name = "fail_first";
  profile.seed = 11;
  profile.fail_first_prob = 1.0;
  FaultInjector injector(profile);
  Metrics metrics;
  Network net(NetworkConfig{}, 1, 1, &metrics);
  net.set_fault_injector(&injector);

  // A bare first attempt fails...
  const uint64_t seq = net.ReserveSeq(NodeId::Db(0), NodeId::Hdfs(0), 4);
  Status first = net.Send(NodeId::Db(0), NodeId::Hdfs(0), 4, Bytes(8), 0,
                          seq);
  EXPECT_TRUE(first.IsUnavailable()) << first;
  // ...and the second attempt of the same message succeeds.
  Status second = net.Send(NodeId::Db(0), NodeId::Hdfs(0), 4, Bytes(8), 1,
                           seq);
  EXPECT_TRUE(second.ok()) << second;
  // SendWithRetry wraps exactly that dance.
  Status with_retry =
      SendWithRetry(&net, NodeId::Db(0), NodeId::Hdfs(0), 4, Bytes(8));
  EXPECT_TRUE(with_retry.ok()) << with_retry;
  EXPECT_EQ(injector.failures_injected(), 2);
}

TEST(FaultInjectionTest, TruncatedRetryBurnsExtraBytes) {
  FaultProfile profile;
  profile.name = "truncate";
  profile.seed = 5;
  profile.truncate_prob = 1.0;
  FaultInjector injector(profile);
  NetworkConfig config;
  config.per_message_overhead_bytes = 0;
  Metrics metrics;
  Network net(config, 1, 1, &metrics);
  net.set_fault_injector(&injector);

  Status sent =
      SendWithRetry(&net, NodeId::Db(0), NodeId::Hdfs(0), 6, Bytes(1000));
  EXPECT_TRUE(sent.ok()) << sent;
  // The failed first attempt burned 1..999 bytes on top of the full resend.
  const int64_t moved = net.BytesMoved(FlowClass::kCrossCluster);
  EXPECT_GT(moved, 1000);
  EXPECT_LT(moved, 2000);
}

TEST(FaultInjectionTest, HardLossExhaustsRetries) {
  FaultInjector injector(FaultProfile::Lossy(/*seed=*/1));
  Metrics metrics;
  Network net(NetworkConfig{}, 1, 1, &metrics);
  net.set_fault_injector(&injector);
  // drop_prob = 0.2: hunt for a dropped message; its retries must all fail.
  bool saw_permanent_failure = false;
  for (int i = 0; i < 100 && !saw_permanent_failure; ++i) {
    Status s =
        SendWithRetry(&net, NodeId::Db(0), NodeId::Hdfs(0), 8, Bytes(4),
                      /*max_attempts=*/4, /*backoff_us=*/1);
    if (!s.ok()) {
      EXPECT_TRUE(s.IsUnavailable()) << s;
      saw_permanent_failure = true;
    }
  }
  EXPECT_TRUE(saw_permanent_failure);
  EXPECT_GT(injector.drops_injected(), 0);
}

TEST(FaultInjectionTest, EosAndControlAreExemptFromLoss) {
  FaultProfile profile;
  profile.name = "blackhole";
  profile.seed = 3;
  profile.drop_prob = 1.0;  // every data message is lost
  FaultInjector injector(profile);
  NetworkConfig config;
  config.recv_timeout_ms = 2000;
  Metrics metrics;
  Network net(config, 1, 1, &metrics);
  net.set_fault_injector(&injector);

  net.SendControl(NodeId::Db(0), NodeId::Hdfs(0), 2, Bytes(4, 9));
  net.SendEos(NodeId::Db(0), NodeId::Hdfs(0), 2);
  auto control = net.Recv(NodeId::Hdfs(0), 2);
  ASSERT_TRUE(control.ok()) << control.status();
  EXPECT_EQ((*control->payload)[0], 9);
  auto eos = net.Recv(NodeId::Hdfs(0), 2);
  ASSERT_TRUE(eos.ok()) << eos.status();
  EXPECT_TRUE(eos->eos);
}

TEST(FaultInjectionTest, RecvTimeoutReturnsTimedOut) {
  NetworkConfig config;
  config.recv_timeout_ms = 50;
  Metrics metrics;
  Network net(config, 1, 1, &metrics);
  Stopwatch sw;
  auto m = net.Recv(NodeId::Db(0), 1);
  ASSERT_FALSE(m.ok());
  EXPECT_TRUE(m.status().IsTimedOut()) << m.status();
  EXPECT_GE(sw.ElapsedSeconds(), 0.04);
  EXPECT_LT(sw.ElapsedSeconds(), 5.0);
}

TEST(FaultInjectionTest, StreamReceiverSurfacesTimeout) {
  NetworkConfig config;
  config.recv_timeout_ms = 50;
  Metrics metrics;
  Network net(config, 2, 1, &metrics);
  // Two senders expected, only one finishes: the drain must end with an
  // error rather than hang.
  net.Send(NodeId::Db(0), NodeId::Hdfs(0), 4, Bytes(1));
  net.SendEos(NodeId::Db(0), NodeId::Hdfs(0), 4);
  StreamReceiver receiver(&net, NodeId::Hdfs(0), 4, 2);
  int data = 0;
  while (receiver.Next()) ++data;
  EXPECT_EQ(data, 1);
  EXPECT_TRUE(receiver.status().IsTimedOut()) << receiver.status();
}

TEST(FaultInjectionTest, StallFiresExactlyOnce) {
  FaultProfile profile = FaultProfile::Stall(/*seed=*/0, /*num_jen_workers=*/2);
  profile.stall_us = 1000;  // keep the test fast
  FaultInjector injector(profile);
  Metrics metrics;
  Network net(NetworkConfig{}, 1, 2, &metrics);
  net.set_fault_injector(&injector);
  const NodeId stalled = NodeId::Hdfs(profile.stall_index);
  ASSERT_TRUE(net.Send(stalled, NodeId::Db(0), 1, Bytes(4)).ok());
  ASSERT_TRUE(net.Send(stalled, NodeId::Db(0), 1, Bytes(4)).ok());
  EXPECT_EQ(injector.stalls_injected(), 1);
}

TEST(FaultInjectionTest, ProfileByName) {
  EXPECT_TRUE(FaultProfile::ByName("none", 1, 4)->name == "none");
  EXPECT_TRUE(FaultProfile::ByName("flaky", 1, 4)->recoverable());
  EXPECT_FALSE(FaultProfile::ByName("lossy", 1, 4)->recoverable());
  EXPECT_TRUE(FaultProfile::ByName("delays", 1, 4)->enabled());
  EXPECT_TRUE(FaultProfile::ByName("stall", 9, 4)->enabled());
  EXPECT_FALSE(FaultProfile::ByName("bogus", 1, 4).ok());
}

}  // namespace
}  // namespace hybridjoin
