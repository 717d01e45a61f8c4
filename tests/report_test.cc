// Tests for the reporting/driver plumbing: ExecutionReport, algorithm
// names, the driver stages (tag allocation, the Exchange delivery, drain,
// send-failure and hot-route contracts, the semijoin round's EOS ending,
// the Coordinate error contract, the Bloom union round, one record across
// an execution's rounds), and the zigzag
// build-side ablation (both plans must agree exactly).

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <map>
#include <numeric>
#include <set>
#include <thread>

#include "common/hash.h"
#include "common/stopwatch.h"
#include "exec/join_hash_table.h"
#include "hybrid/driver_common.h"
#include "obs/query_registry.h"
#include "hybrid/warehouse.h"
#include "net/network.h"
#include "workload/loader.h"

namespace hybridjoin {
namespace {

TEST(ReportTest, AlgorithmNamesAndSides) {
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kDbSide), "db");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kDbSideBloom), "db(BF)");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kBroadcast), "broadcast");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kRepartition),
               "repartition");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kRepartitionBloom),
               "repartition(BF)");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kZigzag), "zigzag");
  EXPECT_FALSE(IsHdfsSide(JoinAlgorithm::kDbSide));
  EXPECT_FALSE(IsHdfsSide(JoinAlgorithm::kDbSideBloom));
  EXPECT_TRUE(IsHdfsSide(JoinAlgorithm::kBroadcast));
  EXPECT_TRUE(IsHdfsSide(JoinAlgorithm::kZigzag));
}

TEST(ReportTest, ToStringContainsEverything) {
  ExecutionReport report;
  report.algorithm = JoinAlgorithm::kZigzag;
  report.wall_seconds = 1.5;
  report.phases = {{"scan", 0.5}};
  report.counters["jen.tuples_scanned"] = 42;
  report.network_bytes["cross_cluster"] = 1000;
  const std::string s = report.ToString();
  EXPECT_NE(s.find("zigzag"), std::string::npos);
  EXPECT_NE(s.find("scan"), std::string::npos);
  EXPECT_NE(s.find("jen.tuples_scanned = 42"), std::string::npos);
  EXPECT_NE(s.find("cross_cluster = 1000"), std::string::npos);
  EXPECT_EQ(report.Counter("jen.tuples_scanned"), 42);
  EXPECT_EQ(report.Counter("missing"), 0);
}

// network_bytes is a view of the net.<class>_bytes counters, so each byte
// count prints once, under "network bytes", not again under "counters".
TEST(ReportTest, ToStringPrintsEachNetworkByteCountOnce) {
  ExecutionReport report;
  report.counters["jen.tuples_scanned"] = 42;
  report.counters[FlowBytesMetric(FlowClass::kCrossCluster)] = 1000;
  report.network_bytes = NetworkBytesOf(report.counters);
  const std::string s = report.ToString();
  EXPECT_EQ(s.find(FlowBytesMetric(FlowClass::kCrossCluster)),
            std::string::npos);
  const size_t first = s.find("= 1000");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(s.find("= 1000", first + 1), std::string::npos);
  EXPECT_NE(s.find("jen.tuples_scanned = 42"), std::string::npos);
}

// Two executions running at once draw their stage tags from disjoint
// blocks, so their channels can never cross.
TEST(DriverStageTest, ConcurrentExecutionsDrawDisjointTags) {
  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 2;
  EngineContext ctx(config);
  constexpr int kTags = 20;
  std::vector<uint64_t> tags[2];
  std::latch both_alive(2);
  std::vector<std::thread> drivers;
  for (int e = 0; e < 2; ++e) {
    drivers.emplace_back([&, e] {
      driver::Execution exec(&ctx, JoinAlgorithm::kZigzag, 0);
      both_alive.arrive_and_wait();
      for (int t = 0; t < kTags; ++t) tags[e].push_back(exec.NewTag());
    });
  }
  for (auto& t : drivers) t.join();
  std::set<uint64_t> unique(tags[0].begin(), tags[0].end());
  unique.insert(tags[1].begin(), tags[1].end());
  EXPECT_EQ(unique.size(), 2u * kTags);
}

TEST(DriverStageTest, CoordinateUnionsBloomEverywhere) {
  SimulationConfig config;
  config.db.num_workers = 3;
  config.jen_workers = 1;
  EngineContext ctx(config);
  driver::Execution exec(&ctx, JoinAlgorithm::kZigzag, 0);
  const std::vector<NodeId> db = driver::AllNodes(&ctx, ClusterId::kDb);
  const driver::Coordinate round(&exec, db, NodeId::Db(0), db);
  const BloomParams params = BloomParams::ForKeys(256);

  std::vector<BloomFilter> globals(3, BloomFilter(params));
  std::vector<std::thread> workers;
  for (uint32_t i = 0; i < 3; ++i) {
    workers.emplace_back([&, i] {
      BloomFilter local(params);
      local.Add(1000 + static_cast<int64_t>(i));  // distinct key per worker
      auto global =
          driver::UnionBlooms(&ctx, round, NodeId::Db(i), &local, params);
      ASSERT_TRUE(global.ok());
      globals[i] = std::move(global).value();
    });
  }
  for (auto& t : workers) t.join();
  for (uint32_t i = 0; i < 3; ++i) {
    for (int64_t k = 1000; k < 1003; ++k) {
      EXPECT_TRUE(globals[i].MayContain(k))
          << "worker " << i << " missing key " << k;
    }
    EXPECT_EQ(globals[i].FillRatio(), globals[0].FillRatio());
  }
}

RecordBatch KeyBatch(const SchemaPtr& schema, std::vector<int64_t> keys) {
  RecordBatch batch(schema);
  for (int64_t k : keys) batch.AppendRow({Value(k)});
  return batch;
}

// A sender that fails before producing anything still owes every receiver
// its EOS: the receivers return with the other senders' rows.
TEST(DriverStageTest, ExchangeSenderFailingEarlyReleasesReceivers) {
  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 3;
  config.net.recv_timeout_ms = 10000;  // a missing EOS fails, not hangs
  EngineContext ctx(config);
  driver::Execution exec(&ctx, JoinAlgorithm::kRepartition, 0);
  const SchemaPtr schema = Schema::Make({{"k", DataType::kInt64}});
  driver::Exchange exchange(
      &exec, {.senders = driver::AllNodes(&ctx, ClusterId::kDb),
              .receivers = driver::AllNodes(&ctx, ClusterId::kHdfs),
              .route = driver::Exchange::Route::kAgreedHash,
              .schema = schema});
  std::atomic<int64_t> received{0};
  const Status st = exec.RunWorkers(
      [&](uint32_t i) -> Status {
        driver::Exchange::Sender sender = exchange.Open(NodeId::Db(i));
        if (i == 0) return Status::Internal("scan failed");
        for (int64_t k = 0; k < 100; ++k) {
          sender.Append(0, KeyBatch(schema, {k}));
        }
        return sender.Finish();
      },
      [&](uint32_t w) -> Status {
        return exchange.Receive(NodeId::Hdfs(w), [&](RecordBatch&& batch) {
          received += static_cast<int64_t>(batch.num_rows());
          return Status::OK();
        });
      });
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st;
  EXPECT_EQ(received.load(), 100);
}

// A sender's batches reach only their receiver, which can build a hash
// table from them as they arrive; a receiver that got no batch still gets
// its EOS; the tuple counter counts rows per destination.
TEST(DriverStageTest, ExchangeDeliversCountsAndEndsEveryStream) {
  SimulationConfig config;
  config.db.num_workers = 1;
  config.jen_workers = 3;
  EngineContext ctx(config);
  driver::Execution exec(&ctx, JoinAlgorithm::kRepartition, 0);
  const SchemaPtr schema = Schema::Make({{"k", DataType::kInt64}});
  driver::Exchange exchange(
      &exec, {.senders = {NodeId::Hdfs(0)},
              .receivers = {NodeId::Hdfs(1), NodeId::Hdfs(2)},
              .route = driver::Exchange::Route::kAgreedHash,
              .schema = schema,
              .send_threads = 2,
              .tuple_counter = metric::kHdfsTuplesShuffled});
  std::vector<int64_t> keys(10);
  std::iota(keys.begin(), keys.end(), 0);
  {
    driver::Exchange::Sender sender = exchange.Open(NodeId::Hdfs(0));
    sender.SendTo(0, KeyBatch(schema, keys));
    sender.SendTo(0, KeyBatch(schema, keys));
    ASSERT_TRUE(sender.Finish().ok());
  }
  EXPECT_EQ(ctx.metrics().Get(metric::kHdfsTuplesShuffled), 20);
  JoinHashTable table(0);
  size_t batches = 0;
  ASSERT_TRUE(exchange
                  .Receive(NodeId::Hdfs(1),
                           [&](RecordBatch&& batch) {
                             ++batches;
                             return table.AddBatch(std::move(batch));
                           })
                  .ok());
  table.Finalize();
  EXPECT_EQ(batches, 2u);
  EXPECT_EQ(table.num_rows(), 20u);
  EXPECT_TRUE(table.Contains(3));
  auto none = exchange.ReceiveAll(NodeId::Hdfs(2));
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_TRUE(none->empty());
}

// After the first failing callback Receive calls no more, but it drains
// the stream through its EOS, and no further.
TEST(DriverStageTest, ExchangeReceiveDrainsPastAnError) {
  SimulationConfig config;
  config.db.num_workers = 1;
  config.jen_workers = 2;
  EngineContext ctx(config);
  driver::Execution exec(&ctx, JoinAlgorithm::kRepartition, 0);
  const SchemaPtr schema = Schema::Make({{"k", DataType::kInt64}});
  driver::Exchange exchange(&exec, {.senders = {NodeId::Hdfs(1)},
                                    .receivers = {NodeId::Hdfs(0)},
                                    .schema = schema});
  ASSERT_TRUE(exchange
                  .Send(NodeId::Hdfs(1), {KeyBatch(schema, {1}),
                                          KeyBatch(schema, {1}),
                                          KeyBatch(schema, {1})})
                  .ok());
  // A second stream on the same channel, queued behind the first's EOS.
  ASSERT_TRUE(exchange.Send(NodeId::Hdfs(1), {KeyBatch(schema, {99})}).ok());
  int calls = 0;
  const Status st = exchange.Receive(NodeId::Hdfs(0), [&](RecordBatch&&) {
    ++calls;
    return Status::Internal("consumer failed");
  });
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st;
  EXPECT_EQ(calls, 1);
  auto next = exchange.ReceiveAll(NodeId::Hdfs(0));
  ASSERT_TRUE(next.ok()) << next.status();
  ASSERT_EQ(next->size(), 1u);
  EXPECT_EQ((*next)[0].column(0).i64()[0], 99);
}

// A sender whose sends fail for good (every attempt dropped) or whose
// query is KILLed: Finish returns the first error, every receiver still
// gets its EOS, and the governor charge of every payload dropped unsent
// comes back.
TEST(DriverStageTest, FailingSenderEndsEveryStreamAndReleasesItsCharges) {
  for (const bool kill : {false, true}) {
    SCOPED_TRACE(kill ? "KILL" : "drop");
    SimulationConfig config;
    config.db.num_workers = 1;
    config.jen_workers = 3;
    config.net.recv_timeout_ms = 10000;  // a missing EOS fails, not hangs
    if (!kill) config.fault.drop_prob = 1.0;
    EngineContext ctx(config);
    {
      driver::Execution exec(&ctx, JoinAlgorithm::kRepartition, 0);
      const SchemaPtr schema = Schema::Make({{"k", DataType::kInt64}});
      driver::Exchange exchange(
          &exec, {.senders = {NodeId::Hdfs(0)},
                  .receivers = {NodeId::Hdfs(1), NodeId::Hdfs(2)},
                  .schema = schema,
                  .send_threads = 2});
      if (kill) {
        ASSERT_TRUE(obs::QueryRegistry::Global().Cancel(exec.query_id()).ok());
      }
      std::vector<int64_t> keys(100);
      std::iota(keys.begin(), keys.end(), 0);
      driver::Exchange::Sender sender = exchange.Open(NodeId::Hdfs(0));
      for (int b = 0; b < 50; ++b) sender.Append(0, KeyBatch(schema, keys));
      const Status st = sender.Finish();
      EXPECT_EQ(st.code(),
                kill ? StatusCode::kCancelled : StatusCode::kUnavailable)
          << st;
      EXPECT_EQ(exec.governor()->used(), 0u);
      // Outside the KILLed query's scope, each receiver's drain ends on
      // its EOS.
      std::thread([&] {
        for (uint32_t w : {1u, 2u}) {
          auto rows = exchange.ReceiveAll(NodeId::Hdfs(w));
          ASSERT_TRUE(rows.ok()) << rows.status();
          EXPECT_TRUE(rows->empty());
        }
      }).join();
    }
    EXPECT_EQ(ctx.metrics().Get(metric::kServerGovernorLeakedBytes), 0);
  }
}

// The exact-semijoin round ends on EOS, not on a message count: a DB
// worker that fails before shipping its key list sends only EOS, the JEN
// workers answer the key lists they got, and every node returns long
// before the receive timeout, leaving no channel behind.
TEST(DriverStageTest, SemijoinRoundEndsWhenADbWorkerFailsBeforeItsKeys) {
  WorkloadConfig wc;
  wc.num_join_keys = 256;
  wc.t_rows = 2000;
  wc.l_rows = 6000;
  auto workload = Workload::Generate(wc, {0.3, 0.3, 0.5, 0.5});
  ASSERT_TRUE(workload.ok());
  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 2;
  config.bloom.expected_keys = wc.num_join_keys;
  config.net.recv_timeout_ms = 10000;  // a missing message fails, not hangs
  HybridWarehouse hw(config);
  ASSERT_TRUE(LoadWorkload(&hw, *workload).ok());
  auto prepared = PrepareQuery(&hw.context(), workload->MakeQuery());
  ASSERT_TRUE(prepared.ok());
  EngineContext* ctx = &hw.context();
  const size_t channels_before = ctx->network().num_channels();
  Stopwatch wall;
  std::vector<Status> jen_status(2);
  std::atomic<int64_t> shipped{0};
  Status st;
  {
    driver::Execution exec(ctx, JoinAlgorithm::kZigzag, 0);
    driver::SemijoinFilter semijoin(&exec, *prepared);
    driver::Exchange t_ship(
        &exec, {.senders = driver::AllNodes(ctx, ClusterId::kDb),
                .receivers = driver::AllNodes(ctx, ClusterId::kHdfs),
                .route = driver::Exchange::Route::kAgreedHash,
                .schema = prepared->db_proj_schema,
                .key_column = prepared->db_key_idx});
    st = exec.RunWorkers(
        [&](uint32_t i) -> Status {
          Status worker = i == 0 ? Status::Internal("scan failed") : Status();
          std::vector<RecordBatch> t_prime =
              driver::ScanDbTable(ctx, prepared->query, i, &worker);
          semijoin.Ship(i, std::move(t_prime), &t_ship, &worker);
          return worker;
        },
        [&](uint32_t w) -> Status {
          // No build: every key list is answered with an all-zero bitmap.
          Status worker = semijoin.Answer(w, nullptr);
          worker.Update(t_ship.Receive(NodeId::Hdfs(w), [&](RecordBatch&& b) {
            shipped += static_cast<int64_t>(b.num_rows());
            return Status::OK();
          }));
          jen_status[w] = worker;
          return worker;
        });
  }
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st;
  for (const Status& s : jen_status) EXPECT_TRUE(s.ok()) << s;
  EXPECT_EQ(shipped.load(), 0);
  EXPECT_GT(ctx->metrics().Get(metric::kSemijoinKeyBytesSent), 0);
  EXPECT_LT(wall.ElapsedSeconds(), 5.0);
  EXPECT_EQ(ctx->network().num_channels(), channels_before);
}

// A hash route sends every row to the receiver its key hashes to, in
// batches of at most flush_rows rows.
TEST(DriverStageTest, HashRouteSendsEachRowToItsPartition) {
  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 3;
  EngineContext ctx(config);
  driver::Execution exec(&ctx, JoinAlgorithm::kRepartition, 0);
  const SchemaPtr schema = Schema::Make({{"k", DataType::kInt64}});
  driver::Exchange exchange(
      &exec, {.senders = driver::AllNodes(&ctx, ClusterId::kDb),
              .receivers = driver::AllNodes(&ctx, ClusterId::kHdfs),
              .route = driver::Exchange::Route::kAgreedHash,
              .schema = schema,
              .flush_rows = 4});
  std::vector<int64_t> keys(50);
  std::iota(keys.begin(), keys.end(), 0);
  std::atomic<int64_t> received{0};
  ASSERT_TRUE(
      exec.RunWorkers(
              [&](uint32_t i) {
                return exchange.Send(NodeId::Db(i), {KeyBatch(schema, keys)});
              },
              [&](uint32_t w) {
                return exchange.Receive(
                    NodeId::Hdfs(w), [&](RecordBatch&& batch) {
                      EXPECT_LE(batch.num_rows(), 4u);
                      for (int64_t k : batch.column(0).i64()) {
                        EXPECT_EQ(AgreedPartition(k, 3), w) << k;
                      }
                      received += static_cast<int64_t>(batch.num_rows());
                      return Status::OK();
                    });
              })
          .ok());
  EXPECT_EQ(received.load(), 100);
}

// A participant whose contribution never arrives: the coordinator's gather
// times out, and every target returns an error within the timeout instead
// of waiting for a value that will never come.
TEST(DriverStageTest, CoordinateWithMissingParticipantFailsEveryTarget) {
  SimulationConfig config;
  config.db.num_workers = 3;
  config.jen_workers = 2;
  config.net.recv_timeout_ms = 200;
  EngineContext ctx(config);
  driver::Execution exec(&ctx, JoinAlgorithm::kZigzag, 0);
  std::vector<NodeId> targets = {NodeId::Db(0), NodeId::Db(1),
                                 NodeId::Hdfs(0), NodeId::Hdfs(1)};
  const driver::Coordinate round(
      &exec, driver::AllNodes(&ctx, ClusterId::kDb), NodeId::Db(0), targets);
  const BloomParams params = BloomParams::ForKeys(64);
  std::vector<Status> statuses(targets.size());
  Stopwatch wall;
  std::vector<std::thread> nodes;
  for (size_t t = 0; t < targets.size(); ++t) {
    nodes.emplace_back([&, t] {
      const NodeId self = targets[t];
      const BloomFilter local(params);
      // DB worker 2 never contributes.
      const bool participant = self.cluster == ClusterId::kDb;
      statuses[t] = driver::UnionBlooms(&ctx, round, self,
                                        participant ? &local : nullptr,
                                        params)
                        .status();
    });
  }
  for (auto& t : nodes) t.join();
  EXPECT_TRUE(statuses[0].IsTimedOut()) << statuses[0];
  // The others see the abandoned round (kAborted) or, racing the
  // coordinator's own deadline, time out themselves.
  for (size_t t = 1; t < targets.size(); ++t) {
    EXPECT_TRUE(statuses[t].code() == StatusCode::kAborted ||
                statuses[t].IsTimedOut())
        << targets[t].ToString() << ": " << statuses[t];
  }
  EXPECT_LT(wall.ElapsedSeconds(), 2.0);
}

// The skew-aware hybrid route: hot build rows broadcast, hot probe rows
// stay local, cold rows hash. Joining what each node ends up with must
// produce every matching (build, probe) pair exactly once.
TEST(DriverStageTest, HotRoutesPairEachMatchExactlyOnce) {
  SimulationConfig config;
  config.db.num_workers = 3;
  config.jen_workers = 1;
  EngineContext ctx(config);
  driver::Execution exec(&ctx, JoinAlgorithm::kDbSideBloom, 0);
  const SchemaPtr schema = Schema::Make({{"k", DataType::kInt64}});
  const std::vector<NodeId> db = driver::AllNodes(&ctx, ClusterId::kDb);
  auto spec = [&](driver::Exchange::HotMode mode) {
    return driver::Exchange::Spec{.senders = db,
                                  .receivers = db,
                                  .route = driver::Exchange::Route::kDbHash,
                                  .hot_mode = mode,
                                  .schema = schema,
                                  .flush_rows = 4};
  };
  driver::Exchange build(&exec, spec(driver::Exchange::HotMode::kBroadcast));
  driver::Exchange probe(&exec, spec(driver::Exchange::HotMode::kKeepLocal));
  const HotKeySet hot({1, 2});
  // Node i holds build keys {0..5} and probe keys {0..5, 1, 1, 2}: keys 1
  // and 2 are hot.
  auto keys = [](bool probe_side) {
    std::vector<int64_t> k = {0, 1, 2, 3, 4, 5};
    if (probe_side) k.insert(k.end(), {1, 1, 2});
    return k;
  };
  std::atomic<int64_t> pairs{0};
  auto db_node = [&](uint32_t i) -> Status {
    const NodeId self = NodeId::Db(i);
    HJ_RETURN_IF_ERROR(
        build.Send(self, {KeyBatch(schema, keys(false))}, &hot));
    HJ_RETURN_IF_ERROR(probe.Send(self, {KeyBatch(schema, keys(true))}, &hot));
    std::map<int64_t, int64_t> build_count;
    HJ_ASSIGN_OR_RETURN(auto built, build.ReceiveAll(self));
    for (const RecordBatch& b : built) {
      for (int64_t k : b.column(0).i64()) ++build_count[k];
    }
    HJ_ASSIGN_OR_RETURN(auto probed, probe.ReceiveAll(self));
    for (const RecordBatch& b : probed) {
      for (int64_t k : b.column(0).i64()) pairs += build_count[k];
    }
    return Status::OK();
  };
  ASSERT_TRUE(
      exec.RunWorkers(db_node, [](uint32_t) { return Status::OK(); }).ok());
  // Globally each key has 3 build rows; probe rows: keys 0,3,4,5 once per
  // node, key 1 three times per node, key 2 twice per node.
  const int64_t build_rows = 3;
  const int64_t probe_rows = 3 * (4 + 3 + 2);
  EXPECT_EQ(pairs.load(), build_rows * probe_rows);
  EXPECT_GT(ctx.metrics().Get(metric::kShuffleHotRowsBuild), 0);
  EXPECT_GT(ctx.metrics().Get(metric::kShuffleHotRowsProbe), 0);
}

// A keep-local receive that ends early (here: a peer's stream times out)
// while its own sender, on another thread, still holds hot rows: the rows
// the sender hands over afterwards are released, not parked forever.
TEST(DriverStageTest, KeptHotRowsAreReleasedAfterAnEarlyReceiveError) {
  SimulationConfig config;
  config.db.num_workers = 1;
  config.jen_workers = 2;
  config.net.recv_timeout_ms = 100;
  EngineContext ctx(config);
  {
    driver::Execution exec(&ctx, JoinAlgorithm::kZigzag, 0);
    const SchemaPtr schema = Schema::Make({{"k", DataType::kInt64}});
    driver::Exchange exchange(
        &exec, {.senders = driver::AllNodes(&ctx, ClusterId::kHdfs),
                .receivers = driver::AllNodes(&ctx, ClusterId::kHdfs),
                .route = driver::Exchange::Route::kAgreedHash,
                .hot_mode = driver::Exchange::HotMode::kKeepLocal,
                .schema = schema,
                .flush_rows = 1});
    const HotKeySet hot({7});
    Status receive_status;
    const Status st = exec.RunWorkers(
        [](uint32_t) { return Status::OK(); },
        [&](uint32_t w) -> Status {
          if (w == 1) return Status::OK();  // never sends: its stream times out
          const NodeId self = NodeId::Hdfs(0);
          WorkerThread receiver(self, "jen_receive", [&] {
            receive_status = exchange.Receive(
                self, [](RecordBatch&&) { return Status::OK(); });
          });
          driver::Exchange::Sender sender = exchange.Open(self, &hot);
          sender.Append(0, KeyBatch(schema, {7, 7, 7}));
          EXPECT_GT(exec.governor()->used(), 0u) << "kept rows not charged";
          receiver.Join();  // the receive has failed and returned
          return sender.Finish();
        });
    EXPECT_TRUE(st.ok()) << st;
    EXPECT_TRUE(receive_status.IsTimedOut()) << receive_status;
    EXPECT_EQ(exec.governor()->used(), 0u);
  }
  EXPECT_EQ(ctx.metrics().Get(metric::kServerGovernorLeakedBytes), 0);
}

// A query's two rounds (the adaptive prefix, then the chosen driver) add to
// one record: the live process-list totals hold both rounds after the
// second, the report's counter is their sum, and each node's histogram row
// summarizes every value the node recorded, not a count-weighted average
// of per-round summaries (which would put p50 at 250.75 us here).
TEST(DriverStageTest, TwoRoundsAddToOneExactRecord) {
  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 2;
  EngineContext ctx(config);
  constexpr char kRows[] = "test.rows";
  constexpr char kLatency[] = "test.latency_us";
  driver::Execution exec(&ctx, JoinAlgorithm::kZigzag, 0);
  auto round = [&](int64_t rows, const std::vector<int64_t>& micros) {
    const driver::Execution::WorkerFn worker = [&](uint32_t) {
      ctx.metrics().Add(kRows, rows);
      for (const int64_t us : micros) ctx.metrics().Record(kLatency, us);
      return Status::OK();
    };
    return exec.RunWorkers(worker, worker);
  };
  ASSERT_TRUE(round(5, {1, 1, 1}).ok());
  ASSERT_TRUE(round(7, {1000}).ok());
  constexpr int64_t kNodes = 4;

  const auto live = ctx.metrics().ScopedQueryTotals(exec.query_id());
  ASSERT_EQ(live.count(kRows), 1u);
  EXPECT_EQ(live.at(kRows), kNodes * (5 + 7));

  auto result = exec.Finish(RecordBatch());
  ASSERT_TRUE(result.ok()) << result.status();
  const ExecutionReport& report = result->report;
  EXPECT_EQ(report.Counter(kRows), kNodes * (5 + 7));

  LatencyHistogram exact;
  for (const int64_t us : {1, 1, 1, 1000}) exact.RecordMicros(us);
  const HistogramSummary want = exact.Summarize();
  ASSERT_DOUBLE_EQ(want.p50_seconds, 1e-6);
  const obs::ProfileHistogramRow* row = nullptr;
  for (const obs::ProfilePhase& phase : report.profile.phases) {
    for (const obs::ProfileHistogramRow& h : phase.histograms) {
      if (h.name == kLatency) row = &h;
    }
  }
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->per_node.size(), static_cast<size_t>(kNodes));
  for (const auto& [node, got] : row->per_node) {
    SCOPED_TRACE(node);
    EXPECT_EQ(got.count, want.count);
    EXPECT_DOUBLE_EQ(got.total_seconds, want.total_seconds);
    EXPECT_DOUBLE_EQ(got.min_seconds, want.min_seconds);
    EXPECT_DOUBLE_EQ(got.max_seconds, want.max_seconds);
    EXPECT_DOUBLE_EQ(got.p50_seconds, want.p50_seconds);
    EXPECT_DOUBLE_EQ(got.p95_seconds, want.p95_seconds);
    EXPECT_DOUBLE_EQ(got.p99_seconds, want.p99_seconds);
  }
}

TEST(DriverCommonTest, FilterBatchesByBloomDropsNonMembers) {
  auto schema = Schema::Make({{"k", DataType::kInt32}});
  RecordBatch batch(schema);
  for (int32_t i = 0; i < 100; ++i) batch.AppendRow({Value(i)});
  BloomFilter bloom(BloomParams::ForKeys(64, 16.0, 4));  // low FPR
  for (int32_t i = 0; i < 10; ++i) bloom.Add(i);
  auto filtered =
      driver::FilterBatchesByBloom({batch}, "k", bloom);
  ASSERT_TRUE(filtered.ok());
  size_t rows = 0;
  for (const auto& b : *filtered) rows += b.num_rows();
  EXPECT_GE(rows, 10u);
  EXPECT_LE(rows, 20u);  // 10 members + few false positives
}

TEST(ConfigTest, PaperTestbedScalesBandwidths) {
  const SimulationConfig base = SimulationConfig::PaperTestbed(4, 8, 1.0);
  const SimulationConfig half = SimulationConfig::PaperTestbed(4, 8, 0.5);
  EXPECT_EQ(base.db.num_workers, 4u);
  EXPECT_EQ(base.jen_workers, 8u);
  EXPECT_GT(base.datanode.disk_read_bps, 0u);
  EXPECT_EQ(half.datanode.disk_read_bps, base.datanode.disk_read_bps / 2);
  EXPECT_EQ(half.net.cross_switch_bps, base.net.cross_switch_bps / 2);
  // Ratios follow the paper: DB NICs faster than HDFS NICs, switch fastest.
  EXPECT_GT(base.net.db_nic_bps, base.net.hdfs_nic_bps);
  EXPECT_GT(base.net.cross_switch_bps, base.net.db_nic_bps);
}

// The build-side ablation must not change the result (§4.4: it only moves
// the hash-build to the other input).
TEST(BuildSideAblationTest, BothPlansProduceIdenticalRows) {
  WorkloadConfig wc;
  wc.num_join_keys = 512;
  wc.t_rows = 8000;
  wc.l_rows = 30000;
  auto workload = Workload::Generate(wc, {0.2, 0.3, 0.3, 0.3});
  ASSERT_TRUE(workload.ok());
  SimulationConfig config;
  config.db.num_workers = 3;
  config.jen_workers = 3;
  config.bloom.expected_keys = wc.num_join_keys;
  HybridWarehouse hw(config);
  ASSERT_TRUE(LoadWorkload(&hw, *workload).ok());

  auto prepared = PrepareQuery(&hw.context(), workload->MakeQuery());
  ASSERT_TRUE(prepared.ok());

  for (bool zigzag : {false, true}) {
    SCOPED_TRACE(zigzag ? "zigzag" : "repartition(BF)");
    JoinDriverOptions hdfs_build;
    JoinDriverOptions db_build;
    db_build.build_on_db_data = true;
    auto on_hdfs = RunRepartitionFamilyJoin(&hw.context(), *prepared,
                                            /*use_db_bloom=*/true, zigzag,
                                            hdfs_build);
    auto on_db = RunRepartitionFamilyJoin(&hw.context(), *prepared,
                                          /*use_db_bloom=*/true, zigzag,
                                          db_build);
    ASSERT_TRUE(on_hdfs.ok()) << on_hdfs.status();
    ASSERT_TRUE(on_db.ok()) << on_db.status();
    ASSERT_EQ(on_hdfs->rows.num_rows(), on_db->rows.num_rows());
    for (size_t r = 0; r < on_hdfs->rows.num_rows(); ++r) {
      EXPECT_EQ(on_hdfs->rows.column(0).i64()[r],
                on_db->rows.column(0).i64()[r]);
      EXPECT_EQ(on_hdfs->rows.column(1).i64()[r],
                on_db->rows.column(1).i64()[r]);
    }
  }
}

// The exact-semijoin second filter must agree with the Bloom variant and,
// having no false positives, never send MORE database tuples.
TEST(SemijoinFilterTest, MatchesBloomZigzagWithFewerOrEqualTuples) {
  WorkloadConfig wc;
  wc.num_join_keys = 1024;
  wc.t_rows = 16000;
  wc.l_rows = 50000;
  auto workload = Workload::Generate(wc, {0.2, 0.4, 0.2, 0.1});
  ASSERT_TRUE(workload.ok());
  SimulationConfig config;
  config.db.num_workers = 3;
  config.jen_workers = 3;
  config.bloom.expected_keys = wc.num_join_keys;
  HybridWarehouse hw(config);
  ASSERT_TRUE(LoadWorkload(&hw, *workload).ok());
  auto prepared = PrepareQuery(&hw.context(), workload->MakeQuery());
  ASSERT_TRUE(prepared.ok());

  JoinDriverOptions bloom_opts;
  JoinDriverOptions semi_opts;
  semi_opts.second_filter = SecondFilterKind::kExactSemijoin;
  auto with_bloom = RunRepartitionFamilyJoin(&hw.context(), *prepared, true,
                                             true, bloom_opts);
  auto with_semi = RunRepartitionFamilyJoin(&hw.context(), *prepared, true,
                                            true, semi_opts);
  ASSERT_TRUE(with_bloom.ok()) << with_bloom.status();
  ASSERT_TRUE(with_semi.ok()) << with_semi.status();

  ASSERT_EQ(with_semi->rows.num_rows(), with_bloom->rows.num_rows());
  for (size_t r = 0; r < with_semi->rows.num_rows(); ++r) {
    EXPECT_EQ(with_semi->rows.column(0).i64()[r],
              with_bloom->rows.column(0).i64()[r]);
    EXPECT_EQ(with_semi->rows.column(1).i64()[r],
              with_bloom->rows.column(1).i64()[r]);
  }
  // Exactness: no Bloom false positives inflate the T'' transfer.
  EXPECT_LE(with_semi->report.Counter(metric::kDbTuplesSent),
            with_bloom->report.Counter(metric::kDbTuplesSent));
  // But the key lists themselves crossed the interconnect.
  EXPECT_GT(with_semi->report.Counter(metric::kSemijoinKeyBytesSent), 0);

  // Invalid combinations are rejected up front.
  JoinDriverOptions bad = semi_opts;
  bad.build_on_db_data = true;
  EXPECT_FALSE(RunRepartitionFamilyJoin(&hw.context(), *prepared, true, true,
                                        bad)
                   .ok());
}

}  // namespace
}  // namespace hybridjoin
