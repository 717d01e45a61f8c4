// Allocation-count regression tests: building a string row must not
// allocate, nor may a filtered block scan or a warmed scatter allocate per
// row. Each case counts the calls to the global operator new that one
// operation makes on a 1K-row and on a 16K-row input; the counts must be
// equal, so no step allocates per row, nor per doubling of a growing buffer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "exec/aggregator.h"
#include "exec/join_hash_table.h"
#include "exec/join_prober.h"
#include "hdfs/format.h"
#include "types/batch_scatter.h"
#include "types/record_batch.h"
#include "workload/generator.h"

namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

// Counting replacements of the global allocation functions. The aligned
// and nothrow forms keep their defaults, which pair among themselves.
// These operators are malloc and free, so GCC's new/free pairing warning
// does not apply.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hybridjoin {
namespace {

constexpr size_t kSmall = 1024;
constexpr size_t kLarge = 16 * 1024;

/// Heap allocations `fn` makes on the calling thread.
template <typename Fn>
int64_t Allocations(Fn&& fn) {
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

SchemaPtr KeyedStrings() {
  return Schema::Make({{"k", DataType::kInt32}, {"s", DataType::kString}});
}

/// Row i: key i and a paper-style 19-22 byte group string, past any
/// short-string buffer; `distinct` bounds the distinct strings.
RecordBatch StringBatch(size_t rows, size_t distinct = SIZE_MAX) {
  RecordBatch b(KeyedStrings());
  char buf[64];
  for (size_t i = 0; i < rows; ++i) {
    const size_t v = (i * 7919) % std::min(rows, distinct);
    std::snprintf(buf, sizeof(buf), "g%zu/products/item%05zu", v % 200, v);
    b.mutable_column(0).mutable_i32().push_back(static_cast<int32_t>(i));
    b.mutable_column(1).mutable_str().push_back(buf);
  }
  return b;
}

/// Every third row.
std::vector<uint32_t> EveryThird(size_t rows) {
  std::vector<uint32_t> sel;
  for (uint32_t r = 0; r < rows; r += 3) sel.push_back(r);
  return sel;
}

enum class Encoding { kPlain, kDict, kFsst, kText };

const char* Name(Encoding e) {
  switch (e) {
    case Encoding::kPlain:
      return "plain";
    case Encoding::kDict:
      return "dict";
    case Encoding::kFsst:
      return "fsst";
    case Encoding::kText:
      return "text";
  }
  return "?";
}

/// Decodes the string column of a `rows`-row batch stored as `encoding`,
/// whole or at every third row, and returns the allocations the decode
/// made after checking what it built.
int64_t DecodeAllocations(Encoding encoding, size_t rows, bool selected) {
  const RecordBatch batch =
      StringBatch(rows, encoding == Encoding::kDict ? 64 : SIZE_MAX);
  const ColumnVector& strings = batch.column(1);
  const std::vector<uint32_t> every_third = EveryThird(rows);
  const std::vector<uint32_t>* sel = selected ? &every_third : nullptr;
  const ColumnVector expected =
      selected ? strings.Gather(every_third) : strings;

  if (encoding == Encoding::kText) {
    StoredBlock block;
    block.format = HdfsFormat::kText;
    block.text = std::make_shared<const std::vector<uint8_t>>(
        EncodeText(batch, 0, rows));
    const RowFilter filter = [](const RecordBatch&,
                                std::vector<uint32_t>* rows_kept) {
      size_t out = 0;
      for (uint32_t r : *rows_kept) {
        if (r % 3 == 0) (*rows_kept)[out++] = r;
      }
      rows_kept->resize(out);
      return Status::OK();
    };
    std::vector<uint32_t> scratch;
    scratch.reserve(rows);
    Result<RecordBatch> out = RecordBatch();
    const int64_t n = Allocations([&] {
      out = selected ? DecodeBlockFiltered(block, batch.schema(), {},
                                           {{{0}, filter}, {{1}, nullptr}},
                                           &scratch)
                     : DecodeText(block.text->data(), block.text->size(),
                                  batch.schema(), {0, 1});
    });
    EXPECT_TRUE(out.ok()) << out.status();
    if (out.ok()) {
      EXPECT_EQ(out->column(1).str(), expected.str());
    }
    return n;
  }

  ColumnChunk chunk;
  if (encoding == Encoding::kFsst) {
    chunk = EncodeFsstChunk(strings, TrainFsstTable(strings.str()));
  } else {
    ColumnarWriteOptions options;
    options.codec = Codec::kNone;
    options.enable_dictionary = encoding == Encoding::kDict;
    chunk = EncodeColumnChunk(strings, options);
  }
  EXPECT_EQ(ColEncodingName(chunk.encoding), std::string(Name(encoding)));
  Result<ColumnVector> out = ColumnVector();
  const int64_t n = Allocations(
      [&] { out = DecodeColumnChunk(chunk, DataType::kString, sel); });
  EXPECT_TRUE(out.ok()) << out.status();
  if (out.ok()) {
    EXPECT_EQ(out->str(), expected.str());
  }
  return n;
}

TEST(AllocationTest, StringDecodeDoesNotAllocatePerRow) {
  for (Encoding e : {Encoding::kPlain, Encoding::kDict, Encoding::kFsst,
                     Encoding::kText}) {
    for (bool selected : {false, true}) {
      SCOPED_TRACE(std::string(Name(e)) + (selected ? " at a selection" : ""));
      EXPECT_EQ(DecodeAllocations(e, kLarge, selected),
                DecodeAllocations(e, kSmall, selected));
    }
  }
}

/// DecodeBlockFiltered on one `rows`-row block of the paper's L table
/// stored as the cpu_resident workload stores it: the paper query's L
/// conjuncts pushed onto the chunks, a Bloom probe on joinKey at their
/// survivors, then joinKey's projected neighbours at the Bloom survivors.
/// The first scan warms the selection scratch; returns the allocations of
/// the second.
int64_t FilteredScanAllocations(size_t rows) {
  WorkloadConfig config;
  config.t_rows = 4096;
  config.l_rows = rows;
  config.batch_rows = static_cast<uint32_t>(rows);
  auto workload = Workload::Generate(config, SelectivitySpec{});
  EXPECT_TRUE(workload.ok()) << workload.status();
  const RecordBatch& l = workload->l_batches().front();
  StoredBlock block;
  block.format = HdfsFormat::kColumnar;
  block.num_rows = static_cast<uint32_t>(rows);
  block.columnar = std::make_shared<const ColumnarBlock>(
      EncodeColumnarBlock(l, ColumnarWriteOptions{}));
  const PushdownSplit split =
      SplitPushdown(workload->MakeQuery().hdfs.predicate, l.schema());
  EXPECT_EQ(split.pushed.size(), 2u);
  EXPECT_EQ(split.residual, nullptr);
  BloomFilter bloom(BloomParams::ForKeys(config.num_join_keys));
  for (uint32_t key = 0; key < config.num_join_keys; key += 2) bloom.Add(key);
  const std::vector<ScanStage> stages = {
      {{0},
       [&](const RecordBatch& batch, std::vector<uint32_t>* sel) {
         bloom.MayContainKeys(std::span<const int32_t>(batch.column(0).i32()),
                              sel);
         return Status::OK();
       }},
      {{3, 4}, nullptr}};
  std::vector<uint32_t> scratch;
  Result<RecordBatch> out = RecordBatch();
  auto scan = [&] {
    out = DecodeBlockFiltered(block, l.schema(), split.pushed, stages,
                              &scratch);
  };
  scan();
  const int64_t n = Allocations(scan);
  EXPECT_TRUE(out.ok()) << out.status();
  if (out.ok()) {
    EXPECT_GT(out->num_rows(), 0u);
  }
  return n;
}

TEST(AllocationTest, FilteredScanDoesNotAllocatePerRow) {
  EXPECT_EQ(FilteredScanAllocations(kLarge), FilteredScanAllocations(kSmall));
}

int64_t SerdeAllocations(size_t rows) {
  const RecordBatch batch = StringBatch(rows);
  Result<RecordBatch> back = RecordBatch();
  const int64_t n = Allocations([&] {
    back = RecordBatch::Deserialize(batch.Serialize(), batch.schema());
  });
  EXPECT_TRUE(back.ok()) << back.status();
  if (back.ok()) {
    EXPECT_EQ(back->column(1).str(), batch.column(1).str());
  }
  return n;
}

TEST(AllocationTest, SerdeRoundTripDoesNotAllocatePerRow) {
  EXPECT_EQ(SerdeAllocations(kLarge), SerdeAllocations(kSmall));
}

int64_t GatherAllocations(size_t rows) {
  const RecordBatch batch = StringBatch(rows);
  const ColumnVector& strings = batch.column(1);
  const std::vector<uint32_t> sel = EveryThird(rows);
  ColumnVector appended = strings.Gather({0, 1});
  std::optional<ColumnVector> gathered;
  const int64_t n = Allocations([&] {
    gathered.emplace(strings.Gather(sel));
    appended.GatherAppendFrom(strings, sel.data(), sel.size());
  });
  EXPECT_EQ(gathered->size(), sel.size());
  EXPECT_EQ(appended.size(), sel.size() + 2);
  EXPECT_EQ(appended.str()[2], strings.str()[0]);
  EXPECT_EQ(appended.str()[sel.size() + 1], strings.str()[sel.back()]);
  return n;
}

TEST(AllocationTest, GatherDoesNotAllocatePerRow) {
  EXPECT_EQ(GatherAllocations(kLarge), GatherAllocations(kSmall));
}

/// A warmed scatter's split of `rows` rows into four hashed slots and a hot
/// one, emitting at 1000 rows, and its flush.
int64_t ScatterAllocations(size_t rows) {
  const RecordBatch batch = StringBatch(rows);
  size_t emitted = 0;
  BatchScatter scatter(batch.schema(), 5, 1000,
                       [&](size_t, RecordBatch& out) {
                         emitted += out.num_rows();
                         return Status::OK();
                       });
  auto slot_of = [](int64_t key) -> uint32_t {
    return key % 10 == 0 ? 4 : (static_cast<uint64_t>(key) * 7919) % 4;
  };
  // The first pass sizes the scratch and every pending batch.
  EXPECT_TRUE(scatter.Append(batch, 0, slot_of).ok());
  EXPECT_TRUE(scatter.FlushAll().ok());
  const int64_t n = Allocations([&] {
    EXPECT_TRUE(scatter.Append(batch, 0, slot_of).ok());
    EXPECT_TRUE(scatter.FlushAll().ok());
  });
  EXPECT_EQ(emitted, 2 * rows);
  return n;
}

TEST(AllocationTest, ScatterDoesNotAllocatePerRow) {
  EXPECT_EQ(ScatterAllocations(kLarge), ScatterAllocations(kSmall));
}

/// A warmed prober's probe and flush of `rows` rows, each joining one build
/// row and carrying a string on both sides; grouped by the build string.
int64_t ProbeFlushAllocations(size_t rows) {
  JoinHashTable table(0);
  EXPECT_TRUE(table.AddBatch(StringBatch(rows)).ok());
  table.Finalize();
  HashAggregator agg(AggSpec::CountStar("B.s", /*extract_group=*/true));
  JoinProber prober(&table, KeyedStrings(), "B", KeyedStrings(), "P", 0,
                    nullptr, &agg, nullptr);
  const RecordBatch probe = StringBatch(rows);
  // The first pass sizes the prober's buffers and creates every group.
  EXPECT_TRUE(prober.ProbeBatch(probe).ok());
  EXPECT_TRUE(prober.Flush().ok());
  const int64_t n = Allocations([&] {
    EXPECT_TRUE(prober.ProbeBatch(probe).ok());
    EXPECT_TRUE(prober.Flush().ok());
  });
  EXPECT_EQ(prober.output_rows(), static_cast<int64_t>(2 * rows));
  EXPECT_EQ(agg.num_groups(), 200u);
  return n;
}

TEST(AllocationTest, ProbeFlushDoesNotAllocatePerRow) {
  EXPECT_EQ(ProbeFlushAllocations(kLarge), ProbeFlushAllocations(kSmall));
}

}  // namespace
}  // namespace hybridjoin
