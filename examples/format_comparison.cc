// Shows what the HDFS storage format costs (§5.4 of the paper): writes the
// same log table as delimited text and as the columnar format, then
// compares on-disk size, per-column encodings (plain, rle, dict, and the
// random-access for and fsst), scan bytes with projection pushdown, and
// end-to-end zigzag join time on both.

#include <cstdio>

#include "hybrid/warehouse.h"
#include "workload/loader.h"

using namespace hybridjoin;

namespace {

SimulationConfig ThrottledConfig(uint64_t keys) {
  auto mb = [](double v) {
    return static_cast<uint64_t>(v * 1024 * 1024);
  };
  SimulationConfig c;
  c.db.num_workers = 3;
  c.jen_workers = 3;
  c.bloom.expected_keys = keys;
  c.datanode.disk_read_bps = mb(13);
  c.datanode.cache_read_bps = mb(60);
  c.net.hdfs_nic_bps = mb(12);
  c.net.db_nic_bps = mb(0.25);
  c.net.cross_switch_bps = mb(16);
  return c;
}

}  // namespace

int main() {
  WorkloadConfig wc;
  wc.num_join_keys = 8192;
  wc.t_rows = 128 * 1024;
  wc.l_rows = 512 * 1024;
  auto workload = Workload::Generate(wc, SelectivitySpec{0.1, 0.2, 0.5, 0.5});
  if (!workload.ok()) return 1;

  for (HdfsFormat format : {HdfsFormat::kText, HdfsFormat::kColumnar}) {
    HybridWarehouse warehouse(ThrottledConfig(wc.num_join_keys));
    LoadOptions load;
    load.hdfs.format = format;
    if (!LoadWorkload(&warehouse, *workload, load).ok()) return 1;

    EngineContext& ctx = warehouse.context();
    const uint64_t file_bytes =
        ctx.namenode().FileSize("/warehouse/L").ValueOr(0);
    // The paper's memory asymmetry (5.4): the text table exceeds cluster
    // memory (disk-bound scans every run), the columnar table fits in the
    // page cache (warm scans). Size each node's cache accordingly.
    {
      const uint64_t per_node = file_bytes *
                                ctx.config().hdfs_replication /
                                ctx.num_jen_workers();
      const uint64_t capacity = format == HdfsFormat::kText
                                    ? static_cast<uint64_t>(per_node * 0.4)
                                    : per_node * 4;
      for (uint32_t i = 0; i < ctx.num_jen_workers(); ++i) {
        ctx.datanode(i)->SetCacheCapacity(capacity);
      }
    }
    std::printf("=== %s format ===\n", HdfsFormatName(format));
    std::printf("table size: %.1f MB (%.1f bytes/row)\n",
                file_bytes / 1048576.0,
                static_cast<double>(file_bytes) / wc.l_rows);

    if (format == HdfsFormat::kColumnar) {
      // Peek at the first block's encodings.
      auto blocks = ctx.namenode().GetBlocks("/warehouse/L");
      if (blocks.ok() && !blocks->empty()) {
        auto stored = ctx.datanode((*blocks)[0].replicas[0].node)
                          ->Fetch((*blocks)[0].block_id);
        if (stored.ok()) {
          const SchemaPtr& schema = Workload::LSchema();
          std::printf("per-column encodings of block 0 (for and fsst are "
                      "read at a scan's survivors only):\n");
          for (size_t c = 0; c < (*stored)->columnar->chunks.size(); ++c) {
            const ColumnChunk& chunk = (*stored)->columnar->chunks[c];
            std::printf("  %-18s %-6s codec=%-5s %8zu bytes %5.2f B/row%s\n",
                        schema->field(c).name.c_str(),
                        ColEncodingName(chunk.encoding),
                        CodecName(chunk.codec), chunk.data.size(),
                        static_cast<double>(chunk.data.size()) /
                            chunk.num_rows,
                        chunk.has_stats ? "  [min/max]" : "");
          }
        }
      }
    }

    const HybridQuery query = workload->MakeQuery();
    (void)warehouse.Execute(query, JoinAlgorithm::kZigzag);  // warm
    auto result = warehouse.Execute(query, JoinAlgorithm::kZigzag);
    if (!result.ok()) return 1;
    std::printf("zigzag join: %.3f s, HDFS bytes read %.1f MB "
                "(projection pushdown %s)\n\n",
                result->report.wall_seconds,
                result->report.Counter(metric::kHdfsBytesRead) / 1048576.0,
                format == HdfsFormat::kColumnar ? "on" : "n/a");
  }
  return 0;
}
