// Shared settings of the benches that run the paper's workload: the scaled
// workload and cluster size, the throttled testbed configuration, the
// printed preamble and shape-check lines, and the {"rows": [...]} writer
// every BENCH_*.json goes through.
//
// Environment overrides:
//   HJ_BENCH_TROWS / HJ_BENCH_LROWS / HJ_BENCH_KEYS   workload scale
//   HJ_BENCH_DBW / HJ_BENCH_JENW                      worker counts
//   HJ_BENCH_REPEATS                                  measured runs per cell
//   HJ_BENCH_SMOKE=1                                  tiny everything (CI)

#ifndef HYBRIDJOIN_BENCH_BENCH_COMMON_H_
#define HYBRIDJOIN_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "hybrid/warehouse.h"
#include "obs/json.h"
#include "workload/loader.h"

namespace hybridjoin {
namespace bench {

struct BenchConfig {
  WorkloadConfig workload;
  uint32_t db_workers = 4;
  uint32_t jen_workers = 4;
  int repeats = 1;

  static BenchConfig FromEnv() {
    BenchConfig c;
    c.workload.num_join_keys = 8192;
    c.workload.t_rows = 512 * 1024;
    c.workload.l_rows = 1200 * 1024;
    c.workload.num_groups = 200;
    auto env_u64 = [](const char* name, uint64_t* out) {
      if (const char* v = std::getenv(name)) *out = std::strtoull(v, nullptr, 10);
    };
    if (const char* smoke = std::getenv("HJ_BENCH_SMOKE");
        smoke != nullptr && smoke[0] == '1') {
      c.workload.num_join_keys = 1024;
      c.workload.t_rows = 12000;
      c.workload.l_rows = 48000;
    }
    env_u64("HJ_BENCH_TROWS", &c.workload.t_rows);
    env_u64("HJ_BENCH_LROWS", &c.workload.l_rows);
    env_u64("HJ_BENCH_KEYS", &c.workload.num_join_keys);
    uint64_t db_workers = c.db_workers;
    uint64_t jen_workers = c.jen_workers;
    env_u64("HJ_BENCH_DBW", &db_workers);
    env_u64("HJ_BENCH_JENW", &jen_workers);
    c.db_workers = static_cast<uint32_t>(db_workers);
    c.jen_workers = static_cast<uint32_t>(jen_workers);
    if (const char* v = std::getenv("HJ_BENCH_REPEATS")) {
      c.repeats = std::atoi(v);
      if (c.repeats < 1) c.repeats = 1;
    }
    return c;
  }
};

/// The scaled testbed bandwidths (see DESIGN.md for the derivation from the
/// paper's 1 GbE / 10 GbE / 20 Gbit / 4-disk configuration).
inline SimulationConfig MakeSimConfig(const BenchConfig& bench) {
  auto mb = [](double v) {
    return static_cast<uint64_t>(v * 1024.0 * 1024.0);
  };
  SimulationConfig c;
  c.db.num_workers = bench.db_workers;
  c.jen_workers = bench.jen_workers;
  c.bloom.expected_keys = bench.workload.num_join_keys;
  c.datanode.num_disks = 2;
  c.datanode.disk_read_bps = mb(8);     // cold sequential, per disk
  c.datanode.cache_read_bps = mb(60);   // warm page-cache reads
  c.net.hdfs_nic_bps = mb(12);          // "1 GbE" class
  // Effective per-DB-worker ingest/exchange bandwidth. Deliberately low:
  // the paper under-provisions the DPF cluster ("to mimic the case that
  // the database is more heavily utilized") and ingesting HDFS rows into
  // the EDW costs UDF processing + an internal reshuffle on top of raw
  // network transfer.
  c.net.db_nic_bps = mb(0.25);
  c.net.cross_switch_bps = mb(16);      // "20 Gbit" inter-cluster switch
  c.jen.send_threads = 1;               // modest host parallelism
  return c;
}

/// Header printed by every bench.
inline void PrintPreamble(const char* exhibit, const char* description,
                          const BenchConfig& bench) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", exhibit, description);
  std::printf(
      "workload: %llu T rows, %llu L rows, %llu join keys; "
      "%u DB workers, %u JEN workers, %d repeat(s)\n",
      static_cast<unsigned long long>(bench.workload.t_rows),
      static_cast<unsigned long long>(bench.workload.l_rows),
      static_cast<unsigned long long>(bench.workload.num_join_keys),
      bench.db_workers, bench.jen_workers, bench.repeats);
  std::printf("==========================================================\n");
}

/// Records a qualitative shape check ("who wins") in the output.
inline void ShapeCheck(const char* claim, bool holds) {
  std::printf("shape-check: %-58s %s\n", claim, holds ? "[OK]" : "[MISS]");
}

/// Writes `rows` as {"rows": [...]}, one row per line so a baseline diffs by
/// row. Each row names itself with a "name" member, which perfcheck keys
/// the array by. False when the file cannot be written.
inline bool WriteRows(const std::string& path,
                      const std::vector<obs::JsonValue>& rows) {
  std::ofstream out(path);
  out << "{\"rows\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << rows[i].Dump();
  }
  if (!(out << "\n]}\n").flush()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("\nwrote %zu rows to %s\n", rows.size(), path.c_str());
  return true;
}

}  // namespace bench
}  // namespace hybridjoin

#endif  // HYBRIDJOIN_BENCH_BENCH_COMMON_H_
