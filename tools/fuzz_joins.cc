// Randomized differential fuzzer for the join algorithms (docs/testing.md).
//
// Runs seeded differential cases — every algorithm variant against the
// single-node reference executor — under one or more fault profiles, and
// reports any seed whose outcome is unacceptable (a mismatch, or a non-OK
// status under a recoverable profile). Every failure reproduces with
//
//   fuzz_joins --seed=N --profiles=<profile>
//
// A watchdog aborts the process (exit 3) with the reproducing seed if a
// single case exceeds --case_timeout_ms, so an engine hang can never hang
// the fuzzer itself.
//
// Flags:
//   --seeds=N            number of seeds to run (default 200)
//   --start_seed=S       first seed (default 1)
//   --seed=N             run exactly one seed (overrides --seeds/--start_seed)
//   --profiles=a,b,c     fault profiles (default none,delays,flaky,lossy)
//   --recv_timeout_ms=T  per-receive timeout inside the engine (default 5000)
//   --exec_threads=N     intra-node morsel threads per simulated worker
//                        (default 1 = the historical single-threaded engine;
//                        > 1 sweeps the morsel-parallel scan/build/probe)
//   --mem_budget_bytes=B per-query memory budget for every variant
//                        (default 0 = unlimited; a small budget, e.g.
//                        65536, forces grace-join spilling on the larger
//                        cases — spilled runs must still match the oracle)
//   --zipf_s=S           Zipf exponent for the join-key draw on both tables
//                        (default 0 = the historical uniform workloads;
//                        e.g. 1.3 concentrates enough mass on the top keys
//                        that the skew-aware hybrid shuffle route engages —
//                        skewed runs must still match the oracle). Cases
//                        are drawn with full key windows, and a run in
//                        which no case kept a hot probe row local fails:
//                        the keep-local route went unexercised
//   --adaptive           add an eighth variant that runs through the
//                        adaptive decision point (ExecuteAuto) with the
//                        pivot hysteresis forced to zero, so every
//                        estimate-vs-observation disagreement pivots
//                        mid-query; the oracle and the other variants stay
//                        static, and the adaptive runs must match them
//   --case_timeout_ms=T  watchdog limit per (seed, profile) case (default 60000)
//   --profile_out=PREFIX write the first case's per-variant query-profile
//                        JSONs to PREFIX.<variant>.json (CI artifact)
//   --out=PATH           write failing "seed profile" pairs here (default
//                        fuzz_failures.txt, only written on failure)
//
// Exit codes: 0 = all cases ok, 1 = failures found (or a --zipf_s run that
// never kept a hot probe row local), 2 = bad usage, 3 = watchdog fired
// (case hang/timeout).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "testing/differential.h"

namespace {

using hybridjoin::testing_support::DiffCaseReport;
using hybridjoin::testing_support::RunDifferentialCase;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Shared with the watchdog thread: what is running and until when.
std::atomic<int64_t> g_deadline_ms{INT64_MAX};
std::atomic<uint64_t> g_seed{0};
std::mutex g_profile_mu;
std::string g_profile;  // guarded by g_profile_mu

void Watchdog() {
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (NowMs() <= g_deadline_ms.load(std::memory_order_acquire)) continue;
    std::string profile;
    {
      std::lock_guard<std::mutex> lock(g_profile_mu);
      profile = g_profile;
    }
    std::fprintf(stderr,
                 "\nWATCHDOG: case exceeded its time limit (engine hang?)\n"
                 "  reproduce: fuzz_joins --seed=%llu --profiles=%s\n",
                 static_cast<unsigned long long>(g_seed.load()),
                 profile.c_str());
    std::fflush(stderr);
    std::_Exit(3);  // hung engine threads cannot be joined
  }
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t num_seeds = 200;
  uint64_t start_seed = 1;
  bool single_seed = false;
  uint64_t recv_timeout_ms = 5000;
  uint32_t exec_threads = 1;
  uint64_t mem_budget_bytes = 0;
  double zipf_s = 0;
  bool adaptive = false;
  int64_t case_timeout_ms = 60000;
  std::string profiles_csv = "none,delays,flaky,lossy";
  std::string out_path = "fuzz_failures.txt";
  std::string profile_out_prefix;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "seeds", &v)) {
      num_seeds = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "start_seed", &v)) {
      start_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "seed", &v)) {
      start_seed = std::strtoull(v.c_str(), nullptr, 10);
      num_seeds = 1;
      single_seed = true;
    } else if (ParseFlag(argv[i], "profiles", &v)) {
      profiles_csv = v;
    } else if (ParseFlag(argv[i], "recv_timeout_ms", &v)) {
      recv_timeout_ms = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "exec_threads", &v)) {
      exec_threads =
          static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
      if (exec_threads == 0) {
        std::fprintf(stderr, "--exec_threads must be >= 1\n");
        return 2;
      }
    } else if (ParseFlag(argv[i], "mem_budget_bytes", &v)) {
      mem_budget_bytes = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "zipf_s", &v)) {
      zipf_s = std::strtod(v.c_str(), nullptr);
      if (zipf_s < 0) {
        std::fprintf(stderr, "--zipf_s must be >= 0\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--adaptive") == 0) {
      adaptive = true;
    } else if (ParseFlag(argv[i], "case_timeout_ms", &v)) {
      case_timeout_ms = std::strtoll(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "profile_out", &v)) {
      profile_out_prefix = v;
    } else if (ParseFlag(argv[i], "out", &v)) {
      out_path = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  const std::vector<std::string> profiles = SplitCsv(profiles_csv);
  if (profiles.empty() || num_seeds == 0) {
    std::fprintf(stderr, "nothing to do (empty --profiles or --seeds=0)\n");
    return 2;
  }

  std::thread(Watchdog).detach();

  struct Failure {
    uint64_t seed;
    std::string profile;
    std::string summary;
  };
  std::vector<Failure> failures;
  uint64_t cases_run = 0;
  int64_t hot_rows_probe = 0;
  const int64_t t0 = NowMs();

  for (uint64_t i = 0; i < num_seeds; ++i) {
    const uint64_t seed = start_seed + i;
    for (const std::string& profile : profiles) {
      g_seed.store(seed);
      {
        std::lock_guard<std::mutex> lock(g_profile_mu);
        g_profile = profile;
      }
      g_deadline_ms.store(NowMs() + case_timeout_ms,
                          std::memory_order_release);
      // Query-profile JSONs are only exported for the first case: one
      // representative set per sweep is what CI archives.
      const std::string case_profile_out =
          (i == 0 && profile == profiles.front()) ? profile_out_prefix : "";
      const DiffCaseReport report =
          RunDifferentialCase(seed, profile, recv_timeout_ms, exec_threads,
                              case_profile_out, mem_budget_bytes, zipf_s,
                              adaptive);
      g_deadline_ms.store(INT64_MAX, std::memory_order_release);
      ++cases_run;
      hot_rows_probe += report.hot_rows_probe;
      if (!report.ok()) {
        failures.push_back({seed, profile, report.Summary()});
        std::fprintf(stderr, "FAIL %s\n", report.Summary().c_str());
      } else if (single_seed) {
        std::printf("%s\n", report.Summary().c_str());
      }
    }
    if (!single_seed && (i + 1) % 10 == 0) {
      std::printf("[%llu/%llu seeds, %llu cases, %lld failures, %.1fs]\n",
                  static_cast<unsigned long long>(i + 1),
                  static_cast<unsigned long long>(num_seeds),
                  static_cast<unsigned long long>(cases_run),
                  static_cast<long long>(failures.size()),
                  (NowMs() - t0) / 1000.0);
      std::fflush(stdout);
    }
  }

  std::printf("fuzz_joins: %llu cases (%llu seeds x %zu profiles), "
              "%zu failures, %.1fs\n",
              static_cast<unsigned long long>(cases_run),
              static_cast<unsigned long long>(num_seeds), profiles.size(),
              failures.size(), (NowMs() - t0) / 1000.0);

  if (zipf_s != 0) {
    std::printf("hot probe rows kept local: %lld\n",
                static_cast<long long>(hot_rows_probe));
    if (hot_rows_probe == 0) {
      std::fprintf(stderr,
                   "no case kept a hot probe row local: the skew route's "
                   "keep-local path went unexercised\n");
      if (failures.empty()) return 1;
    }
  }

  if (!failures.empty()) {
    std::ofstream out(out_path);
    for (const Failure& f : failures) {
      out << f.seed << " " << f.profile << "\n";
    }
    std::printf("failing seeds written to %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
