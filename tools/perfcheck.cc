// perfcheck: the perf-regression gate. Compares a current profile/bench
// JSON against a committed baseline and exits non-zero when a gated metric
// family regresses past its threshold.
//
//   perfcheck [flags] baseline.json current.json
//
//   --max_wall_pct=20    max wall-time increase, % of baseline
//   --max_bytes_pct=25   max bytes-moved increase, % of baseline
//   --max_skew=0.5       max absolute increase on skew leaves
//   --max_overhead_pct=2 absolute ceiling on *overhead_pct* leaves
//   --min_wall_s=0.005   ignore wall leaves whose baseline is below this
//
// Exit codes: 0 = within thresholds, 1 = regression(s), 2 = usage or IO
// error, or a document with two leaves on one path. Works on any JSON the
// repo emits (profile --profile_out output, BENCH_*.json) — see
// src/obs/perfcheck.h for the comparison rules.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/perfcheck.h"

namespace {

using hybridjoin::obs::ComparePerf;
using hybridjoin::obs::JsonValue;
using hybridjoin::obs::PerfcheckFinding;
using hybridjoin::obs::PerfcheckOptions;
using hybridjoin::obs::PerfcheckResult;

constexpr const char kUsage[] =
    "usage: perfcheck [--max_wall_pct=N] [--max_bytes_pct=N] [--max_skew=N]\n"
    "                 [--max_overhead_pct=N] [--min_wall_s=N]\n"
    "                 baseline.json current.json\n";

bool ParseDoubleFlag(const char* arg, const char* name, double* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  char* end = nullptr;
  const double v = std::strtod(arg + n + 1, &end);
  if (end == arg + n + 1 || *end != '\0') {
    std::fprintf(stderr, "perfcheck: bad value for %s\n", name);
    std::exit(2);
  }
  *out = v;
  return true;
}

JsonValue LoadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "perfcheck: cannot open '%s'\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = JsonValue::Parse(buf.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfcheck: '%s': %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(parsed).value();
}

}  // namespace

int main(int argc, char** argv) {
  PerfcheckOptions options;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (ParseDoubleFlag(arg, "--max_wall_pct", &options.max_wall_pct) ||
        ParseDoubleFlag(arg, "--max_bytes_pct", &options.max_bytes_pct) ||
        ParseDoubleFlag(arg, "--max_skew", &options.max_skew_increase) ||
        ParseDoubleFlag(arg, "--max_overhead_pct",
                        &options.max_overhead_pct) ||
        ParseDoubleFlag(arg, "--min_wall_s", &options.min_wall_seconds)) {
      continue;
    }
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "perfcheck: unknown flag '%s'\n%s", arg, kUsage);
      return 2;
    }
    files.push_back(arg);
  }
  if (files.size() != 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  const JsonValue baseline = LoadJson(files[0]);
  const JsonValue current = LoadJson(files[1]);
  const auto compared = ComparePerf(baseline, current, options);
  if (!compared.ok()) {
    std::fprintf(stderr, "perfcheck: %s vs %s: %s\n", files[0].c_str(),
                 files[1].c_str(), compared.status().ToString().c_str());
    return 2;
  }
  const PerfcheckResult& result = *compared;

  std::printf("perfcheck: %s vs %s — %zu gated leaves compared\n",
              files[0].c_str(), files[1].c_str(), result.leaves_compared);
  if (result.regressions.empty()) {
    std::printf("perfcheck: OK (no regression past thresholds: wall +%.0f%%, "
                "bytes +%.0f%%, skew +%.2f, overhead ceiling %.1f%%)\n",
                options.max_wall_pct, options.max_bytes_pct,
                options.max_skew_increase, options.max_overhead_pct);
    return 0;
  }
  for (const PerfcheckFinding& f : result.regressions) {
    std::printf("perfcheck: REGRESSION %s\n", f.message.c_str());
  }
  std::printf("perfcheck: FAIL — %zu regression(s)\n",
              result.regressions.size());
  return 1;
}
