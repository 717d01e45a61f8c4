#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.h"

namespace hybridjoin {
namespace obs {

namespace {

struct PhaseRule {
  const char* name;
  const char* phase;
};

/// Exact metric/span name -> canonical phase. Names not listed fall through
/// to the prefix rules below.
constexpr PhaseRule kExactRules[] = {
    {"jen.tuples_scanned", "scan"},
    {"jen.tuples_after_filter", "scan"},
    {"edw.tuples_scanned", "scan"},
    {"edw.tuples_after_filter", "scan"},
    {"jen.scan", "scan"},
    {"jen.read_block", "scan"},
    {"jen.queue_wait", "scan"},
    {"edw.scan", "scan"},
    {"jen.tuples_shuffled", "shuffle"},
    {"edw.tuples_shuffled_internal", "shuffle"},
    {"jen.shuffle", "shuffle"},
    {"jen.tuples_sent_to_db", "transfer"},
    {"edw.tuples_sent_to_hdfs", "transfer"},
    {"edw.ingest", "transfer"},
    {"edw.bloom_build", "bloom"},
    {"jen.build", "build"},
    {"join.output_tuples", "probe"},
    {"join.band_visited", "probe"},
    {"jen.probe", "probe"},
    {"edw.join", "probe"},
    {"jen.aggregate", "aggregate"},
    {"join.spill_bytes", "spill"},
    {"join.spill_bytes_read", "spill"},
    {"join.spill_partitions", "spill"},
    {"join.repartition_depth", "spill"},
    {"join.mem_peak_bytes", "driver"},
    {"shuffle.hot_keys", "shuffle"},
    {"shuffle.broadcast_bytes", "shuffle"},
    {"shuffle.hot_rows_build", "shuffle"},
    {"shuffle.hot_rows_probe", "shuffle"},
    {"jen.worker_wall_us", "driver"},
};

struct PrefixRule {
  const char* prefix;
  const char* phase;
};

constexpr PrefixRule kPrefixRules[] = {
    {"bloom.", "bloom"},   {"semijoin.", "bloom"}, {"join.ht_", "build"},
    {"join.build_", "build"}, {"hdfs.", "scan"},   {"net.", "transfer"},
    {"driver.", "driver"}, {"advisor.", "driver"},
};

struct GroupStats {
  int64_t min = 0;
  int64_t max = 0;
  double mean = 0.0;
  double median = 0.0;
  double skew = 0.0;
};

GroupStats StatsOver(const std::map<std::string, int64_t>& per_node) {
  GroupStats s;
  if (per_node.empty()) return s;
  std::vector<int64_t> values;
  values.reserve(per_node.size());
  for (const auto& [node, v] : per_node) values.push_back(v);
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  double sum = 0.0;
  for (const int64_t v : values) sum += static_cast<double>(v);
  s.mean = sum / static_cast<double>(values.size());
  const size_t n = values.size();
  s.median = (n % 2 == 1)
                 ? static_cast<double>(values[n / 2])
                 : (static_cast<double>(values[n / 2 - 1]) +
                    static_cast<double>(values[n / 2])) /
                       2.0;
  s.skew = s.mean > 0.0 ? static_cast<double>(s.max) / s.mean : 0.0;
  return s;
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.0fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  }
  return buf;
}

std::string FormatSkew(double skew) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.2fx", skew);
  return buf;
}

}  // namespace

JsonValue SummaryToJson(const HistogramSummary& s) {
  JsonValue o = JsonValue::Object();
  o.Set("count", JsonValue::Int(s.count));
  o.Set("total_seconds", JsonValue::Number(s.total_seconds));
  o.Set("min_seconds", JsonValue::Number(s.min_seconds));
  o.Set("max_seconds", JsonValue::Number(s.max_seconds));
  o.Set("p50_seconds", JsonValue::Number(s.p50_seconds));
  o.Set("p95_seconds", JsonValue::Number(s.p95_seconds));
  o.Set("p99_seconds", JsonValue::Number(s.p99_seconds));
  return o;
}

const std::vector<std::string>& CanonicalPhases() {
  static const std::vector<std::string> kPhases = {
      "bloom", "scan",  "shuffle", "transfer", "build",
      "probe", "aggregate", "spill", "driver",  "other"};
  return kPhases;
}

const char* PhaseForMetric(const std::string& name) {
  for (const PhaseRule& rule : kExactRules) {
    if (name == rule.name) return rule.phase;
  }
  for (const PrefixRule& rule : kPrefixRules) {
    if (name.rfind(rule.prefix, 0) == 0) return rule.phase;
  }
  return "other";
}

const ProfileCounterRow* QueryProfile::FindCounter(
    const std::string& phase, const std::string& name) const {
  for (const ProfilePhase& p : phases) {
    if (p.name != phase) continue;
    for (const ProfileCounterRow& row : p.counters) {
      if (row.name == name) return &row;
    }
  }
  return nullptr;
}

QueryProfile AssembleProfile(uint64_t query_id, const std::string& algorithm,
                             double wall_seconds,
                             const std::vector<NodeProfileSnapshot>& nodes,
                             const std::string& trace_file) {
  QueryProfile profile;
  profile.query_id = query_id;
  profile.algorithm = algorithm;
  profile.wall_seconds = wall_seconds;
  profile.trace_file = trace_file;

  // phase -> name -> row, one cell per node. A metric's phase is a pure
  // function of its name.
  std::map<std::string, std::map<std::string, ProfileCounterRow>> counters;
  std::map<std::string,
           std::map<std::string, std::map<std::string, HistogramSummary>>>
      histograms;

  for (const NodeProfileSnapshot& snap : nodes) {
    profile.worker_wall_us[snap.node] = snap.wall_us;
    for (const auto& [name, counter] : snap.metrics.counters) {
      ProfileCounterRow& row = counters[PhaseForMetric(name)][name];
      row.name = name;
      row.gauge = row.gauge || counter.gauge;
      row.per_node[snap.node] = counter.value;
    }
    for (const auto& [name, summary] : snap.metrics.histograms) {
      histograms[PhaseForMetric(name)][name][snap.node] = summary;
    }
  }

  for (auto& [phase, rows] : counters) {
    for (auto& [name, row] : rows) {
      const GroupStats stats = StatsOver(row.per_node);
      row.min = stats.min;
      row.max = stats.max;
      row.mean = stats.mean;
      row.median = stats.median;
      row.skew = stats.skew;
      row.total = 0;
      for (const auto& [node, v] : row.per_node) {
        row.total = row.gauge ? std::max(row.total, v) : row.total + v;
      }
      profile.global_counters[name] = row.total;
    }
  }
  std::erase_if(profile.global_counters,
                [](const auto& counter) { return counter.second == 0; });

  const GroupStats wall_stats = StatsOver(profile.worker_wall_us);
  profile.worker_wall_skew = wall_stats.skew;

  for (const std::string& phase : CanonicalPhases()) {
    auto counter_it = counters.find(phase);
    auto hist_it = histograms.find(phase);
    if (counter_it == counters.end() && hist_it == histograms.end()) {
      continue;
    }
    ProfilePhase p;
    p.name = phase;
    if (counter_it != counters.end()) {
      for (auto& [name, row] : counter_it->second) {
        p.counters.push_back(std::move(row));
      }
    }
    if (hist_it != histograms.end()) {
      for (auto& [name, per_node] : hist_it->second) {
        ProfileHistogramRow row;
        row.name = name;
        row.per_node = std::move(per_node);
        p.histograms.push_back(std::move(row));
      }
    }
    profile.phases.push_back(std::move(p));
  }
  return profile;
}

std::string QueryProfile::ToText() const {
  std::ostringstream out;
  out << "query profile: id=" << query_id << "  algorithm=" << algorithm
      << "  wall=" << FormatSeconds(wall_seconds) << "  nodes="
      << worker_wall_us.size() << "\n";

  if (!worker_wall_us.empty()) {
    const GroupStats stats = StatsOver(worker_wall_us);
    std::string straggler;
    for (const auto& [node, wall] : worker_wall_us) {
      if (wall == stats.max) straggler = node;
    }
    out << "├─ workers: wall mean=" << FormatSeconds(stats.mean * 1e-6)
        << " max=" << FormatSeconds(static_cast<double>(stats.max) * 1e-6)
        << " (" << straggler << ")  skew=" << FormatSkew(stats.skew) << "\n";
    if (worker_wall_us.size() <= 8) {
      out << "│    per-node:";
      for (const auto& [node, wall] : worker_wall_us) {
        out << " " << node << "="
            << FormatSeconds(static_cast<double>(wall) * 1e-6);
      }
      out << "\n";
    }
  }

  for (size_t i = 0; i < phases.size(); ++i) {
    const ProfilePhase& phase = phases[i];
    const bool last_phase = (i + 1 == phases.size()) && trace_file.empty();
    const char* stem = last_phase ? "└─" : "├─";
    const char* bar = last_phase ? "   " : "│  ";
    out << stem << " phase " << phase.name << "\n";
    const size_t rows = phase.counters.size() + phase.histograms.size();
    size_t r = 0;
    for (const ProfileCounterRow& row : phase.counters) {
      const bool last_row = ++r == rows;
      out << bar << (last_row ? "└─ " : "├─ ") << row.name
          << "  total=" << row.total;
      if (row.per_node.size() > 1) {
        out << "  min=" << row.min << " med=" << row.median
            << " max=" << row.max << "  skew=" << FormatSkew(row.skew);
      }
      if (row.gauge) out << "  (gauge: max over nodes)";
      out << "\n";
      if (row.per_node.size() > 1 && row.per_node.size() <= 8) {
        out << bar << (last_row ? "   " : "│  ") << "  per-node:";
        for (const auto& [node, v] : row.per_node) {
          out << " " << node << "=" << v;
        }
        out << "\n";
      }
    }
    for (const ProfileHistogramRow& row : phase.histograms) {
      const bool last_row = ++r == rows;
      out << bar << (last_row ? "└─ " : "├─ ") << row.name << " (latency)";
      if (row.per_node.size() <= 8) {
        for (const auto& [node, s] : row.per_node) {
          out << "  " << node << ": n=" << s.count
              << " p95=" << FormatSeconds(s.p95_seconds)
              << " total=" << FormatSeconds(s.total_seconds);
        }
      } else {
        int64_t n = 0;
        double total = 0.0;
        for (const auto& [node, s] : row.per_node) {
          n += s.count;
          total += s.total_seconds;
        }
        out << "  " << row.per_node.size() << " nodes, n=" << n
            << " total=" << FormatSeconds(total);
      }
      out << "\n";
    }
  }
  if (!trace_file.empty()) {
    out << "└─ trace: " << trace_file << "\n";
  }
  return out.str();
}

std::string QueryProfile::ToJson() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema_version", JsonValue::Int(1));
  doc.Set("query_id", JsonValue::Int(static_cast<int64_t>(query_id)));
  doc.Set("algorithm", JsonValue::Str(algorithm));
  doc.Set("wall_seconds", JsonValue::Number(wall_seconds));
  doc.Set("trace_file", JsonValue::Str(trace_file));

  JsonValue workers = JsonValue::Object();
  JsonValue wall = JsonValue::Object();
  for (const auto& [node, us] : worker_wall_us) {
    wall.Set(node, JsonValue::Int(us));
  }
  workers.Set("wall_us", std::move(wall));
  workers.Set("skew", JsonValue::Number(worker_wall_skew));
  doc.Set("workers", std::move(workers));

  JsonValue phase_arr = JsonValue::Array();
  for (const ProfilePhase& phase : phases) {
    JsonValue p = JsonValue::Object();
    p.Set("name", JsonValue::Str(phase.name));
    JsonValue counter_arr = JsonValue::Array();
    for (const ProfileCounterRow& row : phase.counters) {
      JsonValue c = JsonValue::Object();
      c.Set("name", JsonValue::Str(row.name));
      c.Set("gauge", JsonValue::Bool(row.gauge));
      c.Set("total", JsonValue::Int(row.total));
      c.Set("min", JsonValue::Int(row.min));
      c.Set("max", JsonValue::Int(row.max));
      c.Set("mean", JsonValue::Number(row.mean));
      c.Set("median", JsonValue::Number(row.median));
      c.Set("skew", JsonValue::Number(row.skew));
      JsonValue per_node = JsonValue::Object();
      for (const auto& [node, v] : row.per_node) {
        per_node.Set(node, JsonValue::Int(v));
      }
      c.Set("per_node", std::move(per_node));
      counter_arr.Append(std::move(c));
    }
    p.Set("counters", std::move(counter_arr));
    JsonValue hist_arr = JsonValue::Array();
    for (const ProfileHistogramRow& row : phase.histograms) {
      JsonValue h = JsonValue::Object();
      h.Set("name", JsonValue::Str(row.name));
      JsonValue per_node = JsonValue::Object();
      for (const auto& [node, s] : row.per_node) {
        per_node.Set(node, SummaryToJson(s));
      }
      h.Set("per_node", std::move(per_node));
      hist_arr.Append(std::move(h));
    }
    p.Set("histograms", std::move(hist_arr));
    phase_arr.Append(std::move(p));
  }
  doc.Set("phases", std::move(phase_arr));

  JsonValue totals = JsonValue::Object();
  for (const auto& [name, v] : global_counters) {
    totals.Set(name, JsonValue::Int(v));
  }
  doc.Set("counters_total", std::move(totals));

  JsonValue bytes = JsonValue::Object();
  for (const auto& [name, v] : network_bytes) {
    bytes.Set(name, JsonValue::Int(v));
  }
  doc.Set("network_bytes", std::move(bytes));

  JsonValue spans = JsonValue::Object();
  for (const auto& [name, s] : span_histograms) {
    spans.Set(name, SummaryToJson(s));
  }
  doc.Set("span_histograms", std::move(spans));

  return doc.Dump(2) + "\n";
}

Status QueryProfile::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("could not open '" + path + "' for writing");
  }
  out << ToJson();
  out.close();
  if (!out.good()) {
    return Status::IOError("failed writing profile to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace hybridjoin
