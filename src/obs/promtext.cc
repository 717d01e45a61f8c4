#include "obs/promtext.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <vector>

namespace hybridjoin {
namespace obs {

namespace {

/// Bucket upper bounds (seconds) for histogram exposition. Chosen to
/// bracket the engine's latency spans (µs-scale morsel work up to
/// minute-scale queries); values recorded in non-time units (row
/// magnitudes) still render consistently, just with second-labeled bounds.
constexpr double kBucketBoundsSeconds[] = {
    0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 600.0,
};

std::string FormatNumber(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
        c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (i == 0 ? !alpha : !(alpha || digit)) return false;
  }
  return true;
}

bool ValidLabelName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    const bool digit = c >= '0' && c <= '9';
    if (i == 0 ? !alpha : !(alpha || digit)) return false;
  }
  return true;
}

bool ParseSampleValue(const std::string& text, double* out) {
  if (text == "+Inf" || text == "Inf") {
    *out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (text == "-Inf") {
    *out = -std::numeric_limits<double>::infinity();
    return true;
  }
  if (text == "NaN") {
    *out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && end != text.c_str();
}

struct ParsedSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;
};

Status ParseSampleLine(const std::string& line, size_t line_no,
                       ParsedSample* out) {
  const auto fail = [line_no](const std::string& what) {
    return Status::InvalidArgument("promtext line " +
                                   std::to_string(line_no) + ": " + what);
  };
  size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  out->name = line.substr(0, i);
  if (!ValidMetricName(out->name)) {
    return fail("invalid metric name '" + out->name + "'");
  }
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      size_t eq = line.find('=', i);
      if (eq == std::string::npos) return fail("label without '='");
      std::string lname = line.substr(i, eq - i);
      if (!ValidLabelName(lname)) {
        return fail("invalid label name '" + lname + "'");
      }
      i = eq + 1;
      if (i >= line.size() || line[i] != '"') {
        return fail("label value not quoted");
      }
      ++i;
      std::string lvalue;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\') {
          ++i;
          if (i >= line.size()) return fail("dangling escape");
        }
        lvalue += line[i];
        ++i;
      }
      if (i >= line.size()) return fail("unterminated label value");
      ++i;  // closing quote
      out->labels.emplace_back(std::move(lname), std::move(lvalue));
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size() || line[i] != '}') {
      return fail("unterminated label set");
    }
    ++i;
  }
  if (i >= line.size() || line[i] != ' ') {
    return fail("missing sample value");
  }
  ++i;
  // Value, optionally followed by a timestamp (which we don't emit but
  // tolerate).
  size_t sp = line.find(' ', i);
  const std::string value_text =
      sp == std::string::npos ? line.substr(i) : line.substr(i, sp - i);
  if (!ParseSampleValue(value_text, &out->value)) {
    return fail("unparseable value '" + value_text + "'");
  }
  return Status::OK();
}

/// Per-histogram validation state accumulated across its sample lines.
struct HistogramState {
  double last_le = -std::numeric_limits<double>::infinity();
  double last_bucket_value = -1.0;
  bool has_inf = false;
  double inf_value = 0.0;
  bool has_sum = false;
  bool has_count = false;
  double count_value = 0.0;
};

}  // namespace

std::string PrometheusName(const std::string& engine_name) {
  std::string out = "hj_";
  out.reserve(engine_name.size() + 3);
  for (const char c : engine_name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string RenderPrometheus(Metrics& metrics) {
  std::string out;
  // A series' type is its record's: a cell written with Max or Set is a
  // gauge, one written with Add a counter.
  std::set<std::string> gauges;
  for (const auto& [name, value] : metrics.Snapshot(&gauges)) {
    const bool gauge = gauges.count(name) != 0;
    const std::string pname =
        PrometheusName(name) + (gauge ? "" : "_total");
    out += "# HELP " + pname + " Engine series " + name + "\n";
    out += "# TYPE " + pname + (gauge ? " gauge\n" : " counter\n");
    out += pname + " " + FormatNumber(static_cast<double>(value)) + "\n";
  }
  // Every figure of one histogram comes from its single Counts copy, so the
  // `le` buckets, `+Inf` and `_count` agree even while Record calls race
  // the render.
  for (const auto& [name, counts] : metrics.HistogramCounts()) {
    const std::string count = FormatNumber(static_cast<double>(counts.Count()));
    const std::string pname = PrometheusName(name);
    out += "# HELP " + pname + " Engine histogram " + name + "\n";
    out += "# TYPE " + pname + " histogram\n";
    for (const double bound : kBucketBoundsSeconds) {
      const int64_t micros = static_cast<int64_t>(bound * 1e6);
      out += pname + "_bucket{le=\"" + FormatNumber(bound) + "\"} " +
             FormatNumber(static_cast<double>(
                 counts.CountAtOrBelowMicros(micros))) +
             "\n";
    }
    out += pname + "_bucket{le=\"+Inf\"} " + count + "\n";
    out += pname + "_sum " +
           FormatNumber(static_cast<double>(counts.total_micros) * 1e-6) +
           "\n";
    out += pname + "_count " + count + "\n";
  }
  return out;
}

Status ValidatePrometheus(const std::string& text) {
  std::map<std::string, std::string> types;  // pname -> TYPE
  std::set<std::string> sampled;             // pnames with samples seen
  std::map<std::string, HistogramState> histograms;
  size_t line_no = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    const auto fail = [line_no](const std::string& what) {
      return Status::InvalidArgument(
          "promtext line " + std::to_string(line_no) + ": " + what);
    };
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# HELP name text" / "# TYPE name kind" / free-form comment.
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        const bool is_type = line.rfind("# TYPE ", 0) == 0;
        const std::string rest = line.substr(7);
        const size_t sp = rest.find(' ');
        const std::string name =
            sp == std::string::npos ? rest : rest.substr(0, sp);
        if (!ValidMetricName(name)) {
          return fail("invalid metric name in comment: '" + name + "'");
        }
        if (is_type) {
          const std::string kind =
              sp == std::string::npos ? "" : rest.substr(sp + 1);
          if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
              kind != "summary" && kind != "untyped") {
            return fail("unknown TYPE '" + kind + "'");
          }
          if (types.count(name) != 0) {
            return fail("duplicate TYPE for " + name);
          }
          if (sampled.count(name) != 0) {
            return fail("TYPE for " + name + " after its samples");
          }
          types[name] = kind;
          if (kind == "histogram") histograms[name];  // expect series
        }
      }
      continue;
    }
    ParsedSample sample;
    HJ_RETURN_IF_ERROR(ParseSampleLine(line, line_no, &sample));

    // Resolve which declared family this sample belongs to: histogram
    // children map back to their base name.
    std::string family = sample.name;
    bool is_bucket = false, is_sum = false, is_count = false;
    for (const auto& [base, state] : histograms) {
      (void)state;
      if (sample.name == base + "_bucket") {
        family = base;
        is_bucket = true;
      } else if (sample.name == base + "_sum") {
        family = base;
        is_sum = true;
      } else if (sample.name == base + "_count") {
        family = base;
        is_count = true;
      }
    }
    if (types.count(family) == 0) {
      return fail("sample for " + sample.name + " without a TYPE");
    }
    sampled.insert(family);
    sampled.insert(sample.name);

    if (is_bucket) {
      HistogramState& st = histograms[family];
      double le = 0.0;
      bool found_le = false;
      for (const auto& [lname, lvalue] : sample.labels) {
        if (lname == "le") {
          found_le = true;
          if (!ParseSampleValue(lvalue, &le)) {
            return fail("unparseable le '" + lvalue + "'");
          }
        }
      }
      if (!found_le) return fail("bucket sample without le label");
      if (le <= st.last_le) {
        return fail("histogram " + family + " buckets out of order");
      }
      if (sample.value < st.last_bucket_value) {
        return fail("histogram " + family +
                    " cumulative bucket counts decrease");
      }
      st.last_le = le;
      st.last_bucket_value = sample.value;
      if (std::isinf(le)) {
        st.has_inf = true;
        st.inf_value = sample.value;
      }
    } else if (is_sum) {
      histograms[family].has_sum = true;
    } else if (is_count) {
      HistogramState& st = histograms[family];
      st.has_count = true;
      st.count_value = sample.value;
    } else if (types[family] == "histogram") {
      return fail("bare sample for histogram " + family);
    }
  }
  for (const auto& [base, st] : histograms) {
    if (sampled.count(base) == 0) continue;  // declared but no samples
    if (!st.has_inf) {
      return Status::InvalidArgument("promtext: histogram " + base +
                                     " missing +Inf bucket");
    }
    if (!st.has_sum || !st.has_count) {
      return Status::InvalidArgument("promtext: histogram " + base +
                                     " missing _sum/_count");
    }
    if (st.count_value != st.inf_value) {
      return Status::InvalidArgument("promtext: histogram " + base +
                                     " _count != +Inf bucket");
    }
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace hybridjoin
