#include "obs/perfcheck.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

namespace hybridjoin {
namespace obs {

namespace {

/// Array elements that are objects are keyed by their "name" member when
/// present, so reordering an array does not shift every path.
std::string ElementKey(const JsonValue& element, size_t index) {
  const JsonValue* name = element.is_object() ? element.Find("name") : nullptr;
  return name != nullptr && name->is_string() ? name->AsString()
                                              : std::to_string(index);
}

std::string ChildPath(const std::string& prefix, const std::string& key) {
  return prefix.empty() ? key : prefix + "." + key;
}

Status FlattenInto(const JsonValue& v, const std::string& prefix,
                   std::map<std::string, double>* out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNumber:
      if (out->emplace(prefix, v.AsDouble()).second) return Status::OK();
      return Status::InvalidArgument("duplicate path '" + prefix + "'");
    case JsonValue::Kind::kObject:
      for (const auto& [key, member] : v.members()) {
        HJ_RETURN_IF_ERROR(FlattenInto(member, ChildPath(prefix, key), out));
      }
      return Status::OK();
    case JsonValue::Kind::kArray: {
      const auto& items = v.items();
      for (size_t i = 0; i < items.size(); ++i) {
        HJ_RETURN_IF_ERROR(FlattenInto(
            items[i], ChildPath(prefix, ElementKey(items[i], i)), out));
      }
      return Status::OK();
    }
    default:
      return Status::OK();  // strings / bools / nulls are not gated
  }
}

std::string LastSegment(const std::string& path) {
  const size_t dot = path.rfind('.');
  return dot == std::string::npos ? path : path.substr(dot + 1);
}

bool Contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::string(suffix).size();
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// The median of the runs a row keeps next to its wall_seconds leaf (the
/// leaves "<row>.runs_s.<i>"), or nullopt when it keeps none.
std::optional<double> MedianRun(const std::map<std::string, double>& leaves,
                                const std::string& wall_path) {
  const std::string prefix =
      wall_path.substr(0, wall_path.size() - LastSegment(wall_path).size()) +
      "runs_s.";
  std::vector<double> runs;
  for (auto it = leaves.lower_bound(prefix);
       it != leaves.end() && it->first.starts_with(prefix); ++it) {
    runs.push_back(it->second);
  }
  if (runs.empty()) return std::nullopt;
  std::sort(runs.begin(), runs.end());
  const size_t mid = runs.size() / 2;
  return runs.size() % 2 == 1 ? runs[mid] : (runs[mid - 1] + runs[mid]) / 2;
}

std::string FormatValue(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

Result<std::map<std::string, double>> FlattenNumericLeaves(
    const JsonValue& doc) {
  std::map<std::string, double> out;
  HJ_RETURN_IF_ERROR(FlattenInto(doc, "", &out));
  return out;
}

Result<PerfcheckResult> ComparePerf(const JsonValue& baseline,
                                    const JsonValue& current,
                                    const PerfcheckOptions& options) {
  HJ_ASSIGN_OR_RETURN(const auto base, FlattenNumericLeaves(baseline));
  HJ_ASSIGN_OR_RETURN(const auto cur, FlattenNumericLeaves(current));

  PerfcheckResult result;
  for (const auto& [path, base_leaf] : base) {
    const auto it = cur.find(path);
    if (it == cur.end()) continue;
    double base_value = base_leaf;
    double cur_value = it->second;
    const std::string leaf = LastSegment(path);
    // A row that keeps every run is judged on the median run, which one
    // lucky or unlucky run cannot move; wall_seconds stays the best run.
    std::string judged;
    if (leaf == "wall_seconds") {
      const auto base_median = MedianRun(base, path);
      const auto cur_median = MedianRun(cur, path);
      if (base_median && cur_median) {
        base_value = *base_median;
        cur_value = *cur_median;
        judged = "median run ";
      }
    }
    // Records a regression, rendered "<family> <path>: <detail>".
    auto flag = [&](const std::string& family, const std::string& detail) {
      result.regressions.push_back({path, family, base_value, cur_value,
                                    family + " " + path + ": " + detail});
    };

    // Family classification by leaf-name convention. Skew wins over the
    // timing suffixes; counts and percentiles-of-counts are not gated.
    if (Contains(leaf, "skew")) {
      ++result.leaves_compared;
      const double increase = cur_value - base_value;
      if (increase > options.max_skew_increase) {
        flag("skew", FormatValue(base_value) + " -> " + FormatValue(cur_value) +
                         " (+" + FormatValue(increase) + " > " +
                         FormatValue(options.max_skew_increase) + ")");
      }
      continue;
    }

    // Overhead leaves are gated against an absolute ceiling, not against
    // the baseline: the contract is "the plane costs < N%", and a lucky
    // (negative) baseline measurement must not tighten it.
    if (Contains(leaf, "overhead_pct")) {
      ++result.leaves_compared;
      if (cur_value > options.max_overhead_pct) {
        flag("overhead", FormatValue(cur_value) + "% > ceiling " +
                             FormatValue(options.max_overhead_pct) +
                             "% (baseline " + FormatValue(base_value) + "%)");
      }
      continue;
    }

    const bool is_bytes = Contains(leaf, "bytes");
    const bool is_wall = !is_bytes && (Contains(leaf, "wall") ||
                                       EndsWith(leaf, "_seconds") ||
                                       EndsWith(leaf, "_us"));
    if (!is_bytes && !is_wall) continue;
    ++result.leaves_compared;
    if (base_value <= 0.0) continue;  // nothing meaningful to gate against

    if (is_wall) {
      // Noise floor: tiny timings regress by large percentages for free.
      const double base_seconds =
          EndsWith(leaf, "_us") ? base_value * 1e-6 : base_value;
      if (base_seconds < options.min_wall_seconds) continue;
    }

    const double limit_pct =
        is_bytes ? options.max_bytes_pct : options.max_wall_pct;
    const double pct = (cur_value - base_value) / base_value * 100.0;
    if (pct > limit_pct) {
      flag(is_bytes ? "bytes" : "wall",
           judged + FormatValue(base_value) + " -> " +
               FormatValue(cur_value) + " (+" +
               FormatValue(pct) + "% > " + FormatValue(limit_pct) + "%)");
    }
  }
  return result;
}

}  // namespace obs
}  // namespace hybridjoin
