#include "trace/chrome_trace.h"

#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

namespace hybridjoin {
namespace trace {

namespace {

/// JSON string escape (names are engine-controlled, but be safe).
void AppendEscaped(std::ostringstream* os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        *os << "\\\"";
        break;
      case '\\':
        *os << "\\\\";
        break;
      case '\n':
        *os << "\\n";
        break;
      case '\t':
        *os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *os << buf;
        } else {
          *os << c;
        }
    }
  }
}

void AppendMetadata(std::ostringstream* os, const char* what, uint32_t pid,
                    uint32_t tid, bool with_tid, const std::string& name) {
  *os << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid;
  if (with_tid) *os << ",\"tid\":" << tid;
  *os << ",\"args\":{\"name\":\"";
  AppendEscaped(os, name.c_str());
  *os << "\"}}";
}

std::string PidName(const TraceEvent& event) {
  if (!event.has_node) return "driver";
  return event.node.ToString();
}

}  // namespace

uint32_t ChromePid(const TraceEvent& event) {
  if (!event.has_node) return 0;
  const uint32_t base =
      event.node.cluster == ClusterId::kDb ? 1u : 1001u;
  return base + event.node.index;
}

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Process / thread naming metadata, one entry per unique pid and
  // (pid, tid). Sorted maps keep the output deterministic.
  std::map<uint32_t, std::string> pid_names;
  std::map<std::pair<uint32_t, uint32_t>, std::string> tid_names;
  for (const TraceEvent& e : events) {
    const uint32_t pid = ChromePid(e);
    pid_names.emplace(pid, PidName(e));
    std::string track = e.role != nullptr ? e.role : "thread";
    track += " #" + std::to_string(e.tid);
    tid_names.emplace(std::make_pair(pid, e.tid), std::move(track));
  }
  for (const auto& [pid, name] : pid_names) {
    comma();
    AppendMetadata(&os, "process_name", pid, 0, /*with_tid=*/false, name);
    // DB processes first, then HDFS, then the driver pseudo-process.
    comma();
    os << "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"args\":{\"sort_index\":" << (pid == 0 ? 9999 : pid) << "}}";
  }
  for (const auto& [key, name] : tid_names) {
    comma();
    AppendMetadata(&os, "thread_name", key.first, key.second,
                   /*with_tid=*/true, name);
  }

  for (const TraceEvent& e : events) {
    comma();
    os << "{\"name\":\"";
    AppendEscaped(&os, e.name);
    os << "\",\"cat\":\"";
    AppendEscaped(&os, e.category);
    os << "\",\"ph\":\"X\",\"ts\":" << e.start_us
       << ",\"dur\":" << e.dur_us << ",\"pid\":" << ChromePid(e)
       << ",\"tid\":" << e.tid << ",\"args\":{\"depth\":" << e.depth;
    if (e.bytes != 0) os << ",\"bytes\":" << e.bytes;
    os << "}}";
  }
  os << "]}\n";
  return os.str();
}

Status WriteChromeTrace(const std::vector<TraceEvent>& events,
                        const std::string& path) {
  static std::atomic<uint64_t> seq{0};
  const std::string tmp = path + ".tmp" + std::to_string(seq.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file '" + tmp + "'");
  }
  const std::string json = ChromeTraceJson(events);
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  if (std::fclose(f) != 0 || written != json.size() ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("failed writing trace file '" + path + "'");
  }
  return Status::OK();
}

}  // namespace trace
}  // namespace hybridjoin
