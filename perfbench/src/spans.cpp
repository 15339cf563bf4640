#include "spans.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>

namespace perfbench {

std::map<std::string, SpanTotals> TotalsByName(const SpanLog& log) {
  const auto& spans = log.spans();
  // Child time per span: children are strictly nested and sequential on one
  // thread, so their durations add up to the covered part of the parent.
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    SpanTotals& totals = out[span.name];
    const std::int64_t self =
        span.end_ns - span.start_ns - child_ns[i] - span.inner_ns;
    totals.self_s += static_cast<double>(self) * 1e-9;
    ++totals.calls;
  }
  return out;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  char line[512];
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      // Parent as "<tid>:<index>"; a depth-0 span of a worker thread points
      // at the span that started the thread.
      int parent_tid = log->tid();
      std::int32_t parent = span.parent;
      if (parent < 0) {
        parent_tid = log->cause_tid();
        parent = log->cause_index();
      }
      std::snprintf(
          line, sizeof(line),
          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"%d:%zu\","
          "\"parent\":\"%d:%d\",\"inner_us\":%.3f}}",
          first ? "" : ",", span.name, log->tid(),
          static_cast<double>(span.start_ns - origin) * 1e-3,
          static_cast<double>(span.end_ns - span.start_ns) * 1e-3, log->tid(),
          i, parent_tid, parent, static_cast<double>(span.inner_ns) * 1e-3);
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  return out.good();
}

}  // namespace perfbench
