// In-memory span recording for the pipeline benchmark.
//
// A span is (name, start, end, parent) around one call into a layer's public
// function. Spans stay in memory while the workload runs and are written out
// once, as a Chrome trace, when the benchmark ends. A layer's self time is
// its spans' durations minus the part covered by child spans on the same
// thread, minus `inner_ns`: time a program counter says was spent in a nested
// layer the benchmark cannot wrap (scheduler dispatch inside SubmitBatch and
// RunUntil).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // "<layer>.<call>", a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index in the same log; -1 = the log's root
  std::int64_t inner_ns = 0;
};

// One thread's spans. Not thread-safe: each thread records into its own log.
class SpanLog {
 public:
  SpanLog(int tid, bool enabled) : tid_(tid), enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] int tid() const { return tid_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Spans opened at depth 0 of this log were caused by span `index` of the
  // log with thread id `tid` (a worker thread started inside that span).
  void SetCause(int tid, std::int32_t index) {
    cause_tid_ = tid;
    cause_index_ = index;
  }
  [[nodiscard]] int cause_tid() const { return cause_tid_; }
  [[nodiscard]] std::int32_t cause_index() const { return cause_index_; }

  std::int32_t Begin(const char* name) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = NowNs();
    spans_.push_back(span);
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    open_.push_back(index);
    return index;
  }

  void End(std::int32_t index, std::int64_t inner_ns) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = NowNs();
    span.inner_ns = inner_ns;
    open_.pop_back();
  }

 private:
  int tid_ = 0;
  bool enabled_ = false;
  int cause_tid_ = -1;
  std::int32_t cause_index_ = -1;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// RAII span; a null or disabled log records nothing and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log != nullptr && log->enabled() ? log : nullptr) {
    if (log_ != nullptr) index_ = log_->Begin(name);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_, inner_ns_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_inner_ns(std::int64_t ns) { inner_ns_ = ns; }
  [[nodiscard]] std::int32_t index() const { return index_; }

 private:
  SpanLog* log_ = nullptr;
  std::int32_t index_ = -1;
  std::int64_t inner_ns_ = 0;
};

// Per span name: summed self time (seconds) and call count.
struct SpanTotals {
  double self_s = 0.0;
  std::uint64_t calls = 0;
};
std::map<std::string, SpanTotals> TotalsByName(const SpanLog& log);

// Writes every log as one Chrome trace (Perfetto loads it). Returns false
// when the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
