#include "common/telemetry/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>

namespace eco::telemetry {
namespace {

// One prometheus-style number: integers render without a fraction, doubles
// with up to 10 significant digits — both deterministic.
std::string FormatValue(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
  }
  return buf;
}

std::string FormatCount(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

// Splits "name{a="b"}" into ("name", "a=\"b\"").
void SplitLabels(const std::string& full, std::string& base,
                 std::string& labels) {
  const std::size_t brace = full.find('{');
  if (brace == std::string::npos) {
    base = full;
    labels.clear();
    return;
  }
  base = full.substr(0, brace);
  const std::size_t close = full.rfind('}');
  labels = full.substr(brace + 1,
                       close == std::string::npos ? std::string::npos
                                                  : close - brace - 1);
}

// Re-assembles a metric line name, appending extra labels (e.g. le=...).
std::string WithLabels(const std::string& base, const std::string& labels,
                       const std::string& extra = "") {
  std::string joined = labels;
  if (!extra.empty()) {
    if (!joined.empty()) joined += ',';
    joined += extra;
  }
  if (joined.empty()) return base;
  return base + "{" + joined + "}";
}

// Emits one "# TYPE" header per base name (metrics are walked in sorted
// order, so label variants of one family are adjacent).
void MaybeTypeHeader(std::string& out, std::string& last_base,
                     const std::string& base, const char* kind) {
  if (base == last_base) return;
  last_base = base;
  out += "# TYPE ";
  out += base;
  out += ' ';
  out += kind;
  out += '\n';
}

}  // namespace

std::size_t Counter::Slot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_.reserve(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_.push_back(std::make_unique<Counter>());
  }
}

void Histogram::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())]->Add(1);
  count_.Add(1);
  sum_.Add(v);
}

std::vector<std::uint64_t> Histogram::BucketCounts() const {
  std::vector<std::uint64_t> out;
  out.reserve(buckets_.size());
  for (const auto& bucket : buckets_) out.push_back(bucket->Value());
  return out;
}

double Histogram::Quantile(double q) const {
  const auto counts = BucketCounts();
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  // Contract (metrics.hpp): empty histogram -> NaN, out-of-range q clamps.
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < target) continue;
    if (i >= bounds_.size()) {
      // +Inf bucket: no upper edge to interpolate towards.
      return bounds_.empty() ? 0.0 : bounds_.back();
    }
    const double lo = i == 0 ? 0.0 : bounds_[i - 1];
    const double hi = bounds_[i];
    const double fraction =
        (target - before) / static_cast<double>(counts[i]);
    return lo + (hi - lo) * std::min(1.0, std::max(0.0, fraction));
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket->Reset();
  count_.Reset();
  sum_.Reset();
}

std::string Histogram::FormatBuckets() const {
  std::string out;
  double lo = 0.0;
  const auto counts = BucketCounts();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (!out.empty()) out += "  ";
    out += '[';
    out += i == 0 ? "0" : FormatValue(lo);
    out += ',';
    out += i < bounds_.size() ? FormatValue(bounds_[i]) : "+Inf";
    out += ") ";
    out += FormatCount(counts[i]);
    if (i < bounds_.size()) lo = bounds_[i];
  }
  return out;
}

std::string LabeledName(const std::string& name, const std::string& key,
                        const std::string& value) {
  return name + "{" + key + "=\"" + value + "\"}";
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second.get() : nullptr;
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second.get() : nullptr;
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.get() : nullptr;
}

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  std::string last_base;
  std::string base, labels;
  for (const auto& [name, counter] : counters_) {
    SplitLabels(name, base, labels);
    MaybeTypeHeader(out, last_base, base, "counter");
    out += WithLabels(base, labels);
    out += ' ';
    out += FormatCount(counter->Value());
    out += '\n';
  }
  last_base.clear();
  for (const auto& [name, gauge] : gauges_) {
    SplitLabels(name, base, labels);
    MaybeTypeHeader(out, last_base, base, "gauge");
    out += WithLabels(base, labels);
    out += ' ';
    out += FormatValue(gauge->Value());
    out += '\n';
  }
  last_base.clear();
  for (const auto& [name, hist] : histograms_) {
    SplitLabels(name, base, labels);
    MaybeTypeHeader(out, last_base, base, "histogram");
    const auto counts = hist->BucketCounts();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      cumulative += counts[i];
      const std::string le =
          i < hist->bounds().size() ? FormatValue(hist->bounds()[i]) : "+Inf";
      out += WithLabels(base + "_bucket", labels, "le=\"" + le + "\"");
      out += ' ';
      out += FormatCount(cumulative);
      out += '\n';
    }
    out += WithLabels(base + "_sum", labels);
    out += ' ';
    out += FormatValue(hist->Sum());
    out += '\n';
    out += WithLabels(base + "_count", labels);
    out += ' ';
    out += FormatCount(hist->Count());
    out += '\n';
  }
  return out;
}

Json MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonObject counters;
  for (const auto& [name, counter] : counters_) {
    counters[name] = Json(counter->Value());
  }
  JsonObject gauges;
  for (const auto& [name, gauge] : gauges_) {
    gauges[name] = Json(gauge->Value());
  }
  JsonObject histograms;
  for (const auto& [name, hist] : histograms_) {
    JsonArray bounds;
    for (const double b : hist->bounds()) bounds.push_back(Json(b));
    JsonArray buckets;
    for (const std::uint64_t c : hist->BucketCounts()) {
      buckets.push_back(Json(c));
    }
    histograms[name] = Json(JsonObject{{"bounds", Json(std::move(bounds))},
                                       {"buckets", Json(std::move(buckets))},
                                       {"count", Json(hist->Count())},
                                       {"sum", Json(hist->Sum())}});
  }
  return Json(JsonObject{{"counters", Json(std::move(counters))},
                         {"gauges", Json(std::move(gauges))},
                         {"histograms", Json(std::move(histograms))}});
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

MetricsRegistry& MetricsRegistry::Global() {
  // Never destroyed: statics built before it (the global ThreadPool, whose
  // exiting workers publish queue depth) would otherwise outlive it at exit.
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

}  // namespace eco::telemetry
