// Telemetry subsystem suite (DESIGN.md "Telemetry").
//
// Covers:
//   - FormatNanos edge cases (0 ns, exact unit boundaries, values that
//     round across a unit boundary, > 1 s) next to the histogram bucket
//     rendering it shares sdiag lines with;
//   - Counter/Gauge/Histogram semantics, including concurrent updates from
//     ThreadPool workers (tsan-labelled — run under -DECO_SANITIZE=thread);
//   - MetricsRegistry handle stability, Prometheus text and JSON exports
//     (golden, byte-exact: the formats are deterministic by design);
//   - Tracer: disabled no-op, (sim_time, seq) ordering, Jsonl and Chrome
//     trace_event exports (golden + structural), and byte-identical traces
//     across ThreadPool sizes 1/4/8 on a multi-partition workload;
//   - job-lifecycle event completeness: submit/eligible/start/end plus doom
//     with reasons for dependency-failed and cancelled jobs;
//   - sdiag rendering live registry metrics on a multi-partition workload;
//   - Histogram::Quantile's empty -> NaN and argument-clamp contract;
//   - TimeSeries ring/rollup semantics (envelope preservation, eviction
//     accounting) and the TimeSeriesStore's registry bindings, plus
//     byte-identical store dumps across ThreadPool sizes 1/4/8;
//   - BenchReport artifacts (BENCH_<name>.json via ECO_BENCH_ARTIFACT_DIR)
//     and the ECO_BENCH_TIMESTAMP wall-clock stamp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/perf.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/timeseries.hpp"
#include "common/telemetry/trace.hpp"
#include "common/thread_pool.hpp"
#include "slurm/cluster.hpp"
#include "slurm/commands.hpp"
#include "slurm/workload_gen.hpp"

namespace eco {
namespace {

using slurm::ClusterConfig;
using slurm::ClusterSim;
using slurm::JobRequest;
using slurm::JobState;
using slurm::PartitionConfig;
using slurm::WorkloadSpec;

class Telemetry : public ::testing::Test {
 protected:
  void SetUp() override { Logger::Instance().SetLevel(LogLevel::kError); }
  void TearDown() override { Logger::Instance().SetLevel(LogLevel::kInfo); }
};

// ----------------------------------------------------------- FormatNanos

TEST(FormatNanos, SubMicrosecondStaysInNanos) {
  EXPECT_EQ(FormatNanos(0), "0 ns");
  EXPECT_EQ(FormatNanos(1), "1 ns");
  EXPECT_EQ(FormatNanos(250), "250 ns");
  EXPECT_EQ(FormatNanos(999), "999 ns");
}

TEST(FormatNanos, ExactUnitBoundaries) {
  EXPECT_EQ(FormatNanos(1'000), "1.000 us");
  EXPECT_EQ(FormatNanos(1'000'000), "1.000 ms");
  EXPECT_EQ(FormatNanos(1'000'000'000), "1.000 s");
}

TEST(FormatNanos, MidRangeValues) {
  EXPECT_EQ(FormatNanos(2'500), "2.500 us");
  EXPECT_EQ(FormatNanos(2'500'000), "2.500 ms");
  EXPECT_EQ(FormatNanos(2'500'000'000ull), "2.500 s");
  EXPECT_EQ(FormatNanos(999'499'000), "999.499 ms");
}

// The historical bug: values that %.3f would round up to "1000.000" must
// promote to the next unit instead ("1000.000 ms" is not a rendering).
TEST(FormatNanos, RoundingPromotesToNextUnit) {
  EXPECT_EQ(FormatNanos(999'999'500), "1.000 s");
  EXPECT_EQ(FormatNanos(999'999), "999.999 us");
  EXPECT_EQ(FormatNanos(999'999'499), "999.999 ms");
}

TEST(FormatNanos, SecondsAreTerminal) {
  EXPECT_EQ(FormatNanos(90'000'000'000ull), "90.000 s");
  EXPECT_EQ(FormatNanos(3'600'000'000'000ull), "3600.000 s");
}

// ------------------------------------------------- counters/gauges/hists

TEST(Metrics, CounterAddAndReset) {
  telemetry::Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(Metrics, GaugeSetAddSetMax) {
  telemetry::Gauge gauge;
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 2.5);
  gauge.Add(0.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 3.0);
  gauge.SetMax(1.0);  // below current: no change
  EXPECT_DOUBLE_EQ(gauge.Value(), 3.0);
  gauge.SetMax(7.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 7.0);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

TEST(Metrics, HistogramBucketsAndFormat) {
  telemetry::Histogram hist({10.0, 100.0});
  hist.Observe(1.0);
  hist.Observe(10.0);  // bounds are inclusive upper bounds
  hist.Observe(50.0);
  hist.Observe(1000.0);
  EXPECT_EQ(hist.Count(), 4u);
  EXPECT_DOUBLE_EQ(hist.Sum(), 1061.0);
  const auto counts = hist.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(hist.FormatBuckets(), "[0,10) 2  [10,100) 1  [100,+Inf) 1");
}

TEST(Metrics, RegistryHandlesAreStableAndFindDoesNotCreate) {
  telemetry::MetricsRegistry registry;
  EXPECT_EQ(registry.FindCounter("c"), nullptr);
  telemetry::Counter* counter = registry.GetCounter("c");
  EXPECT_EQ(registry.GetCounter("c"), counter);
  EXPECT_EQ(registry.FindCounter("c"), counter);
  telemetry::Histogram* hist = registry.GetHistogram("h", {1.0, 2.0});
  // Second Get with different bounds returns the existing histogram.
  EXPECT_EQ(registry.GetHistogram("h", {99.0}), hist);
  EXPECT_EQ(hist->bounds(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(registry.FindGauge("g"), nullptr);
  registry.GetCounter("c")->Add(3);
  registry.Reset();
  EXPECT_EQ(counter->Value(), 0u);  // handle survives Reset
}

TEST(Metrics, LabeledName) {
  EXPECT_EQ(telemetry::LabeledName("eco_sched_jobs_started_total",
                                   "partition", "batch"),
            "eco_sched_jobs_started_total{partition=\"batch\"}");
}

TEST(Metrics, PrometheusTextGolden) {
  telemetry::MetricsRegistry registry;
  registry.GetCounter("eco_a_total")->Add(7);
  registry.GetCounter(telemetry::LabeledName("eco_b_total", "p", "x"))->Add(1);
  registry.GetCounter(telemetry::LabeledName("eco_b_total", "p", "y"))->Add(2);
  registry.GetGauge("eco_depth")->Set(3.5);
  telemetry::Histogram* hist = registry.GetHistogram("eco_wait", {1.0, 10.0});
  hist->Observe(0.5);
  hist->Observe(5.0);
  hist->Observe(50.0);
  EXPECT_EQ(registry.PrometheusText(),
            "# TYPE eco_a_total counter\n"
            "eco_a_total 7\n"
            "# TYPE eco_b_total counter\n"
            "eco_b_total{p=\"x\"} 1\n"
            "eco_b_total{p=\"y\"} 2\n"
            "# TYPE eco_depth gauge\n"
            "eco_depth 3.5\n"
            "# TYPE eco_wait histogram\n"
            "eco_wait_bucket{le=\"1\"} 1\n"
            "eco_wait_bucket{le=\"10\"} 2\n"
            "eco_wait_bucket{le=\"+Inf\"} 3\n"
            "eco_wait_sum 55.5\n"
            "eco_wait_count 3\n");
}

TEST(Metrics, ToJsonRoundTrips) {
  telemetry::MetricsRegistry registry;
  registry.GetCounter("c")->Add(5);
  registry.GetGauge("g")->Set(1.25);
  registry.GetHistogram("h", {2.0})->Observe(3.0);
  const auto parsed = Json::Parse(registry.ToJson().Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at("counters").at("c").as_int(), 5);
  EXPECT_DOUBLE_EQ(parsed->at("gauges").at("g").as_number(), 1.25);
  const Json& hist = parsed->at("histograms").at("h");
  EXPECT_EQ(hist.at("count").as_int(), 1);
  EXPECT_DOUBLE_EQ(hist.at("sum").as_number(), 3.0);
  ASSERT_EQ(hist.at("buckets").as_array().size(), 2u);
  EXPECT_EQ(hist.at("buckets").as_array()[1].as_int(), 1);
}

// All updates race from pool workers; totals must still be exact. Labelled
// tsan: a -DECO_SANITIZE=thread build runs this under ThreadSanitizer.
TEST(Metrics, RegistryConcurrentUpdatesAreExact) {
  telemetry::MetricsRegistry registry;
  telemetry::Counter* counter = registry.GetCounter("c");
  telemetry::Gauge* peak = registry.GetGauge("peak");
  telemetry::Histogram* hist = registry.GetHistogram("h", {100.0, 1000.0});
  ThreadPool pool(8);
  constexpr std::int64_t kN = 100'000;
  pool.ParallelFor(0, kN, 64, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      counter->Add(1);
      peak->SetMax(static_cast<double>(i));
      hist->Observe(static_cast<double>(i % 2000));
    }
  });
  EXPECT_EQ(counter->Value(), static_cast<std::uint64_t>(kN));
  EXPECT_DOUBLE_EQ(peak->Value(), static_cast<double>(kN - 1));
  EXPECT_EQ(hist->Count(), static_cast<std::uint64_t>(kN));
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : hist->BucketCounts()) bucket_total += c;
  EXPECT_EQ(bucket_total, static_cast<std::uint64_t>(kN));
}

// ------------------------------------------------------------- tracer

TEST(Trace, DisabledRecordIsNoOpAndEnableCollects) {
  telemetry::Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.Instant(1.0, "submit", "lifecycle", {});
  EXPECT_EQ(tracer.size(), 0u);
  tracer.set_enabled(true);
  tracer.Instant(1.0, "submit", "lifecycle", {});
  EXPECT_EQ(tracer.size(), 1u);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(Trace, JsonlGoldenSortedBySimTimeThenSeq) {
  telemetry::Tracer tracer;
  tracer.set_enabled(true);
  tracer.Instant(2.0, "late", "sched", {});
  tracer.Instant(1.0, "early", "sched", {{"job", Json(7ll)}});
  telemetry::TraceEvent span;
  span.sim_time = 1.0;
  span.phase = 'X';
  span.dur_s = 3.0;
  span.track = 2;
  span.name = "job 7";
  span.category = "job";
  tracer.Record(span);
  EXPECT_EQ(tracer.Jsonl(),
            "{\"args\":{\"job\":7},\"cat\":\"sched\",\"name\":\"early\","
            "\"ph\":\"i\",\"seq\":1,\"t\":1,\"track\":0}\n"
            "{\"cat\":\"job\",\"dur\":3,\"name\":\"job 7\",\"ph\":\"X\","
            "\"seq\":2,\"t\":1,\"track\":2}\n"
            "{\"cat\":\"sched\",\"name\":\"late\",\"ph\":\"i\",\"seq\":0,"
            "\"t\":2,\"track\":0}\n");
}

TEST(Trace, ChromeTraceJsonStructure) {
  telemetry::Tracer tracer;
  tracer.set_enabled(true);
  tracer.Instant(0.5, "plan", "sched", {});
  telemetry::TraceEvent span;
  span.sim_time = 1.0;
  span.phase = 'X';
  span.dur_s = 60.0;
  span.track = 1;
  span.name = "job 1";
  span.category = "job";
  tracer.Record(span);
  const auto parsed =
      Json::Parse(tracer.ChromeTraceJson({"scheduler", "node000"}));
  ASSERT_TRUE(parsed.ok());
  const JsonArray& events = parsed->at("traceEvents").as_array();
  // 2 thread_name metadata + 2 events.
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].at("ph").as_string(), "M");
  EXPECT_EQ(events[0].at("args").at("name").as_string(), "scheduler");
  EXPECT_EQ(events[1].at("args").at("name").as_string(), "node000");
  // Instant event: thread-scoped, on the scheduler track.
  EXPECT_EQ(events[2].at("ph").as_string(), "i");
  EXPECT_EQ(events[2].at("s").as_string(), "t");
  EXPECT_DOUBLE_EQ(events[2].at("ts").as_number(), 0.5e6);
  EXPECT_EQ(events[2].at("tid").as_int(), 0);
  // Complete event: microsecond ts/dur on the node track.
  EXPECT_EQ(events[3].at("ph").as_string(), "X");
  EXPECT_DOUBLE_EQ(events[3].at("ts").as_number(), 1.0e6);
  EXPECT_DOUBLE_EQ(events[3].at("dur").as_number(), 60.0e6);
  EXPECT_EQ(events[3].at("tid").as_int(), 1);
  EXPECT_EQ(events[3].at("pid").as_int(), 1);
}

// ------------------------------------------- cluster lifecycle tracing

// Groups sorted Jsonl lines by job id -> list of (name, reason).
std::map<long long, std::vector<std::pair<std::string, std::string>>>
EventsByJob(const telemetry::Tracer& tracer) {
  std::map<long long, std::vector<std::pair<std::string, std::string>>> out;
  std::istringstream lines(tracer.Jsonl());
  std::string line;
  while (std::getline(lines, line)) {
    const auto parsed = Json::Parse(line);
    EXPECT_TRUE(parsed.ok()) << line;
    if (!parsed.ok() || parsed->at("cat").as_string() != "lifecycle") continue;
    const Json& args = parsed->at("args");
    const std::string reason =
        args.contains("reason") ? args.at("reason").as_string() : "";
    out[args.at("job").as_int()].emplace_back(parsed->at("name").as_string(),
                                              reason);
  }
  return out;
}

TEST_F(Telemetry, LifecycleEventsCoverDependenciesAndDoomedJobs) {
  telemetry::Tracer tracer;
  tracer.set_enabled(true);
  ClusterConfig config;
  config.nodes = 1;  // 32 cores (EPYC profile): one full-node job blocks it
  config.tracer = &tracer;
  ClusterSim cluster(config);

  JobRequest full;
  full.name = "A";
  full.num_tasks = 32;
  full.workload = WorkloadSpec::Fixed(100.0);
  const auto a = cluster.Submit(full);
  ASSERT_TRUE(a.ok());

  JobRequest dep = full;
  dep.name = "B";
  dep.workload = WorkloadSpec::Fixed(50.0);
  dep.depends_on = {*a};
  const auto b = cluster.Submit(dep);
  ASSERT_TRUE(b.ok());

  JobRequest doomed_parent = full;
  doomed_parent.name = "E";
  const auto e = cluster.Submit(doomed_parent);
  ASSERT_TRUE(e.ok());

  JobRequest orphan = full;
  orphan.name = "D";
  orphan.depends_on = {*e};
  const auto d = cluster.Submit(orphan);
  ASSERT_TRUE(d.ok());

  // E is pending (A holds the node); cancelling it dooms D transitively.
  ASSERT_TRUE(cluster.Cancel(*e).ok());
  cluster.RunUntilIdle();

  ASSERT_EQ(cluster.GetJob(*a)->state, JobState::kCompleted);
  ASSERT_EQ(cluster.GetJob(*b)->state, JobState::kCompleted);
  ASSERT_EQ(cluster.GetJob(*e)->state, JobState::kCancelled);
  ASSERT_EQ(cluster.GetJob(*d)->state, JobState::kFailed);

  const auto by_job = EventsByJob(tracer);
  using Ev = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(by_job.at(*a), (Ev{{"submit", ""}, {"start", ""}, {"end", ""}}));
  EXPECT_EQ(by_job.at(*b), (Ev{{"submit", ""},
                               {"eligible", "DependenciesMet"},
                               {"start", ""},
                               {"end", ""}}));
  EXPECT_EQ(by_job.at(*e), (Ev{{"submit", ""}, {"doom", "Cancelled"}}));
  EXPECT_EQ(by_job.at(*d),
            (Ev{{"submit", ""}, {"doom", "DependencyNeverSatisfied"}}));

  // Completed jobs also get an 'X' run span on their node's track.
  int spans = 0;
  for (const auto& event : tracer.SortedEvents()) {
    if (event.phase != 'X') continue;
    ++spans;
    EXPECT_EQ(event.category, "job");
    EXPECT_GT(event.track, 0);
    EXPECT_GT(event.dur_s, 0.0);
  }
  EXPECT_EQ(spans, 2);  // A and B ran; E and D never started
}

// Four disjoint partitions planned on pools of size 1, 4 and 8: the
// exported traces must be byte-identical (sim-time timestamps, serial
// emission — DESIGN.md's determinism contract).
TEST_F(Telemetry, TraceBytesInvariantAcrossPoolSizes) {
  std::vector<std::string> jsonl, chrome;
  for (const int threads : {1, 4, 8}) {
    ThreadPool pool(threads);
    telemetry::Tracer tracer;
    tracer.set_enabled(true);
    ClusterConfig config;
    config.nodes = 16;
    config.defer_dispatch = true;
    config.pool = &pool;
    config.tracer = &tracer;
    config.partitions.clear();
    for (int p = 0; p < 4; ++p) {
      PartitionConfig partition;
      partition.name = "p" + std::to_string(p);
      partition.is_default = p == 0;
      partition.node_ranges = {{p * 4, p * 4 + 3}};
      config.partitions.push_back(partition);
    }
    ClusterSim cluster(config);

    slurm::WorkloadMix mix;
    mix.hpcg_share = 0.0;
    mix.users = 8;
    mix.seed = 97;
    for (const auto& partition : config.partitions) {
      mix.partitions.push_back(partition.name);
    }
    auto generated = slurm::GenerateWorkload(mix, 300, 32, 1);
    std::vector<JobRequest> requests;
    for (auto& job : generated) requests.push_back(std::move(job.request));
    cluster.SubmitBatch(std::move(requests));
    cluster.RunUntilIdle();

    ASSERT_GT(tracer.size(), 300u);
    jsonl.push_back(tracer.Jsonl());
    chrome.push_back(tracer.ChromeTraceJson(cluster.TelemetryTrackNames()));
  }
  EXPECT_EQ(jsonl[0], jsonl[1]);
  EXPECT_EQ(jsonl[0], jsonl[2]);
  EXPECT_EQ(chrome[0], chrome[1]);
  EXPECT_EQ(chrome[0], chrome[2]);
}

// ------------------------------------------------------------- sdiag

TEST_F(Telemetry, SdiagReportsLiveRegistryMetrics) {
  ClusterConfig config;
  config.nodes = 8;
  config.partitions.clear();
  PartitionConfig a;
  a.name = "batch";
  a.is_default = true;
  a.node_ranges = {{0, 3}};
  PartitionConfig b;
  b.name = "debug";
  b.is_default = false;
  b.node_ranges = {{4, 7}};
  config.partitions = {a, b};
  ClusterSim cluster(config);

  for (int i = 0; i < 6; ++i) {
    JobRequest request;
    request.name = "j" + std::to_string(i);
    request.num_tasks = 4;
    request.workload = WorkloadSpec::Fixed(60.0);
    request.partition = i % 2 == 0 ? "batch" : "debug";
    ASSERT_TRUE(cluster.Submit(request).ok());
  }
  cluster.RunUntilIdle();

  const std::string out = slurm::Sdiag(cluster);
  EXPECT_NE(out.find("sdiag output at t="), std::string::npos);
  EXPECT_NE(out.find("Submit calls:            6"), std::string::npos);
  EXPECT_NE(out.find("Jobs started:            6"), std::string::npos);
  EXPECT_NE(out.find("Partition batch:"), std::string::npos);
  EXPECT_NE(out.find("Partition debug:"), std::string::npos);
  EXPECT_NE(out.find("Eco plugin decision cache:"), std::string::npos);
  // The wait-seconds histogram renders for partitions that started jobs.
  EXPECT_NE(out.find("Queue wait (s):"), std::string::npos);
  // Peaks print as integers. Every job started on submission, so the queue
  // never held more than one; all six ran at once, three per partition.
  EXPECT_NE(out.find("Pending queue peak:      1\n"), std::string::npos);
  EXPECT_NE(out.find("Concurrent running peak: 6\n"), std::string::npos);
  EXPECT_NE(out.find("    Pending peak: 1  Timeline peak: 3\n"),
            std::string::npos);
  // The gauges hold doubles: a peak of 10^6 must not print as 1e+06.
  cluster.metrics().GetGauge("eco_sched_pending_peak")->SetMax(1e6);
  cluster.metrics()
      .GetGauge(telemetry::LabeledName("eco_sched_pending_peak", "partition",
                                       "debug"))
      ->SetMax(2e6);
  const std::string peaks = slurm::Sdiag(cluster);
  EXPECT_NE(peaks.find("Pending queue peak:      1000000\n"),
            std::string::npos);
  EXPECT_NE(peaks.find("    Pending peak: 2000000  Timeline peak: 3\n"),
            std::string::npos);

  // The same numbers flow through the Prometheus exporter.
  const std::string prom = cluster.metrics().PrometheusText();
  EXPECT_NE(prom.find("eco_sched_submit_calls_total 6"), std::string::npos);
  EXPECT_NE(
      prom.find("eco_sched_jobs_started_total{partition=\"batch\"} 3"),
      std::string::npos);
  EXPECT_NE(prom.find("eco_sched_wait_seconds_count"), std::string::npos);
}

// ------------------------------------------------------------ quantiles

TEST(Metrics, QuantileOnEmptyHistogramIsNaN) {
  telemetry::Histogram hist({10.0, 100.0});
  // NaN, not 0.0: "no observations yet" must be distinguishable from a
  // histogram whose mass genuinely sits at zero.
  EXPECT_TRUE(std::isnan(hist.Quantile(0.5)));
  EXPECT_TRUE(std::isnan(hist.Quantile(0.0)));
  EXPECT_TRUE(std::isnan(hist.Quantile(1.0)));
  hist.Observe(5.0);
  EXPECT_FALSE(std::isnan(hist.Quantile(0.5)));
}

TEST(Metrics, QuantileArgumentsClampToTheUnitInterval) {
  telemetry::Histogram hist({10.0, 100.0});
  hist.Observe(5.0);
  hist.Observe(50.0);
  hist.Observe(80.0);
  EXPECT_DOUBLE_EQ(hist.Quantile(-1.0), hist.Quantile(0.0));
  EXPECT_DOUBLE_EQ(hist.Quantile(2.0), hist.Quantile(1.0));
  // Clamped top quantile interpolates to the last finite bucket edge.
  EXPECT_DOUBLE_EQ(hist.Quantile(1.0), 100.0);
}

// ----------------------------------------------------------- time series

TEST(TimeSeries, RollupsPreserveEnvelopeSumAndCount) {
  telemetry::TimeSeries series(
      telemetry::TimeSeriesOptions{/*capacity=*/64, /*fanout=*/10});
  // 20 pushes = exactly two complete level-1 buckets of 10.
  for (int i = 0; i < 20; ++i) {
    series.Push(static_cast<double>(i), static_cast<double>(i % 10));
  }
  const auto raw = series.Samples(0);
  ASSERT_EQ(raw.size(), 20u);
  const auto r1 = series.Samples(1);
  ASSERT_EQ(r1.size(), 2u);
  for (int b = 0; b < 2; ++b) {
    EXPECT_DOUBLE_EQ(r1[b].t0, b * 10.0);
    EXPECT_DOUBLE_EQ(r1[b].t1, b * 10.0 + 9.0);
    EXPECT_DOUBLE_EQ(r1[b].min, 0.0);
    EXPECT_DOUBLE_EQ(r1[b].max, 9.0);
    EXPECT_DOUBLE_EQ(r1[b].sum, 45.0);
    EXPECT_EQ(r1[b].count, 10u);
  }
  // Level 2's ring is still empty, but its view includes the partial
  // pending bucket holding both rolled level-1 samples.
  const auto r2 = series.Samples(2);
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_DOUBLE_EQ(r2[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(r2[0].t1, 19.0);
  EXPECT_DOUBLE_EQ(r2[0].sum, 90.0);
  EXPECT_EQ(r2[0].count, 20u);
}

TEST(TimeSeries, RingEvictionIsCountedAsDropped) {
  telemetry::TimeSeries series(
      telemetry::TimeSeriesOptions{/*capacity=*/2, /*fanout=*/2});
  std::uint64_t dropped = 0, compactions = 0;
  for (int i = 0; i < 8; ++i) {
    const auto stats = series.Push(static_cast<double>(i), 1.0);
    dropped += stats.dropped;
    compactions += stats.compactions;
  }
  // Raw ring keeps the newest 2 of 8 -> 6 evictions; level 1 keeps 2 of
  // 4 rollups -> 2 more; level 2 holds its 2 rollups without eviction.
  EXPECT_EQ(series.Samples(0).size(), 2u);
  EXPECT_DOUBLE_EQ(series.Samples(0).front().t0, 6.0);
  EXPECT_EQ(dropped, 8u);
  // 4 rollups into level 1 + 2 into level 2.
  EXPECT_EQ(compactions, 6u);
  EXPECT_EQ(series.pushed(), 8u);
}

TEST(TimeSeriesStore, BindsRegistryHandlesProbesAndSelfMetrics) {
  telemetry::MetricsRegistry registry;
  telemetry::TimeSeriesStore store(
      telemetry::TimeSeriesOptions{/*capacity=*/8, /*fanout=*/10});
  store.BindSelfMetrics(&registry);
  telemetry::Counter* counter = registry.GetCounter("jobs_total");
  telemetry::Gauge* gauge = registry.GetGauge("depth");
  store.TrackCounter(registry, "jobs_total");
  store.TrackGauge(registry, "depth");
  double probe_value = 1.5;
  store.TrackProbe("probe", [&probe_value] { return probe_value; });
  EXPECT_EQ(store.series_count(), 3u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("eco_ts_series")->Value(), 3.0);

  store.SampleAll(10.0);
  counter->Add(3);
  gauge->Set(2.5);
  probe_value = 4.0;
  store.SampleAll(20.0);

  EXPECT_EQ(store.samples_total(), 6u);
  EXPECT_EQ(registry.GetCounter("eco_ts_samples_total")->Value(), 6u);
  const auto counter_samples = store.Samples("jobs_total", 0);
  ASSERT_EQ(counter_samples.size(), 2u);
  EXPECT_DOUBLE_EQ(counter_samples[0].sum, 0.0);
  EXPECT_DOUBLE_EQ(counter_samples[1].sum, 3.0);
  const auto probe_samples = store.Samples("probe", 0);
  ASSERT_EQ(probe_samples.size(), 2u);
  EXPECT_DOUBLE_EQ(probe_samples[0].min, 1.5);
  EXPECT_DOUBLE_EQ(probe_samples[1].max, 4.0);
  EXPECT_TRUE(store.Has("depth"));
  EXPECT_FALSE(store.Has("nope"));
  EXPECT_TRUE(store.QueryJson("nope", 0).is_null());
  const auto query = store.QueryJson("probe", 0);
  EXPECT_EQ(query.at("name").as_string(), "probe");
  EXPECT_EQ(query.at("samples").as_array().size(), 2u);
  EXPECT_EQ(store.DumpJson().as_object().size(), 3u);

  // First registration wins: re-tracking a name must not replace the
  // existing series or its source.
  store.TrackProbe("probe", [] { return 99.0; });
  store.SampleAll(30.0);
  EXPECT_DOUBLE_EQ(store.Samples("probe", 0).back().max, 4.0);
}

// The store analogue of the trace determinism test: identical sim-time
// trajectories regardless of worker-pool size, witnessed byte-for-byte.
TEST_F(Telemetry, TimeseriesBytesInvariantAcrossPoolSizes) {
  std::vector<std::string> dumps;
  for (const int threads : {1, 4, 8}) {
    ThreadPool pool(threads);
    telemetry::TimeSeriesStore store;
    ClusterConfig config;
    config.nodes = 16;
    config.defer_dispatch = true;
    config.pool = &pool;
    config.timeseries = &store;
    config.timeseries_resolution_s = 30.0;
    config.partitions.clear();
    for (int p = 0; p < 4; ++p) {
      PartitionConfig partition;
      partition.name = "p" + std::to_string(p);
      partition.is_default = p == 0;
      partition.node_ranges = {{p * 4, p * 4 + 3}};
      config.partitions.push_back(partition);
    }
    ClusterSim cluster(config);

    slurm::WorkloadMix mix;
    mix.hpcg_share = 0.0;
    mix.users = 8;
    mix.seed = 97;
    for (const auto& partition : config.partitions) {
      mix.partitions.push_back(partition.name);
    }
    auto generated = slurm::GenerateWorkload(mix, 300, 32, 1);
    std::vector<JobRequest> requests;
    for (auto& job : generated) requests.push_back(std::move(job.request));
    cluster.SubmitBatch(std::move(requests));
    cluster.RunUntilIdle();

    EXPECT_GT(store.samples_total(), 0u);
    EXPECT_EQ(store.series_count(), 3u);
    dumps.push_back(store.DumpJson().Dump());
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
}

// ------------------------------------------------------------- bench JSON

TEST(BenchReport, WritesArtifactToArtifactDir) {
  const std::string dir =
      ::testing::TempDir() + "/eco_bench_artifacts_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::system(("mkdir -p '" + dir + "'").c_str());
  ASSERT_EQ(setenv("ECO_BENCH_ARTIFACT_DIR", dir.c_str(), 1), 0);

  bench::BenchReport report("unit_test");
  report.Set("speedup", 12.5);
  report.Set("jobs", std::uint64_t{100'000});
  report.Set("trace", std::string("trace.json"));
  const std::string path = report.Write();
  unsetenv("ECO_BENCH_ARTIFACT_DIR");

  ASSERT_EQ(path, dir + "/BENCH_unit_test.json");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = Json::Parse(buffer.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at("bench").as_string(), "unit_test");
  EXPECT_DOUBLE_EQ(parsed->at("metrics").at("speedup").as_number(), 12.5);
  EXPECT_EQ(parsed->at("metrics").at("jobs").as_int(), 100'000);
  EXPECT_EQ(parsed->at("metrics").at("trace").as_string(), "trace.json");
}

// CI exports ECO_BENCH_TIMESTAMP so artifacts carry the wall-clock time of
// the run; without it the report stays timestamp-free (hermetic local runs
// produce byte-stable artifacts).
TEST(BenchReport, StampsWallTimeFromEnvironment) {
  const std::string dir =
      ::testing::TempDir() + "/eco_bench_stamp_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::system(("mkdir -p '" + dir + "'").c_str());
  ASSERT_EQ(setenv("ECO_BENCH_ARTIFACT_DIR", dir.c_str(), 1), 0);
  ASSERT_EQ(setenv("ECO_BENCH_TIMESTAMP", "2026-08-08T12:00:00Z", 1), 0);

  bench::BenchReport stamped("stamped");
  const std::string stamped_path = stamped.Write();
  unsetenv("ECO_BENCH_TIMESTAMP");
  bench::BenchReport bare("bare");
  const std::string bare_path = bare.Write();
  unsetenv("ECO_BENCH_ARTIFACT_DIR");

  const auto load = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return Json::Parse(buffer.str());
  };
  const auto with_stamp = load(stamped_path);
  ASSERT_TRUE(with_stamp.ok());
  EXPECT_EQ(with_stamp->at("metrics").at("wall_time_iso").as_string(),
            "2026-08-08T12:00:00Z");
  const auto without = load(bare_path);
  ASSERT_TRUE(without.ok());
  EXPECT_FALSE(without->at("metrics").contains("wall_time_iso"));
}

}  // namespace
}  // namespace eco
