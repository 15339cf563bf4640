// P2 — scheduler drain throughput of the indexed scheduler (PendingIndex +
// NodeTimeline) on a burst-submitted backlog.
//
// The workload is the drain stress case: N jobs land in one SubmitBatch at
// t=0 on a 256-node cluster and the simulation runs until the queue is
// empty. Durations are quantized to a minute so completions arrive in
// waves and each wave triggers exactly one (deferred) scheduling pass. The
// index pays for the jobs it actually starts plus a bounded backfill probe
// (bf_max_job_test), never for the depth of the queue behind them. Each
// scale drains twice: with 16 users, and with 1,000 users, where a pass
// that evaluated every queued user's fair-share factor would cost
// O(users).
//
// Checked, not just reported, at every scale (smoke included):
//  - every submitted job must finish in state kCompleted (no timeouts, no
//    rejects);
//  - the planner examines at most jobs_started + dispatch_calls x
//    (1 + bf_max_job_test) queue entries: one per start, plus per pass the
//    blocked head and the bounded backfill probe. A planner that re-ranks
//    the whole queue per pass fails it (the retired sort-everything engine
//    examined 20,171 entries at 1,000 jobs against a bound of 5,747);
//  - the planner computes at most bench::FairShareEvalBudget exact
//    fair-share factors: 2 x (candidates + passes) + charges + users.
//
// Flags: --max-jobs N caps every scale (bench-smoke uses --max-jobs 1000),
// --trace PATH writes a Chrome trace_event JSON of a drain (open in
// chrome://tracing or Perfetto), --overhead-check asserts that an
// attached-but-disabled tracer stays within noise of the no-tracer
// baseline, --timeseries PATH writes the multi-resolution time-series JSON
// of a drain (and asserts monotone timestamps at every resolution),
// --ts-overhead-check asserts that 1 s sim-resolution sampling costs <= 2%
// drain throughput.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/log.hpp"
#include "common/perf.hpp"
#include "common/telemetry/timeseries.hpp"
#include "common/telemetry/trace.hpp"
#include "slurm/cluster.hpp"
#include "slurm/workload_gen.hpp"

namespace {

using namespace eco;
using namespace eco::slurm;

constexpr int kNodes = 256;
constexpr int kCoresPerNode = 32;
// Job durations are whole multiples of this: a workload property that makes
// completions arrive in waves.
constexpr double kDurationQuantumS = 60.0;
// Slurm's bf_max_job_test: bounds the backfill probe per pass.
constexpr int kBackfillMaxJobTest = 100;
// The many-user drain: enough users that evaluating each queued user's
// fair-share factor every pass would dominate the pass.
constexpr int kManyUsers = 1'000;
// Scale the trace and time-series artifacts are capped at.
constexpr int kArtifactScale = 100'000;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL  %s\n", what.c_str());
  }
}

// The drain backlog: fixed-duration fillers and wide blockers only (HPCG
// jobs exercise the perf model, not the scheduler), durations quantized to
// kDurationQuantumS, arrivals discarded — everything lands at t=0.
std::vector<JobRequest> MakeBacklog(int count, int users = 16) {
  WorkloadMix mix;
  mix.hpcg_share = 0.0;
  mix.wide_share = 0.2;
  mix.wide_nodes = 4;
  mix.users = users;
  mix.duration_quantum_s = kDurationQuantumS;
  mix.seed = 20'260'805;
  auto generated = GenerateWorkload(mix, count, kCoresPerNode, 1);
  std::vector<JobRequest> requests;
  requests.reserve(generated.size());
  for (auto& job : generated) requests.push_back(std::move(job.request));
  return requests;
}

struct DrainResult {
  double wall_s = 0.0;
  std::size_t completed = 0;
  std::uint64_t dispatch_calls = 0;
  std::uint64_t dispatch_ns = 0;
  std::uint64_t plan_candidates = 0;
  std::uint64_t fairshare_evals = 0;
  std::uint64_t jobs_started = 0;
  std::uint64_t pending_peak = 0;
};

DrainResult RunDrain(const std::vector<JobRequest>& backlog,
                     telemetry::Tracer* tracer = nullptr,
                     telemetry::TimeSeriesStore* timeseries = nullptr,
                     double ts_resolution_s = 0.0) {
  ClusterConfig config;
  config.nodes = kNodes;
  config.defer_dispatch = true;  // one scheduling pass per completion wave
  config.backfill_max_job_test = kBackfillMaxJobTest;
  config.tracer = tracer;
  config.timeseries = timeseries;
  config.timeseries_resolution_s = ts_resolution_s;

  ClusterSim cluster(config);
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const auto results = cluster.SubmitBatch(backlog);
  cluster.RunUntilIdle();
  const auto t1 = Clock::now();

  DrainResult out;
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  const SchedMetricSet& metrics = cluster.sched_metrics();
  out.dispatch_calls = metrics.dispatch_calls->Value();
  out.dispatch_ns = metrics.dispatch_ns->Value();
  out.plan_candidates = metrics.plan_candidates->Value();
  out.fairshare_evals = metrics.fairshare_evals->Value();
  out.jobs_started = metrics.jobs_started->Value();
  out.pending_peak = static_cast<std::uint64_t>(metrics.pending_peak->Value());
  for (const auto& result : results) {
    if (!result.ok()) continue;
    const auto job = cluster.GetJob(*result);
    if (job && job->state == JobState::kCompleted) ++out.completed;
  }
  Check(out.completed == backlog.size(),
        "drain @" + std::to_string(backlog.size()) + ": " +
            std::to_string(out.completed) + "/" +
            std::to_string(backlog.size()) + " jobs completed");
  return out;
}

// One drain with tracing ON, exported as Chrome trace_event JSON.
// The trace timestamps are sim-time, so the bytes are identical whatever
// ThreadPool size planned the schedule.
void WriteTrace(const std::string& path, int scale) {
  telemetry::Tracer tracer;
  tracer.set_enabled(true);
  ClusterConfig config;
  config.nodes = kNodes;
  config.defer_dispatch = true;
  config.backfill_max_job_test = kBackfillMaxJobTest;
  config.tracer = &tracer;
  ClusterSim cluster(config);
  cluster.SubmitBatch(MakeBacklog(scale));
  cluster.RunUntilIdle();
  std::ofstream out(path);
  if (!out) {
    Check(false, "cannot write trace file " + path);
    return;
  }
  out << tracer.ChromeTraceJson(cluster.TelemetryTrackNames());
  std::printf("trace: %zu events @ %d jobs -> %s\n", tracer.size(), scale,
              path.c_str());
}

// Disabled-cost gate: median drain time with an attached-but-disabled
// tracer must stay within noise of the no-tracer baseline. Medians of 3
// interleaved reps; the bound is generous (1.25x + 50 ms) because CI
// machines are noisy — a real regression (per-event work while disabled)
// shows up as a multiple, not a percentage.
void OverheadCheck(int scale) {
  const auto backlog = MakeBacklog(scale);
  std::vector<double> base_s, disabled_s;
  telemetry::Tracer tracer;  // never enabled
  for (int rep = 0; rep < 3; ++rep) {
    base_s.push_back(RunDrain(backlog).wall_s);
    disabled_s.push_back(RunDrain(backlog, &tracer).wall_s);
  }
  std::sort(base_s.begin(), base_s.end());
  std::sort(disabled_s.begin(), disabled_s.end());
  const double base = base_s[1], disabled = disabled_s[1];
  std::printf(
      "overhead-check @%d jobs: baseline %.3f s, disabled-tracer %.3f s "
      "(%.2fx)\n",
      scale, base, disabled, disabled / std::max(base, 1e-9));
  Check(disabled <= base * 1.25 + 0.05,
        "disabled-tracing drain exceeded noise bound vs baseline");
}

// One drain with a time-series store sampling once per duration quantum,
// exported as multi-resolution JSON (the power-over-time artifact CI
// uploads next to the Chrome trace). Asserts the rollup invariant: strictly
// monotone timestamps at every resolution.
void WriteTimeseries(const std::string& path, int scale) {
  telemetry::TimeSeriesStore store;
  RunDrain(MakeBacklog(scale), nullptr, &store, kDurationQuantumS);
  for (const std::string& name : store.Names()) {
    for (int r = 0; r < telemetry::TimeSeries::kResolutions; ++r) {
      const auto samples = store.Samples(name, r);
      for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
        Check(samples[i].t1 < samples[i + 1].t0,
              "non-monotone timestamps in " + name + " @r" +
                  std::to_string(r));
      }
    }
  }
  std::ofstream out(path);
  if (!out) {
    Check(false, "cannot write timeseries file " + path);
    return;
  }
  out << store.DumpJson().Dump(2) << "\n";
  std::printf("timeseries: %llu samples over %zu series @ %d jobs -> %s\n",
              static_cast<unsigned long long>(store.samples_total()),
              store.series_count(), scale, path.c_str());
}

// Sampling-cost gate (the ISSUE-9 analogue of the disabled-tracer gate):
// drain time with 1 s sim-resolution sampling attached must stay within 2%
// of the plain drain. Medians of 5 interleaved reps; the small absolute
// term absorbs timer noise on sub-second drains.
void TsOverheadCheck(int scale) {
  const auto backlog = MakeBacklog(scale);
  std::vector<double> base_s, sampled_s;
  for (int rep = 0; rep < 5; ++rep) {
    base_s.push_back(RunDrain(backlog).wall_s);
    telemetry::TimeSeriesStore store;  // fresh rings per rep
    sampled_s.push_back(RunDrain(backlog, nullptr, &store, 1.0).wall_s);
  }
  std::sort(base_s.begin(), base_s.end());
  std::sort(sampled_s.begin(), sampled_s.end());
  const double base = base_s[2], sampled = sampled_s[2];
  std::printf(
      "ts-overhead-check @%d jobs: baseline %.3f s, sampled@1s %.3f s "
      "(%.3fx)\n",
      scale, base, sampled, sampled / std::max(base, 1e-9));
  Check(sampled <= base * 1.02 + 0.1,
        "1 s time-series sampling exceeded the 2% drain-throughput bound");
}

void Report(int scale, int users, const DrainResult& r) {
  std::printf(
      "indexed  %9d jobs  %5d users  %9.3f s  %9.0f jobs/s  passes %7llu  "
      "sched %9s  candidates %12llu  fs-evals %10llu  pending-peak %8llu\n",
      scale, users, r.wall_s, scale / std::max(r.wall_s, 1e-9),
      static_cast<unsigned long long>(r.dispatch_calls),
      FormatNanos(r.dispatch_ns).c_str(),
      static_cast<unsigned long long>(r.plan_candidates),
      static_cast<unsigned long long>(r.fairshare_evals),
      static_cast<unsigned long long>(r.pending_peak));
}

// The per-scale gates on one drain.
void CheckDrain(int scale, int users, const DrainResult& r) {
  const std::string at =
      "@" + std::to_string(scale) + "/" + std::to_string(users) + " users: ";
  const std::uint64_t bound =
      r.jobs_started + r.dispatch_calls * (1 + kBackfillMaxJobTest);
  Check(r.plan_candidates <= bound,
        at + "planner examined " + std::to_string(r.plan_candidates) +
            " queue entries, above the per-start + per-pass bound " +
            std::to_string(bound));
  // Every started job finishes and charges its user once.
  const std::uint64_t budget = eco::bench::FairShareEvalBudget(
      r.plan_candidates, r.dispatch_calls, r.jobs_started,
      static_cast<std::uint64_t>(users));
  Check(r.fairshare_evals <= budget,
        at + "planner computed " + std::to_string(r.fairshare_evals) +
            " fair-share factors, above the budget " + std::to_string(budget));
}

}  // namespace

int main(int argc, char** argv) {
  int max_jobs = 1'000'000;
  bool overhead_check = false;
  bool ts_overhead_check = false;
  std::string trace_path;
  std::string timeseries_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-jobs") == 0 && i + 1 < argc) {
      max_jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--overhead-check") == 0) {
      overhead_check = true;
    } else if (std::strcmp(argv[i], "--timeseries") == 0 && i + 1 < argc) {
      timeseries_path = argv[++i];
    } else if (std::strcmp(argv[i], "--ts-overhead-check") == 0) {
      ts_overhead_check = true;
    } else {
      std::printf(
          "usage: %s [--max-jobs N] [--trace PATH] [--overhead-check] "
          "[--timeseries PATH] [--ts-overhead-check]\n",
          argv[0]);
      return 2;
    }
  }
  Logger::Instance().SetLevel(LogLevel::kWarn);
  eco::bench::BenchReport report("p2_sched_throughput");

  // Drains at every scale up to --max-jobs; the smoke run stops at 1,000.
  for (const int scale : {1'000, 10'000, 100'000, 1'000'000}) {
    if (scale > max_jobs) break;
    for (const int users : {16, kManyUsers}) {
      const auto result = RunDrain(MakeBacklog(scale, users));
      Report(scale, users, result);
      CheckDrain(scale, users, result);
      const std::string suffix =
          (users == kManyUsers ? "_users" + std::to_string(users) + "_"
                               : std::string("_")) +
          std::to_string(scale);
      report.Set("indexed_wall_s" + suffix, result.wall_s);
      report.Set("indexed_passes" + suffix, result.dispatch_calls);
      report.Set("fairshare_evals" + suffix, result.fairshare_evals);
    }
  }

  if (!trace_path.empty()) {
    WriteTrace(trace_path, std::min(max_jobs, kArtifactScale));
    report.Set("trace_path", trace_path);
  }
  if (!timeseries_path.empty()) {
    WriteTimeseries(timeseries_path, std::min(max_jobs, kArtifactScale));
    report.Set("timeseries_path", timeseries_path);
  }
  if (overhead_check) OverheadCheck(std::min(max_jobs, 20'000));
  if (ts_overhead_check) TsOverheadCheck(std::min(max_jobs, 20'000));
  report.Write();

  if (g_failures > 0) {
    std::printf("\n%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall checks passed\n");
  return 0;
}
