// P5 — million-user submit ingress storm: the concurrent batched front door
// (SubmitIngress) vs the serial per-call Submit path.
//
// Three phases:
//
//  1. Equivalence — the ordering guarantee, checked end-to-end: the same
//     request stream pushed through the ingress by 1, 4 and 8 racing
//     producer threads (seq = stream index) must produce a schedule
//     byte-identical to a serial per-call Submit loop. Both sides run with
//     defer_dispatch so submission grouping cannot change pass timing.
//
//  2. Serial baseline — per-call Submit with an inline scheduling pass per
//     call (the pre-ingress front door: every submission is one synchronous
//     call on the simulator thread, default defer_dispatch=false).
//
//  3. Storm — N jobs (default 10M) from P producer threads (default 8)
//     across U users (default 1M), admission control on (per-user token
//     buckets in the storm tier), the sim thread draining concurrently.
//     Every job must be admitted exactly once and drained in-order within
//     each batch; enqueue latency is sampled into a histogram for p50/p99.
//
// Checked, not just reported (gates arm at >= --gate-scale jobs, default
// 1M, so smoke runs stay green on noisy CI cores):
//  - storm ingest throughput >= 10x the serial per-call rate;
//  - p99 sampled enqueue latency <= 10 ms;
//  - every storm job admitted, drained exactly once, batches seq-sorted;
//  - schedules byte-identical at every producer count (always checked).
//
// Flags: --jobs N, --users N, --producers N, --serial-jobs N,
// --equiv-jobs N, --gate-scale N, --skip-serial, --skip-equiv.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_common.hpp"
#include "common/telemetry/metrics.hpp"
#include "slurm/cluster.hpp"
#include "slurm/ingress.hpp"
#include "slurm/workload_gen.hpp"

namespace {

using namespace eco;
using namespace eco::slurm;

constexpr int kNodes = 64;
constexpr int kCoresPerNode = 32;
// Job durations are whole multiples of this, so completions arrive in
// waves.
constexpr double kDurationQuantumS = 60.0;
constexpr double kGateSpeedup = 10.0;
constexpr double kGateP99Seconds = 0.010;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL  %s\n", what.c_str());
  }
}

ClusterConfig MakeConfig(bool defer) {
  ClusterConfig config;
  config.nodes = kNodes;
  config.defer_dispatch = defer;
  config.backfill_max_job_test = 100;
  return config;
}

// ---------------------------------------------------------------------------
// Phase 1: byte-identical schedules at producer counts 1/4/8.

std::vector<JobRequest> MakeEquivStream(int count) {
  WorkloadMix mix;
  mix.hpcg_share = 0.0;  // scheduler stress, not perf-model stress
  mix.wide_share = 0.2;
  mix.wide_nodes = 4;
  mix.users = 64;
  mix.duration_quantum_s = kDurationQuantumS;
  mix.seed = 20'260'808;
  mix.qos = {"premium", "standard", "besteffort"};
  auto generated = GenerateWorkload(mix, count, kCoresPerNode, 1);
  std::vector<JobRequest> requests;
  requests.reserve(generated.size());
  for (auto& job : generated) requests.push_back(std::move(job.request));
  return requests;
}

// One line per job: everything the schedule decided. Two runs produce equal
// strings iff their schedules are identical.
std::string ScheduleDigest(const ClusterSim& cluster, std::size_t count) {
  std::ostringstream out;
  out.precision(17);  // full doubles: "identical" must mean bitwise
  for (JobId id = 1; id <= count; ++id) {
    const auto job = cluster.GetJob(id);
    if (!job) {
      out << id << " <missing>\n";
      continue;
    }
    out << id << ' ' << job->request.name << " u" << job->request.user_id
        << ' ' << JobStateName(job->state) << " start=" << job->start_time
        << " end=" << job->end_time << " node=" << job->node << " x"
        << job->allocated_nodes << " prio=" << job->priority << '\n';
  }
  return out.str();
}

std::string RunSerialReference(const std::vector<JobRequest>& stream) {
  ClusterSim cluster(MakeConfig(/*defer=*/true));
  for (const auto& request : stream) {
    const auto id = cluster.Submit(request);
    Check(id.ok(), "equiv serial submit: " +
                       std::string(id.ok() ? "" : id.message()));
  }
  cluster.RunUntilIdle();
  return ScheduleDigest(cluster, stream.size());
}

std::string RunIngressed(const std::vector<JobRequest>& stream,
                         int producers) {
  ClusterSim cluster(MakeConfig(/*defer=*/true));
  IngressConfig icfg;
  icfg.stripes = 16;
  icfg.max_queued = stream.size() + 1;
  icfg.metrics = &cluster.metrics();
  SubmitIngress ingress(icfg);

  const std::size_t chunk =
      (stream.size() + producers - 1) / static_cast<std::size_t>(producers);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  std::atomic<std::uint64_t> rejected{0};
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      const std::size_t begin = static_cast<std::size_t>(p) * chunk;
      const std::size_t end = std::min(stream.size(), begin + chunk);
      for (std::size_t i = begin; i < end; ++i) {
        // seq = global stream index: the drain re-establishes stream order
        // no matter which thread got there first.
        if (!ingress.Submit(stream[i], 0.0, i).ok()) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  Check(rejected.load() == 0, "equiv ingress admitted everything (" +
                                  std::to_string(rejected.load()) +
                                  " rejected)");
  const auto results = ingress.DrainInto(cluster);
  Check(results.size() == stream.size(), "equiv drain count");
  cluster.RunUntilIdle();
  return ScheduleDigest(cluster, stream.size());
}

void RunEquivalence(int equiv_jobs, bench::BenchReport& report) {
  std::printf("== equivalence: ingress x{1,4,8} producers vs serial Submit "
              "loop (%d jobs) ==\n",
              equiv_jobs);
  const auto stream = MakeEquivStream(equiv_jobs);
  const std::string reference = RunSerialReference(stream);
  bool all_equal = true;
  for (const int producers : {1, 4, 8}) {
    const std::string digest = RunIngressed(stream, producers);
    const bool equal = digest == reference;
    all_equal = all_equal && equal;
    Check(equal, "schedule byte-identical to serial at " +
                     std::to_string(producers) + " producers");
    std::printf("  producers=%d  schedule %s (%zu bytes)\n", producers,
                equal ? "identical" : "DIVERGED", digest.size());
  }
  report.Set("equivalence_ok", static_cast<std::uint64_t>(all_equal ? 1 : 0));
  report.Set("equiv_jobs", static_cast<std::uint64_t>(equiv_jobs));
}

// ---------------------------------------------------------------------------
// Phases 2+3: throughput.

// The storm request factory: deterministic, allocation-light, users spread
// by a multiplicative hash so the sharded per-user state sees ~uniform load.
JobRequest StormRequest(std::uint64_t seq, std::uint32_t users) {
  JobRequest request;
  request.name = "storm";
  request.qos = "storm";
  request.account = "acct-storm";
  request.user_id =
      1000 + static_cast<std::uint32_t>((seq * 2654435761ull) % users);
  request.num_tasks = 1 + static_cast<int>(seq & 7);
  request.workload = WorkloadSpec::Fixed(kDurationQuantumS * (1 + (seq % 4)), 0.9);
  request.time_limit_s = 3600.0;
  return request;
}

double RunSerialBaseline(int serial_jobs) {
  // The pre-ingress front door: one synchronous Submit per job, inline
  // scheduling pass included (defer_dispatch=false is the Submit default).
  ClusterSim cluster(MakeConfig(/*defer=*/false));
  std::vector<JobRequest> requests;
  requests.reserve(static_cast<std::size_t>(serial_jobs));
  for (int i = 0; i < serial_jobs; ++i) {
    requests.push_back(StormRequest(static_cast<std::uint64_t>(i), 4096));
  }
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  std::size_t accepted = 0;
  for (auto& request : requests) {
    if (cluster.Submit(std::move(request)).ok()) ++accepted;
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - t0).count();
  Check(accepted == requests.size(), "serial baseline accepted all");
  const double rate = static_cast<double>(serial_jobs) / wall;
  std::printf("== serial per-call Submit: %d jobs in %.3f s = %.0f jobs/s "
              "==\n",
              serial_jobs, wall, rate);
  return rate;
}

struct StormResult {
  double rate = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double p999_s = 0.0;
  double backlog_peak = 0.0;
  std::uint64_t admitted = 0;
  std::uint64_t drained = 0;
};

StormResult RunStorm(std::uint64_t jobs, std::uint32_t users, int producers) {
  telemetry::MetricsRegistry registry;
  IngressConfig icfg;
  icfg.stripes = 32;
  icfg.max_queued = jobs + 1;  // the storm must never hit the hard cap
  icfg.metrics = &registry;
  // Admission control stays ON: the storm tier carries a per-user token
  // bucket generous enough that no legitimate job is limited (max ~dozen
  // jobs per user at 10M/1M), so the sharded million-entry limiter state is
  // on the measured path.
  QosRule storm_rule;
  storm_rule.user_rate_per_s = 1000.0;
  storm_rule.user_burst = 64.0;
  icfg.qos["storm"] = storm_rule;
  SubmitIngress ingress(icfg);

  // Sampled enqueue latency (every 64th call) into a shared histogram —
  // Observe() is sharded-atomic, safe from all producers.
  telemetry::Histogram latency({1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6,
                                1e-5, 1e-4, 1e-3, 1e-2, 1e-1});

  std::vector<char> seen(jobs, 0);
  std::atomic<std::uint64_t> admitted{0};
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  const std::uint64_t chunk =
      (jobs + static_cast<std::uint64_t>(producers) - 1) /
      static_cast<std::uint64_t>(producers);
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      const std::uint64_t begin = static_cast<std::uint64_t>(p) * chunk;
      const std::uint64_t end = std::min(jobs, begin + chunk);
      std::uint64_t ok = 0;
      for (std::uint64_t i = begin; i < end; ++i) {
        JobRequest request = StormRequest(i, users);
        if ((i & 63) == 0) {
          const auto s0 = Clock::now();
          ok += ingress.Submit(std::move(request), 0.0, i).ok() ? 1 : 0;
          latency.Observe(
              std::chrono::duration<double>(Clock::now() - s0).count());
        } else {
          ok += ingress.Submit(std::move(request), 0.0, i).ok() ? 1 : 0;
        }
      }
      admitted.fetch_add(ok, std::memory_order_relaxed);
    });
  }

  // The sim thread's side of the MPSC queue: drain to a counting sink until
  // every job came through. (At 10M jobs the cluster would hold ~6 GB of
  // JobRecords; schedule integration is phase 1's job — this phase measures
  // the front door itself.)
  std::uint64_t drained = 0;
  bool batches_sorted = true;
  bool each_once = true;
  while (drained < jobs) {
    const auto batch = ingress.Drain();
    if (batch.empty()) {
      std::this_thread::yield();
      continue;
    }
    std::uint64_t prev = 0;
    bool first = true;
    for (const auto& pending : batch) {
      if (!first && pending.seq <= prev) batches_sorted = false;
      prev = pending.seq;
      first = false;
      char& slot = seen[pending.seq];
      if (slot != 0) each_once = false;
      slot = 1;
    }
    drained += batch.size();
  }
  for (auto& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - t0).count();

  StormResult out;
  out.rate = static_cast<double>(jobs) / wall;
  out.p50_s = latency.Quantile(0.50);
  out.p99_s = latency.Quantile(0.99);
  out.p999_s = latency.Quantile(0.999);
  out.admitted = admitted.load();
  out.drained = drained;
  const telemetry::Gauge* peak =
      registry.FindGauge("eco_ingress_backlog_peak");
  out.backlog_peak = peak != nullptr ? peak->Value() : 0.0;

  Check(out.admitted == jobs, "storm admitted all " + std::to_string(jobs) +
                                  " (got " + std::to_string(out.admitted) +
                                  ")");
  Check(out.drained == jobs, "storm drained all");
  Check(each_once, "every seq drained exactly once");
  Check(batches_sorted, "every drained batch seq-sorted");

  std::printf("== storm: %llu jobs, %u users, %d producers: %.3f s = %.0f "
              "jobs/s ==\n",
              static_cast<unsigned long long>(jobs), users, producers, wall,
              out.rate);
  std::printf("  enqueue latency (sampled): p50=%.2f us  p99=%.2f us  "
              "p999=%.2f us\n",
              out.p50_s * 1e6, out.p99_s * 1e6, out.p999_s * 1e6);
  std::printf("  backlog peak: %.0f\n", out.backlog_peak);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t jobs = 10'000'000;
  std::uint32_t users = 1'000'000;
  int producers = 8;
  int serial_jobs = 50'000;
  int equiv_jobs = 20'000;
  std::uint64_t gate_scale = 1'000'000;
  bool skip_serial = false;
  bool skip_equiv = false;
  for (int i = 1; i < argc; ++i) {
    const auto int_arg = [&](const char* flag, auto* out) {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        *out = static_cast<std::remove_pointer_t<decltype(out)>>(
            std::strtoull(argv[++i], nullptr, 10));
        return true;
      }
      return false;
    };
    if (int_arg("--jobs", &jobs) || int_arg("--users", &users) ||
        int_arg("--producers", &producers) ||
        int_arg("--serial-jobs", &serial_jobs) ||
        int_arg("--equiv-jobs", &equiv_jobs) ||
        int_arg("--gate-scale", &gate_scale)) {
      continue;
    }
    if (std::strcmp(argv[i], "--skip-serial") == 0) {
      skip_serial = true;
    } else if (std::strcmp(argv[i], "--skip-equiv") == 0) {
      skip_equiv = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  users = std::max<std::uint32_t>(1, users);
  producers = std::max(1, producers);

  bench::BenchReport report("p5_ingress_storm");
  report.Set("jobs", static_cast<std::uint64_t>(jobs));
  report.Set("users", static_cast<std::uint64_t>(users));
  report.Set("producers", static_cast<std::uint64_t>(producers));

  if (!skip_equiv) RunEquivalence(equiv_jobs, report);

  double serial_rate = 0.0;
  if (!skip_serial) {
    serial_rate = RunSerialBaseline(serial_jobs);
    report.Set("serial_jobs_per_s", serial_rate);
  }

  const StormResult storm = RunStorm(jobs, users, producers);
  report.Set("ingest_jobs_per_s", storm.rate);
  report.Set("enqueue_p50_us", storm.p50_s * 1e6);
  report.Set("enqueue_p99_us", storm.p99_s * 1e6);
  report.Set("enqueue_p999_us", storm.p999_s * 1e6);
  report.Set("backlog_peak", storm.backlog_peak);

  if (serial_rate > 0.0) {
    const double speedup = storm.rate / serial_rate;
    report.Set("ingest_speedup", speedup);
    std::printf("== ingest speedup over serial per-call Submit: %.1fx ==\n",
                speedup);
    if (jobs >= gate_scale) {
      Check(speedup >= kGateSpeedup,
            "ingest >= 10x serial per-call Submit (got " +
                std::to_string(speedup) + "x)");
    }
  }
  if (jobs >= gate_scale) {
    Check(storm.p99_s <= kGateP99Seconds,
          "p99 enqueue latency <= 10 ms (got " +
              std::to_string(storm.p99_s * 1e3) + " ms)");
  }

  const std::string path = report.Write();
  if (!path.empty()) std::printf("artifact: %s\n", path.c_str());

  if (g_failures > 0) {
    std::printf("%d CHECK(S) FAILED\n", g_failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
