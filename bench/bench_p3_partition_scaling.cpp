// P3 — multi-partition sharded scheduling: burst-drain throughput at 1/4/16
// partitions on 256 nodes, plus the isolation gate the sharding exists for.
//
// Phase 1 (drain): N jobs land in one SubmitBatch at t=0, routed uniformly
// across P disjoint partitions, and the simulation runs dry. Disjoint
// shards plan concurrently on the thread pool; per-partition pass latency
// (dispatch_ns / dispatch_calls from each partition's SchedMetricSet) is
// reported alongside drain throughput.
//
// Phase 2 (isolation): 2 x 128-node partitions. A backlog of long jobs
// floods partition "a"; 32 timed probe submissions then go to idle
// partition "b", whose planning pass never touches a's backlog.
//
// Checked, not just reported, at every scale (smoke included):
//  - every drain job completes, and per-partition jobs_started sums to N;
//  - each partition's planner computes at most bench::FairShareEvalBudget
//    exact fair-share factors: 2 x (candidates + passes) + charges + users;
//  - every probe starts the moment it is submitted (sim time) — b always
//    has free nodes;
//  - b's planner examines at most 2 entries per probe: the backlog in "a"
//    never enters it.
//
// Flags: --max-jobs N caps both phases (bench-smoke uses --max-jobs 2000).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/log.hpp"
#include "common/perf.hpp"
#include "slurm/cluster.hpp"
#include "slurm/workload_gen.hpp"

namespace {

using namespace eco;
using namespace eco::slurm;
using Clock = std::chrono::steady_clock;

constexpr int kNodes = 256;
constexpr int kCoresPerNode = 32;
// Job durations are whole multiples of this, so completions arrive in
// waves.
constexpr double kDurationQuantumS = 60.0;
constexpr int kIsolationBacklog = 100'000;
constexpr int kProbes = 32;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL  %s\n", what.c_str());
  }
}

// P disjoint partitions p0..p{P-1}, each owning an equal slice of the nodes.
ClusterConfig PartitionedConfig(int partitions) {
  ClusterConfig config;
  config.nodes = kNodes;
  config.defer_dispatch = true;
  config.backfill_max_job_test = 100;
  config.partitions.clear();
  const int span = kNodes / partitions;
  for (int p = 0; p < partitions; ++p) {
    PartitionConfig partition;
    partition.name = "p" + std::to_string(p);
    partition.is_default = p == 0;
    partition.node_ranges = {{p * span, (p + 1) * span - 1}};
    config.partitions.push_back(partition);
  }
  return config;
}

std::vector<JobRequest> MakeDrainBacklog(int count, int partitions) {
  WorkloadMix mix;
  mix.hpcg_share = 0.0;
  mix.wide_share = 0.2;
  mix.wide_nodes = 4;
  mix.users = 16;
  mix.duration_quantum_s = kDurationQuantumS;
  mix.seed = 20'260'805;
  for (int p = 0; p < partitions; ++p) {
    mix.partitions.push_back("p" + std::to_string(p));
  }
  auto generated = GenerateWorkload(mix, count, kCoresPerNode, 1);
  std::vector<JobRequest> requests;
  requests.reserve(generated.size());
  for (auto& job : generated) requests.push_back(std::move(job.request));
  return requests;
}

void RunDrain(int partitions, int count, eco::bench::BenchReport& report) {
  const ClusterConfig config = PartitionedConfig(partitions);
  ClusterSim cluster(config);
  const auto backlog = MakeDrainBacklog(count, partitions);
  const auto t0 = Clock::now();
  const auto results = cluster.SubmitBatch(backlog);
  cluster.RunUntilIdle();
  const auto t1 = Clock::now();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();

  std::size_t completed = 0;
  for (const auto& result : results) {
    if (!result.ok()) continue;
    const auto job = cluster.GetJob(*result);
    if (job && job->state == JobState::kCompleted) ++completed;
  }
  Check(completed == backlog.size(),
        "drain P=" + std::to_string(partitions) + ": " +
            std::to_string(completed) + "/" + std::to_string(backlog.size()) +
            " jobs completed");

  // Per-partition pass latency from the partition metrics, plus the
  // isolation bookkeeping check: shard starts must account for every job.
  std::map<std::string, std::set<std::uint32_t>> users_in;
  for (const JobRequest& request : backlog) {
    users_in[request.partition].insert(request.user_id);
  }
  std::uint64_t started = 0;
  double worst_pass_us = 0.0, sum_pass_us = 0.0;
  int timed = 0;
  for (const auto& partition : cluster.partitions()) {
    const SchedMetricSet* metrics = cluster.sched_metrics(partition.name);
    started += metrics->jobs_started->Value();
    const std::uint64_t passes = metrics->dispatch_calls->Value();
    // Every started job finishes and charges its user once.
    const std::uint64_t budget = eco::bench::FairShareEvalBudget(
        metrics->plan_candidates->Value(), passes,
        metrics->jobs_started->Value(), users_in[partition.name].size());
    Check(metrics->fairshare_evals->Value() <= budget,
          "drain P=" + std::to_string(partitions) + " " + partition.name +
              ": planner computed " +
              std::to_string(metrics->fairshare_evals->Value()) +
              " fair-share factors, above the budget " +
              std::to_string(budget));
    if (passes > 0) {
      const double pass_us =
          static_cast<double>(metrics->dispatch_ns->Value()) /
          static_cast<double>(passes) / 1e3;
      worst_pass_us = std::max(worst_pass_us, pass_us);
      sum_pass_us += pass_us;
      ++timed;
    }
  }
  Check(started == backlog.size(),
        "drain P=" + std::to_string(partitions) +
            ": per-partition jobs_started sums to N");
  std::printf(
      "drain  P=%-3d %8d jobs  %8.3f s  %9.0f jobs/s  "
      "pass avg %8.1f us  worst %8.1f us\n",
      partitions, count, wall_s, count / std::max(wall_s, 1e-9),
      timed > 0 ? sum_pass_us / timed : 0.0, worst_pass_us);
  const std::string prefix = "drain_p" + std::to_string(partitions);
  report.Set(prefix + "_wall_s", wall_s);
  report.Set(prefix + "_worst_pass_us", worst_pass_us);
}

// Floods "a" (nodes 0..127) and times probe submissions into idle "b".
// Returns the worst single-probe submit latency in seconds.
double RunIsolation(int backlog_jobs) {
  ClusterConfig config;
  config.nodes = kNodes;
  // Inline dispatch: each Submit pays its own scheduling pass, which is
  // exactly what the probe timer must observe.
  config.defer_dispatch = false;
  config.backfill_max_job_test = 100;
  config.partitions.clear();
  PartitionConfig a;
  a.name = "a";
  a.is_default = true;
  a.node_ranges = {{0, kNodes / 2 - 1}};
  PartitionConfig b;
  b.name = "b";
  b.is_default = false;
  b.node_ranges = {{kNodes / 2, kNodes - 1}};
  config.partitions = {a, b};
  ClusterSim cluster(config);

  std::vector<JobRequest> backlog(static_cast<std::size_t>(backlog_jobs));
  for (std::size_t i = 0; i < backlog.size(); ++i) {
    JobRequest& request = backlog[i];
    request.name = "flood-" + std::to_string(i);
    request.user_id = 1000 + static_cast<std::uint32_t>(i % 16);
    request.num_tasks = 4;
    request.workload = WorkloadSpec::Fixed(500'000.0, 0.9);
    request.time_limit_s = 600'000.0;
    request.partition = "a";
  }
  for (const auto& result : cluster.SubmitBatch(std::move(backlog))) {
    Check(result.ok(), "isolation: backlog submit accepted");
  }

  double worst_s = 0.0;
  for (int i = 0; i < kProbes; ++i) {
    JobRequest probe;
    probe.name = "probe-" + std::to_string(i);
    probe.num_tasks = 4;
    probe.workload = WorkloadSpec::Fixed(60.0, 0.9);
    probe.time_limit_s = 600.0;
    probe.partition = "b";
    const SimTime now = cluster.Now();
    const auto t0 = Clock::now();
    const auto id = cluster.Submit(probe);
    const auto t1 = Clock::now();
    worst_s = std::max(worst_s, std::chrono::duration<double>(t1 - t0).count());
    Check(id.ok(), "isolation: probe accepted");
    if (id.ok()) {
      const auto job = cluster.GetJob(*id);
      // b has idle nodes throughout: the probe must start at submit time —
      // the backlog may only cost latency, never delay.
      Check(job->state == JobState::kRunning && job->start_time == now,
            "probe " + std::to_string(i) + " started immediately");
    }
  }
  Check(cluster.sched_metrics("b")->plan_candidates->Value() <=
            static_cast<std::uint64_t>(2 * kProbes),
        "b's planner never examined a's backlog");
  std::printf("probe  sharded backlog %7d  tail submit+pass %10.1f us\n",
              backlog_jobs, worst_s * 1e6);
  return worst_s;
}

}  // namespace

int main(int argc, char** argv) {
  int max_jobs = 1'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-jobs") == 0 && i + 1 < argc) {
      max_jobs = std::atoi(argv[++i]);
    } else {
      std::printf("usage: %s [--max-jobs N]\n", argv[0]);
      return 2;
    }
  }
  Logger::Instance().SetLevel(LogLevel::kWarn);
  eco::bench::BenchReport report("p3_partition_scaling");

  const int drain_jobs = std::min(100'000, max_jobs);
  for (const int partitions : {1, 4, 16}) {
    RunDrain(partitions, drain_jobs, report);
  }

  const int backlog = std::min(kIsolationBacklog, max_jobs);
  report.Set("isolation_sharded_tail_us", RunIsolation(backlog) * 1e6);
  report.Write();

  if (g_failures > 0) {
    std::printf("\n%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall checks passed\n");
  return 0;
}
