// Simulation tests: NodeSim physics/accounting, ClusterSim job lifecycle,
// governors, multi-node jobs, time limits, the green-window hold, and the
// energy market.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "slurm/cluster.hpp"
#include "slurm/energy_market.hpp"
#include "slurm/node_sim.hpp"

namespace eco::slurm {
namespace {

NodeParams FastNodeParams() {
  NodeParams params;  // EPYC profile
  return params;
}

JobRecord MakeHpcgJob(JobId id, int tasks, KiloHertz freq, int tpc,
                      int iterations = 20) {
  JobRecord job;
  job.id = id;
  job.request.num_tasks = tasks;
  job.request.threads_per_core = tpc;
  job.request.cpu_freq_min = freq;
  job.request.cpu_freq_max = freq;
  job.request.workload =
      WorkloadSpec::Hpcg(hpcg::HpcgProblem::Official(), iterations);
  return job;
}

// ---------------------------------------------------------------- NodeSim

TEST(NodeSim, RunsJobToCompletionWithPlausibleStats) {
  EventQueue queue;
  NodeSim node("n0", FastNodeParams(), &queue);
  bool done = false;
  RunStats stats;
  ASSERT_TRUE(node.StartJob(MakeHpcgJob(1, 32, kHz(2'500'000), 1, 200), 32,
                            [&](JobId, const RunStats& s) {
                              done = true;
                              stats = s;
                            })
                  .ok());
  EXPECT_FALSE(node.idle());
  queue.RunAll();
  ASSERT_TRUE(done);
  EXPECT_TRUE(node.idle());
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_NEAR(stats.gflops, 9.35, 0.15);
  EXPECT_GT(stats.avg_system_watts, 150.0);
  EXPECT_LT(stats.avg_system_watts, 260.0);
  EXPECT_GT(stats.avg_cpu_temp, 40.0);
  EXPECT_NEAR(stats.system_joules,
              stats.avg_system_watts * stats.seconds, 1.0);
}

TEST(NodeSim, PinnedFrequencyIsHonoured) {
  EventQueue queue;
  NodeSim node("n0", FastNodeParams(), &queue);
  ASSERT_TRUE(node.StartJob(MakeHpcgJob(1, 16, kHz(1'500'000), 1), 16,
                            [](JobId, const RunStats&) {})
                  .ok());
  queue.RunUntil(5.0);
  EXPECT_EQ(node.current_frequency(), kHz(1'500'000));
  queue.RunAll();
}

TEST(NodeSim, UnpinnedJobUsesDefaultGovernor) {
  EventQueue queue;
  NodeParams params = FastNodeParams();
  params.default_governor = hw::Governor::kPowersave;
  NodeSim node("n0", params, &queue);
  JobRecord job = MakeHpcgJob(1, 16, 0, 1);  // freq 0 = not pinned
  job.request.cpu_freq_min = job.request.cpu_freq_max = 0;
  ASSERT_TRUE(node.StartJob(job, 16, [](JobId, const RunStats&) {}).ok());
  queue.RunUntil(5.0);
  EXPECT_EQ(node.current_frequency(), kHz(1'500'000));
  queue.RunAll();
}

TEST(NodeSim, RejectsOversizedOrBusyRequests) {
  EventQueue queue;
  NodeSim node("n0", FastNodeParams(), &queue);
  EXPECT_FALSE(node.StartJob(MakeHpcgJob(1, 40, kHz(2'500'000), 1), 40,
                             nullptr)
                   .ok());  // > 32 cores
  JobRecord bad_tpc = MakeHpcgJob(2, 4, kHz(2'500'000), 3);
  EXPECT_FALSE(node.StartJob(bad_tpc, 4, nullptr).ok());  // tpc > 2
  ASSERT_TRUE(node.StartJob(MakeHpcgJob(3, 4, kHz(2'500'000), 1), 4,
                            [](JobId, const RunStats&) {})
                  .ok());
  EXPECT_FALSE(
      node.StartJob(MakeHpcgJob(4, 4, kHz(2'500'000), 1), 4, nullptr).ok());
  queue.RunAll();
}

TEST(NodeSim, CancelReturnsPartialStatsAndFreesNode) {
  EventQueue queue;
  NodeSim node("n0", FastNodeParams(), &queue);
  bool completion_fired = false;
  ASSERT_TRUE(node.StartJob(MakeHpcgJob(1, 32, kHz(2'500'000), 1, 1000), 32,
                            [&](JobId, const RunStats&) {
                              completion_fired = true;
                            })
                  .ok());
  queue.RunUntil(30.0);
  const RunStats partial = node.CancelJob();
  EXPECT_TRUE(node.idle());
  EXPECT_NEAR(partial.seconds, 30.0, 1.5);
  EXPECT_GT(partial.system_joules, 0.0);
  queue.RunAll();
  EXPECT_FALSE(completion_fired);
}

// An HPCG run whose governor moves the frequency mid-run: a deep phase
// modulation and a tiny compute capability swing utilization between ~0.3
// and 1.0, so ondemand steps down and jumps back up. The energy books are
// pinned to the values the per-tick model evaluation produced, so caching
// the operating point per frequency must not move a single bit.
TEST(NodeSim, OndemandFrequencyChangesKeepHpcgEnergyBooksBitExact) {
  EventQueue queue;
  NodeParams params = FastNodeParams();
  params.default_governor = hw::Governor::kOndemand;
  params.perf.phase_amp_base = 0.7;
  params.perf.compute_gflops_per_ghz = 0.01;
  NodeSim node("n0", params, &queue);
  JobRecord job = MakeHpcgJob(1, 8, 0, 2, 300);
  job.request.cpu_freq_min = job.request.cpu_freq_max = 0;
  RunStats stats;
  ASSERT_TRUE(node.StartJob(job, 8, [&](JobId, const RunStats& s) {
                    stats = s;
                  }).ok());
  std::set<KiloHertz> seen;
  for (int t = 0; t < 600; ++t) {
    queue.ScheduleAt(t + 0.5, [&](SimTime) {
      if (!node.idle()) seen.insert(node.current_frequency());
    });
  }
  queue.RunAll();
  EXPECT_EQ(seen.size(), 3u);  // every level of the EPYC ladder
  EXPECT_EQ(stats.seconds, 264.0);
  EXPECT_EQ(stats.system_joules, 0x1.e6a2e57b200afp+14);
  EXPECT_EQ(stats.cpu_joules, 0x1.6285caf64016bp+13);
  EXPECT_EQ(stats.gflops, 0x1.9436709b8f1efp+1);
  EXPECT_EQ(stats.avg_cpu_temp, 0x1.227d7d7a5de73p+5);
}

TEST(NodeSim, FixedDurationWorkloadEndsOnTime) {
  EventQueue queue;
  NodeSim node("n0", FastNodeParams(), &queue);
  JobRecord job;
  job.id = 5;
  job.request.num_tasks = 8;
  job.request.workload = WorkloadSpec::Fixed(120.0, 0.8);
  double seconds = 0.0;
  ASSERT_TRUE(node.StartJob(job, 8, [&](JobId, const RunStats& s) {
                    seconds = s.seconds;
                  }).ok());
  queue.RunAll();
  EXPECT_NEAR(seconds, 120.0, 1.5);
}

TEST(NodeSim, LowerFrequencyLowersPowerButLengthensHpcgRun) {
  auto run = [](KiloHertz f) {
    EventQueue queue;
    NodeSim node("n0", FastNodeParams(), &queue);
    RunStats stats;
    node.StartJob(MakeHpcgJob(1, 32, f, 1, 100), 32,
                  [&](JobId, const RunStats& s) { stats = s; });
    queue.RunAll();
    return stats;
  };
  const RunStats slow = run(kHz(1'500'000));
  const RunStats fast = run(kHz(2'500'000));
  EXPECT_LT(slow.avg_system_watts, fast.avg_system_watts);
  EXPECT_GT(slow.seconds, fast.seconds);
  EXPECT_LT(slow.gflops, fast.gflops);
}

TEST(NodeSim, PowerSourceReadsWhileIdleDecayToBaseline) {
  EventQueue queue;
  NodeSim node("n0", FastNodeParams(), &queue);
  const double idle_watts = node.SystemWatts();
  // Idle draw = platform + uncore idle + fans.
  EXPECT_GT(idle_watts, 70.0);
  EXPECT_LT(idle_watts, 110.0);
  EXPECT_NEAR(node.CpuTempCelsius(), 25.0, 1.0);
}

// -------------------------------------------------------------- Cluster

ClusterConfig SmallCluster(int nodes = 1) {
  ClusterConfig config;
  config.nodes = nodes;
  return config;
}

JobRequest QuickJob(int tasks = 4, double seconds = 60.0) {
  JobRequest request;
  request.num_tasks = tasks;
  request.workload = WorkloadSpec::Fixed(seconds);
  request.time_limit_s = 3600.0;
  return request;
}

TEST(Cluster, SubmitRunsJobThroughLifecycle) {
  ClusterSim cluster(SmallCluster());
  auto id = cluster.Submit(QuickJob());
  ASSERT_TRUE(id.ok());
  auto pending = cluster.GetJob(*id);
  ASSERT_TRUE(pending.has_value());
  EXPECT_EQ(pending->state, JobState::kRunning);  // dispatched immediately
  cluster.RunUntilIdle();
  auto done = cluster.GetJob(*id);
  EXPECT_EQ(done->state, JobState::kCompleted);
  EXPECT_GT(done->system_joules, 0.0);
  EXPECT_EQ(cluster.accounting().records().size(), 1u);
}

TEST(Cluster, ValidatesRequests) {
  ClusterSim cluster(SmallCluster());
  JobRequest bad = QuickJob();
  bad.num_tasks = 0;
  EXPECT_FALSE(cluster.Submit(bad).ok());
  bad = QuickJob();
  bad.num_tasks = 64;  // > 32 cores on one node
  EXPECT_FALSE(cluster.Submit(bad).ok());
  bad = QuickJob();
  bad.min_nodes = 3;  // only 1 node
  EXPECT_FALSE(cluster.Submit(bad).ok());
  bad = QuickJob();
  bad.threads_per_core = 4;
  EXPECT_FALSE(cluster.Submit(bad).ok());
}

TEST(Cluster, QueuesWhenBusyAndRunsAfter) {
  ClusterSim cluster(SmallCluster());
  auto first = cluster.Submit(QuickJob(32, 100.0));
  auto second = cluster.Submit(QuickJob(32, 50.0));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cluster.GetJob(*second)->state, JobState::kPending);
  EXPECT_EQ(cluster.Queue().size(), 2u);
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.GetJob(*second)->state, JobState::kCompleted);
  // Second job started only after the first finished.
  EXPECT_GE(cluster.GetJob(*second)->start_time,
            cluster.GetJob(*first)->end_time - 1e-6);
}

TEST(Cluster, TimeLimitCancelsRunawayJob) {
  ClusterSim cluster(SmallCluster());
  JobRequest request = QuickJob(8, 10'000.0);
  request.time_limit_s = 120.0;
  auto id = cluster.Submit(request);
  ASSERT_TRUE(id.ok());
  cluster.RunUntilIdle();
  const auto job = cluster.GetJob(*id);
  EXPECT_EQ(job->state, JobState::kCancelled);
  EXPECT_NEAR(job->RunSeconds(), 120.0, 2.0);
}

TEST(Cluster, CancelPendingAndRunning) {
  ClusterSim cluster(SmallCluster());
  auto running = cluster.Submit(QuickJob(32, 500.0));
  auto waiting = cluster.Submit(QuickJob(32, 500.0));
  ASSERT_TRUE(cluster.Cancel(*waiting).ok());
  EXPECT_EQ(cluster.GetJob(*waiting)->state, JobState::kCancelled);
  cluster.RunUntil(10.0);
  ASSERT_TRUE(cluster.Cancel(*running).ok());
  EXPECT_EQ(cluster.GetJob(*running)->state, JobState::kCancelled);
  EXPECT_TRUE(cluster.node(0).idle());
  EXPECT_FALSE(cluster.Cancel(*running).ok());  // already finished
  EXPECT_FALSE(cluster.Cancel(9999).ok());
}

TEST(Cluster, MultiNodeJobUsesAllNodesAndAggregatesEnergy) {
  ClusterSim cluster(SmallCluster(4));
  JobRequest request;
  request.min_nodes = 4;
  request.num_tasks = 64;  // 16 per node
  request.workload = WorkloadSpec::Fixed(100.0);
  auto job = cluster.RunJobToCompletion(request);
  ASSERT_TRUE(job.ok()) << job.message();
  EXPECT_EQ(job->allocated_nodes, 4);
  // Energy is the sum over 4 nodes: well above a single node's draw.
  EXPECT_GT(job->system_joules, 4 * 90.0 * 100.0 * 0.8);
}

TEST(Cluster, BackfillImprovesUtilisationOverFifo) {
  auto makespan = [](SchedulerPolicy policy) {
    ClusterConfig config = SmallCluster(2);
    config.policy = policy;
    config.use_multifactor = false;
    ClusterSim cluster(config);
    // Wide head job blocks FIFO; short narrow jobs can backfill.
    JobRequest wide;
    wide.min_nodes = 2;
    wide.num_tasks = 64;
    wide.workload = WorkloadSpec::Fixed(300.0);
    wide.time_limit_s = 400.0;
    JobRequest narrow;
    narrow.num_tasks = 8;
    narrow.workload = WorkloadSpec::Fixed(100.0);
    narrow.time_limit_s = 150.0;
    // Occupy one node so the wide job must wait.
    JobRequest blocker;
    blocker.num_tasks = 8;
    blocker.workload = WorkloadSpec::Fixed(200.0);
    blocker.time_limit_s = 250.0;
    cluster.Submit(blocker);
    cluster.Submit(wide);
    cluster.Submit(narrow);
    cluster.RunUntilIdle();
    return cluster.accounting().Totals().makespan_seconds;
  };
  EXPECT_LT(makespan(SchedulerPolicy::kBackfill),
            makespan(SchedulerPolicy::kFifo));
}

TEST(Cluster, MultifactorFairShareReordersQueue) {
  ClusterConfig config = SmallCluster(1);
  config.use_multifactor = true;
  ClusterSim cluster(config);
  // User 1 hogs the node first.
  JobRequest hog = QuickJob(32, 200.0);
  hog.user_id = 1;
  cluster.Submit(hog);
  // Then user 1 and user 2 queue identical jobs; user 1 submitted first.
  JobRequest again = QuickJob(32, 50.0);
  again.user_id = 1;
  auto hog_again = cluster.Submit(again);
  JobRequest fresh = QuickJob(32, 50.0);
  fresh.user_id = 2;
  auto newcomer = cluster.Submit(fresh);
  cluster.RunUntilIdle();
  // Fair share lets the newcomer overtake the hog's second job.
  EXPECT_LT(cluster.GetJob(*newcomer)->start_time,
            cluster.GetJob(*hog_again)->start_time);
}

TEST(Cluster, RunJobToCompletionReportsFailures) {
  ClusterSim cluster(SmallCluster());
  JobRequest request = QuickJob(8, 10'000.0);
  request.time_limit_s = 60.0;
  const auto result = cluster.RunJobToCompletion(request);
  EXPECT_FALSE(result.ok());  // cancelled by time limit
}

// -------------------------------------------------------- Green windows

TEST(Cluster, GreenJobsHeldUntilWindow) {
  ClusterConfig config = SmallCluster(1);
  config.enable_green_hold = true;
  // Make "green" essentially unreachable right away: evening peak at t=19h.
  ClusterSim cluster(config);
  // Find a non-green instant to submit at.
  const EnergyMarket& market = cluster.market();
  GreenWindowPolicy policy(&market, config.green);
  SimTime dirty_time = 0.0;
  for (SimTime t = 0.0; t < 86400.0; t += 900.0) {
    if (!policy.IsGreen(t)) {
      dirty_time = t;
      break;
    }
  }
  cluster.RunUntil(dirty_time);
  JobRequest request = QuickJob();
  request.comment = "green please";
  auto id = cluster.Submit(request);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(cluster.GetJob(*id)->state, JobState::kHeld);
  cluster.RunUntilIdle();
  const auto job = cluster.GetJob(*id);
  EXPECT_EQ(job->state, JobState::kCompleted);
  EXPECT_GT(job->start_time, dirty_time);
}

TEST(Cluster, NonGreenJobsUnaffectedByGreenHold) {
  ClusterConfig config = SmallCluster(1);
  config.enable_green_hold = true;
  ClusterSim cluster(config);
  auto id = cluster.Submit(QuickJob());
  ASSERT_TRUE(id.ok());
  EXPECT_NE(cluster.GetJob(*id)->state, JobState::kHeld);
  cluster.RunUntilIdle();
}

// ---------------------------------------------------------------- Market

TEST(EnergyMarket, DailyShape) {
  EnergyMarket market;
  // Evening peak (19:00) costs more than midday solar valley (13:00).
  EXPECT_GT(market.PriceAt(19 * 3600.0), market.PriceAt(13 * 3600.0));
  // Carbon intensity falls when renewables are up.
  EXPECT_LT(market.CarbonAt(13 * 3600.0), market.CarbonAt(19 * 3600.0));
  // Renewable share bounded.
  for (int h = 0; h < 24; ++h) {
    const double share = market.RenewableShareAt(h * 3600.0);
    EXPECT_GE(share, 0.0);
    EXPECT_LE(share, 1.0);
  }
}

TEST(EnergyMarket, CostIntegralScalesWithPowerAndTime) {
  EnergyMarket market;
  const double base = market.EnergyCost(0.0, 3600.0, 200.0);
  EXPECT_GT(base, 0.0);
  EXPECT_NEAR(market.EnergyCost(0.0, 3600.0, 400.0), 2.0 * base, 1e-9);
  EXPECT_GT(market.EnergyCost(0.0, 7200.0, 200.0), base);
}

TEST(GreenWindow, NextGreenTimeIsGreenOrCapped) {
  EnergyMarket market;
  GreenWindowPolicy policy(&market);
  for (SimTime t : {0.0, 8.5 * 3600.0, 19.0 * 3600.0}) {
    const SimTime next = policy.NextGreenTime(t);
    EXPECT_GE(next, t);
    EXPECT_LE(next, t + 24 * 3600.0 + 1.0);
  }
}

}  // namespace
}  // namespace eco::slurm
