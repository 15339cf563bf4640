// Schedule-equivalence suite: the scheduler (PendingIndex + NodeTimeline)
// must emit the reference schedule — identical start order, start/end times
// and node placement — on randomized small workloads, across FIFO/backfill,
// multifactor on/off, dependencies, cancels, timeouts, green holds, power
// caps, and the eco plugin. Each workload is pinned to a golden digest
// frozen from the sort-everything reference engine (schedule_golden.hpp),
// together with that engine's plan_candidates, which the index may never
// exceed.
//
// Power-cap doom timing is pinned too: a job failed at execution for
// exceeding the cap on an idle cluster dooms its dependents in the same
// pass, at the same sim timestamp (PowerCapDoomTimingMatches).
//
// The ingress-vs-serial half checks the front door: any number of racing
// producers must reproduce the serial Submit loop's schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "chronus/env.hpp"
#include "chronus/integrations.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "plugin/job_submit_eco.hpp"
#include "schedule_golden.hpp"
#include "slurm/cluster.hpp"
#include "slurm/ingress.hpp"

namespace eco::slurm {
namespace {

struct Action {
  SimTime t = 0.0;
  bool is_cancel = false;
  JobRequest request;   // submit
  JobId cancel_id = 0;  // cancel
};

// A randomized scenario: submits with mixed shapes, users, dependencies and
// deliberate timeouts, plus a few cancels sprinkled over the run.
std::vector<Action> MakeScenario(std::uint64_t seed, int count,
                                 bool with_deps, bool green_comments) {
  Rng rng(seed);
  std::vector<Action> actions;
  SimTime clock = 0.0;
  std::vector<SimTime> arrivals;
  for (int i = 0; i < count; ++i) {
    clock += rng.Uniform(1.0, 90.0);
    Action action;
    action.t = clock;
    JobRequest& request = action.request;
    request.name = "job-" + std::to_string(i);
    request.user_id = 1000 + static_cast<std::uint32_t>(rng.NextBounded(4));
    request.min_nodes = rng.UniformInt(1, 3);
    request.num_tasks = 4 * request.min_nodes;
    const double duration = rng.Uniform(20.0, 300.0);
    request.workload = WorkloadSpec::Fixed(duration, rng.Uniform(0.5, 0.95));
    // ~1 in 8 jobs hits its time limit (exercises OnTimeout in both modes).
    request.time_limit_s = rng.Chance(0.125) ? duration * 0.5
                                             : duration * rng.Uniform(1.2, 4.0);
    if (with_deps && i > 0 && rng.Chance(0.25)) {
      // Job ids are assigned 1..count in submission order.
      request.depends_on.push_back(
          static_cast<JobId>(1 + rng.NextBounded(static_cast<std::uint64_t>(i))));
    }
    if (green_comments && rng.Chance(0.4)) request.comment = "green";
    arrivals.push_back(clock);
    actions.push_back(std::move(action));
  }
  // Cancels: aimed at random jobs after their submission; depending on
  // timing they hit pending, running, or finished jobs — all must match.
  const int cancels = count / 8;
  for (int i = 0; i < cancels; ++i) {
    const auto victim = rng.NextBounded(static_cast<std::uint64_t>(count));
    Action action;
    action.is_cancel = true;
    action.cancel_id = static_cast<JobId>(victim + 1);
    action.t = arrivals[victim] + rng.Uniform(0.0, 400.0);
    actions.push_back(std::move(action));
  }
  std::stable_sort(actions.begin(), actions.end(),
                   [](const Action& a, const Action& b) { return a.t < b.t; });
  return actions;
}

// Applies the scenario; `ids` receives the cluster-assigned id of each
// submitted job (the cluster may have pre-existing jobs, e.g. the chronus
// benchmark runs, so scenario job numbers are remapped through it).
void Drive(ClusterSim& cluster, const std::vector<Action>& actions,
           std::vector<JobId>* ids) {
  for (const Action& action : actions) {
    cluster.RunUntil(action.t);
    if (action.is_cancel) {
      if (action.cancel_id <= ids->size()) {
        (void)cluster.Cancel((*ids)[action.cancel_id - 1]);
      }
    } else {
      auto id = cluster.Submit(action.request);
      EXPECT_TRUE(id.ok()) << id.message();
      ids->push_back(id.ok() ? *id : 0);
    }
  }
  cluster.RunUntilIdle();
}

void ExpectIdenticalSchedules(ClusterSim& reference,
                              const std::vector<JobId>& reference_ids,
                              ClusterSim& candidate,
                              const std::vector<JobId>& candidate_ids,
                              const std::string& label) {
  ASSERT_EQ(reference_ids.size(), candidate_ids.size()) << label;
  for (std::size_t i = 0; i < reference_ids.size(); ++i) {
    const auto a = reference.GetJob(reference_ids[i]);
    const auto b = candidate.GetJob(candidate_ids[i]);
    ASSERT_TRUE(a.has_value() && b.has_value()) << label << " job " << i;
    EXPECT_EQ(a->state, b->state) << label << " job " << i + 1;
    EXPECT_EQ(a->start_time, b->start_time) << label << " job " << i + 1;
    EXPECT_EQ(a->end_time, b->end_time) << label << " job " << i + 1;
    EXPECT_EQ(a->node, b->node) << label << " job " << i + 1;
    EXPECT_EQ(a->allocated_nodes, b->allocated_nodes)
        << label << " job " << i + 1;
  }
}

std::string RenderJobs(const ClusterSim& cluster, const std::vector<JobId>& ids,
                       bool with_request = false) {
  std::string rendering;
  for (const JobId id : ids) {
    const auto job = cluster.GetJob(id);
    EXPECT_TRUE(job.has_value()) << "job " << id;
    if (job.has_value()) rendering += golden::RenderJob(*job, with_request);
  }
  return rendering;
}

// One frozen workload: the reference engine's schedule digest and the
// number of queue entries its full-queue sort examined over the run.
struct Golden {
  const char* digest;
  std::uint64_t reference_candidates;
};

void RunGolden(ClusterConfig config, std::uint64_t seed, int count,
               bool with_deps, bool green_comments, const Golden& expected,
               const std::string& label) {
  const auto actions = MakeScenario(seed, count, with_deps, green_comments);
  ClusterSim cluster(config);
  std::vector<JobId> ids;
  Drive(cluster, actions, &ids);
  const std::string rendering = RenderJobs(cluster, ids);
  EXPECT_EQ(golden::Digest(rendering), expected.digest)
      << label << " schedule:\n"
      << rendering;
  // The whole point: the index never examines more of the queue than the
  // reference engine's full-queue sort did on the same workload.
  EXPECT_LE(cluster.sched_metrics().plan_candidates->Value(),
            expected.reference_candidates)
      << label;
}

class SchedEquivalence : public ::testing::Test {
 protected:
  void SetUp() override { Logger::Instance().SetLevel(LogLevel::kError); }
  void TearDown() override {
    plugin::SetChronusGateway(nullptr);
    Logger::Instance().SetLevel(LogLevel::kInfo);
  }
};

ClusterConfig BaseConfig(SchedulerPolicy policy, bool multifactor) {
  ClusterConfig config;
  config.nodes = 6;
  config.policy = policy;
  config.use_multifactor = multifactor;
  return config;
}

TEST_F(SchedEquivalence, BackfillMultifactorRandomWorkloads) {
  const std::pair<std::uint64_t, Golden> cases[] = {
      {101, {"798b123566bf2fcd", 384}},
      {202, {"9427bf6388889dd", 246}},
      {303, {"62fa3cd5d159947d", 291}},
  };
  for (const auto& [seed, expected] : cases) {
    RunGolden(BaseConfig(SchedulerPolicy::kBackfill, true), seed, 60,
              /*with_deps=*/true, /*green=*/false, expected,
              "backfill/mf seed " + std::to_string(seed));
  }
}

TEST_F(SchedEquivalence, FifoMultifactorRandomWorkloads) {
  const std::pair<std::uint64_t, Golden> cases[] = {
      {404, {"459ac69198dd53b1", 208}},
      {505, {"ced1314a1f8070dd", 828}},
  };
  for (const auto& [seed, expected] : cases) {
    RunGolden(BaseConfig(SchedulerPolicy::kFifo, true), seed, 60,
              /*with_deps=*/true, /*green=*/false, expected,
              "fifo/mf seed " + std::to_string(seed));
  }
}

TEST_F(SchedEquivalence, BackfillSubmitOrderPriority) {
  const std::pair<std::uint64_t, Golden> cases[] = {
      {606, {"40abf93fd862df95", 376}},
      {707, {"1f1cb9e18deaeb3", 506}},
  };
  for (const auto& [seed, expected] : cases) {
    RunGolden(BaseConfig(SchedulerPolicy::kBackfill, false), seed, 60,
              /*with_deps=*/true, /*green=*/false, expected,
              "backfill/fifo-prio seed " + std::to_string(seed));
  }
}

TEST_F(SchedEquivalence, AgeSaturationCrossoverMatches) {
  // Tiny max_age forces jobs to saturate mid-run, exercising the index's
  // growing->saturated migration against the reference recompute.
  ClusterConfig config = BaseConfig(SchedulerPolicy::kBackfill, true);
  config.priority_weights.max_age_seconds = 120.0;
  RunGolden(config, 808, 60, /*with_deps=*/false, /*green=*/false,
            {"51a1ee6241878dfb", 457}, "age-saturation");
}

TEST_F(SchedEquivalence, GreenHoldReleaseMatches) {
  ClusterConfig config = BaseConfig(SchedulerPolicy::kBackfill, true);
  config.enable_green_hold = true;
  RunGolden(config, 909, 50, /*with_deps=*/true, /*green=*/true,
            {"81c707da054e7ea6", 80},
            "green-hold");
}

TEST_F(SchedEquivalence, PowerCapSchedulesMatch) {
  // Budget ~2.5 one-node jobs above idle draw: narrow jobs get deferred by
  // the cap under load, and 3-node jobs exceed it outright on an idle
  // cluster (the failure path that dooms dependents).
  ClusterConfig config = BaseConfig(SchedulerPolicy::kBackfill, true);
  ClusterSim probe(config);
  JobRequest one_node;
  one_node.num_tasks = 4;
  one_node.workload = WorkloadSpec::Fixed(100.0, 0.9);
  config.power_cap_watts =
      probe.ClusterWatts() + 2.5 * probe.EstimateJobWatts(one_node);
  const std::pair<std::uint64_t, Golden> cases[] = {
      {1212, {"585d374677db11b0", 467}},
      {1313, {"3a3b5e02a4aee9e0", 416}},
  };
  for (const auto& [seed, expected] : cases) {
    RunGolden(config, seed, 50, /*with_deps=*/true, /*green=*/false, expected,
              "power-cap seed " + std::to_string(seed));
  }
}

TEST_F(SchedEquivalence, PowerCapDoomTimingMatches) {
  // An idle cluster fails a job that alone exceeds the cap. Its dependent
  // must be doomed in the same pass, at the same sim time — the reference
  // engine re-screened dependencies right after the failed execution, and
  // the golden pins that timing.
  ClusterConfig config = BaseConfig(SchedulerPolicy::kBackfill, true);
  ClusterSim probe(config);
  JobRequest big;
  big.name = "over-cap";
  big.min_nodes = 3;
  big.num_tasks = 12;
  big.workload = WorkloadSpec::Fixed(100.0, 0.9);
  big.time_limit_s = 500.0;
  config.power_cap_watts =
      probe.ClusterWatts() + 0.5 * probe.EstimateJobWatts(big);

  ClusterSim cluster(config);
  const auto big_id = cluster.Submit(big);
  ASSERT_TRUE(big_id.ok());
  JobRequest dependent;
  dependent.name = "doomed-dependent";
  dependent.num_tasks = 4;
  dependent.workload = WorkloadSpec::Fixed(50.0, 0.9);
  dependent.time_limit_s = 500.0;
  dependent.depends_on.push_back(*big_id);
  const auto dep_id = cluster.Submit(dependent);
  ASSERT_TRUE(dep_id.ok());
  cluster.RunUntilIdle();

  const auto big_job = cluster.GetJob(*big_id);
  const auto dep_job = cluster.GetJob(*dep_id);
  ASSERT_TRUE(big_job.has_value() && dep_job.has_value());
  EXPECT_EQ(big_job->state, JobState::kFailed);
  EXPECT_EQ(dep_job->state, JobState::kFailed);
  // The dependent dies in the same pass as the cap failure, not later.
  EXPECT_EQ(dep_job->end_time, big_job->end_time);
  const std::string rendering = RenderJobs(cluster, {*big_id, *dep_id});
  EXPECT_EQ(golden::Digest(rendering), "cf54d993b99508fd") << rendering;
}

TEST_F(SchedEquivalence, EcoPluginRewritesMatch) {
  namespace fs = std::filesystem;
  using chronus::EnvOptions;
  using chronus::MakeSimEnv;
  using chronus::RunFullPipeline;

  const std::string workdir = testing::TempDir() + "eco_equiv";
  fs::remove_all(workdir);
  fs::create_directories(workdir);
  EnvOptions options;
  options.workdir = workdir;
  options.runner.target_seconds = 60.0;
  options.cluster = BaseConfig(SchedulerPolicy::kBackfill, true);
  auto env = MakeSimEnv(options);
  ASSERT_TRUE(RunFullPipeline(env,
                              {{32, 1, kHz(2'200'000)},
                               {32, 1, kHz(2'500'000)},
                               {16, 1, kHz(2'200'000)}},
                              "brute-force")
                  .ok());
  plugin::SetChronusGateway(env.gateway);
  ASSERT_TRUE(env.cluster->plugins().Load(plugin::EcoPluginOps()).ok());

  // Every other one- or two-node job opts into the eco plugin rewrite with
  // the benchmarked binary (the 16- or 32-task rewrite must divide evenly
  // over the job's nodes). The golden covers the rewrite itself
  // (cpu_freq_max, num_tasks) as well as the schedule.
  auto actions = MakeScenario(1111, 25, /*with_deps=*/false, /*green=*/false);
  int i = 0;
  for (Action& action : actions) {
    if (action.is_cancel || action.request.min_nodes > 2) continue;
    if ((i++ % 2) != 0) continue;
    action.request.comment = "chronus";
    action.request.script = "srun --mpi=pmix_v4 ../hpcg/build/bin/xhpcg\n";
  }
  std::vector<JobId> ids;
  Drive(*env.cluster, actions, &ids);
  const std::string rendering =
      RenderJobs(*env.cluster, ids, /*with_request=*/true);
  EXPECT_EQ(golden::Digest(rendering), "12fe86a8c3ddc87b") << rendering;
  plugin::SetChronusGateway(nullptr);
}

// ------------------------------------------------- ingress-vs-serial suite
// The front-door guarantee: requests pushed through SubmitIngress by ANY
// number of racing producer threads must yield the exact schedule of a
// serial per-call Submit loop. Each wave arrives at one sim timestamp, which
// defer_dispatch coalesces into a single scheduling pass either way.

std::vector<std::vector<JobRequest>> MakeWaves(std::uint64_t seed, int waves,
                                               int per_wave) {
  Rng rng(seed);
  std::vector<std::vector<JobRequest>> out(waves);
  int i = 0;
  for (auto& wave : out) {
    for (int j = 0; j < per_wave; ++j) {
      JobRequest request;
      request.name = "wave-" + std::to_string(i++);
      request.user_id = 1000 + static_cast<std::uint32_t>(rng.NextBounded(16));
      request.min_nodes = rng.UniformInt(1, 3);
      request.num_tasks = 4 * request.min_nodes;
      const double duration = rng.Uniform(20.0, 300.0);
      request.workload = WorkloadSpec::Fixed(duration, rng.Uniform(0.5, 0.95));
      request.time_limit_s = duration * rng.Uniform(1.2, 4.0);
      wave.push_back(std::move(request));
    }
  }
  return out;
}

void RunIngressEquivalence(ClusterConfig config, int producers, int waves,
                           int per_wave, const std::string& label) {
  config.defer_dispatch = true;
  const auto stream = MakeWaves(2024, waves, per_wave);
  constexpr SimTime kWaveGap = 400.0;

  // Serial reference: one Submit call per request, in stream order.
  ClusterSim serial(config);
  std::vector<JobId> serial_ids;
  for (std::size_t w = 0; w < stream.size(); ++w) {
    serial.RunUntil(static_cast<SimTime>(w) * kWaveGap);
    for (const JobRequest& request : stream[w]) {
      const auto id = serial.Submit(request);
      ASSERT_TRUE(id.ok()) << label;
      serial_ids.push_back(*id);
    }
  }
  serial.RunUntilIdle();

  // Ingressed: `producers` threads race each wave into the front door with
  // caller seqs (the global stream index), then one drain per wave.
  ClusterSim ingressed(config);
  IngressConfig ingress_config;
  ingress_config.stripes = 4;  // fewer stripes than producers: contention
  ingress_config.metrics = &ingressed.metrics();
  SubmitIngress ingress(std::move(ingress_config));
  std::vector<JobId> ingress_ids;
  std::uint64_t base_seq = 0;
  for (std::size_t w = 0; w < stream.size(); ++w) {
    ingressed.RunUntil(static_cast<SimTime>(w) * kWaveGap);
    const std::vector<JobRequest>& wave = stream[w];
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&ingress, &wave, base_seq, p, producers] {
        for (std::size_t i = p; i < wave.size();
             i += static_cast<std::size_t>(producers)) {
          ASSERT_TRUE(ingress.Submit(wave[i], 0.0, base_seq + i).ok());
        }
      });
    }
    for (auto& t : threads) t.join();
    base_seq += wave.size();
    for (const auto& result : ingress.DrainInto(ingressed)) {
      ASSERT_TRUE(result.ok()) << label;
      ingress_ids.push_back(*result);
    }
  }
  ingressed.RunUntilIdle();

  ExpectIdenticalSchedules(serial, serial_ids, ingressed, ingress_ids, label);
}

TEST_F(SchedEquivalence, IngressBurstMatchesSerialAtAnyProducerCount) {
  for (const int producers : {1, 4, 8}) {
    RunIngressEquivalence(BaseConfig(SchedulerPolicy::kBackfill, true),
                          producers, /*waves=*/1, /*per_wave=*/120,
                          "ingress burst x" + std::to_string(producers));
  }
}

TEST_F(SchedEquivalence, IngressWavesMatchSerialAtAnyProducerCount) {
  for (const int producers : {1, 4, 8}) {
    RunIngressEquivalence(BaseConfig(SchedulerPolicy::kBackfill, true),
                          producers, /*waves=*/3, /*per_wave=*/40,
                          "ingress waves x" + std::to_string(producers));
  }
}

TEST_F(SchedEquivalence, IngressMatchesSerialWithCustomFairshareHalfLife) {
  // A short half-life makes the fair-share factor move during the run; the
  // ingress path must still reproduce the serial schedule exactly.
  ClusterConfig config = BaseConfig(SchedulerPolicy::kBackfill, true);
  config.fairshare_half_life_s = 1800.0;
  RunIngressEquivalence(config, /*producers=*/4, /*waves=*/3, /*per_wave=*/40,
                        "ingress custom half-life");
}

}  // namespace
}  // namespace eco::slurm
