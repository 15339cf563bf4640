// Multi-partition sharded scheduler suite.
//
// Covers the sharding contract from DESIGN.md "Scheduler complexity":
//   - partitions own real node sets (ranges, clamping, overlap detection,
//     per-node partition tags);
//   - routing: an empty partition name selects the default, a non-empty name
//     must match exactly (a non-default partition literally named "batch" is
//     honoured, not rerouted — the historical special-case bug);
//   - isolation: a 100k-job backlog in one partition does not delay a lone
//     job in a disjoint partition, and never enters its planning loop;
//   - determinism: the schedule is bitwise identical at pool sizes 1/4/8,
//     for both the parallel disjoint path and the serial overlap path, and
//     for a 1,000-user drain whose shards keep fair-share bound caches;
//   - multi-partition schedules pinned to golden digests frozen from the
//     reference sort-everything engine (schedule_golden.hpp).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "schedule_golden.hpp"
#include "slurm/cluster.hpp"
#include "slurm/workload_gen.hpp"

namespace eco::slurm {
namespace {

class SchedPartition : public ::testing::Test {
 protected:
  void SetUp() override { Logger::Instance().SetLevel(LogLevel::kError); }
  void TearDown() override { Logger::Instance().SetLevel(LogLevel::kInfo); }
};

// 10 nodes split 5/5 between "a" (default) and "b".
ClusterConfig DisjointConfig() {
  ClusterConfig config;
  config.nodes = 10;
  PartitionConfig a;
  a.name = "a";
  a.is_default = true;
  a.node_ranges = {{0, 4}};
  PartitionConfig b;
  b.name = "b";
  b.is_default = false;
  b.node_ranges = {{5, 9}};
  config.partitions = {a, b};
  return config;
}

// 8 nodes, "a" owns 0..5 and "b" owns 3..7 — nodes 3..5 are shared.
ClusterConfig OverlapConfig() {
  ClusterConfig config;
  config.nodes = 8;
  PartitionConfig a;
  a.name = "a";
  a.is_default = true;
  a.node_ranges = {{0, 5}};
  PartitionConfig b;
  b.name = "b";
  b.is_default = false;
  b.node_ranges = {{3, 7}};
  config.partitions = {a, b};
  return config;
}

// Fixed-duration jobs routed across both partitions (and the default via
// the empty name), dense enough that queues actually form.
std::vector<GeneratedJob> MultiPartitionJobs(int count, std::uint64_t seed) {
  WorkloadMix mix;
  mix.hpcg_share = 0.0;
  mix.wide_share = 0.25;
  mix.wide_nodes = 2;
  mix.mean_interarrival_s = 25.0;
  mix.users = 4;
  mix.seed = seed;
  mix.partitions = {"", "a", "b"};
  return GenerateWorkload(mix, count, /*max_cores=*/8,
                          /*iterations_for_hpcg=*/1);
}

// The schedule as golden::RenderJob lines, in submission order.
std::string RunWorkload(const ClusterConfig& config,
                        const std::vector<GeneratedJob>& jobs) {
  ClusterSim cluster(config);
  std::vector<JobId> ids;
  for (const auto& job : jobs) {
    cluster.RunUntil(job.arrival);
    const auto id = cluster.Submit(job.request);
    EXPECT_TRUE(id.ok()) << id.message();
    if (id.ok()) ids.push_back(*id);
  }
  cluster.RunUntilIdle();
  std::string out;
  for (const JobId id : ids) {
    const auto job = cluster.GetJob(id);
    EXPECT_TRUE(job.has_value());
    if (job.has_value()) out += golden::RenderJob(*job);
  }
  return out;
}

TEST_F(SchedPartition, NodeAssignmentTagsAndOverlapDetection) {
  {
    ClusterSim cluster(DisjointConfig());
    EXPECT_FALSE(cluster.partitions_overlap());
    ASSERT_EQ(cluster.partition_nodes(0).size(), 5u);
    ASSERT_EQ(cluster.partition_nodes(1).size(), 5u);
    EXPECT_EQ(cluster.partition_nodes(1).front(), 5u);
    EXPECT_EQ(cluster.FreeNodesIn("a"), 5);
    EXPECT_EQ(cluster.FreeNodesIn("b"), 5);
    EXPECT_EQ(cluster.FreeNodesIn("nope"), -1);
    // Per-node tags line up with the ranges.
    EXPECT_EQ(cluster.node(0).partitions(),
              std::vector<std::string>{"a"});
    EXPECT_EQ(cluster.node(9).partitions(),
              std::vector<std::string>{"b"});
  }
  {
    ClusterSim cluster(OverlapConfig());
    EXPECT_TRUE(cluster.partitions_overlap());
    EXPECT_EQ(cluster.partition_nodes(0).size(), 6u);
    EXPECT_EQ(cluster.partition_nodes(1).size(), 5u);
    const std::vector<std::string> both = {"a", "b"};
    EXPECT_EQ(cluster.node(4).partitions(), both);
    EXPECT_EQ(cluster.node(7).partitions(),
              std::vector<std::string>{"b"});
  }
  {
    // Out-of-range bounds are clamped; an empty range list means every node.
    ClusterConfig config;
    config.nodes = 4;
    PartitionConfig all;
    all.name = "all";
    PartitionConfig wild;
    wild.name = "wild";
    wild.is_default = false;
    wild.node_ranges = {{-3, 1}, {3, 99}};
    config.partitions = {all, wild};
    ClusterSim cluster(config);
    EXPECT_EQ(cluster.partition_nodes(0).size(), 4u);
    const std::vector<std::size_t> expect = {0, 1, 3};
    EXPECT_EQ(cluster.partition_nodes(1), expect);
  }
}

TEST_F(SchedPartition, BatchNamedNonDefaultPartitionIsNotRerouted) {
  // Regression for the routing special case `partition == "batch" -> ""`:
  // a cluster whose DEFAULT is "normal" and whose "batch" partition is a
  // separate queue with a tight time limit.
  ClusterConfig config;
  config.nodes = 2;
  PartitionConfig normal;
  normal.name = "normal";
  normal.is_default = true;
  PartitionConfig batch;
  batch.name = "batch";
  batch.is_default = false;
  batch.max_time_s = 600.0;
  config.partitions = {normal, batch};
  ClusterSim cluster(config);

  JobRequest request;
  request.num_tasks = 4;
  request.workload = WorkloadSpec::Fixed(30.0, 0.9);
  request.time_limit_s = 3600.0;
  request.partition = "batch";
  const auto explicit_id = cluster.Submit(request);
  ASSERT_TRUE(explicit_id.ok());
  // Lands in "batch" (not rerouted to the default) and gets ITS clamp.
  EXPECT_EQ(cluster.GetJob(*explicit_id)->request.partition, "batch");
  EXPECT_EQ(cluster.GetJob(*explicit_id)->request.time_limit_s, 600.0);

  request.partition.clear();
  const auto default_id = cluster.Submit(request);
  ASSERT_TRUE(default_id.ok());
  EXPECT_EQ(cluster.GetJob(*default_id)->request.partition, "normal");
  EXPECT_EQ(cluster.GetJob(*default_id)->request.time_limit_s, 3600.0);

  request.partition = "debug";
  EXPECT_FALSE(cluster.Submit(request).ok());
}

TEST_F(SchedPartition, MinNodesValidatedAgainstPartitionSize) {
  ClusterConfig config = DisjointConfig();
  ClusterSim cluster(config);
  JobRequest request;
  request.num_tasks = 24;
  request.min_nodes = 6;  // cluster has 10 nodes, but "b" only owns 5
  request.workload = WorkloadSpec::Fixed(30.0, 0.9);
  request.partition = "b";
  const auto rejected = cluster.Submit(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.message().find("bad node count"), std::string::npos);
  request.min_nodes = 5;
  request.num_tasks = 20;
  EXPECT_TRUE(cluster.Submit(request).ok());
}

TEST_F(SchedPartition, HundredKBacklogDoesNotDelayDisjointPartition) {
  ClusterConfig config = DisjointConfig();
  ClusterSim cluster(config);

  // 100k long jobs flood partition "a"; its 5 nodes stay busy forever on
  // this test's horizon, leaving ~100k pending behind them.
  std::vector<JobRequest> backlog(100'000);
  for (std::size_t i = 0; i < backlog.size(); ++i) {
    JobRequest& request = backlog[i];
    request.name = "flood-" + std::to_string(i);
    request.user_id = 1000 + static_cast<std::uint32_t>(i % 7);
    request.num_tasks = 4;
    request.workload = WorkloadSpec::Fixed(100'000.0, 0.9);
    request.time_limit_s = 200'000.0;
    request.partition = "a";
  }
  const auto results = cluster.SubmitBatch(std::move(backlog));
  for (const auto& result : results) ASSERT_TRUE(result.ok());
  ASSERT_EQ(cluster.FreeNodesIn("a"), 0);
  ASSERT_GE(cluster.sched_metrics("a")->pending_peak->Value(), 99'000.0);

  // A lone job in disjoint "b" starts the moment it is submitted: shard
  // b's planning pass never sees a single job of the backlog.
  JobRequest probe;
  probe.name = "probe";
  probe.num_tasks = 4;
  probe.workload = WorkloadSpec::Fixed(60.0, 0.9);
  probe.time_limit_s = 600.0;
  probe.partition = "b";
  const SimTime submit_time = cluster.Now();
  const auto probe_id = cluster.Submit(probe);
  ASSERT_TRUE(probe_id.ok());
  const auto probe_job = cluster.GetJob(*probe_id);
  ASSERT_TRUE(probe_job.has_value());
  EXPECT_EQ(probe_job->state, JobState::kRunning);
  EXPECT_EQ(probe_job->start_time, submit_time);

  // Shard isolation in the metrics: b's planner examined only its own job.
  const SchedMetricSet* b_metrics = cluster.sched_metrics("b");
  ASSERT_NE(b_metrics, nullptr);
  EXPECT_EQ(b_metrics->jobs_started->Value(), 1u);
  EXPECT_LE(b_metrics->plan_candidates->Value(), 2u);
  EXPECT_EQ(b_metrics->pending_peak->Value(), 1.0);
}

TEST_F(SchedPartition, DisjointParallelPlanningIsPoolSizeInvariant) {
  const auto jobs = MultiPartitionJobs(160, 20'240'817);
  const ClusterConfig base = DisjointConfig();
  std::string reference;
  for (const int threads : {1, 4, 8}) {
    ThreadPool pool(threads);
    ClusterConfig config = base;
    config.pool = &pool;
    const auto schedule = RunWorkload(config, jobs);
    if (reference.empty()) {
      reference = schedule;
      continue;
    }
    EXPECT_EQ(schedule, reference) << "disjoint pool=" << threads;
  }
}

TEST_F(SchedPartition, OverlapSchedulingIsPoolSizeInvariant) {
  const auto jobs = MultiPartitionJobs(160, 77'011);
  const ClusterConfig base = OverlapConfig();
  std::string reference;
  for (const int threads : {1, 4, 8}) {
    ThreadPool pool(threads);
    ClusterConfig config = base;
    config.pool = &pool;
    const auto schedule = RunWorkload(config, jobs);
    if (reference.empty()) {
      reference = schedule;
      continue;
    }
    EXPECT_EQ(schedule, reference) << "overlap pool=" << threads;
  }
}

// Four disjoint partitions drain a 1,000-user burst: each shard's planner
// ranks most users by fair-share bounds cached in its own index during
// earlier passes, and writes those caches while the shards plan on pool
// workers. The schedule must not depend on the pool size.
TEST_F(SchedPartition, ManyUserDrainIsPoolSizeInvariant) {
  WorkloadMix mix;
  mix.hpcg_share = 0.0;
  mix.wide_share = 0.2;
  mix.wide_nodes = 2;
  mix.users = 1000;
  mix.duration_quantum_s = 60.0;
  mix.seed = 4'040'404;
  mix.partitions = {"p0", "p1", "p2", "p3"};
  std::vector<JobRequest> backlog;
  for (auto& job : GenerateWorkload(mix, 3000, /*max_cores=*/32, 1)) {
    backlog.push_back(std::move(job.request));
  }
  ClusterConfig base;
  base.nodes = 32;
  base.defer_dispatch = true;
  base.backfill_max_job_test = 100;
  base.partitions.clear();
  for (int p = 0; p < 4; ++p) {
    PartitionConfig partition;
    partition.name = "p" + std::to_string(p);
    partition.is_default = p == 0;
    partition.node_ranges = {{8 * p, 8 * p + 7}};
    base.partitions.push_back(partition);
  }
  std::string reference;
  for (const int threads : {1, 4, 8}) {
    ThreadPool pool(threads);
    ClusterConfig config = base;
    config.pool = &pool;
    ClusterSim cluster(config);
    const auto ids = cluster.SubmitBatch(backlog);
    cluster.RunUntilIdle();
    std::string schedule;
    for (const auto& id : ids) {
      ASSERT_TRUE(id.ok());
      const auto job = cluster.GetJob(*id);
      ASSERT_TRUE(job.has_value());
      EXPECT_EQ(job->state, JobState::kCompleted);
      schedule += golden::RenderJob(*job);
    }
    // The caches did their job: far fewer factors than users x passes.
    const SchedMetricSet& metrics = cluster.sched_metrics();
    EXPECT_LT(metrics.fairshare_evals->Value(),
              metrics.dispatch_calls->Value() * 100);
    if (reference.empty()) {
      reference = schedule;
      continue;
    }
    EXPECT_EQ(golden::Digest(schedule), golden::Digest(reference))
        << "pool=" << threads;
  }
}

// Goldens frozen from the reference sort-everything engine (see
// schedule_golden.hpp): fair share accrues per partition, and overlapping
// partitions backfill around each other's allocations.
TEST_F(SchedPartition, LegacyMatchesShardedOnDisjointPartitions) {
  const std::pair<std::uint64_t, const char*> cases[] = {
      {31'337, "12088d5ab9144b16"},
      {90'210, "fcb159ea54310cc3"},
  };
  for (const auto& [seed, digest] : cases) {
    ClusterConfig config = DisjointConfig();
    const std::string schedule =
        RunWorkload(config, MultiPartitionJobs(140, seed));
    EXPECT_EQ(golden::Digest(schedule), digest)
        << "disjoint seed " << seed << ":\n"
        << schedule;
  }
}

TEST_F(SchedPartition, LegacyMatchesShardedOnOverlappingPartitions) {
  const std::pair<std::uint64_t, const char*> cases[] = {
      {4'242, "ca7076fad6c048c1"},
      {1'701, "e666e33af7fd22f9"},
  };
  for (const auto& [seed, digest] : cases) {
    ClusterConfig config = OverlapConfig();
    const std::string schedule =
        RunWorkload(config, MultiPartitionJobs(140, seed));
    EXPECT_EQ(golden::Digest(schedule), digest)
        << "overlap seed " << seed << ":\n"
        << schedule;
  }
}

TEST_F(SchedPartition, PerPartitionStatsAccumulateAndReset) {
  ClusterSim cluster(DisjointConfig());
  JobRequest request;
  request.num_tasks = 4;
  request.workload = WorkloadSpec::Fixed(30.0, 0.9);
  request.time_limit_s = 600.0;
  request.partition = "a";
  ASSERT_TRUE(cluster.Submit(request).ok());
  request.partition = "b";
  ASSERT_TRUE(cluster.Submit(request).ok());
  ASSERT_TRUE(cluster.Submit(request).ok());
  cluster.RunUntilIdle();

  const SchedMetricSet* a = cluster.sched_metrics("a");
  const SchedMetricSet* b = cluster.sched_metrics("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->submit_calls->Value(), 1u);
  EXPECT_EQ(b->submit_calls->Value(), 2u);
  EXPECT_EQ(a->jobs_started->Value(), 1u);
  EXPECT_EQ(b->jobs_started->Value(), 2u);
  EXPECT_EQ(cluster.sched_metrics().jobs_started->Value(), 3u);
  EXPECT_EQ(cluster.sched_metrics("missing"), nullptr);

  cluster.ResetSchedStats();
  EXPECT_EQ(a->jobs_started->Value(), 0u);
  EXPECT_EQ(b->submit_calls->Value(), 0u);
  EXPECT_EQ(cluster.sched_metrics().dispatch_calls->Value(), 0u);
}

}  // namespace
}  // namespace eco::slurm
