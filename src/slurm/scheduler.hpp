// Scheduling policy components: the multifactor priority plugin stand-in
// (Niagara's configuration, §2.1, balances job age, size, partition, QOS and
// fair share) and the EASY backfill planner.
//
// These are pure policy objects: the ClusterSim feeds them queue/cluster
// state and executes their decisions, which keeps the policies unit-testable
// without a simulation.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/sim_clock.hpp"
#include "slurm/job.hpp"

namespace eco::slurm {

// Decayed per-user usage tracking for the fair-share factor.
//
// ClusterSim keeps one tracker per partition shard: usage accrues in the
// partition a job ran in, so a user burning hours in one partition keeps
// full fair-share standing in another (Slurm's
// PriorityFlags=NO_FAIR_TREE-style per-partition accounting). The scheduler
// suites' golden schedules, frozen from the sort-everything engine that
// ranked against the same per-partition trackers, pin this.
//
// The cluster-wide decayed total is maintained incrementally: every user's
// contribution decays at the same exponential rate, so the total itself
// decays like a single usage entry and one (amount, as_of) pair tracks it.
// Factor() is therefore O(log users) — one map lookup — instead of a scan
// over every user per query, which made priority recomputation quadratic in
// deep queues.
//
// User entries live in user-hash buckets: each lookup/update pays
// O(log(users / buckets)) inside one bucket's map, so a million-user roster
// behaves like a sixteen-thousand-user one. The decayed total stays a single
// cluster-wide (amount, as_of) pair — splitting it per bucket would reorder
// the floating-point sums and move the golden schedule digests the
// scheduler suites pin down.
class FairShareTracker {
 public:
  // Slurm's PriorityDecayHalfLife default. ClusterConfig::
  // fairshare_half_life_s (and the per-partition override) plumb this
  // through at runtime.
  static constexpr double kDefaultHalfLifeSeconds = 7 * 24 * 3600.0;
  static constexpr std::size_t kDefaultBuckets = 64;

  explicit FairShareTracker(double half_life_seconds = kDefaultHalfLifeSeconds,
                            std::size_t buckets = kDefaultBuckets);

  void AddUsage(std::uint32_t user, double cpu_seconds, SimTime now);
  // Factor in (0, 1]; 1 = no recent usage, decreasing with decayed usage
  // relative to the cluster-wide average.
  [[nodiscard]] double Factor(std::uint32_t user, SimTime now) const;
  [[nodiscard]] std::size_t user_count() const { return user_count_; }
  [[nodiscard]] double half_life_seconds() const { return half_life_; }
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }

 private:
  struct Usage {
    double amount = 0.0;
    SimTime as_of = 0.0;
  };
  struct Bucket {
    std::map<std::uint32_t, Usage> usage;
  };

  [[nodiscard]] double DecayedUsage(std::uint32_t user, SimTime now) const;
  [[nodiscard]] std::size_t BucketOf(std::uint32_t user) const;

  double half_life_;
  std::vector<Bucket> buckets_;  // size is a power of two
  std::size_t user_count_ = 0;
  // Incrementally maintained Σ_u DecayedUsage(u): decayed to `total_.as_of`.
  Usage total_{};
};

struct MultifactorWeights {
  double age = 1000.0;
  double size = 500.0;
  double fairshare = 2000.0;
  double qos = 0.0;
  // Age factor saturates after this long in the queue.
  double max_age_seconds = 7 * 24 * 3600.0;
};

class MultifactorPriority {
 public:
  MultifactorPriority(MultifactorWeights weights, int cluster_cores)
      : weights_(weights), cluster_cores_(cluster_cores) {}

  [[nodiscard]] double Compute(const JobRecord& job, SimTime now,
                               const FairShareTracker& fairshare) const;

  // The factored form Compute() is built from. The indexed scheduler caches
  // the time-invariant size factor per job and the fair-share factor per
  // user, then calls this per candidate — the expression is shared so both
  // paths produce bitwise-identical priorities.
  [[nodiscard]] double ComputeFromFactors(double wait_seconds,
                                          double size_factor,
                                          double fs_factor) const;
  [[nodiscard]] double SizeFactor(int num_tasks, int min_nodes) const;

  [[nodiscard]] const MultifactorWeights& weights() const { return weights_; }

 private:
  MultifactorWeights weights_;
  int cluster_cores_;
};

enum class SchedulerPolicy { kFifo, kBackfill };

// One pending job as seen by the planner.
struct PlanInput {
  JobId id = 0;
  int nodes_needed = 1;
  double time_limit_s = 0.0;
  double priority = 0.0;
  std::uint64_t tiebreak = 0;  // submission order
};

// A running job's resource horizon.
struct RunningInput {
  int nodes_held = 1;
  SimTime expected_end = 0.0;  // start + time_limit
};

// Decides which pending jobs to start *now*. FIFO: highest-priority first,
// stop at the first job that does not fit. Backfill (EASY): the blocked head
// gets a shadow reservation; lower-priority jobs may start only if they fit
// in the spare nodes and finish (by time limit) before the shadow time.
// `running` is in job-id order; releases that tie on time count toward the
// reservation in that order.
//
// This is the reference planner: a full sort and a fresh release scan per
// call. The scheduler runs PlanScheduleIndexed (sched_index.hpp), which
// test_sched_index.cpp checks against this on randomized states.
std::vector<JobId> PlanSchedule(SchedulerPolicy policy,
                                std::vector<PlanInput> pending,
                                const std::vector<RunningInput>& running,
                                int free_nodes, int total_nodes, SimTime now);

}  // namespace eco::slurm
