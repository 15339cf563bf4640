// Scheduling policy components: the multifactor priority plugin stand-in
// (Niagara's configuration, §2.1, balances job age, size, partition, QOS and
// fair share) and the EASY backfill planner.
//
// These are pure policy objects: the ClusterSim feeds them queue/cluster
// state and executes their decisions, which keeps the policies unit-testable
// without a simulation.
#pragma once

#include <algorithm>
#include <array>
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
//
// Factor() still costs three std::pow and a map lookup, so a scheduling
// pass avoids calling it for every user with pending work. The tracker
// publishes what a caller needs to bound a factor it evaluated earlier
// (PendingIndex's cursor, DESIGN.md "Scheduler complexity"): Factor is
// 2^-e with e = n·mine/total. Between two charges e is time-invariant,
// because mine and total decay at the same rate, and a charge multiplies
// every *other* user's e by one common k = (n'/n)·T_pre/T_post.
// share_product() is the running product of those k within bound_epoch();
// the epoch restarts (invalidating every bound) on the first charge, when
// the decayed total is too small for its rounding to be bounded, and
// before the product's accumulated rounding reaches kBoundMargin. Charged
// users are reported through a fixed ring (charge_seq / ChargedUser), so the
// tracker keeps no per-reader state and no log that grows.
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

  // --- Bounds on earlier factors ---
  // Absolute slack FactorBound adds: covers the rounding of Factor() at both
  // ends (~1e-12) and the k product's (held below kBoundMargin / 2 by epoch
  // resets, and amplified at most 1.5× by the factor / (1 − d) form).
  static constexpr double kBoundMargin = 0x1p-33;
  // Charges remembered by ChargedUser(); a reader further behind must treat
  // every user as charged.
  static constexpr std::size_t kChargeRing = 1024;

  // Stamp epoch of a user with no decayed usage: its factor is exactly 1
  // at any later time until it is charged.
  static constexpr std::uint64_t kPinnedEpoch = ~std::uint64_t{0};
  // An exact Factor() with what bounding it later takes.
  struct FactorStamp {
    double factor = 1.0;
    double neg_log = 0.0;     // −ln factor
    double product = 1.0;     // share_product() when taken
    std::uint64_t epoch = 0;  // bound_epoch() when taken; 0 = not a seed
  };
  // Factor(user, now), stamped. Only a stamp taken where BoundsHold(now),
  // or of a user with no usage (kPinnedEpoch), can seed a bound.
  [[nodiscard]] FactorStamp Stamp(std::uint32_t user, SimTime now) const;
  // True when a factor evaluated at `now` may seed a bound, and a bound may
  // be applied at `now`: there are users, `now` does not precede the last
  // charge, and the decayed total is far from the subnormal range.
  [[nodiscard]] bool BoundsHold(SimTime now) const;
  // Upper bound on Factor(user, t) for any t with BoundsHold(t), given a
  // stamp of `user` taken before, provided `user` was not charged since;
  // 1 (no factor exceeds it) when the epoch has moved on.
  // With K = share_product() / stamp.product the factor is now factor^K:
  // ≤ factor when K ≥ 1. When K < 1 it is below the tangent at 1,
  // 1 − K(1 − factor), and, with d = (1 − K)·neg_log, equal to
  // factor·e^d ≤ factor / (1 − d); the second is far tighter while K is
  // near 1 and is used up to d = 1/2.
  [[nodiscard]] double FactorBound(const FactorStamp& stamp) const {
    if (stamp.epoch == kPinnedEpoch) return stamp.factor;
    if (stamp.epoch != bound_epoch_) return 1.0;
    const double k = share_product_ / stamp.product;
    double bound = stamp.factor;
    if (k < 1.0) {
      bound = 1.0 - k * (1.0 - stamp.factor);
      const double d = (1.0 - k) * stamp.neg_log;
      if (d <= 0.5) bound = std::min(bound, stamp.factor / (1.0 - d));
    }
    return std::min(1.0, bound + kBoundMargin);
  }
  // Number of AddUsage calls so far; charge s (1-based) went to
  // ChargedUser(s) while s > charge_seq() − kChargeRing.
  [[nodiscard]] std::uint64_t charge_seq() const { return charge_seq_; }
  [[nodiscard]] std::uint32_t ChargedUser(std::uint64_t seq) const {
    return charge_ring_[seq % kChargeRing];
  }

 private:
  struct Usage {
    double amount = 0.0;
    SimTime as_of = 0.0;
  };
  struct Bucket {
    std::map<std::uint32_t, Usage> usage;
  };

  [[nodiscard]] double DecayedUsage(std::uint32_t user, SimTime now) const;
  // Σ_u DecayedUsage(u, now).
  [[nodiscard]] double DecayedTotal(SimTime now) const;
  // Factor() of a user with decayed usage `mine`, given the decayed total
  // at the same instant and at least one user on record.
  [[nodiscard]] double FactorOf(double mine, double total) const;
  // BoundsHold(now) for a tracker with users, given DecayedTotal(now).
  [[nodiscard]] bool Holds(double total, SimTime now) const;
  [[nodiscard]] std::size_t BucketOf(std::uint32_t user) const;
  // Folds one charge's k into the product, or restarts the epoch.
  void NoteCharge(std::uint32_t user, std::size_t users_before,
                  double total_before, double total_age);

  double half_life_;
  std::vector<Bucket> buckets_;  // size is a power of two
  std::size_t user_count_ = 0;
  // Incrementally maintained Σ_u DecayedUsage(u): decayed to `total_.as_of`.
  Usage total_{};
  // Bound bookkeeping: epoch 0 is never current, so readers may use it to
  // mark a bound invalid.
  std::uint64_t bound_epoch_ = 1;
  double share_product_ = 1.0;
  double share_drift_ = 0.0;  // bound on the product's relative rounding
  std::uint64_t charge_seq_ = 0;
  std::array<std::uint32_t, kChargeRing> charge_ring_{};
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
                                          double fs_factor) const {
    const double age_factor =
        std::min(1.0, wait_seconds / weights_.max_age_seconds);
    return weights_.age * age_factor + weights_.size * size_factor +
           weights_.fairshare * fs_factor + weights_.qos;
  }
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
