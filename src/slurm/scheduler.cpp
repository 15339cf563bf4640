#include "slurm/scheduler.hpp"

#include <algorithm>
#include <cmath>

namespace eco::slurm {

namespace {

// Fibonacci mix so near-sequential uids (1000, 1001, ...) spread uniformly
// across buckets instead of striding through a handful of them.
std::size_t MixUser(std::uint32_t user) {
  std::uint64_t x = user;
  x ^= x >> 16;
  x *= 0x9e3779b97f4a7c15ull;
  x ^= x >> 32;
  return static_cast<std::size_t>(x);
}

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FairShareTracker::FairShareTracker(double half_life_seconds,
                                   std::size_t buckets)
    : half_life_(half_life_seconds),
      buckets_(RoundUpPow2(std::max<std::size_t>(1, buckets))) {}

std::size_t FairShareTracker::BucketOf(std::uint32_t user) const {
  return MixUser(user) & (buckets_.size() - 1);
}

void FairShareTracker::AddUsage(std::uint32_t user, double cpu_seconds,
                                SimTime now) {
  auto [it, inserted] = buckets_[BucketOf(user)].usage.try_emplace(user);
  const std::size_t users_before = user_count_;
  if (inserted) ++user_count_;
  Usage& u = it->second;
  const double age = std::max(0.0, now - u.as_of);
  u.amount = u.amount * std::pow(0.5, age / half_life_) + cpu_seconds;
  u.as_of = now;
  // The total decays at the same rate as every entry, so bringing it forward
  // to `now` and adding the fresh usage keeps it equal (up to rounding) to
  // Σ_u DecayedUsage(u, now).
  const double total_age = std::max(0.0, now - total_.as_of);
  const double total_before =
      total_.amount * std::pow(0.5, total_age / half_life_);
  total_.amount = total_before + cpu_seconds;
  total_.as_of = now;
  NoteCharge(user, users_before, total_before, total_age);
}

namespace {
// Below this decayed total a Factor() evaluation may involve subnormal
// operands, whose rounding no fixed margin covers. Far above 2^-1022, so
// a user's decayed usage that is subnormal moves e = n·mine/total by a
// negligible absolute amount.
constexpr double kMinBoundTotal = 0x1p-900;
// The product restarts before it could underflow.
constexpr double kMinShareProduct = 0x1p-500;
// Rounding budget of the product; kBoundMargin covers it plus the O(1e-12)
// error of Factor() at both ends.
constexpr double kMaxShareDrift = 0x1p-34;
constexpr double kUnitRoundoff = 0x1p-53;
}  // namespace

void FairShareTracker::NoteCharge(std::uint32_t user,
                                  std::size_t users_before,
                                  double total_before, double total_age) {
  charge_ring_[++charge_seq_ % kChargeRing] = user;
  const bool degenerate = users_before == 0 ||
                          !(total_before >= kMinBoundTotal) ||
                          !(total_.amount > 0.0);
  if (!degenerate) {
    share_product_ *= (static_cast<double>(user_count_) /
                       static_cast<double>(users_before)) *
                      (total_before / total_.amount);
    // Relative error of this k: the decay pow's argument carries 2u·x
    // absolute error (x = total_age in half-lives), which ln 2 turns into
    // relative error, plus a few roundings for the divisions and products.
    share_drift_ += (8.0 + 2.0 * total_age / half_life_) * kUnitRoundoff;
  }
  if (degenerate || share_drift_ > kMaxShareDrift ||
      share_product_ < kMinShareProduct) {
    ++bound_epoch_;
    share_product_ = 1.0;
    share_drift_ = 0.0;
  }
}

FairShareTracker::FactorStamp FairShareTracker::Stamp(std::uint32_t user,
                                                      SimTime now) const {
  const double mine = DecayedUsage(user, now);
  FactorStamp stamp;
  if (mine == 0.0) {
    // Factor() is 1 (2^-0, or no usage on record at all), and a usage of
    // zero stays zero as it decays.
    stamp.epoch = kPinnedEpoch;
    return stamp;
  }
  const double total = DecayedTotal(now);
  stamp.factor = FactorOf(mine, total);
  stamp.neg_log = -std::log(stamp.factor);
  stamp.product = share_product_;
  stamp.epoch = Holds(total, now) ? bound_epoch_ : 0;
  return stamp;
}

bool FairShareTracker::BoundsHold(SimTime now) const {
  return user_count_ > 0 && Holds(DecayedTotal(now), now);
}

bool FairShareTracker::Holds(double total, SimTime now) const {
  return now >= total_.as_of && total >= kMinBoundTotal;
}

double FairShareTracker::DecayedUsage(std::uint32_t user, SimTime now) const {
  const auto& usage = buckets_[BucketOf(user)].usage;
  const auto it = usage.find(user);
  if (it == usage.end()) return 0.0;
  const double age = std::max(0.0, now - it->second.as_of);
  return it->second.amount * std::pow(0.5, age / half_life_);
}

double FairShareTracker::DecayedTotal(SimTime now) const {
  const double total_age = std::max(0.0, now - total_.as_of);
  return total_.amount * std::pow(0.5, total_age / half_life_);
}

double FairShareTracker::Factor(std::uint32_t user, SimTime now) const {
  if (user_count_ == 0) return 1.0;
  return FactorOf(DecayedUsage(user, now), DecayedTotal(now));
}

double FairShareTracker::FactorOf(double mine, double total) const {
  if (total <= 0.0) return 1.0;
  const double average = total / static_cast<double>(user_count_);
  if (average <= 0.0) return 1.0;
  // Slurm's classic fair-share curve: 2^(-usage/share).
  return std::pow(2.0, -mine / average);
}

double MultifactorPriority::SizeFactor(int num_tasks, int min_nodes) const {
  return cluster_cores_ > 0
             ? std::min(1.0, static_cast<double>(num_tasks * min_nodes) /
                                 cluster_cores_)
             : 0.0;
}

double MultifactorPriority::Compute(const JobRecord& job, SimTime now,
                                    const FairShareTracker& fairshare) const {
  const double wait = std::max(0.0, now - job.eligible_time);
  return ComputeFromFactors(
      wait, SizeFactor(job.request.num_tasks, job.request.min_nodes),
      fairshare.Factor(job.request.user_id, now));
}

std::vector<JobId> PlanSchedule(SchedulerPolicy policy,
                                std::vector<PlanInput> pending,
                                const std::vector<RunningInput>& running,
                                int free_nodes, int total_nodes, SimTime now) {
  std::vector<JobId> to_start;
  if (pending.empty() || total_nodes <= 0) return to_start;

  std::sort(pending.begin(), pending.end(),
            [](const PlanInput& a, const PlanInput& b) {
              if (a.priority != b.priority) return a.priority > b.priority;
              return a.tiebreak < b.tiebreak;
            });

  std::size_t head = 0;
  // Start in priority order while jobs fit.
  while (head < pending.size() && pending[head].nodes_needed <= free_nodes) {
    to_start.push_back(pending[head].id);
    free_nodes -= pending[head].nodes_needed;
    ++head;
  }
  if (policy == SchedulerPolicy::kFifo || head >= pending.size()) {
    return to_start;
  }

  // EASY backfill. The blocked head job reserves the earliest instant enough
  // nodes will be free, assuming running jobs end at their time limits.
  const PlanInput& blocked = pending[head];
  struct Release {
    SimTime when;
    int nodes;
  };
  std::vector<Release> releases;
  for (const auto& r : running) releases.push_back({r.expected_end, r.nodes_held});
  // Stable: releases that tie on time keep the caller's job-id order, the
  // order NodeTimeline scans them in. The count reached at the tie decides
  // the spare nodes beside the head.
  std::stable_sort(
      releases.begin(), releases.end(),
      [](const Release& a, const Release& b) { return a.when < b.when; });

  SimTime shadow_time = now;
  int avail = free_nodes;
  int spare_at_shadow = 0;
  bool reserved = false;
  for (const auto& release : releases) {
    if (avail >= blocked.nodes_needed) break;
    avail += release.nodes;
    shadow_time = release.when;
    if (avail >= blocked.nodes_needed) {
      spare_at_shadow = avail - blocked.nodes_needed;
      reserved = true;
      break;
    }
  }
  if (!reserved) {
    if (avail >= blocked.nodes_needed) {
      // No running jobs; head is only blocked by jobs we just started — no
      // backfill window can be computed, bail out conservatively.
      return to_start;
    }
    return to_start;  // head can never run; nothing sensible to backfill
  }

  // Backfill candidates: lower-priority pending jobs that fit in the current
  // free nodes AND either finish before the shadow time or fit inside the
  // nodes that remain spare once the head starts.
  for (std::size_t i = head + 1; i < pending.size(); ++i) {
    const PlanInput& candidate = pending[i];
    if (candidate.nodes_needed > free_nodes) continue;
    const bool ends_before_shadow =
        now + candidate.time_limit_s <= shadow_time + 1e-9;
    const bool fits_beside_head = candidate.nodes_needed <= spare_at_shadow;
    if (ends_before_shadow || fits_beside_head) {
      to_start.push_back(candidate.id);
      free_nodes -= candidate.nodes_needed;
      if (fits_beside_head && !ends_before_shadow) {
        spare_at_shadow -= candidate.nodes_needed;
      }
    }
  }
  return to_start;
}

}  // namespace eco::slurm
