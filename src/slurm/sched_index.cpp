#include "slurm/sched_index.hpp"

#include <algorithm>
#include <cmath>

namespace eco::slurm {

// ---------------------------------------------------------------------------
// PendingIndex
// ---------------------------------------------------------------------------

double PendingIndex::GrowingRank(const IndexedJob& job) const {
  if (!multifactor_) return 0.0;
  const MultifactorWeights& w = priority_->weights();
  // Within one user, priority(t) = slope·t + (W_size·size − slope·eligible)
  // + per-user terms, with slope = W_age/max_age shared by every unsaturated
  // job. The parenthesised form is the time-invariant rank.
  const double slope =
      w.max_age_seconds > 0.0 ? w.age / w.max_age_seconds : 0.0;
  return w.size * job.size_factor - slope * job.eligible_time;
}

double PendingIndex::SaturatedRank(const IndexedJob& job) const {
  if (!multifactor_) return 0.0;
  // Age factor pinned at 1: only the size term still separates jobs.
  return priority_->weights().size * job.size_factor;
}

void PendingIndex::RefreshHeads(const Bucket& bucket) {
  ActiveUser& slot = active_[bucket.active_slot];
  const auto copy = [](const BucketMap& map, Head& head) {
    head.present = !map.empty();
    if (!head.present) return;
    const IndexedJob& job = map.begin()->second;
    head.id = job.id;
    head.eligible_time = job.eligible_time;
    head.size_factor = job.size_factor;
  };
  copy(bucket.growing, slot.growing);
  copy(bucket.saturated, slot.saturated);
}

void PendingIndex::Insert(const IndexedJob& job) {
  Bucket& bucket = buckets_[job.user];
  if (bucket.active_slot == kInactive) {
    bucket.user = job.user;
    bucket.active_slot = active_.size();
    ActiveUser& slot = active_.emplace_back();
    slot.bucket = &bucket;
    slot.fs = bucket.fs;
  }
  const MultifactorWeights& w = priority_->weights();
  const bool starts_saturated = !multifactor_ || w.max_age_seconds <= 0.0;
  Location loc;
  loc.user = job.user;
  loc.saturated = starts_saturated;
  if (starts_saturated) {
    loc.key = Key{SaturatedRank(job), job.id};
    bucket.saturated.emplace(loc.key, job);
  } else {
    loc.key = Key{GrowingRank(job), job.id};
    bucket.growing.emplace(loc.key, job);
    saturation_queue_.push({job.eligible_time + w.max_age_seconds, job.id});
  }
  locations_[job.id] = loc;
  RefreshHeads(bucket);
}

bool PendingIndex::Erase(JobId id) {
  const auto it = locations_.find(id);
  if (it == locations_.end()) return false;
  const Location& loc = it->second;
  Bucket& bucket = buckets_.find(loc.user)->second;
  (loc.saturated ? bucket.saturated : bucket.growing).erase(loc.key);
  if (bucket.growing.empty() && bucket.saturated.empty()) {
    // Keep Scan() proportional to active users; the cache stays with the
    // bucket.
    bucket.fs = active_[bucket.active_slot].fs;
    active_[bucket.active_slot] = active_.back();
    active_[bucket.active_slot].bucket->active_slot = bucket.active_slot;
    active_.pop_back();
    bucket.active_slot = kInactive;
  } else {
    RefreshHeads(bucket);
  }
  locations_.erase(it);
  return true;
}

void PendingIndex::MigrateSaturated(SimTime now) {
  while (!saturation_queue_.empty() && saturation_queue_.top().first <= now) {
    const JobId id = saturation_queue_.top().second;
    saturation_queue_.pop();
    const auto it = locations_.find(id);
    if (it == locations_.end() || it->second.saturated) continue;  // stale
    Location& loc = it->second;
    Bucket& bucket = buckets_.at(loc.user);
    auto node = bucket.growing.extract(loc.key);
    loc.key = Key{SaturatedRank(node.mapped()), id};
    loc.saturated = true;
    node.key() = loc.key;
    bucket.saturated.insert(std::move(node));
    RefreshHeads(bucket);
  }
}

void PendingIndex::ForgetChargedUsers() {
  const std::uint64_t charges = fairshare_->charge_seq();
  if (charges - charges_seen_ > FairShareTracker::kChargeRing) {
    for (auto& [user, bucket] : buckets_) CacheOf(bucket).epoch = 0;
  } else {
    for (std::uint64_t seq = charges_seen_ + 1; seq <= charges; ++seq) {
      const auto it = buckets_.find(fairshare_->ChargedUser(seq));
      if (it != buckets_.end()) CacheOf(it->second).epoch = 0;
    }
  }
  charges_seen_ = charges;
}

PendingIndex::Cursor PendingIndex::Scan(SimTime now) {
  MigrateSaturated(now);
  ForgetChargedUsers();
  return Cursor(this, now);
}

double PendingIndex::CachedBound(const FactorCache& cache,
                                 bool bounds_hold) const {
  return bounds_hold ? fairshare_->FactorBound(cache) : 1.0;
}

double PendingIndex::FactorBound(std::uint32_t user, SimTime now) const {
  const auto it = buckets_.find(user);
  if (it == buckets_.end()) return 1.0;
  // Charges the next Scan will apply: a charged user has no bound.
  const std::uint64_t charges = fairshare_->charge_seq();
  if (charges - charges_seen_ > FairShareTracker::kChargeRing) return 1.0;
  for (std::uint64_t seq = charges_seen_ + 1; seq <= charges; ++seq) {
    if (fairshare_->ChargedUser(seq) == user) return 1.0;
  }
  return CachedBound(CacheOf(it->second), fairshare_->BoundsHold(now));
}

// ---------------------------------------------------------------------------
// PendingIndex::Cursor — k-way merge over user bucket heads
// ---------------------------------------------------------------------------

double PendingIndex::Cursor::PriorityOf(SimTime eligible_time,
                                        double size_factor,
                                        double fs_factor) const {
  if (!index_->multifactor_) return 0.0;
  // Same expression, same operand order, same cached-factor inputs as the
  // MultifactorPriority::Compute — bitwise identical results.
  return index_->priority_->ComputeFromFactors(
      std::max(0.0, now_ - eligible_time), size_factor, fs_factor);
}

namespace {
// Max-heap on (priority, bound before exact, lower id): `a` sorts below `b`
// when it has lower priority, or equal priority and is exact while `b` is a
// bound, or the same kind and a higher id. Because a bound wins the tie, an
// exact entry on top has a strictly higher priority than every bound below
// it, hence than every job those bounds stand for.
struct HeadLess {
  template <typename Entry>
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.priority != b.priority) return a.priority < b.priority;
    if (a.exact != b.exact) return a.exact;
    return a.id > b.id;
  }
};
}  // namespace

PendingIndex::Cursor::Cursor(PendingIndex* index, SimTime now)
    : index_(index), now_(now), scan_(++index->scans_) {
  const FairShareTracker& fairshare = *index_->fairshare_;
  // Bounds rank users only where priority rises with the factor.
  const bool lazy =
      index_->multifactor_ && index_->priority_->weights().fairshare > 0.0;
  const bool bounds_hold = lazy && fairshare.BoundsHold(now);
  std::vector<ActiveUser>& active = index_->active_;
  heap_.reserve(active.size());
  for (std::uint32_t slot = 0; slot < active.size(); ++slot) {
    ActiveUser& user = active[slot];
    if (!lazy) {
      // Without multifactor every priority is 0. With a fair-share weight
      // <= 0 a bound on the factor bounds nothing: evaluate it.
      double fs_factor = 1.0;
      if (index_->multifactor_) {
        fs_factor = fairshare.Factor(user.bucket->user, now);
        ++fairshare_evals_;
      }
      Position(user, fs_factor);
      heap_.push_back(FirstEntry(slot, fs_factor, /*exact=*/true));
    } else if (user.fs.epoch == FairShareTracker::kPinnedEpoch) {
      heap_.push_back(FirstEntry(slot, user.fs.factor, /*exact=*/true));
    } else {
      heap_.push_back(FirstEntry(
          slot, index_->CachedBound(user.fs, bounds_hold), /*exact=*/false));
    }
  }
  std::make_heap(heap_.begin(), heap_.end(), HeadLess{});
}

void PendingIndex::Cursor::Position(ActiveUser& user, double fs_factor) {
  user.scan = scan_;
  user.fs_factor = fs_factor;
  user.growing_at = user.bucket->growing.begin();
  user.saturated_at = user.bucket->saturated.begin();
}

PendingIndex::Cursor::HeapEntry PendingIndex::Cursor::FirstEntry(
    std::uint32_t slot, double fs_factor, bool exact) const {
  // HeadOf's choice, made on the copies. For a bound entry this is the
  // largest priority any job of the user has at a factor up to the bound.
  const ActiveUser& user = index_->active_[slot];
  HeapEntry entry{0.0, 0, slot, exact, false};
  if (user.growing.present) {
    entry.priority = PriorityOf(user.growing.eligible_time,
                                user.growing.size_factor, fs_factor);
    entry.id = user.growing.id;
  }
  if (user.saturated.present) {
    const double ps = PriorityOf(user.saturated.eligible_time,
                                 user.saturated.size_factor, fs_factor);
    if (!user.growing.present || ps > entry.priority ||
        (ps == entry.priority && user.saturated.id < entry.id)) {
      entry.priority = ps;
      entry.id = user.saturated.id;
      entry.from_saturated = true;
    }
  }
  return entry;
}

bool PendingIndex::Cursor::HeadOf(std::uint32_t slot, HeapEntry* entry) const {
  const ActiveUser& user = index_->active_[slot];
  const bool has_growing = user.growing_at != user.bucket->growing.end();
  const bool has_saturated =
      user.saturated_at != user.bucket->saturated.end();
  if (!has_growing && !has_saturated) return false;

  const auto priority = [&](const IndexedJob& job) {
    return PriorityOf(job.eligible_time, job.size_factor, user.fs_factor);
  };
  entry->user_slot = slot;
  entry->exact = true;
  if (has_growing && has_saturated) {
    const double pg = priority(user.growing_at->second);
    const double ps = priority(user.saturated_at->second);
    const bool pick_saturated =
        ps > pg ||
        (ps == pg && user.saturated_at->first.id < user.growing_at->first.id);
    entry->from_saturated = pick_saturated;
    entry->priority = pick_saturated ? ps : pg;
    entry->id =
        (pick_saturated ? user.saturated_at : user.growing_at)->first.id;
  } else {
    entry->from_saturated = has_saturated;
    const auto& it = has_saturated ? user.saturated_at : user.growing_at;
    entry->priority = priority(it->second);
    entry->id = it->first.id;
  }
  return true;
}

void PendingIndex::Cursor::PushUserHead(std::uint32_t slot) {
  HeapEntry entry;
  if (!HeadOf(slot, &entry)) return;
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), HeadLess{});
}

void PendingIndex::Cursor::Refine(std::uint32_t slot) {
  ActiveUser& user = index_->active_[slot];
  user.fs = index_->fairshare_->Stamp(user.bucket->user, now_);
  ++fairshare_evals_;
  Position(user, user.fs.factor);
}

std::optional<PendingIndex::Candidate> PendingIndex::Cursor::Next() {
  // A bound on top is refined in place: its exact priority is no higher, so
  // the entry only sinks, and the loop ends with an exact head on top that
  // outranks every bound left below it.
  while (!heap_.empty() && !heap_.front().exact) {
    const std::uint32_t slot = heap_.front().user_slot;
    Refine(slot);
    std::pop_heap(heap_.begin(), heap_.end(), HeadLess{});
    HeadOf(slot, &heap_.back());
    std::push_heap(heap_.begin(), heap_.end(), HeadLess{});
  }
  if (heap_.empty()) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), HeadLess{});
  const HeapEntry top = heap_.back();
  heap_.pop_back();

  ActiveUser& user = index_->active_[top.user_slot];
  // An exact entry of a user not yet positioned is a pinned user's first
  // entry: its factor is exactly 1.
  if (!Positioned(user)) Position(user, user.fs.factor);
  auto& it = top.from_saturated ? user.saturated_at : user.growing_at;
  Candidate out{&it->second, top.priority};
  ++it;
  PushUserHead(top.user_slot);
  return out;
}

// ---------------------------------------------------------------------------
// NodeTimeline
// ---------------------------------------------------------------------------

void NodeTimeline::Add(JobId id, SimTime release_at, int nodes) {
  releases_[{release_at, id}] = nodes;
  release_of_[id] = release_at;
}

void NodeTimeline::Remove(JobId id) {
  const auto it = release_of_.find(id);
  if (it == release_of_.end()) return;
  releases_.erase({it->second, id});
  release_of_.erase(it);
}

NodeTimeline::Shadow NodeTimeline::ComputeShadow(int free_now, int needed,
                                                 SimTime now) const {
  Shadow shadow;
  shadow.time = now;
  int avail = free_now;
  for (const auto& [key, nodes] : releases_) {
    if (avail >= needed) break;
    avail += nodes;
    shadow.time = key.first;
    if (avail >= needed) {
      shadow.spare_nodes = avail - needed;
      shadow.reserved = true;
      break;
    }
  }
  return shadow;
}

// ---------------------------------------------------------------------------
// Indexed EASY planner
// ---------------------------------------------------------------------------

namespace {

void PlanWithCursor(SchedulerPolicy policy, PendingIndex::Cursor& cursor,
                    const NodeTimeline& timeline, int free_nodes, SimTime now,
                    int backfill_max_job_test, IndexedPlan& plan) {
  auto candidate = cursor.Next();

  // Start in priority order while jobs fit.
  while (candidate && candidate->job->nodes_needed <= free_nodes) {
    ++plan.candidates;
    plan.starts.push_back({candidate->job->id, candidate->priority});
    free_nodes -= candidate->job->nodes_needed;
    candidate = cursor.Next();
  }
  if (!candidate || policy == SchedulerPolicy::kFifo) return;

  // EASY backfill: reserve the shadow for the blocked head, then admit
  // lower-priority jobs that finish before it or fit beside it.
  ++plan.candidates;
  const int head_nodes = candidate->job->nodes_needed;
  const auto shadow = timeline.ComputeShadow(free_nodes, head_nodes, now);
  if (!shadow.reserved) return;

  int spare = shadow.spare_nodes;
  // Stop before asking the cursor for a job that cannot be used: Next()
  // may have to refine fair-share bounds to produce it.
  const auto limit = static_cast<std::uint64_t>(backfill_max_job_test);
  std::uint64_t tested = 0;
  while (free_nodes > 0 && (limit == 0 || tested < limit) &&
         (candidate = cursor.Next())) {
    ++tested;
    ++plan.candidates;
    const IndexedJob& job = *candidate->job;
    if (job.nodes_needed > free_nodes) continue;
    const bool ends_before_shadow =
        now + job.time_limit_s <= shadow.time + 1e-9;
    const bool fits_beside_head = job.nodes_needed <= spare;
    if (ends_before_shadow || fits_beside_head) {
      plan.starts.push_back({job.id, candidate->priority});
      ++plan.backfilled;
      free_nodes -= job.nodes_needed;
      if (fits_beside_head && !ends_before_shadow) {
        spare -= job.nodes_needed;
      }
    }
  }
}

}  // namespace

IndexedPlan PlanScheduleIndexed(SchedulerPolicy policy, PendingIndex& pending,
                                const NodeTimeline& timeline, int free_nodes,
                                SimTime now, int backfill_max_job_test) {
  IndexedPlan plan;
  if (pending.empty()) return plan;
  auto cursor = pending.Scan(now);
  PlanWithCursor(policy, cursor, timeline, free_nodes, now,
                 backfill_max_job_test, plan);
  plan.fairshare_evals = cursor.fairshare_evals();
  return plan;
}

}  // namespace eco::slurm
