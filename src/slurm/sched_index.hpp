// Million-job scheduling structures: the priority-indexed pending queue and
// the incremental node-availability timeline.
//
// A sort-everything scheduler (the reference PlanSchedule in scheduler.hpp)
// rebuilds its world every pass: it recomputes the multifactor priority of
// every pending job, sorts the whole queue, and re-derives the backfill
// shadow from a fresh scan of the running set. That is O(n log n) per
// dispatch and quadratic over a drain. These structures keep the same
// *schedule* while making a dispatch cost proportional to what it actually
// starts: PlanScheduleIndexed is checked against PlanSchedule on randomized
// states (test_sched_index.cpp), and the scheduler suites pin whole runs to
// golden digests frozen from the sort-everything engine this replaced.
//
// The key observation making a priority *index* possible at all: between
// fair-share updates, every unsaturated job's priority grows at the same
// rate (weights.age / max_age per second), so the relative order of two
// same-user jobs is time-invariant until one of them saturates its age
// factor. Per-user ordered buckets therefore stay valid without refresh;
// fair-share changes move whole users up or down, which the k-way merge in
// Cursor resolves over one head job per user.
//
// The merge does not evaluate every user's fair-share factor. Priority
// rises with the factor (when weights.fairshare > 0; otherwise every factor
// is evaluated), so a head ranked by an *upper bound* on its user's factor
// ranks at or above its true place. The index keeps each user's last exact
// factor as a FairShareTracker::FactorStamp; FactorBound turns it into a
// bound that holds until the user is charged, a user with no usage keeps
// an exact factor of 1, and a user with no usable stamp is ranked at
// factor 1, which no factor exceeds. A bound that
// reaches the top of the merge heap is replaced by the exact value
// (Factor(user, now), the same bitwise expression the reference planner
// sorts by), and a bound wins a tie against an exact entry, so only exact
// heads are ever emitted and the order is bitwise the full sort's. A pass
// thus evaluates the factor of the users whose bounds reach the top — a
// few per start — instead of every user with pending work.
//
// Since the multi-partition sharding, ClusterSim owns one PendingIndex +
// NodeTimeline pair PER PARTITION (a shard). Nothing here knows about
// partitions: a shard's index only ever sees jobs routed to it, and its
// timeline only sees the slice of each allocation that lands on the shard's
// nodes, so these structures stay partition-agnostic and single-threaded —
// concurrency lives entirely in ClusterSim::DispatchSharded, which plans
// disjoint shards in parallel with no shared mutable state.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/sim_clock.hpp"
#include "slurm/scheduler.hpp"

namespace eco::slurm {

// One pending job as stored by the index. Every field is time-invariant for
// the job's whole stay in the queue, so entries never need refreshing.
// Ids are assigned in submission order, so equal priorities rank by id.
struct IndexedJob {
  JobId id = 0;
  std::uint32_t user = 0;
  int nodes_needed = 1;
  double time_limit_s = 0.0;
  SimTime eligible_time = 0.0;
  double size_factor = 0.0;  // MultifactorPriority::SizeFactor, cached
};

// Priority-indexed pending queue.
//
// Layout: one bucket per user, each holding two ordered maps — `growing`
// (age factor still accruing; ranked by the time-invariant linear form
// size·W_size − eligible·W_age/max_age) and `saturated` (age factor pinned
// at 1; ranked by size alone). A lazy min-heap of saturation deadlines
// migrates jobs between them when Scan() observes the deadline has passed.
// Each user with pending jobs also has a slot in a dense array holding
// copies of both maps' first jobs and the user's factor cache, so the
// per-pass sweep that ranks every user by its bound reads one contiguous
// array (cheap arithmetic per user, one make_heap). Insert/Erase are
// O(log n); the rest of a scan costs O(k log users) for k candidates
// actually examined, instead of an O(n log n) sort of everything.
//
// With multifactor disabled every job ranks 0 and the merge degenerates to
// global submission order, matching the reference priority==0 sort.
class PendingIndex {
 private:
  // Ordering key inside one bucket map: higher rank first, then earlier
  // submission (lower id). Defined up front so Cursor can hold map
  // iterators by value.
  struct Key {
    double rank;  // higher first
    JobId id;     // lower first
    bool operator<(const Key& other) const {
      if (rank != other.rank) return rank > other.rank;
      return id < other.id;
    }
  };
  using BucketMap = std::map<Key, IndexedJob>;
  // The user's last exact fair-share factor; epoch 0 = no usable bound.
  using FactorCache = FairShareTracker::FactorStamp;
  static constexpr std::size_t kInactive = static_cast<std::size_t>(-1);
  // One per user ever queued (bounded by the distinct users, like the
  // tracker's own table), so the factor cache outlives idle spells.
  struct Bucket {
    BucketMap growing;
    BucketMap saturated;
    std::uint32_t user = 0;
    std::size_t active_slot = kInactive;  // position in active_
    FactorCache fs;  // parked here while the user has no pending job
  };
  // A bucket map's first job, as far as ranking it needs.
  struct Head {
    bool present = false;
    JobId id = 0;
    SimTime eligible_time = 0.0;
    double size_factor = 0.0;
  };
  struct ActiveUser {
    Bucket* bucket;
    Head growing;
    Head saturated;
    FactorCache fs;
    // The cursor's state for this user, valid while `scan` is the cursor's
    // scan number (set when the user is first refined or emitted): its
    // exact factor and its merge position in each map.
    std::uint64_t scan = 0;
    double fs_factor = 1.0;
    BucketMap::const_iterator growing_at;
    BucketMap::const_iterator saturated_at;
  };

 public:
  PendingIndex(const MultifactorPriority* priority,
               const FairShareTracker* fairshare, bool multifactor)
      : priority_(priority), fairshare_(fairshare), multifactor_(multifactor) {}
  // The dense slots point into buckets_.
  PendingIndex(const PendingIndex&) = delete;
  PendingIndex& operator=(const PendingIndex&) = delete;

  void Insert(const IndexedJob& job);
  // Pre-sizes the location table for `jobs` further Inserts (a batched
  // submission burst): one rehash up front instead of a rehash cascade
  // mid-burst.
  void Reserve(std::size_t jobs) { locations_.reserve(locations_.size() + jobs); }
  // Removes a job; false if it was not present.
  bool Erase(JobId id);
  [[nodiscard]] bool Contains(JobId id) const {
    return locations_.count(id) > 0;
  }
  [[nodiscard]] std::size_t size() const { return locations_.size(); }
  [[nodiscard]] bool empty() const { return locations_.empty(); }

  struct Candidate {
    const IndexedJob* job;  // owned by the index; valid until next mutation
    double priority;        // bitwise-equal to MultifactorPriority::Compute
  };

  // Priority-ordered traversal at a fixed instant. The cursor is invalidated
  // by any Insert/Erase on the index, and the tracker must not be charged
  // while it is open — plan first, mutate after.
  class Cursor {
   public:
    // Next pending job in (priority desc, id asc) order — exactly the total
    // order the reference full sort produces.
    std::optional<Candidate> Next();
    // Factor() calls this cursor made.
    [[nodiscard]] std::uint64_t fairshare_evals() const {
      return fairshare_evals_;
    }

   private:
    friend class PendingIndex;
    // One user's best remaining job; user_slot indexes active_.
    struct HeapEntry {
      double priority;
      JobId id;
      std::uint32_t user_slot;
      bool exact;
      bool from_saturated;
    };
    Cursor(PendingIndex* index, SimTime now);
    [[nodiscard]] bool Positioned(const ActiveUser& user) const {
      return user.scan == scan_;
    }
    // Starts the user's merge at its first jobs, with its exact factor.
    void Position(ActiveUser& user, double fs_factor);
    // The entry for a positioned user's best remaining job; false once the
    // user has none.
    bool HeadOf(std::uint32_t slot, HeapEntry* entry) const;
    // The user's first entry at `fs_factor`, from the dense copies of its
    // first jobs (the maps are not touched).
    [[nodiscard]] HeapEntry FirstEntry(std::uint32_t slot, double fs_factor,
                                       bool exact) const;
    void PushUserHead(std::uint32_t slot);
    // Makes the user's factor exact (one Factor() call) and caches it.
    void Refine(std::uint32_t slot);
    [[nodiscard]] double PriorityOf(SimTime eligible_time, double size_factor,
                                    double fs_factor) const;

    PendingIndex* index_;
    SimTime now_;
    std::uint64_t scan_;
    std::uint64_t fairshare_evals_ = 0;
    std::vector<HeapEntry> heap_;
  };

  // Migrates any newly saturated jobs, drops the factor bounds of users
  // charged since the last scan, then opens a cursor at `now`.
  [[nodiscard]] Cursor Scan(SimTime now);

  // The fair-share factor a scan at `now` would first rank `user` by: the
  // bound from its cached factor, or 1 when it has none. Never below
  // FairShareTracker::Factor(user, now) (the property the cursor's order
  // rests on, checked by test_sched_index).
  [[nodiscard]] double FactorBound(std::uint32_t user, SimTime now) const;

 private:
  friend class Cursor;
  struct Location {
    std::uint32_t user;
    Key key;
    bool saturated;
  };

  [[nodiscard]] double GrowingRank(const IndexedJob& job) const;
  [[nodiscard]] double SaturatedRank(const IndexedJob& job) const;
  void MigrateSaturated(SimTime now);
  void ForgetChargedUsers();
  [[nodiscard]] double CachedBound(const FactorCache& cache,
                                   bool bounds_hold) const;
  // The cache's current home: the dense slot while active, else the bucket.
  [[nodiscard]] FactorCache& CacheOf(Bucket& bucket) {
    return bucket.active_slot == kInactive ? bucket.fs
                                           : active_[bucket.active_slot].fs;
  }
  [[nodiscard]] const FactorCache& CacheOf(const Bucket& bucket) const {
    return bucket.active_slot == kInactive ? bucket.fs
                                           : active_[bucket.active_slot].fs;
  }
  // Re-copies the bucket's first jobs into its dense slot.
  void RefreshHeads(const Bucket& bucket);

  const MultifactorPriority* priority_;
  const FairShareTracker* fairshare_;
  bool multifactor_;
  std::unordered_map<std::uint32_t, Bucket> buckets_;
  // Users with pending jobs, densely packed: a scan visits only these.
  std::vector<ActiveUser> active_;
  // Tracker charges already applied to the factor caches.
  std::uint64_t charges_seen_ = 0;
  std::uint64_t scans_ = 0;  // numbers each cursor
  std::unordered_map<JobId, Location> locations_;
  // (saturation time, job) — lazily dropped when the job is gone.
  std::priority_queue<std::pair<SimTime, JobId>,
                      std::vector<std::pair<SimTime, JobId>>,
                      std::greater<>>
      saturation_queue_;
};

// Incrementally maintained skyline of node release events (one entry per
// running job at start_time + time_limit). Replaces a per-dispatch
// rebuild-and-sort of the whole running set: Add/Remove are O(log running)
// at job start/end, and the backfill shadow scan walks only as many release
// events as it takes to free the blocked head's nodes.
class NodeTimeline {
 public:
  void Add(JobId id, SimTime release_at, int nodes);
  void Remove(JobId id);
  [[nodiscard]] std::size_t size() const { return release_of_.size(); }

  struct Shadow {
    bool reserved = false;
    SimTime time = 0.0;
    int spare_nodes = 0;  // nodes left beside the head once it starts
  };
  // Earliest instant `needed` nodes are available given `free_now` idle ones
  // — the blocked head's reservation. Mirrors PlanSchedule's release scan
  // (including its per-release early break), with ties on release time
  // resolved by job id.
  [[nodiscard]] Shadow ComputeShadow(int free_now, int needed,
                                     SimTime now) const;

 private:
  std::map<std::pair<SimTime, JobId>, int> releases_;
  std::unordered_map<JobId, SimTime> release_of_;
};

// The EASY planner run against the index + timeline. Same decision rules as
// the reference PlanSchedule: start in priority order until blocked, reserve
// the shadow for the blocked head, then backfill lower-priority jobs that
// fit beside or finish before it. `backfill_max_job_test` bounds how many
// backfill candidates are examined per pass (Slurm's bf_max_job_test);
// 0 = unlimited, identical to PlanSchedule.
struct IndexedPlan {
  struct Start {
    JobId id;
    double priority;
  };
  std::vector<Start> starts;
  std::uint64_t candidates = 0;  // queue entries examined this pass
  std::uint64_t backfilled = 0;  // planned past a blocked head
  std::uint64_t fairshare_evals = 0;  // exact fair-share factors computed
};
IndexedPlan PlanScheduleIndexed(SchedulerPolicy policy, PendingIndex& pending,
                                const NodeTimeline& timeline, int free_nodes,
                                SimTime now, int backfill_max_job_test);

}  // namespace eco::slurm
