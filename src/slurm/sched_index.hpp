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
// Cursor resolves by evaluating the true priority of one head job per user
// — the same bitwise expression the reference planner sorts by.
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
struct IndexedJob {
  JobId id = 0;
  std::uint32_t user = 0;
  std::uint64_t tiebreak = 0;  // submission order
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
// Insert/Erase are O(log n); a full priority-ordered scan costs
// O(k log users) for k candidates actually examined, instead of an
// O(n log n) sort of everything.
//
// With multifactor disabled every job ranks 0 and the merge degenerates to
// global submission order, matching the reference priority==0 sort.
class PendingIndex {
 private:
  // Ordering key inside one bucket map: higher rank first, then earlier
  // submission. Defined up front so Cursor can hold map iterators by value.
  struct Key {
    double rank;             // higher first
    std::uint64_t tiebreak;  // lower first
    bool operator<(const Key& other) const {
      if (rank != other.rank) return rank > other.rank;
      return tiebreak < other.tiebreak;
    }
  };
  using BucketMap = std::map<Key, IndexedJob>;
  struct Bucket {
    BucketMap growing;
    BucketMap saturated;
  };

 public:
  PendingIndex(const MultifactorPriority* priority,
               const FairShareTracker* fairshare, bool multifactor)
      : priority_(priority), fairshare_(fairshare), multifactor_(multifactor) {}

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
  // by any Insert/Erase on the index — plan first, mutate after.
  class Cursor {
   public:
    // Next pending job in (priority desc, submission order asc) order —
    // exactly the total order the reference full sort produces.
    std::optional<Candidate> Next();

   private:
    friend class PendingIndex;
    struct UserState {
      const Bucket* bucket;
      BucketMap::const_iterator growing;
      BucketMap::const_iterator saturated;
      double fs_factor;
    };
    struct HeapEntry {
      double priority;
      std::uint64_t tiebreak;
      std::size_t user_slot;
      bool from_saturated;
    };
    Cursor(const PendingIndex* index, SimTime now);
    void PushUserHead(std::size_t slot);
    [[nodiscard]] double PriorityOf(const IndexedJob& job,
                                    double fs_factor) const;

    const PendingIndex* index_;
    SimTime now_;
    std::vector<UserState> users_;
    std::vector<HeapEntry> heap_;
  };

  // Migrates any newly saturated jobs, then opens a cursor at `now`.
  [[nodiscard]] Cursor Scan(SimTime now);

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

  const MultifactorPriority* priority_;
  const FairShareTracker* fairshare_;
  bool multifactor_;
  std::unordered_map<std::uint32_t, Bucket> buckets_;
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
};
IndexedPlan PlanScheduleIndexed(SchedulerPolicy policy, PendingIndex& pending,
                                const NodeTimeline& timeline, int free_nodes,
                                SimTime now, int backfill_max_job_test);

}  // namespace eco::slurm
