// Unit tests for the million-job scheduling structures: PendingIndex order
// fidelity against a brute-force sort, NodeTimeline shadow computation
// against a fresh sorted release scan, PlanScheduleIndexed against the
// reference PlanSchedule on randomized states, the EventQueue's
// equal-timestamp FIFO contract, the incremental fair-share total, the perf
// counters, and the batched submission paths (SubmitBatch / SubmitScripts /
// PumpWorkload).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "common/perf.hpp"
#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "slurm/cluster.hpp"
#include "slurm/sbatch.hpp"
#include "slurm/sched_index.hpp"
#include "slurm/scheduler.hpp"
#include "slurm/workload_gen.hpp"

namespace eco::slurm {
namespace {

// ------------------------------------------------------------ PendingIndex

struct RefJob {
  IndexedJob job;
  bool present = true;
};

// The order a sort-everything scheduler produces: full recompute + sort.
std::vector<JobId> BruteForceOrder(const std::vector<RefJob>& jobs,
                                   const MultifactorPriority& priority,
                                   const FairShareTracker& fairshare,
                                   SimTime now, bool multifactor,
                                   std::vector<double>* priorities = nullptr) {
  struct Entry {
    JobId id;
    double p;
  };
  std::vector<Entry> entries;
  for (const RefJob& ref : jobs) {
    if (!ref.present) continue;
    const double p =
        multifactor
            ? priority.ComputeFromFactors(
                  std::max(0.0, now - ref.job.eligible_time),
                  ref.job.size_factor, fairshare.Factor(ref.job.user, now))
            : 0.0;
    entries.push_back({ref.job.id, p});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.p != b.p) return a.p > b.p;
    return a.id < b.id;
  });
  std::vector<JobId> out;
  for (const Entry& e : entries) {
    out.push_back(e.id);
    if (priorities != nullptr) priorities->push_back(e.p);
  }
  return out;
}

std::vector<JobId> DrainCursor(PendingIndex& index, SimTime now,
                               std::vector<double>* priorities = nullptr) {
  std::vector<JobId> out;
  auto cursor = index.Scan(now);
  while (auto candidate = cursor.Next()) {
    out.push_back(candidate->job->id);
    if (priorities != nullptr) priorities->push_back(candidate->priority);
  }
  return out;
}

TEST(PendingIndex, MatchesBruteForceOrderAcrossInsertEraseAndSaturation) {
  MultifactorWeights weights;
  weights.max_age_seconds = 500.0;  // small, so scans cross saturation
  MultifactorPriority priority(weights, 256);
  FairShareTracker fairshare(3600.0);
  PendingIndex index(&priority, &fairshare, /*multifactor=*/true);

  Rng rng(7);
  std::vector<RefJob> jobs;
  JobId next_id = 1;
  const auto insert_random = [&](SimTime eligible) {
    IndexedJob job;
    job.id = next_id++;
    job.user = static_cast<std::uint32_t>(rng.NextBounded(6));
    job.nodes_needed = rng.UniformInt(1, 4);
    job.time_limit_s = rng.Uniform(60.0, 600.0);
    job.eligible_time = eligible;
    job.size_factor =
        priority.SizeFactor(rng.UniformInt(1, 64), job.nodes_needed);
    index.Insert(job);
    jobs.push_back({job, true});
  };

  for (int i = 0; i < 120; ++i) insert_random(rng.Uniform(0.0, 300.0));
  fairshare.AddUsage(1, 5000.0, 100.0);
  fairshare.AddUsage(3, 900.0, 150.0);

  // Scan times straddle the 500 s age saturation of the earliest jobs.
  for (const SimTime now : {300.0, 450.0, 700.0, 1200.0, 9000.0}) {
    ASSERT_EQ(DrainCursor(index, now),
              BruteForceOrder(jobs, priority, fairshare, now, true))
        << "at t=" << now;
    // Mutate between scans: erase a third, add a few fresh arrivals.
    for (RefJob& ref : jobs) {
      if (ref.present && rng.Chance(0.3)) {
        ref.present = false;
        EXPECT_TRUE(index.Erase(ref.job.id));
      }
    }
    for (int i = 0; i < 10; ++i) insert_random(now);
    fairshare.AddUsage(static_cast<std::uint32_t>(rng.NextBounded(6)),
                       rng.Uniform(10.0, 2000.0), now);
  }
}

// One index and one tracker live across thousands of passes, so each
// pass ranks most users by factor bounds cached in earlier passes. Between
// passes jobs come and go, users are charged (the first charge only after
// 40 passes, zero-usage charges, brand-new users that raise the user count
// so the other users' exponents grow, one burst that overruns the tracker's
// charge ring), and time jumps, sometimes by dozens of half-lives and
// sometimes far enough for the decayed total to underflow. Every pass must
// match the full sort bitwise, and no bound may fall below the true factor.
TEST(PendingIndex, FactorCacheAcrossPassesMatchesBruteForce) {
  MultifactorWeights weights;
  weights.max_age_seconds = 4000.0;
  MultifactorPriority priority(weights, 256);
  const double half_life = 3600.0;
  FairShareTracker fairshare(half_life);
  PendingIndex index(&priority, &fairshare, /*multifactor=*/true);

  constexpr std::uint32_t kUsers = 240;
  constexpr int kPasses = 2400;
  Rng rng(31337);
  std::vector<RefJob> live;
  JobId next_id = 1;
  std::uint32_t fresh_user = 10'000;  // never queues a job
  SimTime now = 0.0;
  std::uint64_t evals = 0, ranked_users = 0;
  const auto insert = [&] {
    IndexedJob job;
    job.id = next_id++;
    job.user = static_cast<std::uint32_t>(rng.NextBounded(kUsers));
    job.nodes_needed = rng.UniformInt(1, 4);
    job.time_limit_s = 600.0;
    job.eligible_time = now - 60.0 * rng.UniformInt(0, 100);
    job.size_factor = priority.SizeFactor(rng.UniformInt(1, 64), 1);
    index.Insert(job);
    live.push_back({job, true});
  };
  for (int i = 0; i < 400; ++i) insert();

  for (int pass = 0; pass < kPasses; ++pass) {
    // Time: mostly seconds to minutes, sometimes many half-lives, twice far
    // enough for every decayed usage to underflow.
    const double jump = rng.NextDouble();
    if (pass == 900 || pass == 1900) {
      now += 1200.0 * half_life;
    } else if (jump < 0.02) {
      now += rng.Uniform(10.0, 60.0) * half_life;
    } else {
      now += rng.Uniform(0.0, 300.0);
    }
    // Jobs: erase a few, insert a few (the backlog hovers around 400).
    const int erase = rng.UniformInt(0, 4);
    for (int i = 0; i < erase && !live.empty(); ++i) {
      const std::size_t victim = rng.NextBounded(live.size());
      ASSERT_TRUE(index.Erase(live[victim].job.id));
      live[victim] = live.back();
      live.pop_back();
    }
    const int arrivals = live.size() < 400 ? rng.UniformInt(0, 5) : 1;
    for (int i = 0; i < arrivals; ++i) insert();
    // Charges.
    if (pass >= 40) {
      const int charges = pass == 1500 ? 1100 : rng.UniformInt(0, 3);
      for (int i = 0; i < charges; ++i) {
        const double kind = rng.NextDouble();
        if (kind < 0.1) {
          fairshare.AddUsage(fresh_user++, 0.0, now);  // n grows, k > 1
        } else {
          const auto user =
              static_cast<std::uint32_t>(rng.NextBounded(kUsers));
          const double usage = kind < 0.25 ? 0.0 : rng.Uniform(1.0, 5e4);
          fairshare.AddUsage(user, usage, now);
        }
      }
    }

    for (std::uint32_t user = 0; user < kUsers; ++user) {
      ASSERT_GE(index.FactorBound(user, now), fairshare.Factor(user, now))
          << "user " << user << " pass " << pass;
    }
    std::vector<double> expected_priorities;
    const std::vector<JobId> expected = BruteForceOrder(
        live, priority, fairshare, now, true, &expected_priorities);
    std::vector<JobId> order;
    std::vector<double> priorities;
    auto cursor = index.Scan(now);
    // Most passes stop after a few candidates, as the planner does; every
    // fourth runs the full order.
    const std::size_t take =
        pass % 4 == 0 ? expected.size()
                      : std::min<std::size_t>(expected.size(),
                                              rng.NextBounded(6));
    while (order.size() < take) {
      const auto candidate = cursor.Next();
      ASSERT_TRUE(candidate.has_value());
      order.push_back(candidate->job->id);
      priorities.push_back(candidate->priority);
    }
    if (take == expected.size()) {
      ASSERT_FALSE(cursor.Next().has_value());
    }
    expected_priorities.resize(take);
    ASSERT_EQ(order, std::vector<JobId>(expected.begin(),
                                        expected.begin() +
                                            static_cast<long>(take)))
        << "pass " << pass;
    for (std::size_t i = 0; i < take; ++i) {
      ASSERT_EQ(priorities[i], expected_priorities[i])  // bitwise
          << "pass " << pass << " rank " << i;
    }
    if (take < expected.size()) {
      evals += cursor.fairshare_evals();
      std::set<std::uint32_t> users;
      for (const RefJob& ref : live) users.insert(ref.job.user);
      ranked_users += users.size();
    }
  }
  // The short passes evaluated a small fraction of the users they ranked.
  EXPECT_LT(evals * 4, ranked_users) << evals << " of " << ranked_users;
}

TEST(PendingIndex, CursorPriorityIsBitwiseIdenticalToLegacyFormula) {
  MultifactorPriority priority(MultifactorWeights{}, 128);
  FairShareTracker fairshare;
  fairshare.AddUsage(2, 1234.5, 10.0);
  PendingIndex index(&priority, &fairshare, true);

  IndexedJob job;
  job.id = 9;
  job.user = 2;
  job.eligible_time = 4.0;
  job.size_factor = priority.SizeFactor(32, 2);
  index.Insert(job);

  std::vector<double> priorities;
  DrainCursor(index, 64.0, &priorities);
  ASSERT_EQ(priorities.size(), 1u);
  const double expected = priority.ComputeFromFactors(
      60.0, priority.SizeFactor(32, 2), fairshare.Factor(2, 64.0));
  EXPECT_EQ(priorities[0], expected);  // bitwise, not approximate
}

TEST(PendingIndex, SameUserOrderFlipsAtAgeSaturation) {
  MultifactorWeights weights;
  weights.max_age_seconds = 100.0;
  MultifactorPriority priority(weights, 100);
  FairShareTracker fairshare;
  PendingIndex index(&priority, &fairshare, true);

  // A is older; B asks for more cores. Young: A's age lead wins. Once both
  // age factors pin at 1, B's size bonus wins — the growing/saturated split
  // exists precisely because this flip happens within one user's bucket.
  IndexedJob a{/*id=*/1, /*user=*/0, 1, 60.0,
               /*eligible=*/0.0, priority.SizeFactor(10, 1)};
  IndexedJob b{/*id=*/2, /*user=*/0, 1, 60.0,
               /*eligible=*/50.0, priority.SizeFactor(90, 1)};
  index.Insert(a);
  index.Insert(b);

  EXPECT_EQ(DrainCursor(index, 60.0), (std::vector<JobId>{1, 2}));
  EXPECT_EQ(DrainCursor(index, 500.0), (std::vector<JobId>{2, 1}));
}

TEST(PendingIndex, NonMultifactorModeIsPureSubmissionOrder) {
  MultifactorPriority priority(MultifactorWeights{}, 100);
  FairShareTracker fairshare;
  PendingIndex index(&priority, &fairshare, /*multifactor=*/false);

  Rng rng(11);
  std::vector<RefJob> jobs;
  for (JobId id = 1; id <= 40; ++id) {
    IndexedJob job;
    job.id = id;
    job.user = static_cast<std::uint32_t>(rng.NextBounded(4));
    job.eligible_time = rng.Uniform(0.0, 100.0);
    job.size_factor = rng.NextDouble();
    index.Insert(job);
    jobs.push_back({job, true});
  }
  ASSERT_EQ(DrainCursor(index, 50.0),
            BruteForceOrder(jobs, priority, fairshare, 50.0, false));
}

TEST(PendingIndex, EraseAndContainsBookkeeping) {
  MultifactorPriority priority(MultifactorWeights{}, 100);
  FairShareTracker fairshare;
  PendingIndex index(&priority, &fairshare, true);
  EXPECT_TRUE(index.empty());
  EXPECT_FALSE(index.Erase(1));

  IndexedJob job;
  job.id = 1;
  job.size_factor = 0.1;
  index.Insert(job);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.Contains(1));
  EXPECT_TRUE(index.Erase(1));
  EXPECT_FALSE(index.Contains(1));
  EXPECT_TRUE(index.empty());
  // A stale saturation-heap entry for the erased job must not resurrect it.
  EXPECT_TRUE(DrainCursor(index, 1e9).empty());
}

// ------------------------------------------------------------ NodeTimeline

TEST(NodeTimeline, ShadowMatchesLegacyReleaseScan) {
  Rng rng(23);
  NodeTimeline timeline;
  std::map<JobId, std::pair<SimTime, int>> reference;  // id -> (end, nodes)

  JobId next = 1;
  for (int step = 0; step < 300; ++step) {
    if (reference.empty() || rng.Chance(0.6)) {
      const SimTime end = rng.Uniform(0.0, 1000.0);
      const int nodes = rng.UniformInt(1, 8);
      timeline.Add(next, end, nodes);
      reference[next] = {end, nodes};
      ++next;
    } else {
      const auto victim = std::next(
          reference.begin(),
          static_cast<long>(rng.NextBounded(reference.size())));
      timeline.Remove(victim->first);
      reference.erase(victim);
    }
    ASSERT_EQ(timeline.size(), reference.size());

    // Replays the exact loop PlanSchedule runs over its sorted releases
    // vector, with (when, id) tie order.
    const int free_now = rng.UniformInt(0, 4);
    const int needed = rng.UniformInt(1, 16);
    const SimTime now = rng.Uniform(0.0, 500.0);
    std::vector<std::pair<std::pair<SimTime, JobId>, int>> releases(
        reference.size());
    std::transform(reference.begin(), reference.end(), releases.begin(),
                   [](const auto& kv) {
                     return std::make_pair(
                         std::make_pair(kv.second.first, kv.first),
                         kv.second.second);
                   });
    std::sort(releases.begin(), releases.end());
    SimTime shadow_time = now;
    int avail = free_now;
    int spare = 0;
    bool reserved = false;
    for (const auto& [key, nodes] : releases) {
      if (avail >= needed) break;
      avail += nodes;
      shadow_time = key.first;
      if (avail >= needed) {
        spare = avail - needed;
        reserved = true;
        break;
      }
    }

    const auto shadow = timeline.ComputeShadow(free_now, needed, now);
    ASSERT_EQ(shadow.reserved, reserved);
    if (reserved) {
      ASSERT_EQ(shadow.time, shadow_time);
      ASSERT_EQ(shadow.spare_nodes, spare);
    }
  }
}

TEST(NodeTimeline, RemoveIsIdempotentAndTieOrderIsById) {
  NodeTimeline timeline;
  timeline.Add(2, 100.0, 3);
  timeline.Add(1, 100.0, 5);  // same release time: id 1 scans first
  timeline.Remove(7);         // never added: no-op
  const auto shadow = timeline.ComputeShadow(0, 5, 0.0);
  EXPECT_TRUE(shadow.reserved);
  EXPECT_EQ(shadow.time, 100.0);
  EXPECT_EQ(shadow.spare_nodes, 0);  // job 1 alone satisfied the head
  timeline.Remove(1);
  timeline.Remove(1);
  EXPECT_EQ(timeline.size(), 1u);
}

// ------------------------------- indexed planner vs the reference planner

// One planning state, fed identically to PlanSchedule (the reference
// planner: full sort, fresh release scan) and to PlanScheduleIndexed.
struct PlanState {
  SchedulerPolicy policy = SchedulerPolicy::kBackfill;
  bool multifactor = true;
  MultifactorWeights weights;
  int total_nodes = 0;
  int free_nodes = 0;
  SimTime now = 1000.0;
  std::vector<IndexedJob> pending;
  struct Running {
    JobId id;
    SimTime release;
    int nodes;
  };
  std::vector<Running> running;  // in id order
  std::vector<std::pair<std::uint32_t, double>> usage;  // (user, cpu-s) at t=0
};

struct PlanPair {
  std::vector<JobId> reference;
  std::vector<JobId> indexed;
};

PlanPair PlanBoth(const PlanState& state) {
  const MultifactorPriority priority(state.weights, 32 * state.total_nodes);
  FairShareTracker fairshare(3600.0);
  for (const auto& [user, cpu_s] : state.usage) {
    fairshare.AddUsage(user, cpu_s, 0.0);
  }
  PendingIndex index(&priority, &fairshare, state.multifactor);
  std::vector<PlanInput> inputs;
  for (const IndexedJob& job : state.pending) {
    index.Insert(job);
    PlanInput input;
    input.id = job.id;
    input.nodes_needed = job.nodes_needed;
    input.time_limit_s = job.time_limit_s;
    input.priority =
        state.multifactor
            ? priority.ComputeFromFactors(
                  std::max(0.0, state.now - job.eligible_time),
                  job.size_factor, fairshare.Factor(job.user, state.now))
            : 0.0;
    input.tiebreak = job.id;
    inputs.push_back(input);
  }
  NodeTimeline timeline;
  std::vector<RunningInput> running;
  for (const auto& job : state.running) {
    timeline.Add(job.id, job.release, job.nodes);
    running.push_back({job.nodes, job.release});
  }
  PlanPair out;
  out.reference = PlanSchedule(state.policy, inputs, running, state.free_nodes,
                               state.total_nodes, state.now);
  const IndexedPlan plan =
      PlanScheduleIndexed(state.policy, index, timeline, state.free_nodes,
                          state.now, /*backfill_max_job_test=*/0);
  for (const auto& start : plan.starts) out.indexed.push_back(start.id);
  return out;
}

// Releases and time limits come from a few whole minutes, eligible times
// and size factors from small sets, so release times, shadow boundaries and
// priorities tie often; up to 40 running jobs puts more than 16 releases in
// the reference planner's sort.
PlanState RandomPlanState(Rng& rng, int trial) {
  PlanState state;
  state.policy =
      trial % 2 == 0 ? SchedulerPolicy::kBackfill : SchedulerPolicy::kFifo;
  state.multifactor = (trial / 2) % 2 == 0;
  // Half the multifactor states saturate most age factors.
  state.weights.max_age_seconds = (trial / 4) % 2 == 0 ? 300.0 : 86400.0;
  int held = 0;
  const int running = rng.UniformInt(0, 40);
  for (int i = 0; i < running; ++i) {
    const int nodes = rng.UniformInt(1, 3);
    state.running.push_back({static_cast<JobId>(1000 + i),
                             state.now + 60.0 * rng.UniformInt(1, 5), nodes});
    held += nodes;
  }
  state.free_nodes = rng.UniformInt(0, 6);
  state.total_nodes = std::max(1, held + state.free_nodes);
  const int pending = rng.UniformInt(1, 50);
  for (int i = 0; i < pending; ++i) {
    IndexedJob job;
    job.id = static_cast<JobId>(i + 1);
    job.user = static_cast<std::uint32_t>(rng.NextBounded(5));
    job.nodes_needed = rng.UniformInt(1, std::min(8, state.total_nodes));
    job.time_limit_s = 60.0 * rng.UniformInt(1, 8);
    job.eligible_time = 100.0 * rng.UniformInt(0, 9);
    job.size_factor = 0.25 * rng.UniformInt(0, 4);
    state.pending.push_back(job);
  }
  for (std::uint32_t user = 0; user < 5; ++user) {
    if (rng.Chance(0.6)) state.usage.emplace_back(user, rng.Uniform(1.0, 5e4));
  }
  return state;
}

TEST(PlanScheduleIndexed, MatchesReferencePlannerOnRandomStates) {
  Rng rng(4'2017);
  for (int trial = 0; trial < 800; ++trial) {
    const PlanState state = RandomPlanState(rng, trial);
    const PlanPair plans = PlanBoth(state);
    ASSERT_EQ(plans.indexed, plans.reference)
        << "trial " << trial << ": " << state.running.size() << " running, "
        << state.pending.size() << " pending";
  }
}

// Releases that tie on time count toward the blocked head in job-id order,
// in both planners. Here job 1000's three nodes alone complete the head's
// reservation with no spare node, so the long one-node job must not start;
// any other order of the twenty tied releases would leave a spare node and
// backfill it.
TEST(PlanScheduleIndexed, TiedReleasesReserveInJobIdOrder) {
  PlanState state;
  state.free_nodes = 1;
  state.running.push_back({1000, 1600.0, 3});
  for (JobId id = 1001; id < 1020; ++id) {
    state.running.push_back({id, 1600.0, 2});
  }
  state.total_nodes = 1 + 3 + 19 * 2;
  state.multifactor = false;
  IndexedJob head;
  head.id = 1;
  head.nodes_needed = 4;
  head.time_limit_s = 600.0;
  IndexedJob filler = head;
  filler.id = 2;
  filler.nodes_needed = 1;
  filler.time_limit_s = 3600.0;  // ends after the shadow: needs a spare node
  state.pending = {head, filler};
  const PlanPair plans = PlanBoth(state);
  EXPECT_TRUE(plans.reference.empty());
  EXPECT_TRUE(plans.indexed.empty());
}

// ------------------------------------------- EventQueue determinism contract

TEST(EventQueue, EqualTimestampEventsFireInScheduleOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    queue.ScheduleAt(10.0, [&order, i](SimTime) { order.push_back(i); });
  }
  queue.RunAll();
  std::vector<int> expected(50);
  for (int i = 0; i < 50; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, CancellationsPreserveRemainingOrder) {
  EventQueue queue;
  std::vector<int> order;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(
        queue.ScheduleAt(5.0, [&order, i](SimTime) { order.push_back(i); }));
  }
  for (int i = 0; i < 20; i += 2) {
    EXPECT_TRUE(queue.Cancel(ids[static_cast<std::size_t>(i)]));
  }
  queue.RunAll();
  std::vector<int> expected;
  for (int i = 1; i < 20; i += 2) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, SameTimeEventScheduledMidEventRunsAfterExistingOnes) {
  EventQueue queue;
  std::vector<std::string> order;
  queue.ScheduleAt(1.0, [&](SimTime now) {
    order.push_back("first");
    // Scheduled DURING t=1 processing, for t=1: must run after "second",
    // which was already queued for this timestamp. This is what lets a
    // deferred dispatch pass observe every same-time submission.
    queue.ScheduleAt(now, [&](SimTime) { order.push_back("late"); });
  });
  queue.ScheduleAt(1.0, [&](SimTime) { order.push_back("second"); });
  queue.RunAll();
  EXPECT_EQ(order,
            (std::vector<std::string>{"first", "second", "late"}));
}

TEST(EventQueue, PeekNextTimeSkipsCancelledTombstones) {
  EventQueue queue;
  const auto id = queue.ScheduleAt(3.0, [](SimTime) {});
  queue.ScheduleAt(8.0, [](SimTime) {});
  EXPECT_EQ(queue.PeekNextTime(), 3.0);
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_EQ(queue.PeekNextTime(), 8.0);
  queue.RunAll();
  EXPECT_EQ(queue.PeekNextTime(-1.0), -1.0);
}

// ----------------------------------------------- FairShare incremental total

TEST(FairShare, IncrementalTotalMatchesBruteForceReference) {
  const double half_life = 1800.0;
  FairShareTracker tracker(half_life);
  std::map<std::uint32_t, std::pair<double, SimTime>> reference;

  Rng rng(99);
  SimTime now = 0.0;
  for (int i = 0; i < 500; ++i) {
    now += rng.Uniform(0.0, 400.0);
    const auto user = static_cast<std::uint32_t>(rng.NextBounded(20));
    const double usage = rng.Uniform(1.0, 5000.0);
    tracker.AddUsage(user, usage, now);
    auto& entry = reference[user];
    entry.first =
        entry.first * std::pow(0.5, (now - entry.second) / half_life) + usage;
    entry.second = now;

    if (i % 25 != 0) continue;
    const auto probe = static_cast<std::uint32_t>(rng.NextBounded(22));
    // The old implementation summed every user's decayed usage per query.
    double total = 0.0;
    for (const auto& [u, e] : reference) {
      total += e.first * std::pow(0.5, (now - e.second) / half_life);
    }
    const double average = total / static_cast<double>(reference.size());
    double mine = 0.0;
    const auto it = reference.find(probe);
    if (it != reference.end()) {
      mine = it->second.first *
             std::pow(0.5, (now - it->second.second) / half_life);
    }
    const double expected =
        average <= 0.0 ? 1.0 : std::pow(2.0, -mine / average);
    EXPECT_NEAR(tracker.Factor(probe, now), expected, 1e-9)
        << "user " << probe << " at t=" << now;
  }
  EXPECT_EQ(tracker.user_count(), reference.size());
}

// ------------------------------------------------------------ perf counters

TEST(Perf, ScopedTimerAccumulatesAndNullSinkIsNoop) {
  std::uint64_t sink = 0;
  {
    ScopedTimer timer(&sink);
    volatile double x = 1.0;
    for (int i = 0; i < 1000; ++i) x = x * 1.0000001;
  }
  EXPECT_GT(sink, 0u);
  const std::uint64_t before = sink;
  { ScopedTimer timer(nullptr); }
  EXPECT_EQ(sink, before);
  { ScopedTimer timer(&sink); }
  EXPECT_GE(sink, before);
}

TEST(Perf, FormatNanosPicksSensibleUnits) {
  EXPECT_EQ(FormatNanos(250), "250 ns");
  EXPECT_EQ(FormatNanos(2'500), "2.500 us");
  EXPECT_EQ(FormatNanos(2'500'000), "2.500 ms");
  EXPECT_EQ(FormatNanos(2'500'000'000ull), "2.500 s");
}

// --------------------------------------------------- batched submission

ClusterConfig SmallCluster(int nodes = 4) {
  ClusterConfig config;
  config.nodes = nodes;
  return config;
}

JobRequest FixedJob(const std::string& name, double seconds,
                    std::uint32_t user = 1000) {
  JobRequest request;
  request.name = name;
  request.user_id = user;
  request.num_tasks = 4;
  request.workload = WorkloadSpec::Fixed(seconds, 0.8);
  request.time_limit_s = seconds * 4.0;
  return request;
}

TEST(SubmitBatch, OneSchedulingPassAndPerSlotResults) {
  ClusterSim cluster(SmallCluster());
  std::vector<JobRequest> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(FixedJob("b" + std::to_string(i), 30.0));
  }
  batch[2].min_nodes = 99;  // rejected: bad node count
  const auto results = cluster.SubmitBatch(std::move(batch));
  ASSERT_EQ(results.size(), 6u);
  EXPECT_FALSE(results[2].ok());
  EXPECT_EQ(cluster.sched_metrics().dispatch_calls->Value(), 1u);
  EXPECT_EQ(cluster.sched_metrics().submit_calls->Value(), 6u);

  cluster.RunUntilIdle();
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 2) continue;
    ASSERT_TRUE(results[i].ok()) << i;
    EXPECT_EQ(cluster.GetJob(*results[i])->state, JobState::kCompleted);
  }
  EXPECT_EQ(cluster.sched_metrics().jobs_started->Value(), 5u);
  EXPECT_GE(cluster.sched_metrics().pending_peak->Value(), 5.0);
  EXPECT_GE(cluster.sched_metrics().timeline_peak->Value(), 1.0);
}

TEST(SubmitBatch, SubmitScriptsKeepsSlotAlignmentOnParseFailure) {
  ClusterSim cluster(SmallCluster());
  JobRequest base;
  base.workload = WorkloadSpec::Fixed(10.0, 0.8);
  base.time_limit_s = 100.0;
  base.num_tasks = 0;  // scripts must set --ntasks themselves
  const std::vector<std::string> scripts = {
      GenerateHpcgScript(4, kHz(2'500'000), 1, "xhpcg"),
      "#!/bin/bash\n# no ntasks here\n",
      GenerateHpcgScript(8, kHz(2'000'000), 2, "xhpcg"),
  };
  const auto results = SubmitScripts(cluster, scripts, base);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(cluster.GetJob(*results[2])->request.num_tasks, 8);
  EXPECT_EQ(cluster.sched_metrics().dispatch_calls->Value(), 1u);
}

TEST(DeferDispatch, CoalescesSameTimestampPassesAndDrainsIdentically) {
  WorkloadMix mix;
  mix.hpcg_share = 0.0;  // fixed-duration jobs only: fast to simulate
  mix.wide_share = 0.3;
  mix.mean_interarrival_s = 20.0;
  auto jobs = GenerateWorkload(mix, 50, 16, 1);

  ClusterConfig eager = SmallCluster();
  ClusterConfig deferred = SmallCluster();
  deferred.defer_dispatch = true;

  ClusterSim a(eager);
  ClusterSim b(deferred);
  PumpWorkload(a, jobs);
  PumpWorkload(b, jobs);
  a.RunUntilIdle();
  b.RunUntilIdle();

  for (JobId id = 1; id <= 50; ++id) {
    const auto ja = a.GetJob(id);
    const auto jb = b.GetJob(id);
    ASSERT_TRUE(ja.has_value() && jb.has_value());
    EXPECT_EQ(ja->state, jb->state) << "job " << id;
    EXPECT_EQ(ja->start_time, jb->start_time) << "job " << id;
    EXPECT_EQ(ja->end_time, jb->end_time) << "job " << id;
  }
  EXPECT_LE(b.sched_metrics().dispatch_calls->Value(),
            a.sched_metrics().dispatch_calls->Value());
}

TEST(PumpWorkload, MatchesManualSubmitLoopExactly) {
  WorkloadMix mix;
  mix.hpcg_share = 0.0;
  mix.wide_share = 0.2;
  mix.mean_interarrival_s = 45.0;
  mix.seed = 77;
  const auto jobs = GenerateWorkload(mix, 40, 16, 1);

  ClusterSim pumped(SmallCluster());
  const auto stats = PumpWorkload(pumped, jobs);
  pumped.RunUntilIdle();
  EXPECT_EQ(stats->submitted, 40u);
  EXPECT_EQ(stats->rejected, 0u);

  ClusterSim manual(SmallCluster());
  for (const auto& job : jobs) {
    manual.RunUntil(job.arrival);
    ASSERT_TRUE(manual.Submit(job.request).ok());
  }
  manual.RunUntilIdle();

  for (JobId id = 1; id <= 40; ++id) {
    const auto jp = pumped.GetJob(id);
    const auto jm = manual.GetJob(id);
    ASSERT_TRUE(jp.has_value() && jm.has_value());
    EXPECT_EQ(jp->state, jm->state) << "job " << id;
    EXPECT_EQ(jp->submit_time, jm->submit_time) << "job " << id;
    EXPECT_EQ(jp->start_time, jm->start_time) << "job " << id;
    EXPECT_EQ(jp->end_time, jm->end_time) << "job " << id;
  }
}

TEST(PumpWorkload, CoalescingWindowBatchesArrivals) {
  WorkloadMix mix;
  mix.hpcg_share = 0.0;
  mix.wide_share = 0.0;
  mix.mean_interarrival_s = 5.0;
  mix.duration_quantum_s = 60.0;  // durations snap to whole minutes
  auto jobs = GenerateWorkload(mix, 60, 16, 1);
  for (const auto& job : jobs) {
    const double duration = job.request.workload.fixed_duration_s;
    EXPECT_EQ(duration, std::ceil(duration / 60.0) * 60.0);
  }

  ClusterSim cluster(SmallCluster());
  const auto stats = PumpWorkload(cluster, std::move(jobs), 120.0);
  cluster.RunUntilIdle();
  EXPECT_EQ(stats->submitted, 60u);
  EXPECT_LT(stats->batches, 60u);  // several arrivals per window
  for (JobId id = 1; id <= 60; ++id) {
    EXPECT_EQ(cluster.GetJob(id)->state, JobState::kCompleted);
  }
}

}  // namespace
}  // namespace eco::slurm
