#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace eco {
namespace {

// ----------------------------------------------------------------- Error

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(s.message().empty());
}

TEST(Status, ErrorCarriesMessage) {
  const Status s = Status::Error("boom");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "boom");
}

TEST(Result, ValueAccess) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, ErrorPath) {
  auto r = Result<int>::Error("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.message(), "nope");
  EXPECT_EQ(r.value_or(-1), -1);
}

// ----------------------------------------------------------------- Units

TEST(Units, FrequencyConversions) {
  EXPECT_DOUBLE_EQ(KiloHertzToGHz(kHz(2'200'000)), 2.2);
  EXPECT_EQ(GHzToKiloHertz(2.5), kHz(2'500'000));
  EXPECT_EQ(GHzToKiloHertz(KiloHertzToGHz(1'500'000)), kHz(1'500'000));
}

TEST(Units, EnergyAndMemory) {
  EXPECT_DOUBLE_EQ(JoulesToKiloJoules(240200.0), 240.2);
  EXPECT_EQ(GiB(256), 256ull * 1024 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(BytesToGiB(static_cast<double>(GiB(32))), 32.0);
}

// ------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.UniformInt(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a(5);
  Rng fork1 = a.Fork();
  Rng b(5);
  Rng fork2 = b.Fork();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fork1.NextU64(), fork2.NextU64());
}

// ------------------------------------------------------------ EventQueue

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(3.0, [&](SimTime) { order.push_back(3); });
  q.ScheduleAt(1.0, [&](SimTime) { order.push_back(1); });
  q.ScheduleAt(2.0, [&](SimTime) { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(1.0, [&](SimTime) { order.push_back(1); });
  q.ScheduleAt(1.0, [&](SimTime) { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, ScheduleAfterIsRelative) {
  EventQueue q;
  double fired_at = -1.0;
  q.ScheduleAt(5.0, [&](SimTime) {
    q.ScheduleAfter(2.5, [&](SimTime t) { fired_at = t; });
  });
  q.RunAll();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(EventQueue, CancelAfterFireReportsFailureAndKeepsCountsSane) {
  EventQueue q;
  const auto id = q.ScheduleAt(1.0, [](SimTime) {});
  q.RunAll();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.Cancel(id));  // already fired
  EXPECT_TRUE(q.empty());     // count not corrupted
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunUntilSkipsCancelledTombstonesWithoutOverrunningHorizon) {
  EventQueue q;
  int fired = 0;
  const auto early = q.ScheduleAt(1.0, [&](SimTime) { ++fired; });
  q.ScheduleAt(10.0, [&](SimTime) { ++fired; });
  q.Cancel(early);
  // The cancelled t=1 tombstone must not trick RunUntil into executing the
  // t=10 event before the horizon.
  EXPECT_EQ(q.RunUntil(5.0), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  q.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const auto id = q.ScheduleAt(1.0, [&](SimTime) { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // double-cancel reports failure
  q.RunAll();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilStopsAtHorizonAndAdvancesClock) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1.0, [&](SimTime) { ++fired; });
  q.ScheduleAt(10.0, [&](SimTime) { ++fired; });
  EXPECT_EQ(q.RunUntil(5.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  q.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsSchedulingEventsCascade) {
  EventQueue q;
  int depth = 0;
  std::function<void(SimTime)> chain = [&](SimTime) {
    if (++depth < 5) q.ScheduleAfter(1.0, chain);
  };
  q.ScheduleAfter(1.0, chain);
  q.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, PastTimesClampToNow) {
  EventQueue q;
  q.ScheduleAt(5.0, [](SimTime) {});
  q.RunAll();
  double fired_at = -1.0;
  q.ScheduleAt(1.0, [&](SimTime t) { fired_at = t; });  // in the past
  q.RunAll();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(EventQueue, StaleIdsNeverCancelTheSlotsNextEvent) {
  EventQueue q;
  int fired = 0;
  const auto fired_id = q.ScheduleAt(1.0, [&](SimTime) { ++fired; });
  q.RunAll();
  // The queue is empty again, so each new event takes the slot its
  // predecessor just freed.
  const auto successor = q.ScheduleAt(2.0, [&](SimTime) { ++fired; });
  EXPECT_NE(successor, fired_id);
  EXPECT_FALSE(q.Cancel(fired_id));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.RunAll(), 1u);

  const auto cancelled = q.ScheduleAt(3.0, [&](SimTime) { fired += 100; });
  EXPECT_TRUE(q.Cancel(cancelled));
  q.ScheduleAt(4.0, [&](SimTime) { ++fired; });
  EXPECT_FALSE(q.Cancel(cancelled));
  EXPECT_FALSE(q.Cancel(fired_id));
  EXPECT_FALSE(q.Cancel(0));
  EXPECT_EQ(q.RunAll(), 1u);
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, CancellingEveryEventLeavesNothingBehind) {
  EventQueue q;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(q.ScheduleAt(1e6 + i % 97, [](SimTime) { FAIL(); }));
  }
  EXPECT_EQ(q.pending(), 10000u);
  for (const std::uint64_t id : ids) EXPECT_TRUE(q.Cancel(id));
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.PeekNextTime(-7.0), -7.0);
  EXPECT_EQ(q.RunAll(), 0u);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
}

// Brute-force reference for the differential test below: a vector scanned
// for the minimum live (when, seq). Ids are 1-based vector indices.
class BruteForceQueue {
 public:
  using Callback = EventQueue::Callback;

  std::uint64_t ScheduleAt(SimTime when, Callback cb) {
    events_.push_back({std::max(when, now_), next_seq_++, std::move(cb), true});
    return events_.size();
  }
  std::uint64_t ScheduleAfter(SimTime delay, Callback cb) {
    return ScheduleAt(now_ + std::max(0.0, delay), std::move(cb));
  }
  bool Cancel(std::uint64_t id) {
    if (id == 0 || id > events_.size() || !events_[id - 1].live) return false;
    events_[id - 1].live = false;
    events_[id - 1].cb = nullptr;
    return true;
  }
  bool Step() {
    const std::size_t next = Next();
    if (next == kNone) return false;
    Event& ev = events_[next];
    ev.live = false;
    Callback cb = std::move(ev.cb);
    now_ = ev.when;
    cb(now_);
    return true;
  }
  std::size_t RunUntil(SimTime horizon) {
    std::size_t executed = 0;
    for (std::size_t next = Next();
         next != kNone && events_[next].when <= horizon; next = Next()) {
      Step();
      ++executed;
    }
    now_ = std::max(now_, horizon);
    return executed;
  }
  std::size_t RunAll() {
    std::size_t executed = 0;
    while (Step()) ++executed;
    return executed;
  }
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pending() const {
    return static_cast<std::size_t>(std::count_if(
        events_.begin(), events_.end(), [](const Event& e) { return e.live; }));
  }
  [[nodiscard]] bool empty() const { return pending() == 0; }
  [[nodiscard]] SimTime PeekNextTime(SimTime fallback = 0.0) {
    const std::size_t next = Next();
    return next == kNone ? fallback : events_[next].when;
  }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    Callback cb;
    bool live;
  };
  static constexpr std::size_t kNone = ~std::size_t{0};

  [[nodiscard]] std::size_t Next() const {
    std::size_t best = kNone;
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      if (!e.live) continue;
      if (best == kNone || e.when < events_[best].when ||
          (e.when == events_[best].when && e.seq < events_[best].seq)) {
        best = i;
      }
    }
    return best;
  }

  std::vector<Event> events_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

// Drives one queue through a seeded script and logs every observable: what
// fired when, each call's return value, now(), pending(), empty() and
// PeekNextTime(). Events are named by tags (their schedule order), so two
// queues with different id schemes produce comparable logs. A firing
// event's own actions (schedule more, possibly in the past or at `now`,
// cancel any tag) derive from its tag alone.
template <typename Queue>
class QueueScript {
 public:
  explicit QueueScript(std::uint64_t seed) : seed_(seed), rng_(seed) {}

  std::vector<std::string> Run(int ops) {
    for (int i = 0; i < ops; ++i) {
      const int op = rng_.UniformInt(0, 9);
      if (op <= 3) {
        Schedule(rng_);
      } else if (op <= 5) {
        CancelSome(rng_);
      } else if (op <= 7) {
        Log("step ", q_.Step());
      } else {
        const SimTime horizon = q_.now() + rng_.UniformInt(-1, 6);
        Log("run_until ", horizon, " -> ", q_.RunUntil(horizon));
      }
      Log("state ", q_.now(), " ", q_.pending(), " ", q_.empty(), " ",
          q_.PeekNextTime(-1.0));
    }
    Log("cancel 0 -> ", q_.Cancel(0));
    Log("run_all ", q_.RunAll(), " ", q_.now(), " ", q_.pending());
    return log_;
  }

 private:
  void Schedule(Rng& rng) {
    const std::size_t tag = ids_.size();
    ids_.push_back(0);
    auto cb = [this, tag](SimTime t) { Fire(tag, t); };
    const double offset = rng.UniformInt(-3, 10);  // negatives: the past
    if (rng.Chance(0.5)) {
      ids_[tag] = q_.ScheduleAt(q_.now() + offset, cb);
    } else {
      ids_[tag] = q_.ScheduleAfter(offset, cb);
    }
    Log("schedule ", tag, " ", offset);
  }

  void CancelSome(Rng& rng) {
    if (ids_.empty()) return;
    const auto tag = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int>(ids_.size()) - 1));
    Log("cancel ", tag, " -> ", q_.Cancel(ids_[tag]));
  }

  void Fire(std::size_t tag, SimTime t) {
    Log("fire ", tag, " ", t, " ", q_.now(), " ", q_.pending());
    Rng rng(seed_ * 1000003 + tag);
    if (rng.Chance(0.4)) Schedule(rng);
    if (rng.Chance(0.3)) CancelSome(rng);
  }

  template <typename... Args>
  void Log(const Args&... args) {
    std::ostringstream line;
    line.precision(17);
    (line << ... << args);
    log_.push_back(line.str());
  }

  std::uint64_t seed_;
  Rng rng_;
  Queue q_;
  std::vector<std::uint64_t> ids_;  // tag -> this queue's id
  std::vector<std::string> log_;
};

TEST(EventQueue, MatchesBruteForceReferenceOnRandomScripts) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto expected = QueueScript<BruteForceQueue>(seed).Run(400);
    const auto actual = QueueScript<EventQueue>(seed).Run(400);
    ASSERT_EQ(actual.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i]) << "seed " << seed << " line " << i;
    }
  }
}

// ----------------------------------------------------------------- Table

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"Cores", "GHz"});
  t.AddRow({"32", "2.2"});
  t.AddRow({"1", "1.5"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("| Cores | GHz |"), std::string::npos);
  EXPECT_NE(out.find("| 32    | 2.2 |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.AddRow({"1"});
  EXPECT_NE(t.Render().find("| 1 |"), std::string::npos);
}

// ------------------------------------------------------------------- Log

TEST(Logger, SinkReceivesMessagesAtOrAboveLevel) {
  std::vector<std::string> seen;
  Logger::Instance().SetSink(
      [&](LogLevel, const std::string& m) { seen.push_back(m); });
  Logger::Instance().SetLevel(LogLevel::kWarn);
  ECO_INFO << "hidden";
  ECO_WARN << "shown " << 42;
  Logger::Instance().SetSink(nullptr);
  Logger::Instance().SetLevel(LogLevel::kInfo);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "shown 42");
}

TEST(Logger, LevelNames) {
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "INFO");
  EXPECT_STREQ(LogLevelName(LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace eco
