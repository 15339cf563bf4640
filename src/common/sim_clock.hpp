// Discrete-event simulation core.
//
// The cluster simulator, the IPMI sampler, and Chronus's benchmark loop all
// share one virtual clock. Events are (time, sequence, callback) tuples; ties
// break in insertion order so simulations are deterministic.
//
// The queue is an indexed binary heap of small {when, seq, slot} entries over
// a slot table that owns the callbacks. Each slot knows its heap position, so
// Cancel() removes the event eagerly in O(log n): there are no tombstones,
// and empty()/pending() are the heap size. Ids are opaque
// (generation << 32 | slot, never 0); a slot's generation moves on whenever
// its event fires or is cancelled, so a stale id never matches the slot's
// next occupant.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace eco {

// Simulated time in seconds since simulation start.
using SimTime = double;

class EventQueue {
 public:
  using Callback = std::function<void(SimTime)>;

  // Schedules `cb` at absolute time `when` (clamped to now for past times).
  // Returns an id usable with Cancel().
  std::uint64_t ScheduleAt(SimTime when, Callback cb);
  std::uint64_t ScheduleAfter(SimTime delay, Callback cb);

  // Cancels a pending event; returns false if already fired or unknown.
  bool Cancel(std::uint64_t id);

  // Runs the next event; returns false if the queue is empty.
  bool Step();
  // Runs until the queue drains or `horizon` is passed (events scheduled at
  // exactly `horizon` still run). Returns the number of events executed.
  std::size_t RunUntil(SimTime horizon);
  std::size_t RunAll();

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  // Timestamp of the next pending event; `fallback` when the queue is empty.
  [[nodiscard]] SimTime PeekNextTime(SimTime fallback = 0.0);

 private:
  struct Entry {
    SimTime when;
    // Monotone insertion counter. This is the determinism contract: events
    // scheduled at the same timestamp fire strictly in the order they were
    // scheduled, regardless of heap internals or cancellations in between
    // (regression-tested in test_sched_index.cpp). Batch submission and
    // deferred dispatch both rely on it.
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator<(const Entry& other) const {
      if (when != other.when) return when < other.when;
      return seq < other.seq;
    }
  };
  struct Slot {
    Callback cb;
    std::uint32_t generation = 1;
    std::uint32_t heap_pos = kFree;
  };
  static constexpr std::uint32_t kFree = ~std::uint32_t{0};

  // Removes heap_[pos], restoring the heap property around the hole.
  void RemoveAt(std::uint32_t pos);
  // Hands `slot` back to the free list and retires its current id.
  void Release(std::uint32_t slot);
  void SiftUp(std::uint32_t pos);
  void SiftDown(std::uint32_t pos);
  // Writes `e` into heap_[pos] and records the position in its slot.
  void Place(std::uint32_t pos, const Entry& e);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace eco
