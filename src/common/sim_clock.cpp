#include "common/sim_clock.hpp"

#include <algorithm>
#include <utility>

namespace eco {

std::uint64_t EventQueue::ScheduleAt(SimTime when, Callback cb) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].cb = std::move(cb);
  heap_.push_back(Entry{std::max(when, now_), next_seq_++, slot});
  SiftUp(static_cast<std::uint32_t>(heap_.size() - 1));
  return std::uint64_t{slots_[slot].generation} << 32 | slot;
}

std::uint64_t EventQueue::ScheduleAfter(SimTime delay, Callback cb) {
  return ScheduleAt(now_ + std::max(0.0, delay), std::move(cb));
}

bool EventQueue::Cancel(std::uint64_t id) {
  // Already fired or already cancelled (or never existed): the generation
  // no longer matches, or the slot is free. Report failure and leave the
  // bookkeeping untouched.
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.heap_pos == kFree || s.generation != id >> 32) return false;
  RemoveAt(s.heap_pos);
  Release(slot);
  return true;
}

SimTime EventQueue::PeekNextTime(SimTime fallback) {
  return heap_.empty() ? fallback : heap_.front().when;
}

bool EventQueue::Step() {
  if (heap_.empty()) return false;
  const Entry top = heap_.front();
  RemoveAt(0);
  // Move the callback out before releasing the slot: the callback may
  // schedule events, which can reuse this very slot.
  Callback cb = std::move(slots_[top.slot].cb);
  Release(top.slot);
  now_ = top.when;
  cb(now_);
  return true;
}

std::size_t EventQueue::RunUntil(SimTime horizon) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front().when <= horizon) {
    Step();
    ++executed;
  }
  // Even when no event is left at/before the horizon, time advances to it so
  // callers can interleave RunUntil with manual sampling.
  now_ = std::max(now_, horizon);
  return executed;
}

std::size_t EventQueue::RunAll() {
  std::size_t executed = 0;
  while (Step()) ++executed;
  return executed;
}

void EventQueue::RemoveAt(std::uint32_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail: no hole to fill
  Place(pos, last);
  if (pos > 0 && last < heap_[(pos - 1) / 2]) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
}

void EventQueue::Release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  s.heap_pos = kFree;
  if (++s.generation == 0) s.generation = 1;  // ids are never 0
  free_slots_.push_back(slot);
}

void EventQueue::SiftUp(std::uint32_t pos) {
  const Entry e = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!(e < heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, e);
}

void EventQueue::SiftDown(std::uint32_t pos) {
  const Entry e = heap_[pos];
  const auto n = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
    if (!(heap_[child] < e)) break;
    Place(pos, heap_[child]);
    pos = child;
  }
  Place(pos, e);
}

void EventQueue::Place(std::uint32_t pos, const Entry& e) {
  heap_[pos] = e;
  slots_[e.slot].heap_pos = pos;
}

}  // namespace eco
