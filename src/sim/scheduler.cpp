#include "sim/scheduler.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace moonshot::sim {

namespace {
inline void fnv1a_fold(std::uint64_t& acc, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    acc ^= (v >> (8 * i)) & 0xff;
    acc *= 0x100000001b3ull;
  }
}
}  // namespace

TaskId Scheduler::schedule_at(TimePoint t, Callback cb) {
  return schedule_at(t, EventTag{}, std::move(cb));
}

TaskId Scheduler::schedule_at(TimePoint t, EventTag tag, Callback cb) {
  MOONSHOT_INVARIANT(t >= now_, "cannot schedule into the past");
  if (free_.empty()) {
    free_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  slots_[slot].state = Slot::State::kQueued;
  heap_.push_back(Event{t, next_seq_++, slot, tag, std::move(cb)});
  const TaskId id = id_of(heap_.back());
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

TaskId Scheduler::schedule_after(Duration d, Callback cb) {
  return schedule_at(now_ + d, std::move(cb));
}

TaskId Scheduler::schedule_after(Duration d, EventTag tag, Callback cb) {
  return schedule_at(now_ + d, tag, std::move(cb));
}

Scheduler::Slot* Scheduler::live(TaskId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return nullptr;
  Slot& s = slots_[slot];
  if (s.gen != id >> 32 || s.state != Slot::State::kQueued) return nullptr;
  return &s;
}

void Scheduler::cancel(TaskId id) {
  // An already-run id (a timer racing its own expiry) names an older
  // generation than its slot's, so it is a no-op here.
  if (Slot* s = live(id)) {
    s->state = Slot::State::kCancelled;
    ++cancelled_count_;
  }
}

bool Scheduler::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const bool was_cancelled = s.state == Slot::State::kCancelled;
  if (was_cancelled) --cancelled_count_;
  s.state = Slot::State::kFree;
  if (++s.gen == 0) s.gen = 1;  // keep 0 an invalid id across wrap-around
  free_.push_back(slot);
  return was_cancelled;
}

void Scheduler::execute(Event ev) {
  if (ev.t > now_) now_ = ev.t;
  ++executed_;
  fnv1a_fold(fingerprint_, static_cast<std::uint64_t>(ev.t.ns));
  fnv1a_fold(fingerprint_, ev.seq);
  ev.cb();
}

bool Scheduler::run_next() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    if (release(ev.slot)) continue;
    execute(std::move(ev));
    return true;
  }
  return false;
}

void Scheduler::run_until(TimePoint limit) {
  while (!heap_.empty()) {
    const Event& top = heap_.front();
    if (cancelled(top)) {
      release(top.slot);
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      continue;
    }
    if (top.t > limit) break;
    run_next();
  }
  if (now_ < limit) now_ = limit;
}

void Scheduler::run_all(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && run_next()) ++n;
}

std::vector<PendingEvent> Scheduler::frontier() const {
  std::vector<PendingEvent> out;
  out.reserve(heap_.size());
  for (const Event& ev : heap_) {
    if (cancelled(ev)) continue;
    out.push_back(PendingEvent{id_of(ev), ev.t, ev.seq, ev.tag});
  }
  std::sort(out.begin(), out.end(),
            [](const PendingEvent& a, const PendingEvent& b) {
              if (a.t != b.t) return a.t < b.t;
              return a.seq < b.seq;
            });
  return out;
}

std::uint64_t Scheduler::run_internal(std::uint64_t max_events) {
  std::uint64_t ran = 0;
  while (ran < max_events) {
    const Event* best = nullptr;
    for (const Event& ev : heap_) {
      if (ev.tag.kind != EventTag::Kind::kInternal) continue;
      if (cancelled(ev)) continue;
      if (!best || ev.t < best->t || (ev.t == best->t && ev.seq < best->seq)) best = &ev;
    }
    if (!best) break;
    run_task(id_of(*best));
    ++ran;
  }
  return ran;
}

bool Scheduler::run_task(TaskId id) {
  if (!live(id)) return false;
  const auto slot = static_cast<std::uint32_t>(id);
  auto it = std::find_if(heap_.begin(), heap_.end(),
                         [slot](const Event& ev) { return ev.slot == slot; });
  MOONSHOT_INVARIANT(it != heap_.end(), "queued slot missing from heap");
  Event ev = std::move(*it);
  heap_.erase(it);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  release(slot);
  execute(std::move(ev));
  return true;
}

}  // namespace moonshot::sim
