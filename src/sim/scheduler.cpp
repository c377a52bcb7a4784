#include "sim/scheduler.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace moonshot::sim {

// --- heap --------------------------------------------------------------------

void Scheduler::push(Entry e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Scheduler::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], e)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

void Scheduler::pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Scheduler::reheap() {
  std::make_heap(heap_.begin(), heap_.end(),
                 [](const Entry& a, const Entry& b) { return before(b, a); });
}

// --- scheduling --------------------------------------------------------------

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
  Slot& s = slots_[slot];
  s.state = Slot::State::kQueued;
  s.tag = tag;
  s.cb = std::move(cb);
  push(Entry{t, next_seq_++, slot});
  ++pending_;
  return id_of(slot);
}

TaskId Scheduler::schedule_after(Duration d, Callback cb) {
  return schedule_at(now_ + d, std::move(cb));
}

TaskId Scheduler::schedule_after(Duration d, EventTag tag, Callback cb) {
  return schedule_at(now_ + d, tag, std::move(cb));
}

void Scheduler::set_run_sink(RunSink sink) {
  MOONSHOT_INVARIANT(!sink || !sink_, "a scheduler has one run sink");
  sink_ = std::move(sink);
}

void Scheduler::schedule_run(std::span<const RunCopy> copies, std::uint32_t ref) {
  if (copies.empty()) return;
  MOONSHOT_INVARIANT(sink_, "schedule_run needs a run sink");
  if (free_runs_.empty()) {
    free_runs_.push_back(static_cast<std::uint32_t>(runs_.size()));
    runs_.emplace_back();
  }
  const std::uint32_t r = free_runs_.back();
  free_runs_.pop_back();
  Run& run = runs_[r];
  run.ref = ref;
  for (const RunCopy& c : copies) {
    MOONSHOT_INVARIANT(c.t >= now_, "cannot schedule into the past");
    MOONSHOT_INVARIANT(c.tag.kind != EventTag::Kind::kInternal, "run copies are choice points");
    run.copies.push_back(Copy{c.t, next_seq_++, c.tag});
  }
  std::sort(run.copies.begin(), run.copies.end(),
            [](const Copy& a, const Copy& b) { return before(a.t, a.seq, b.t, b.seq); });
  push(Entry{run.copies.front().t, run.copies.front().seq, kRunBit | r});
  pending_ += copies.size();
}

Scheduler::Slot* Scheduler::live(TaskId id) {
  if (id & kCopyId) return nullptr;
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
    --pending_;
  }
}

void Scheduler::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.state = Slot::State::kFree;
  s.cb = nullptr;
  if (++s.gen == kRunBit) s.gen = 1;  // keep ids clear of kCopyId and 0
  free_.push_back(slot);
}

Scheduler::Callback Scheduler::take(std::uint32_t slot) {
  Callback cb = std::move(slots_[slot].cb);
  release(slot);
  --pending_;
  return cb;
}

void Scheduler::free_run(std::uint32_t run) {
  runs_[run].copies.clear();
  runs_[run].next = 0;
  free_runs_.push_back(run);
}

// --- execution ---------------------------------------------------------------

void Scheduler::step(TimePoint t, std::uint64_t seq) {
  if (t > now_) now_ = t;
  ++executed_;
  fnv1a_fold(fingerprint_, static_cast<std::uint64_t>(t.ns));
  fnv1a_fold(fingerprint_, seq);
}

void Scheduler::run_head_copy() {
  const std::uint32_t r = heap_.front().ref & ~kRunBit;
  Run& run = runs_[r];
  const Copy c = run.copies[run.next++];
  const std::uint32_t ref = run.ref;
  if (run.next == run.copies.size()) {
    pop_top();
    free_run(r);
  } else {
    const Copy& head = run.copies[run.next];
    heap_.front().t = head.t;
    heap_.front().seq = head.seq;
    sift_down(0);
  }
  --pending_;
  // The sink may schedule: nothing of the run is touched past this point.
  step(c.t, c.seq);
  sink_(c.tag, ref);
}

bool Scheduler::run_next() {
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    if (top.ref & kRunBit) {
      run_head_copy();
      return true;
    }
    pop_top();
    if (cancelled(top)) {
      release(top.ref);
      continue;
    }
    Callback cb = take(top.ref);
    step(top.t, top.seq);
    cb();
    return true;
  }
  return false;
}

void Scheduler::run_until(TimePoint limit) {
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    if (cancelled(top)) {
      pop_top();
      release(top.ref);
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

// --- exploration -------------------------------------------------------------

std::vector<PendingEvent> Scheduler::frontier() const {
  std::vector<PendingEvent> out;
  out.reserve(pending_);
  for (const Entry& e : heap_) {
    if (e.ref & kRunBit) {
      const Run& run = runs_[e.ref & ~kRunBit];
      for (std::size_t i = run.next; i < run.copies.size(); ++i) {
        const Copy& c = run.copies[i];
        out.push_back(PendingEvent{kCopyId | c.seq, c.t, c.seq, c.tag});
      }
    } else if (!cancelled(e)) {
      out.push_back(PendingEvent{id_of(e.ref), e.t, e.seq, slots_[e.ref].tag});
    }
  }
  std::sort(out.begin(), out.end(), [](const PendingEvent& a, const PendingEvent& b) {
    return before(a.t, a.seq, b.t, b.seq);
  });
  return out;
}

std::uint64_t Scheduler::run_internal(std::uint64_t max_events) {
  std::uint64_t ran = 0;
  while (ran < max_events) {
    const Entry* best = nullptr;
    for (const Entry& e : heap_) {
      if (e.ref & kRunBit) continue;  // run copies are always tagged
      if (slots_[e.ref].tag.kind != EventTag::Kind::kInternal || cancelled(e)) continue;
      if (!best || before(e, *best)) best = &e;
    }
    if (!best) break;
    run_task(id_of(best->ref));
    ++ran;
  }
  return ran;
}

bool Scheduler::run_task(TaskId id) {
  if (id & kCopyId) return run_copy(id & ~kCopyId);
  if (!live(id)) return false;
  const auto slot = static_cast<std::uint32_t>(id);
  auto it = std::find_if(heap_.begin(), heap_.end(),
                         [slot](const Entry& e) { return e.ref == slot; });
  MOONSHOT_INVARIANT(it != heap_.end(), "queued slot missing from heap");
  const Entry e = *it;
  heap_.erase(it);
  reheap();
  Callback cb = take(slot);
  step(e.t, e.seq);
  cb();
  return true;
}

bool Scheduler::run_copy(std::uint64_t seq) {
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if ((heap_[i].ref & kRunBit) == 0) continue;
    const std::uint32_t r = heap_[i].ref & ~kRunBit;
    Run& run = runs_[r];
    const auto it = std::find_if(run.copies.begin() + static_cast<std::ptrdiff_t>(run.next),
                                 run.copies.end(), [seq](const Copy& c) { return c.seq == seq; });
    if (it == run.copies.end()) continue;
    const Copy c = *it;
    const std::uint32_t ref = run.ref;
    run.copies.erase(it);
    if (run.next == run.copies.size()) {
      heap_.erase(heap_.begin() + static_cast<std::ptrdiff_t>(i));
      free_run(r);
    } else {
      heap_[i].t = run.copies[run.next].t;  // the head may have been the copy run
      heap_[i].seq = run.copies[run.next].seq;
    }
    reheap();
    --pending_;
    step(c.t, c.seq);
    sink_(c.tag, ref);
    return true;
  }
  return false;
}

}  // namespace moonshot::sim
