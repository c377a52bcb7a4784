#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "support/prng.hpp"

namespace moonshot::sim {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(TimePoint{30}, [&] { order.push_back(3); });
  s.schedule_at(TimePoint{10}, [&] { order.push_back(1); });
  s.schedule_at(TimePoint{20}, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now().ns, 30);
}

TEST(Scheduler, FifoAmongEqualTimes) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) s.schedule_at(TimePoint{100}, [&, i] { order.push_back(i); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleAfterUsesNow) {
  Scheduler s;
  TimePoint fired{};
  s.schedule_at(TimePoint{50}, [&] {
    s.schedule_after(Duration(25), [&] { fired = s.now(); });
  });
  s.run_all();
  EXPECT_EQ(fired.ns, 75);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const TaskId id = s.schedule_at(TimePoint{10}, [&] { ran = true; });
  s.schedule_at(TimePoint{20}, [] {});
  s.cancel(id);
  s.cancel(id);  // idempotent
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_FALSE(s.run_task(id));
  s.run_all();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, CancelUnknownIsNoop) {
  Scheduler s;
  s.cancel(9999);
  bool ran = false;
  s.schedule_at(TimePoint{5}, [&] { ran = true; });
  s.run_all();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, RunUntilStopsAtLimit) {
  Scheduler s;
  int count = 0;
  s.schedule_at(TimePoint{10}, [&] { ++count; });
  s.schedule_at(TimePoint{20}, [&] { ++count; });
  s.schedule_at(TimePoint{30}, [&] { ++count; });
  s.run_until(TimePoint{20});
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now().ns, 20);
  s.run_all();
  EXPECT_EQ(count, 3);
}

TEST(Scheduler, RunUntilAdvancesClockWhenIdle) {
  Scheduler s;
  s.run_until(TimePoint{500});
  EXPECT_EQ(s.now().ns, 500);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) s.schedule_after(Duration(1), recurse);
  };
  s.schedule_at(TimePoint{0}, recurse);
  s.run_all();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(s.events_executed(), 10u);
}

TEST(Scheduler, RunAllBounded) {
  Scheduler s;
  std::function<void()> forever = [&] { s.schedule_after(Duration(1), forever); };
  s.schedule_at(TimePoint{0}, forever);
  s.run_all(100);
  EXPECT_EQ(s.events_executed(), 100u);
}

// --- cancel racing its own expiry ---------------------------------------------

TEST(Scheduler, CancelFromInsideOwnCallbackIsNoop) {
  // A timer handler cancelling its own (already firing) id — the classic
  // re-arm race — must neither crash nor distort pending().
  Scheduler s;
  int runs = 0;
  TaskId self = 0;
  self = s.schedule_at(TimePoint{10}, [&] {
    ++runs;
    s.cancel(self);
    EXPECT_EQ(s.pending(), 0u);
  });
  s.run_all();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, CancelAfterExpiryDoesNotPoisonLaterTasks) {
  // Cancelling an id that already ran must not leave a stale tombstone that
  // could suppress a future task or skew the pending() count.
  Scheduler s;
  const TaskId first = s.schedule_at(TimePoint{10}, [] {});
  s.run_all();
  s.cancel(first);  // raced: the expiry already happened
  bool ran = false;
  s.schedule_at(TimePoint{20}, [&] { ran = true; });
  EXPECT_EQ(s.pending(), 1u);
  // The later task reuses `first`'s slot; the stale id must still miss it.
  s.cancel(first);
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, CancelledHeadIsSkippedByRunUntil) {
  // run_until must lazily discard a cancelled event sitting at the queue
  // head without executing it or counting it as progress.
  Scheduler s;
  bool cancelled_ran = false;
  int live_runs = 0;
  const TaskId doomed = s.schedule_at(TimePoint{10}, [&] { cancelled_ran = true; });
  s.schedule_at(TimePoint{20}, [&] { ++live_runs; });
  s.cancel(doomed);
  s.run_until(TimePoint{50});
  EXPECT_FALSE(cancelled_ran);
  EXPECT_EQ(live_runs, 1);
  EXPECT_EQ(s.events_executed(), 1u);
  EXPECT_EQ(s.pending(), 0u);
}

// --- run_until clock semantics ------------------------------------------------

TEST(Scheduler, RunUntilClockNeverPassesLimit) {
  // With work queued beyond the limit, the clock parks exactly at the limit
  // (not at the next event's time) so phased runs compose.
  Scheduler s;
  s.schedule_at(TimePoint{10}, [] {});
  s.schedule_at(TimePoint{500}, [] {});
  s.run_until(TimePoint{100});
  EXPECT_EQ(s.now().ns, 100);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, RunUntilExecutesEventAtExactLimit) {
  Scheduler s;
  bool ran = false;
  s.schedule_at(TimePoint{100}, [&] { ran = true; });
  s.run_until(TimePoint{100});
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now().ns, 100);
}

TEST(Scheduler, RunUntilWithEarlierLimitKeepsClock) {
  // A limit already in the past is a no-op: the clock is monotone.
  Scheduler s;
  s.run_until(TimePoint{100});
  s.run_until(TimePoint{40});
  EXPECT_EQ(s.now().ns, 100);
}

TEST(Scheduler, RunUntilTracksLastEventThenLimit) {
  // Mid-run the clock follows event times; at return it is exactly
  // min(limit, +inf) = limit, even if the last event fired earlier.
  Scheduler s;
  std::int64_t at_event = -1;
  s.schedule_at(TimePoint{30}, [&] { at_event = s.now().ns; });
  s.run_until(TimePoint{200});
  EXPECT_EQ(at_event, 30);
  EXPECT_EQ(s.now().ns, 200);
}

TEST(Scheduler, SchedulingIntoThePastAborts) {
  Scheduler s;
  s.schedule_at(TimePoint{100}, [] {});
  s.run_all();
  EXPECT_DEATH(s.schedule_at(TimePoint{50}, [] {}), "past");
}

TEST(Scheduler, FrontierIsDeterministicAndSorted) {
  // The explorer's enabled set: identical schedulers report identical
  // frontiers, in strict (time, seq) order, with cancelled entries absent.
  auto build = [] {
    auto s = std::make_unique<Scheduler>();
    s->schedule_at(TimePoint{30}, EventTag::delivery(1, 0, 3), [] {});
    s->schedule_at(TimePoint{10}, EventTag::timer(2), [] {});
    s->schedule_at(TimePoint{30}, EventTag::delivery(2, 1, 5), [] {});
    s->schedule_at(TimePoint{20}, [] {});  // untagged: kInternal
    return s;
  };
  auto a = build();
  auto b = build();
  const auto fa = a->frontier();
  const auto fb = b->frontier();
  ASSERT_EQ(fa.size(), 4u);
  ASSERT_EQ(fb.size(), 4u);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].t.ns, fb[i].t.ns);
    EXPECT_EQ(fa[i].seq, fb[i].seq);
    EXPECT_EQ(fa[i].tag.kind, fb[i].tag.kind);
    EXPECT_EQ(fa[i].tag.node, fb[i].tag.node);
    if (i > 0) {
      EXPECT_TRUE(fa[i - 1].t < fa[i].t ||
                  (fa[i - 1].t == fa[i].t && fa[i - 1].seq < fa[i].seq));
    }
  }
  EXPECT_EQ(fa[0].tag.kind, EventTag::Kind::kTimer);
  EXPECT_EQ(fa[1].tag.kind, EventTag::Kind::kInternal);
  // Equal-time entries keep scheduling (seq) order.
  EXPECT_EQ(fa[2].tag.node, 1u);
  EXPECT_EQ(fa[3].tag.node, 2u);
  // Cancelling removes the entry from the frontier without running it.
  a->cancel(fa[3].id);
  EXPECT_EQ(a->frontier().size(), 3u);
}

TEST(Scheduler, RunTaskExecutesOutOfOrderAndAdvancesClock) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(TimePoint{10}, EventTag::delivery(0, 1, 0), [&] { order.push_back(1); });
  const TaskId late =
      s.schedule_at(TimePoint{50}, EventTag::delivery(1, 0, 0), [&] { order.push_back(2); });
  // Choosing the later event models the earlier one being delayed, not lost.
  EXPECT_TRUE(s.run_task(late));
  EXPECT_EQ(s.now().ns, 50);
  EXPECT_FALSE(s.run_task(late));  // already run
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Scheduler, RunInternalDrainsOnlyUntaggedEvents) {
  Scheduler s;
  int internal = 0;
  bool delivery = false;
  s.schedule_at(TimePoint{10}, [&] {
    ++internal;
    // Internal work may cascade: newly scheduled bookkeeping drains too.
    s.schedule_at(TimePoint{15}, [&] { ++internal; });
  });
  s.schedule_at(TimePoint{5}, EventTag::delivery(0, 1, 0), [&] { delivery = true; });
  EXPECT_EQ(s.run_internal(), 2u);
  EXPECT_EQ(internal, 2);
  EXPECT_FALSE(delivery);  // tagged events are the explorer's to run
  ASSERT_EQ(s.frontier().size(), 1u);
  EXPECT_EQ(s.frontier()[0].tag.kind, EventTag::Kind::kDelivery);
}

TEST(Scheduler, FingerprintIsPinned) {
  // One fixed script through every path that folds into fingerprint():
  // equal-time FIFO, cancel before run, cancel from the event's own
  // callback, a cancelled head under run_until, an out-of-order run_task and
  // run_internal. The constants are the (time, seq) digest this script has
  // always produced; a change means replay digests moved too.
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) s.schedule_at(TimePoint{100}, [&, i] { order.push_back(i); });
  const TaskId doomed = s.schedule_at(TimePoint{50}, [&] { order.push_back(-1); });
  s.cancel(doomed);
  TaskId self = 0;
  self = s.schedule_at(TimePoint{60}, [&] {
    order.push_back(10);
    s.cancel(self);
  });
  s.run_until(TimePoint{100});

  const TaskId head = s.schedule_at(TimePoint{150}, [&] { order.push_back(-2); });
  s.schedule_at(TimePoint{200}, [&] { order.push_back(20); });
  s.cancel(head);
  s.run_until(TimePoint{250});

  const TaskId early =
      s.schedule_at(TimePoint{300}, EventTag::delivery(0, 1, 0), [&] { order.push_back(30); });
  const TaskId late = s.schedule_at(TimePoint{400}, EventTag::delivery(1, 0, 0), [&] {
    order.push_back(40);
    s.schedule_after(Duration(5), [&] { order.push_back(41); });
  });
  EXPECT_TRUE(s.run_task(late));
  EXPECT_EQ(s.run_internal(), 1u);
  EXPECT_TRUE(s.run_task(early));
  s.schedule_at(TimePoint{500}, [&] { order.push_back(50); });
  s.cancel(s.schedule_at(TimePoint{600}, [&] { order.push_back(-3); }));

  EXPECT_EQ(order, (std::vector<int>{10, 0, 1, 2, 20, 40, 41, 30}));
  EXPECT_EQ(s.fingerprint(), 0x709ac47f927a1a74ull);
  EXPECT_EQ(s.events_executed(), 8u);
  EXPECT_EQ(s.pending(), 1u);
}

// --- runs --------------------------------------------------------------------

/// A scheduler whose run sink logs every copy it runs as "t:node<peer/ref".
struct RunLog {
  Scheduler s;
  std::vector<std::string> log;
  RunLog() {
    s.set_run_sink([this](const EventTag& tag, std::uint32_t ref) {
      log.push_back(std::to_string(s.now().ns) + ":" + std::to_string(tag.node) + "<" +
                    std::to_string(tag.peer) + "/" + std::to_string(ref));
    });
  }
};

std::vector<RunCopy> copies_at(std::initializer_list<std::int64_t> times, std::uint32_t from) {
  std::vector<RunCopy> out;
  std::uint32_t to = 0;
  for (const std::int64_t t : times) {
    out.push_back(RunCopy{TimePoint{t}, EventTag::delivery(to++, from, 1)});
  }
  return out;
}

TEST(Scheduler, RunCopiesExecuteInTimeThenSendOrder) {
  RunLog w;
  w.s.schedule_run(copies_at({30, 10, 30, 20, 10}, 9), 4);
  w.s.run_all();
  EXPECT_EQ(w.log, (std::vector<std::string>{"10:1<9/4", "10:4<9/4", "20:3<9/4", "30:0<9/4",
                                             "30:2<9/4"}));
  EXPECT_EQ(w.s.events_executed(), 5u);
  EXPECT_EQ(w.s.pending(), 0u);
}

TEST(Scheduler, PendingCountsRunCopies) {
  Scheduler s;
  std::vector<std::size_t> seen;
  s.set_run_sink([&](const EventTag&, std::uint32_t) { seen.push_back(s.pending()); });
  s.schedule_run(copies_at({10, 20, 30}, 0), 0);
  s.schedule_run(copies_at({15, 25}, 1), 1);
  const TaskId timer = s.schedule_at(TimePoint{12}, EventTag::timer(0), [] {});
  EXPECT_EQ(s.pending(), 6u);
  s.cancel(timer);
  EXPECT_EQ(s.pending(), 5u);
  s.schedule_run({}, 2);  // nothing to schedule
  EXPECT_EQ(s.pending(), 5u);
  s.run_until(TimePoint{20});
  // A sink sees the copy it runs as no longer pending.
  EXPECT_EQ(seen, (std::vector<std::size_t>{4, 3, 2}));
  EXPECT_EQ(s.pending(), 2u);
  s.run_all();
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, FrontierListsEveryCopyOfInterleavedRuns) {
  RunLog w;
  w.s.schedule_run(copies_at({40, 10, 30}, 0), 0);  // seqs 0, 1, 2
  w.s.schedule_at(TimePoint{20}, [] {});             // seq 3
  w.s.schedule_run(copies_at({30, 10, 50}, 1), 1);  // seqs 4, 5, 6
  const auto f = w.s.frontier();
  std::vector<std::pair<std::int64_t, std::uint64_t>> keys;
  for (const PendingEvent& pe : f) keys.emplace_back(pe.t.ns, pe.seq);
  EXPECT_EQ(keys, (std::vector<std::pair<std::int64_t, std::uint64_t>>{
                      {10, 1}, {10, 5}, {20, 3}, {30, 2}, {30, 4}, {40, 0}, {50, 6}}));
  for (const PendingEvent& pe : f) {
    EXPECT_NE(pe.id, 0u);
    if (pe.seq == 3) {
      EXPECT_EQ(pe.tag.kind, EventTag::Kind::kInternal);
    } else {
      EXPECT_EQ(pe.tag.kind, EventTag::Kind::kDelivery);
      EXPECT_EQ(pe.tag.peer, pe.seq < 3 ? 0u : 1u);
    }
  }
  std::set<TaskId> ids;
  for (const PendingEvent& pe : f) ids.insert(pe.id);
  EXPECT_EQ(ids.size(), f.size());  // unique while pending
  // Copies cannot be cancelled.
  w.s.cancel(f[0].id);
  EXPECT_EQ(w.s.frontier().size(), 7u);
}

TEST(Scheduler, RunTaskRunsAMiddleCopyThenTheHead) {
  RunLog w;
  w.s.schedule_run(copies_at({10, 20, 30, 40}, 0), 7);
  w.s.schedule_run(copies_at({15}, 1), 8);
  auto f = w.s.frontier();
  ASSERT_EQ(f.size(), 5u);
  ASSERT_EQ(f[3].t.ns, 30);
  EXPECT_TRUE(w.s.run_task(f[3].id));  // middle copy of the first run
  EXPECT_EQ(w.s.now().ns, 30);
  EXPECT_FALSE(w.s.run_task(f[3].id));  // already run
  EXPECT_EQ(w.s.pending(), 4u);
  f = w.s.frontier();
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0].t.ns, 10);
  EXPECT_TRUE(w.s.run_task(f[0].id));  // the head: the run is re-keyed to 20
  EXPECT_EQ(w.s.now().ns, 30);  // the clock never goes back
  w.s.run_all();
  EXPECT_EQ(w.log, (std::vector<std::string>{"30:2<0/7", "30:0<0/7", "30:0<1/8", "30:1<0/7",
                                             "40:3<0/7"}));
  EXPECT_EQ(w.s.pending(), 0u);
  EXPECT_TRUE(w.s.frontier().empty());
}

/// One side of the differential test: the same seeded script drives either
/// runs or the same copies scheduled one by one with schedule_at.
struct DiffWorld {
  explicit DiffWorld(bool runs, std::uint64_t seed) : use_runs(runs), prng(seed) {
    if (use_runs) {
      s.set_run_sink([this](const EventTag& tag, std::uint32_t ref) { on_copy(tag, ref); });
    }
  }

  void on_copy(const EventTag& tag, std::uint32_t ref) {
    log.push_back("c" + std::to_string(s.now().ns) + ":" + std::to_string(tag.node) + "<" +
                  std::to_string(tag.peer) + "/" + std::to_string(tag.type) + "#" +
                  std::to_string(ref) + " p" + std::to_string(s.pending()));
    react();
  }
  void on_single(int label) {
    log.push_back("s" + std::to_string(s.now().ns) + ":" + std::to_string(label) + " p" +
                  std::to_string(s.pending()));
    react();
  }
  /// Events schedule follow-ups, as deliveries send and timers re-arm (with
  /// fewer than one follow-up event per event, so the world stays finite).
  void react() {
    if (prng.next_below(30) == 0) send();
    if (prng.next_below(10) == 0) single();
  }

  void send() {
    // Up to 40 copies over a narrow time window: many equal timestamps, and
    // runs long enough for std::sort to leave insertion sort.
    const std::uint32_t from = static_cast<std::uint32_t>(prng.next_below(8));
    const std::size_t k = 1 + prng.next_below(prng.next_below(2) ? 40 : 4);
    std::vector<RunCopy> copies;
    for (std::size_t i = 0; i < k; ++i) {
      const TimePoint t = s.now() + Duration(static_cast<std::int64_t>(prng.next_below(6)));
      const auto type = static_cast<std::uint32_t>(prng.next_below(4));
      copies.push_back(
          RunCopy{t, EventTag::delivery(static_cast<std::uint32_t>(i % 8), from, type)});
    }
    const std::uint32_t ref = next_ref++;
    if (use_runs) {
      s.schedule_run(copies, ref);
    } else {
      for (const RunCopy& c : copies) {
        s.schedule_at(c.t, c.tag, [this, c, ref] { on_copy(c.tag, ref); });
      }
    }
  }
  void single() {
    const int label = next_label++;
    const EventTag tag = prng.next_below(2) ? EventTag::timer(label % 8) : EventTag{};
    const TimePoint t = s.now() + Duration(static_cast<std::int64_t>(prng.next_below(10)));
    singles.push_back(s.schedule_at(t, tag, [this, label] { on_single(label); }));
  }

  /// One scripted step; every observation goes to the log.
  void op() {
    switch (prng.next_below(7)) {
      case 0:
      case 1: send(); break;
      case 2: single(); break;
      case 3:
        if (!singles.empty()) s.cancel(singles[prng.next_below(singles.size())]);
        break;
      case 4: s.run_until(s.now() + Duration(static_cast<std::int64_t>(prng.next_below(8)))); break;
      case 5: s.run_next(); break;
      case 6: {
        const auto f = s.frontier();
        std::string line = "f";
        for (const PendingEvent& pe : f) {
          line += " " + std::to_string(pe.t.ns) + "." + std::to_string(pe.seq) + "." +
                  std::to_string(static_cast<int>(pe.tag.kind)) + "." + std::to_string(pe.tag.node);
        }
        log.push_back(line);
        if (!f.empty()) s.run_task(f[prng.next_below(f.size())].id);
        break;
      }
    }
    log.push_back("now" + std::to_string(s.now().ns) + " p" + std::to_string(s.pending()));
  }

  bool use_runs;
  Prng prng;
  Scheduler s;
  std::vector<std::string> log;
  std::vector<TaskId> singles;
  std::uint32_t next_ref = 0;
  int next_label = 0;
};

TEST(Scheduler, RunsMatchCopiesScheduledOneByOne) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    DiffWorld runs(true, seed);
    DiffWorld singles(false, seed);
    for (int i = 0; i < 300; ++i) {
      runs.op();
      singles.op();
    }
    runs.s.run_all(100000);
    singles.s.run_all(100000);
    ASSERT_EQ(runs.log, singles.log) << "seed " << seed;
    ASSERT_EQ(runs.s.fingerprint(), singles.s.fingerprint()) << "seed " << seed;
    ASSERT_EQ(runs.s.events_executed(), singles.s.events_executed()) << "seed " << seed;
    EXPECT_GT(runs.s.events_executed(), 1000u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace moonshot::sim
