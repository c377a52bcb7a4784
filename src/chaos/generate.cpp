#include "chaos/generate.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/prng.hpp"

namespace moonshot::chaos {

namespace {

std::int64_t ms_of(Duration d) { return d.count() / 1'000'000; }

/// Random [start, end) window in whole milliseconds, healing before the
/// stable tail begins. Windows last at least 100ms so faults actually bite.
void pick_window(Prng& prng, const GenerateOptions& opt, FaultEvent& ev) {
  const std::int64_t horizon_ms = ms_of(opt.duration) - ms_of(opt.stable_tail);
  const std::int64_t min_len = 100;
  const std::int64_t start_ms = prng.next_range(0, horizon_ms - min_len);
  const std::int64_t end_ms = prng.next_range(start_ms + min_len, horizon_ms);
  ev.start = TimePoint{start_ms * 1'000'000};
  ev.end = TimePoint{end_ms * 1'000'000};
}

std::vector<NodeId> shuffled_nodes(Prng& prng, std::size_t n) {
  std::vector<NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<NodeId>(i);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(ids[i - 1], ids[prng.next_below(i)]);
  }
  return ids;
}

}  // namespace

FaultSchedule generate_schedule(const GenerateOptions& opt, std::uint64_t seed) {
  MOONSHOT_INVARIANT(opt.n >= 4, "chaos generation needs n >= 4");
  MOONSHOT_INVARIANT(ms_of(opt.duration) > ms_of(opt.stable_tail) + 200,
                     "duration must leave room before the stable tail");
  const std::size_t f = (opt.n - 1) / 3;
  MOONSHOT_INVARIANT(opt.crash_pool + opt.static_faulty + opt.adversary_pool <= f,
                     "crash pool + static faults + adversaries exceed f");

  Prng prng(seed ^ 0x67656e65726174ull);
  FaultSchedule schedule;
  const std::size_t count =
      static_cast<std::size_t>(prng.next_range(static_cast<std::int64_t>(opt.min_events),
                                               static_cast<std::int64_t>(opt.max_events)));
  // The crash-heavy path appends its own crash windows below; the generic
  // loop then only draws network faults.
  bool crash_used = opt.crash_heavy;
  for (std::size_t i = 0; i < count; ++i) {
    FaultEvent ev;
    pick_window(prng, opt, ev);
    // Crash events share the window machinery but at most one per schedule:
    // overlapping crash windows on a pool of f nodes could take the same
    // node down twice (crash of an already-down node is a no-op, but the
    // paired recovery then double-recovers).
    const std::int64_t kind = prng.next_range(0, crash_used || opt.crash_pool == 0 ? 5 : 6);
    switch (kind) {
      case 0: {  // symmetric partition: f nodes vs the rest
        ev.type = FaultType::kPartition;
        auto ids = shuffled_nodes(prng, opt.n);
        std::vector<NodeId> minority(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(f));
        std::sort(minority.begin(), minority.end());
        ev.groups.push_back(std::move(minority));
        break;  // remaining nodes form the implicit trailing group
      }
      case 1: {  // asymmetric: cut all links from one node (it hears, stays mute)
        ev.type = FaultType::kLinkCut;
        const NodeId mute = static_cast<NodeId>(prng.next_below(opt.n));
        for (std::size_t to = 0; to < opt.n; ++to) {
          if (static_cast<NodeId>(to) != mute)
            ev.links.push_back(net::Link{mute, static_cast<NodeId>(to)});
        }
        break;
      }
      case 2:
        ev.type = FaultType::kDrop;
        ev.percent = static_cast<int>(prng.next_range(10, 60));
        break;
      case 3:
        ev.type = FaultType::kDuplicate;
        ev.percent = static_cast<int>(prng.next_range(10, 50));
        break;
      case 4:
        ev.type = FaultType::kDelay;
        ev.percent = static_cast<int>(prng.next_range(20, 100));
        ev.delay = milliseconds(prng.next_range(50, ms_of(opt.max_delay)));
        break;
      case 5:
        ev.type = FaultType::kBurst;
        ev.delay = milliseconds(prng.next_range(50, ms_of(opt.max_delay)));
        break;
      case 6: {
        ev.type = FaultType::kCrash;
        crash_used = true;
        const std::size_t picks = 1 + prng.next_below(opt.crash_pool);
        for (std::size_t p = 0; p < picks; ++p) {
          const NodeId id = static_cast<NodeId>(prng.next_below(opt.crash_pool));
          if (std::find(ev.nodes.begin(), ev.nodes.end(), id) == ev.nodes.end())
            ev.nodes.push_back(id);
        }
        std::sort(ev.nodes.begin(), ev.nodes.end());
        break;
      }
    }
    schedule.events.push_back(std::move(ev));
  }

  // Crash-heavy: carve the pre-tail horizon into one segment per crash so
  // the windows never overlap (a crash landing on an already-down node would
  // otherwise pair with a double recovery).
  if (opt.crash_heavy && opt.crash_pool > 0) {
    const std::int64_t horizon_ms = ms_of(opt.duration) - ms_of(opt.stable_tail);
    const std::size_t max_crashes =
        std::max<std::size_t>(1, std::min<std::size_t>(4, static_cast<std::size_t>(horizon_ms / 400)));
    const std::size_t crashes = max_crashes == 1 ? 1 : 1 + prng.next_below(max_crashes);
    const std::int64_t seg = horizon_ms / static_cast<std::int64_t>(crashes);
    for (std::size_t c = 0; c < crashes; ++c) {
      FaultEvent ev;
      ev.type = FaultType::kCrash;
      const std::int64_t lo = static_cast<std::int64_t>(c) * seg;
      const std::int64_t start_ms = prng.next_range(lo, lo + seg - 150);
      const std::int64_t end_ms = prng.next_range(start_ms + 100, lo + seg - 1);
      ev.start = TimePoint{start_ms * 1'000'000};
      ev.end = TimePoint{end_ms * 1'000'000};
      const std::size_t picks = 1 + prng.next_below(opt.crash_pool);
      for (std::size_t p = 0; p < picks; ++p) {
        const NodeId id = static_cast<NodeId>(prng.next_below(opt.crash_pool));
        if (std::find(ev.nodes.begin(), ev.nodes.end(), id) == ev.nodes.end())
          ev.nodes.push_back(id);
      }
      std::sort(ev.nodes.begin(), ev.nodes.end());
      schedule.events.push_back(std::move(ev));
    }
  }

  // Adversary placements: zero-width events on the highest node ids (the
  // crash pool owns the lowest), one strategy each from the configured pool.
  if (opt.adversary_pool > 0) {
    const std::vector<std::string>& pool = opt.adversary_strategies.empty()
                                               ? adversary::strategy_names()
                                               : opt.adversary_strategies;
    const std::size_t picks = 1 + prng.next_below(opt.adversary_pool);
    for (std::size_t p = 0; p < picks; ++p) {
      FaultEvent ev;
      ev.type = FaultType::kAdversary;
      ev.start = ev.end = TimePoint::zero();
      ev.nodes.push_back(static_cast<NodeId>(opt.n - 1 - p));
      ev.adv_strategy = pool[prng.next_below(pool.size())];
      // Half the placements are view-bounded, so fuzz runs also exercise the
      // honest-mimic fallback outside the range.
      if (prng.next_below(2) == 0) {
        ev.adv_view_from = 1 + static_cast<View>(prng.next_below(8));
        ev.adv_view_to = ev.adv_view_from + static_cast<View>(prng.next_below(12));
      }
      if (ev.adv_strategy == "delay") {
        ev.delay = milliseconds(
            prng.next_range(100, std::max<std::int64_t>(200, 2 * ms_of(opt.max_delay))));
      }
      if (ev.adv_strategy == "partial") {
        // f+1 default or a random wider subset (still short of quorum).
        if (prng.next_below(2) == 0) ev.adv_subset = f + 1 + prng.next_below(f + 1);
      }
      schedule.events.push_back(std::move(ev));
    }
  }

  // Stable event order by start time keeps the printed schedule readable;
  // arm() preserves this order for same-time activations.
  std::stable_sort(schedule.events.begin(), schedule.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.start < b.start; });
  return schedule;
}

}  // namespace moonshot::chaos
