#include "chaos/engine.hpp"

#include "support/assert.hpp"

namespace moonshot::chaos {

ChaosEngine::ChaosEngine(Experiment& experiment, FaultSchedule schedule, std::uint64_t seed)
    : exp_(experiment), schedule_(std::move(schedule)), seed_(seed) {
  active_.resize(schedule_.events.size());
}

net::LinkFaultPtr ChaosEngine::build_filter(const FaultEvent& ev, std::size_t index) const {
  const std::uint64_t stream = seed_ * 0x9e3779b97f4a7c15ull + index;
  const double p = static_cast<double>(ev.percent) / 100.0;
  switch (ev.type) {
    case FaultType::kPartition:
      return std::make_shared<net::PartitionFault>(exp_.node_count(), ev.groups);
    case FaultType::kLinkCut:
      return std::make_shared<net::LinkCutFault>(ev.links);
    case FaultType::kDrop:
      return std::make_shared<net::LinkChaosFault>(net::LinkChaosFault::Kind::kDrop, p,
                                                   Duration(0), ev.links, stream);
    case FaultType::kDuplicate:
      return std::make_shared<net::LinkChaosFault>(net::LinkChaosFault::Kind::kDuplicate, p,
                                                   Duration(0), ev.links, stream);
    case FaultType::kDelay:
      return std::make_shared<net::LinkChaosFault>(net::LinkChaosFault::Kind::kDelay, p,
                                                   ev.delay, ev.links, stream);
    case FaultType::kBurst:
      // A burst is a deterministic delay spike on every link — the
      // GST-style adversarial window.
      return std::make_shared<net::LinkChaosFault>(net::LinkChaosFault::Kind::kDelay, 1.0,
                                                   ev.delay, std::vector<net::Link>{}, stream);
    case FaultType::kCrash:
    case FaultType::kMcChoice:
    case FaultType::kAdversary:
      return nullptr;
  }
  return nullptr;
}

void ChaosEngine::activate(std::size_t index) {
  const FaultEvent& ev = schedule_.events[index];
  if (obs::Tracer* t = exp_.config().tracer) {
    t->record(kNoNode, obs::EventKind::kFaultInjected, 0, index,
              static_cast<std::uint64_t>(ev.type));
  }
  if (ev.type == FaultType::kCrash) {
    for (const NodeId id : ev.nodes) exp_.crash_node(id);
    return;
  }
  net::LinkFaultPtr filter = build_filter(ev, index);
  if (!filter) return;
  exp_.network().faults().add(filter);
  active_[index] = std::move(filter);
}

void ChaosEngine::heal(std::size_t index) {
  const FaultEvent& ev = schedule_.events[index];
  if (obs::Tracer* t = exp_.config().tracer) {
    t->record(kNoNode, obs::EventKind::kFaultHealed, 0, index,
              static_cast<std::uint64_t>(ev.type));
  }
  if (ev.type == FaultType::kCrash) {
    for (const NodeId id : ev.nodes) exp_.recover_node(id, ev.recovery);
    return;
  }
  if (active_[index]) {
    exp_.network().faults().remove(active_[index].get());
    active_[index] = nullptr;
  }
}

void ChaosEngine::arm() {
  MOONSHOT_INVARIANT(!armed_, "chaos engine armed twice");
  armed_ = true;
  sim::Scheduler& sched = exp_.scheduler();
  for (std::size_t i = 0; i < schedule_.events.size(); ++i) {
    const FaultEvent& ev = schedule_.events[i];
    // Model-checker choices are not network faults; src/mc/ interprets them
    // against the pending-event frontier instead. Adversary placements are
    // applied when the experiment is *built* (runner.cpp translates them into
    // ExperimentConfig::adversaries). The engine never arms either.
    if (ev.type == FaultType::kMcChoice || ev.type == FaultType::kAdversary) continue;
    MOONSHOT_INVARIANT(ev.start >= sched.now(), "fault event in the past");
    sched.schedule_at(ev.start, [this, i] { activate(i); });
    if (ev.end > ev.start) {
      sched.schedule_at(ev.end, [this, i] { heal(i); });
    }
  }
}

}  // namespace moonshot::chaos
