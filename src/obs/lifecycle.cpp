#include "obs/lifecycle.hpp"

#include <algorithm>

namespace moonshot::obs {

namespace {

bool is_proposal_sent(EventKind k) {
  return k == EventKind::kOptProposalSent || k == EventKind::kProposalSent ||
         k == EventKind::kFbProposalSent;
}

bool is_proposal_recv(EventKind k) {
  return k == EventKind::kOptProposalRecv || k == EventKind::kProposalRecv ||
         k == EventKind::kFbProposalRecv;
}

}  // namespace

const std::optional<TimePoint>& NodeStamps::first_vote_cast() const {
  static const std::optional<TimePoint> kNone;
  return first_vote < kVoteKinds ? vote_cast[first_vote] : kNone;
}

std::optional<std::pair<TimePoint, TimePoint>> ViewStamps::extent() const {
  std::optional<std::pair<TimePoint, TimePoint>> out;
  const auto widen = [&out](const std::optional<TimePoint>& t) {
    if (!t) return;
    if (!out) out.emplace(*t, *t);
    out->first = std::min(out->first, *t);
    out->second = std::max(out->second, *t);
  };
  widen(proposed);
  for (const NodeStamps& n : node) {
    widen(n.prop_recv);
    widen(n.first_vote_cast());
    if (!n.qcs.empty()) widen(n.qcs.front().t);
    widen(n.commit);
    for (const TimeoutStamp& to : n.timeouts) widen(to.t);
  }
  return out;
}

bool ViewStamps::any_timeout() const {
  return std::any_of(node.begin(), node.end(),
                     [](const NodeStamps& n) { return !n.timeouts.empty(); });
}

const ViewStamps* LifecycleIndex::view(View v) const {
  const auto it = views.find(v);
  return it == views.end() ? nullptr : &it->second;
}

const NodeStamps* LifecycleIndex::at(View v, NodeId n) const {
  const ViewStamps* s = view(v);
  if (s == nullptr || n == kNoNode || static_cast<std::size_t>(n) >= nodes)
    return nullptr;
  return &s->node[n];
}

LifecycleIndex build_lifecycle_index(const std::vector<Event>& merged,
                                     std::size_t nodes) {
  LifecycleIndex ix;
  ix.nodes = nodes;
  const auto view_of = [&ix](View v) -> ViewStamps& {
    ViewStamps& s = ix.views[v];
    if (s.node.empty()) s.node.resize(ix.nodes);
    return s;
  };
  for (const Event& e : merged) {
    if (is_proposal_sent(e.kind)) {
      ViewStamps& s = view_of(e.view);
      if (!s.proposed || e.t < *s.proposed) {
        s.proposed = e.t;
        s.leader = e.node;
        s.height = e.a;
      }
      continue;
    }
    if (e.node == kNoNode || static_cast<std::size_t>(e.node) >= nodes) continue;
    // Only the kinds below are node stamps; nothing else opens a view.
    const auto stamps = [&]() -> NodeStamps& { return view_of(e.view).node[e.node]; };
    switch (e.kind) {
      case EventKind::kVoteCast: {
        NodeStamps& n = stamps();
        const std::size_t k = e.a < kVoteKinds ? e.a : 0;
        if (!n.vote_cast[k]) n.vote_cast[k] = e.t;
        if (n.first_vote == kVoteKinds) n.first_vote = k;
        break;
      }
      case EventKind::kVoteRecv:
        stamps().vote_recvs.push_back({e.t, e.a, static_cast<NodeId>(e.b)});
        break;
      case EventKind::kQcFormed: stamps().qcs.push_back({e.t, e.b}); break;
      case EventKind::kCommit:
        if (auto& c = stamps().commit; !c) c = e.t;
        break;
      case EventKind::kTimeoutFired:
      case EventKind::kTimeoutRetransmit:
        stamps().timeouts.push_back({e.t, e.kind == EventKind::kTimeoutRetransmit});
        break;
      default:
        if (!is_proposal_recv(e.kind)) break;
        if (auto& r = stamps().prop_recv; !r) r = e.t;
    }
  }
  return ix;
}

}  // namespace moonshot::obs
