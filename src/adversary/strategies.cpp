// The strategy library. Each class overrides exactly the interception
// points it attacks; everything else inherits the honest mimic. See
// DESIGN.md §5.7 for the catalogue and the latency bounds each strategy is
// expected to (and not to) break.
#include <algorithm>
#include <map>

#include "adversary/adversary_node.hpp"
#include "adversary/strategy.hpp"
#include "support/mutations.hpp"

namespace moonshot::adversary {

// --- the honest-mimic defaults -----------------------------------------------

void AdversaryStrategy::on_lead(AdversaryNode& node, View view, const QcPtr& qc,
                                const TcPtr& tc) {
  const QcPtr justify = qc ? qc : node.high_qc();
  const BlockPtr parent = node.block_body(justify->block);
  if (!parent) return;
  const BlockPtr block = node.make_honest_block(view, parent);
  if (tc) {
    node.send_all(make_message<FbProposalMsg>(block, justify, tc, node.self()));
  } else {
    node.send_all(make_message<ProposalMsg>(block, justify, nullptr, node.self()));
  }
}

void AdversaryStrategy::on_opt_lead(AdversaryNode& node, View view, const BlockPtr& parent) {
  const BlockPtr block = node.make_honest_block(view, parent);
  node.send_all(make_message<OptProposalMsg>(block, node.self()));
}

namespace {

// --- SilentLeader ------------------------------------------------------------
// Withholds every proposal while leading. The canonical failure scenario of
// the paper's latency analysis: honest nodes burn the full 3Δ view timer,
// then recover through the timeout-certificate fallback path.
class SilentLeader final : public AdversaryStrategy {
 public:
  using AdversaryStrategy::AdversaryStrategy;
  std::string_view name() const override { return "silent"; }
  void on_lead(AdversaryNode&, View, const QcPtr&, const TcPtr&) override {}
  void on_opt_lead(AdversaryNode&, View, const BlockPtr&) override {}
};

// --- DelayedRelease ----------------------------------------------------------
// Builds the honest proposal but holds it back (default 2Δ, configurable via
// spec.delay) — just under the 3Δ view timer, maximizing commit latency
// without ever triggering a view change. The optimistic fast path degrades
// from 3δ to ~delay without a single protocol rule being violated.
class DelayedRelease final : public AdversaryStrategy {
 public:
  using AdversaryStrategy::AdversaryStrategy;
  std::string_view name() const override { return "delay"; }

  void on_lead(AdversaryNode& node, View view, const QcPtr& qc, const TcPtr& tc) override {
    const QcPtr justify = qc ? qc : node.high_qc();
    const BlockPtr parent = node.block_body(justify->block);
    if (!parent) return;
    const BlockPtr block = node.make_honest_block(view, parent);
    if (tc) {
      release_later(node, make_message<FbProposalMsg>(block, justify, tc, node.self()));
    } else {
      release_later(node, make_message<ProposalMsg>(block, justify, nullptr, node.self()));
    }
  }

  void on_opt_lead(AdversaryNode& node, View view, const BlockPtr& parent) override {
    const BlockPtr block = node.make_honest_block(view, parent);
    release_later(node, make_message<OptProposalMsg>(block, node.self()));
  }

 private:
  Duration hold(const AdversaryNode& node) const {
    return spec_.delay > Duration(0) ? spec_.delay : node.delta() * 2;
  }
  void release_later(AdversaryNode& node, MessagePtr m) {
    AdversaryNode* np = &node;  // nodes outlive the scheduler queue
    node.scheduler().schedule_after(hold(node), sim::EventTag::timer(node.self()),
                                    [np, m = std::move(m)] { np->send_all(m); });
  }
};

// --- PartialBroadcast --------------------------------------------------------
// Proposes only to a chosen subset (default f+1, the lowest ids): too few
// honest votes reach each other to certify, splitting the honest vote and
// stalling the view into the timeout path.
class PartialBroadcast final : public AdversaryStrategy {
 public:
  using AdversaryStrategy::AdversaryStrategy;
  std::string_view name() const override { return "partial"; }

  bool filter_send(AdversaryNode& node, NodeId to, const Message& m) override {
    const bool proposal = std::holds_alternative<ProposalMsg>(m) ||
                          std::holds_alternative<OptProposalMsg>(m) ||
                          std::holds_alternative<FbProposalMsg>(m);
    if (!proposal) return true;
    const std::size_t q = spec_.subset ? spec_.subset : node.validator_set().f() + 1;
    return to < q;
  }
};

// --- ForkBalancer ------------------------------------------------------------
// Keeps two branches alive: every adversary-led view extends both coalition
// fork tips (one honest-identical block, one forged sibling) and serves each
// half of the network a different branch. Safety must hold by quorum
// intersection; the cost is stalled views whenever neither branch certifies.
class ForkBalancer final : public AdversaryStrategy {
 public:
  using AdversaryStrategy::AdversaryStrategy;
  std::string_view name() const override { return "fork"; }

  void on_lead(AdversaryNode& node, View view, const QcPtr& qc, const TcPtr& tc) override {
    (void)tc;
    const QcPtr justify = qc ? qc : node.high_qc();
    BlockPtr pa = node.block_body(justify->block);
    BlockPtr pb = pa;
    CoalitionState& co = node.coalition();
    if (!co.fork_tips.empty()) {
      const auto& tips = co.fork_tips.rbegin()->second;
      if (tips.size() == 2 && tips[0] && tips[1]) {
        pa = tips[0];
        pb = tips[1];
        ++co.shares;
      }
    }
    if (!pa || !pb) return;
    const BlockPtr a = node.make_honest_block(view, pa);
    const BlockPtr b = node.make_forged_block(view, pb, 1);
    co.fork_tips[view] = {a, b};
    const std::size_t n = node.validator_set().size();
    for (NodeId to = 0; to < n; ++to) {
      const BlockPtr& branch = (to % 2 == 0) ? a : b;
      node.send(to, make_message<ProposalMsg>(branch, justify, nullptr, node.self()));
    }
  }

  // The fork replaces the optimistic path (an optimistic proposal would
  // commit the node to one branch).
  void on_opt_lead(AdversaryNode&, View, const BlockPtr&) override {}
};

// --- StaleJustify ------------------------------------------------------------
// Proposes over genesis with a genesis justify, probing the justify-
// adjacency and fallback-rank guards. Intact nodes reject the proposal and
// the view falls back to the timeout path, so the latency cost equals
// SilentLeader's; a protocol that *accepted* it would fork under the
// committed prefix (the mc mutation suite seeds exactly that bug).
class StaleJustify final : public AdversaryStrategy {
 public:
  using AdversaryStrategy::AdversaryStrategy;
  std::string_view name() const override { return "stale"; }

  void on_lead(AdversaryNode& node, View view, const QcPtr& qc, const TcPtr& tc) override {
    (void)qc;
    const QcPtr genesis = QuorumCert::genesis_qc();
    const BlockPtr parent = node.block_body(genesis->block);
    if (!parent) return;
    const BlockPtr block = node.make_forged_block(view, parent, 7);
    if (tc) {
      node.send_all(make_message<FbProposalMsg>(block, genesis, tc, node.self()));
    } else {
      node.send_all(make_message<ProposalMsg>(block, genesis, nullptr, node.self()));
    }
  }

  void on_opt_lead(AdversaryNode&, View, const BlockPtr&) override {}
};

// --- TimeoutEquivocator ------------------------------------------------------
// Signs two conflicting timeouts per expiry — one carrying its real lock,
// one claiming none. Honest TimeoutAccumulators keep the first (first-wins,
// pinned by test) and count the conflict exactly once per (view, sender);
// in early views (no lock yet) the two messages coincide and exercise the
// duplicate counter instead.
class TimeoutEquivocator final : public AdversaryStrategy {
 public:
  using AdversaryStrategy::AdversaryStrategy;
  std::string_view name() const override { return "timeout-equiv"; }

  bool on_timer(AdversaryNode& node) override {
    const View v = node.view();
    node.note_timed_out(v);
    const TimeoutMsg with_lock =
        node.sign_timeout(v, node.high_qc()->view > 0 ? node.high_qc() : nullptr);
    const TimeoutMsg no_lock = node.sign_timeout(v, nullptr);
    node.send_all(make_message<TimeoutMsgWrap>(with_lock));
    node.send_all(make_message<TimeoutMsgWrap>(no_lock));
    return true;
  }
};

// --- VoteWithholder ----------------------------------------------------------
// Participates fully except it never votes. With n = 3f+1 the honest 2f+1
// still form every quorum; the strategy verifies that no protocol secretly
// depends on the adversary's vote for liveness or latency.
class VoteWithholder final : public AdversaryStrategy {
 public:
  using AdversaryStrategy::AdversaryStrategy;
  std::string_view name() const override { return "withhold"; }
  bool on_vote(AdversaryNode&, const BlockPtr&, VoteKind) override { return false; }
};

// --- BadSignature ------------------------------------------------------------
// Votes honestly but flips one signature byte, so every vote it casts is
// forged. Honest accumulators verify votes in one batch per quorum; a forged
// vote in the batch sends it down the per-signature fallback. The bound is
// one failed batch per (view, caught voter): a caught voter's later votes in
// that view are verified singly. With verification off the votes pass as
// honest ones.
class BadSignature final : public AdversaryStrategy {
 public:
  using AdversaryStrategy::AdversaryStrategy;
  std::string_view name() const override { return "badsig"; }

  bool filter_send(AdversaryNode& node, NodeId to, const Message& m) override {
    const auto* vm = std::get_if<VoteMsg>(&m);
    if (!vm || vm->vote.voter != node.self()) return true;
    // send_all offers one vote to every recipient: forge it once. A
    // signature identifies its vote.
    if (!forged_ || honest_sig_ != vm->vote.sig) {
      honest_sig_ = vm->vote.sig;
      Vote bad = vm->vote;
      bad.sig.data[0] ^= 0x01;
      forged_ = make_message<VoteMsg>(bad);
    }
    node.send_raw(to, forged_);
    return false;
  }

 private:
  crypto::Signature honest_sig_;
  MessagePtr forged_;
};

// --- FutureFlood -------------------------------------------------------------
// Votes honestly, and with each vote multicasts a burst of validly signed
// votes (every kind, each for a block id never used before) and a timeout,
// all for views past every honest node's accumulator window. Without the
// window each would create per-view state in every honest node; with it the
// votes are dropped and counted (vote-out-of-window) and the timeouts keep
// one view per sender, which f senders can never push to f+1.
class FutureFlood final : public AdversaryStrategy {
 public:
  using AdversaryStrategy::AdversaryStrategy;
  std::string_view name() const override { return "future-flood"; }

  bool on_vote(AdversaryNode& node, const BlockPtr&, VoteKind) override {
    constexpr VoteKind kKinds[] = {VoteKind::kNormal, VoteKind::kOptimistic,
                                   VoteKind::kFallback, VoteKind::kCommit};
    const auto far = [&] { return node.view() + 2 * kViewWindow + sent_ % 1000; };
    for (int i = 0; i < 32; ++i) {
      ++sent_;
      BlockId block;  // a fresh id per vote, never a real block's
      for (std::size_t b = 0; b < 8; ++b)
        block.data[b] = static_cast<std::uint8_t>(sent_ >> (8 * b));
      block.data[31] = 0xff;
      if (auto vote = node.sign_vote(kKinds[i % 4], far(), block))
        node.send_all(make_message<VoteMsg>(*vote));
    }
    node.send_all(make_message<TimeoutMsgWrap>(node.sign_timeout(far(), nullptr)));
    return true;
  }

 private:
  std::uint64_t sent_ = 0;
};

// --- Equivocate (migrated EquivocatorNode) -----------------------------------
// The canonical safety attack, moved verbatim from consensus/byzantine.cpp:
// when leading, unicast conflicting proposals to the two halves of the
// network; vote for every proposal seen (all four kinds). It consumes every
// delivered message and never arms a timer, reproducing the pre-framework
// node's traffic bit-for-bit (the mc mutation goldens replay against it).
class Equivocate final : public AdversaryStrategy {
 public:
  using AdversaryStrategy::AdversaryStrategy;
  std::string_view name() const override { return "equivocate"; }
  bool uses_timer() const override { return false; }

  bool on_start(AdversaryNode& node) override {
    node.set_view(1);
    if (node.leads(1)) equivocate_propose(node);
    return true;
  }

  bool on_deliver(AdversaryNode& node, NodeId from, const MessagePtr& m) override {
    (void)from;
    std::visit(
        [&](const auto& msg) {
          using T = std::decay_t<decltype(msg)>;
          if constexpr (std::is_same_v<T, ProposalMsg> || std::is_same_v<T, FbProposalMsg>) {
            if (!msg.block) return;
            node.keep(msg.block);
            if (msg.justify) observe_qc(node, msg.justify);
            vote_for_everything(node, msg.block);
          } else if constexpr (std::is_same_v<T, OptProposalMsg>) {
            if (!msg.block) return;
            node.keep(msg.block);
            vote_for_everything(node, msg.block);
          } else if constexpr (std::is_same_v<T, VoteMsg>) {
            if (msg.vote.kind == VoteKind::kCommit) return;
            if (const QcPtr qc = node.accumulate_vote(msg.vote)) {
              observe_qc(node, qc);
            }
          } else if constexpr (std::is_same_v<T, CertMsg>) {
            if (msg.qc) observe_qc(node, msg.qc);
          } else if constexpr (std::is_same_v<T, TcMsg>) {
            if (msg.tc && msg.tc->view >= node.view()) {
              node.set_view(msg.tc->view + 1);
              if (node.leads(node.view())) {
                propose_stale_fallback(node, msg.tc);
                equivocate_propose(node);
              }
            }
          }
          // Timeouts and status messages: ignored; this adversary attacks
          // safety, not liveness.
        },
        *m);
    return true;
  }

 private:
  void observe_qc(AdversaryNode& node, const QcPtr& qc) {
    if (!qc || qc->kind == VoteKind::kCommit) return;
    if (!qc->validate(node.validator_set(), false)) return;
    if (qc->rank() > highest_qc_->rank()) highest_qc_ = qc;
    if (mutations_compiled()) {
      // Mutation-validation builds track *all* distinct certificates per view:
      // when a seeded bug (double voting, sub-quorum certs) lets two blocks
      // certify in one view, the adversary extends both branches.
      auto& certs = certs_by_view_[qc->view];
      const bool known = std::any_of(certs.begin(), certs.end(), [&](const QcPtr& c) {
        return c->block == qc->block;
      });
      if (!known && certs.size() < 2) certs.push_back(qc);
      // A second certificate for the view we lead from arrived after we already
      // proposed: re-propose so each branch gets a certified child.
      if (!known && certs.size() == 2 && qc->view + 1 == node.view() &&
          node.leads(node.view())) {
        equivocate_propose(node);
      }
    }
    if (qc->view >= node.view()) {
      node.set_view(qc->view + 1);
      if (node.leads(node.view())) equivocate_propose(node);
    }
  }

  void equivocate_propose(AdversaryNode& node) {
    const View view = node.view();
    // Pick the two branches to extend. Normally both conflicting blocks share
    // one certified parent; in mutation-validation builds where a seeded bug
    // produced two certificates for the previous view, extend one branch each
    // so both can complete a (mutated) commit chain.
    QcPtr qa = highest_qc_;
    QcPtr qb = highest_qc_;
    if (mutations_compiled() && view >= 1) {
      if (auto it = certs_by_view_.find(view - 1); it != certs_by_view_.end()) {
        if (it->second.size() == 2) {
          qa = it->second[0];
          qb = it->second[1];
        }
      }
    }
    // kStaleJustify probes the justify-adjacency check: justify with genesis,
    // forking from the root under every honest node's committed prefix.
    if (mutation_on(Mutation::kStaleJustify)) qa = qb = QuorumCert::genesis_qc();
    const BlockPtr parent_a = node.block_body(qa->block);
    const BlockPtr parent_b = node.block_body(qb->block);
    if (!parent_a || !parent_b) return;

    // Two conflicting blocks for the same view: different payloads (distinct
    // synthetic seeds), same parent unless extending a certificate fork.
    Payload pa = Payload::synthetic(64, view * 2);
    Payload pb = Payload::synthetic(64, view * 2 + 1);
    const BlockPtr a = Block::create(view, parent_a->height() + 1, parent_a->id(), pa);
    const BlockPtr b = Block::create(view, parent_b->height() + 1, parent_b->id(), pb);
    node.keep(a);
    node.keep(b);
    node.note_created(a);
    node.note_created(b);

    // Odd node ids get block a, even ids get block b — except when probing the
    // double-vote guard, where everyone sees both (the split is pointless if
    // honest nodes would vote for every proposal anyway).
    const std::size_t n = node.validator_set().size();
    for (NodeId to = 0; to < n; ++to) {
      // Both blocks to everyone when probing the double-vote guard (the split
      // is pointless if honest nodes vote for every proposal) and the stale
      // justify (a 2-2 split can never certify either genesis fork; with both
      // delivered, the explorer picks an ordering where one side gets 3 votes).
      if (mutation_on(Mutation::kDoubleVote) || mutation_on(Mutation::kStaleJustify)) {
        node.send_raw(to, make_message<ProposalMsg>(a, qa, nullptr, node.self()));
        node.send_raw(to, make_message<ProposalMsg>(b, qb, nullptr, node.self()));
        continue;
      }
      const BlockPtr& block = (to % 2 == 0) ? a : b;
      const QcPtr& justify = (to % 2 == 0) ? qa : qb;
      node.send_raw(to, make_message<ProposalMsg>(block, justify, nullptr, node.self()));
      node.send_raw(to, make_message<OptProposalMsg>(block, node.self()));
    }
  }

  void propose_stale_fallback(AdversaryNode& node, const TcPtr& tc) {
    // Mutation-validation builds only: when handed a TC for the view we now
    // lead, also propose a fallback justified by *genesis* — forking under the
    // committed prefix. Intact nodes reject it (justify ranks below the TC's
    // proven lock); the kFallbackIgnoresTcRank and kTimeoutCarriesNoLock
    // mutations make them accept, which the explorer must catch. An honest
    // leader can never produce this message (its lock rises to the TC's high
    // certificate before it proposes), so only the adversary probes the guard.
    if (!mutations_compiled()) return;
    const QcPtr justify = QuorumCert::genesis_qc();
    const BlockPtr parent = node.block_body(justify->block);
    if (!parent) return;
    const View view = node.view();
    const BlockPtr block = Block::create(view, parent->height() + 1, parent->id(),
                                         Payload::synthetic(64, view * 2 + 7));
    node.keep(block);
    node.note_created(block);
    node.send_raw_all(make_message<FbProposalMsg>(block, justify, tc, node.self()));
  }

  void vote_for_everything(AdversaryNode& node, const BlockPtr& block) {
    // Double-vote with every kind, but bounded per view so the adversary does
    // not degenerate into a bandwidth-flooding attack (which the network model
    // would punish but which is not the point of these tests).
    int& cast = votes_cast_[block->view()];
    if (cast >= 4) return;
    ++cast;
    for (const VoteKind kind :
         {VoteKind::kNormal, VoteKind::kOptimistic, VoteKind::kFallback, VoteKind::kCommit}) {
      // Adversaries never get a WAL attached, so sign_vote() cannot refuse —
      // the guard keeps the adversary intact if that ever changes.
      if (auto vote = node.sign_vote(kind, block->view(), block->id())) {
        node.send_raw_all(make_message<VoteMsg>(*vote));
      }
    }
  }

  QcPtr highest_qc_ = QuorumCert::genesis_qc();
  std::map<View, int> votes_cast_;  // bounded double-voting per view
  // Mutation-validation builds only: distinct certificates per view (≤ 2), so
  // the adversary can extend both sides of a certificate fork.
  std::map<View, std::vector<QcPtr>> certs_by_view_;
};

}  // namespace

const std::vector<std::string>& strategy_names() {
  static const std::vector<std::string> kNames = {
      "equivocate", "silent", "delay", "partial", "fork",
      "stale", "timeout-equiv", "withhold", "badsig", "future-flood",
  };
  return kNames;
}

bool known_strategy(std::string_view name) {
  for (const std::string& s : strategy_names())
    if (s == name) return true;
  return false;
}

StrategyPtr make_strategy(const AdversarySpec& spec) {
  if (spec.strategy == "equivocate") return std::make_unique<Equivocate>(spec);
  if (spec.strategy == "silent") return std::make_unique<SilentLeader>(spec);
  if (spec.strategy == "delay") return std::make_unique<DelayedRelease>(spec);
  if (spec.strategy == "partial") return std::make_unique<PartialBroadcast>(spec);
  if (spec.strategy == "fork") return std::make_unique<ForkBalancer>(spec);
  if (spec.strategy == "stale") return std::make_unique<StaleJustify>(spec);
  if (spec.strategy == "timeout-equiv") return std::make_unique<TimeoutEquivocator>(spec);
  if (spec.strategy == "withhold") return std::make_unique<VoteWithholder>(spec);
  if (spec.strategy == "badsig") return std::make_unique<BadSignature>(spec);
  if (spec.strategy == "future-flood") return std::make_unique<FutureFlood>(spec);
  return nullptr;
}

}  // namespace moonshot::adversary
