// Quorum-batched vote verification: the batched VoteAccumulator against an
// eager reference, QC validation reusing votes the accumulator verified, and
// the batch-fallback bound under a bad-signature adversary.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "adversary/adversary_node.hpp"
#include "consensus/accumulators.hpp"
#include "consensus/leader_schedule.hpp"
#include "consensus/moonshot/commit_moonshot.hpp"
#include "consensus/moonshot/pipelined_moonshot.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "support/prng.hpp"

namespace moonshot {
namespace {

/// Forwards to a real scheme and counts the verification calls.
class CountingScheme final : public crypto::SignatureScheme {
 public:
  explicit CountingScheme(std::shared_ptr<const SignatureScheme> inner)
      : inner_(std::move(inner)) {}

  crypto::KeyPair derive_keypair(std::uint64_t seed) const override {
    return inner_->derive_keypair(seed);
  }
  crypto::Signature sign(const crypto::PrivateKey& priv, BytesView message) const override {
    return inner_->sign(priv, message);
  }
  bool verify(const crypto::PublicKey& pub, BytesView message,
              const crypto::Signature& sig) const override {
    ++verify_calls;
    return inner_->verify(pub, message, sig);
  }
  bool verify_batch(const std::vector<crypto::BatchItem>& items,
                    std::vector<std::size_t>* bad) const override {
    ++batch_calls;
    batch_items += items.size();
    const bool ok = inner_->verify_batch(items, bad);
    if (!ok) ++failed_batches;
    return ok;
  }
  std::string name() const override { return inner_->name(); }
  bool supports_aggregation() const override { return inner_->supports_aggregation(); }
  crypto::Signature aggregate(BytesView message,
                              const std::vector<crypto::Signature>& sigs) const override {
    return inner_->aggregate(message, sigs);
  }
  bool verify_aggregate(const std::vector<crypto::PublicKey>& pubs, BytesView message,
                        const crypto::Signature& agg) const override {
    ++aggregate_calls;
    return inner_->verify_aggregate(pubs, message, agg);
  }

  mutable std::uint64_t verify_calls = 0;
  mutable std::uint64_t batch_calls = 0;
  mutable std::uint64_t batch_items = 0;
  mutable std::uint64_t failed_batches = 0;
  mutable std::uint64_t aggregate_calls = 0;

 private:
  std::shared_ptr<const SignatureScheme> inner_;
};

Bytes qc_bytes(const QcPtr& qc) {
  Writer w;
  qc->serialize(w);
  return w.buffer();
}

// ------------------------------------------------ differential accumulator fuzz

/// The eager accumulator the batched one must match: the view window as a
/// filter, then dedupe, then verify each vote on arrival.
class EagerAccumulator {
 public:
  EagerAccumulator(ValidatorSetPtr validators, const View* current)
      : validators_(std::move(validators)), current_(current) {}

  QcPtr add(const Vote& vote) {
    if (!validators_->contains(vote.voter)) return nullptr;
    if (vote.view < floor_ || vote.view >= *current_ + kViewWindow) {
      ++window_dropped;
      return nullptr;
    }
    PerView& pv = by_view_[vote.view];
    Bucket& bucket = pv.buckets[{vote.kind, vote.block}];
    if (bucket.emitted) return nullptr;
    for (const Vote& v : bucket.votes) {
      if (v.voter == vote.voter) {
        ++duplicates;
        return nullptr;
      }
    }
    if (!vote.verify(*validators_)) return nullptr;
    auto [it, fresh] = pv.first_block.try_emplace({vote.kind, vote.voter}, vote.block);
    if (!fresh && it->second != vote.block) ++equivocations;
    bucket.votes.push_back(vote);
    if (bucket.votes.size() < validators_->quorum_size()) return nullptr;
    bucket.emitted = true;
    return QuorumCert::assemble(bucket.votes, 1, *validators_);
  }

  std::size_t count(View view, VoteKind kind, const BlockId& block) const {
    const auto vit = by_view_.find(view);
    if (vit == by_view_.end()) return 0;
    const auto bit = vit->second.buckets.find({kind, block});
    return bit == vit->second.buckets.end() ? 0 : bit->second.votes.size();
  }

  void prune_below(View view) {
    floor_ = std::max(floor_, view);
    by_view_.erase(by_view_.begin(), by_view_.lower_bound(floor_));
  }

  std::uint64_t duplicates = 0;
  std::uint64_t equivocations = 0;
  std::uint64_t window_dropped = 0;

 private:
  struct Bucket {
    std::vector<Vote> votes;
    bool emitted = false;
  };
  struct PerView {
    std::map<std::pair<VoteKind, BlockId>, Bucket> buckets;
    std::map<std::pair<VoteKind, NodeId>, BlockId> first_block;
  };
  ValidatorSetPtr validators_;
  const View* current_;
  View floor_ = 0;
  std::map<View, PerView> by_view_;
};

/// Random streams of valid votes, forged votes, exact re-sends, re-sends with
/// different bytes, equivocations over three blocks per (view, kind) and
/// mixed kinds, fed to both accumulators while the node's view advances and
/// prunes. Most votes land on the few views around the current one; the
/// rest on the window's edges: floor−1, floor, view+K−1, view+K and beyond.
void differential_fuzz(std::shared_ptr<const crypto::SignatureScheme> scheme,
                       std::size_t sequences) {
  constexpr std::size_t kN = 7;
  const auto gen = ValidatorSet::generate(kN, std::move(scheme), 3);
  const VoteKind kinds[] = {VoteKind::kNormal, VoteKind::kOptimistic};
  std::vector<BlockId> blocks;
  for (std::uint64_t s = 1; s <= 3; ++s)
    blocks.push_back(Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(8, s))->id());
  const auto valid_vote = [&](VoteKind kind, View view, const BlockId& block, NodeId voter) {
    return Vote::make(kind, view, block, voter, gen.private_keys[voter], gen.set->scheme());
  };

  Prng prng(0x5eed);
  for (std::size_t seq = 0; seq < sequences; ++seq) {
    View current = 1;
    View floor = 0;
    EagerAccumulator eager(gen.set, &current);
    VoteAccumulator batched(gen.set, true, false, &current);
    std::vector<Vote> sent;
    const std::size_t steps = 20 + prng.next_below(60);
    const auto draw_view = [&]() -> View {
      switch (prng.next_below(8)) {
        case 0: return floor == 0 ? 0 : floor - 1;
        case 1: return floor;
        case 2: return current + kViewWindow - 1;
        case 3: return current + kViewWindow + prng.next_below(3);
        default: return current + prng.next_below(2);
      }
    };
    const auto settle_and_compare = [&] {
      for (View v = floor; v < current + kViewWindow + 3; ++v)
        for (const VoteKind k : kinds)
          for (const BlockId& b : blocks)
            ASSERT_EQ(batched.count(v, k, b), eager.count(v, k, b)) << "seq " << seq;
      ASSERT_EQ(batched.duplicates_dropped(), eager.duplicates) << "seq " << seq;
      ASSERT_EQ(batched.equivocations_seen(), eager.equivocations) << "seq " << seq;
      ASSERT_EQ(batched.window_dropped(), eager.window_dropped) << "seq " << seq;
    };
    for (std::size_t step = 0; step < steps; ++step) {
      if (prng.next_below(10) == 0) {  // the node enters a later view and prunes
        current += 1 + prng.next_below(2);
        floor = current - 2;
        batched.prune_below(floor);
        eager.prune_below(floor);
      }
      Vote vote = valid_vote(kinds[prng.next_below(2)], draw_view(),
                             blocks[prng.next_below(blocks.size())],
                             static_cast<NodeId>(prng.next_below(kN)));
      switch (prng.next_below(6)) {
        case 0:  // forged
          vote.sig.data[prng.next_below(64)] ^= 0x20;
          break;
        case 1:  // exact re-send
          if (!sent.empty()) vote = sent[prng.next_below(sent.size())];
          break;
        case 2: {  // re-send with different bytes: forged copy or the valid original
          if (sent.empty()) break;
          const Vote& prior = sent[prng.next_below(sent.size())];
          if (prior.voter >= kN) break;  // no key to sign the original with
          vote = valid_vote(prior.kind, prior.view, prior.block, prior.voter);
          if (vote.sig == prior.sig) vote.sig.data[prng.next_below(64)] ^= 0x01;
          break;
        }
        case 3:  // a voter outside the set
          if (prng.next_below(4) == 0) vote.voter = kN;
          break;
        default:  // valid; equivocations and mixed kinds arise from the draw
          break;
      }
      sent.push_back(vote);
      const QcPtr want = eager.add(vote);
      const QcPtr got = batched.add(vote, 1);
      ASSERT_EQ(got != nullptr, want != nullptr) << "seq " << seq << " step " << step;
      if (want) {
        ASSERT_EQ(qc_bytes(got), qc_bytes(want)) << "seq " << seq << " step " << step;
      }
      ASSERT_EQ(batched.equivocations_seen(), eager.equivocations) << "seq " << seq;
      if (prng.next_below(12) == 0) settle_and_compare();
    }
    settle_and_compare();
  }
}

TEST(VoteBatchFuzz, MatchesEagerReferenceFastScheme) {
  differential_fuzz(crypto::fast_scheme(), 400);
}

TEST(VoteBatchFuzz, MatchesEagerReferenceEd25519) {
  differential_fuzz(crypto::ed25519_scheme(), 40);
}

TEST(VoteBatchCaught, CaughtVoterNeverJoinsAnotherBatchInTheView) {
  const auto scheme = std::make_shared<CountingScheme>(crypto::fast_scheme());
  const auto gen = ValidatorSet::generate(4, scheme, 1);  // quorum 3
  const BlockId block =
      Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(10, 1))->id();
  const auto vote = [&](NodeId id, VoteKind kind, bool forged = false) {
    Vote v = Vote::make(kind, 1, block, id, gen.private_keys[id], gen.set->scheme());
    if (forged) v.sig.data[0] ^= 0x01;
    return v;
  };
  VoteAccumulator acc(gen.set, true);
  // Voter 3's forged votes wait in two buckets; the first batch catches it.
  acc.add(vote(3, VoteKind::kNormal, true), 1);
  acc.add(vote(3, VoteKind::kOptimistic, true), 1);
  acc.add(vote(0, VoteKind::kNormal), 1);
  EXPECT_EQ(acc.add(vote(1, VoteKind::kNormal), 1), nullptr);
  EXPECT_EQ(scheme->failed_batches, 1u);
  EXPECT_EQ(acc.bad_signatures_caught(), 1u);
  // Its vote already waiting in the other bucket is checked singly there.
  acc.add(vote(0, VoteKind::kOptimistic), 1);
  EXPECT_EQ(acc.add(vote(1, VoteKind::kOptimistic), 1), nullptr);
  EXPECT_EQ(scheme->failed_batches, 1u);
  EXPECT_EQ(scheme->verify_calls, 1u);
  // Its later votes in the view are checked on arrival, never buffered.
  EXPECT_EQ(acc.add(vote(3, VoteKind::kFallback, true), 1), nullptr);
  EXPECT_EQ(scheme->verify_calls, 2u);
  EXPECT_EQ(acc.add(vote(3, VoteKind::kCommit), 1), nullptr);
  EXPECT_EQ(scheme->verify_calls, 3u);
  EXPECT_EQ(acc.count(1, VoteKind::kCommit, block), 1u);
  EXPECT_EQ(scheme->failed_batches, 1u);
  EXPECT_EQ(acc.bad_signatures_caught(), 1u);  // once per (view, voter)
}

// ------------------------------------------------------------- QC-reuse soundness

class QcReuseTest : public ::testing::Test {
 protected:
  QcReuseTest()
      : scheme_(std::make_shared<CountingScheme>(crypto::fast_scheme())),
        gen_(ValidatorSet::generate(4, scheme_, 1)) {
    block_ = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(10, 1))->id();
  }
  Vote vote_from(NodeId id, VoteKind kind = VoteKind::kNormal, View view = 1) {
    return Vote::make(kind, view, block_, id, gen_.private_keys[id], gen_.set->scheme());
  }
  /// An accumulator holding verified votes 0..2 and the QC they formed.
  QcPtr collect(VoteAccumulator& acc, bool aggregate = false) {
    acc.add(vote_from(0), 1);
    acc.add(vote_from(1), 1);
    const QcPtr qc = acc.add(vote_from(2), 1);
    EXPECT_NE(qc, nullptr);
    if (aggregate) {
      return QuorumCert::assemble({vote_from(0), vote_from(1), vote_from(2)}, 1, *gen_.set,
                                  true);
    }
    return qc;
  }
  std::span<const Vote> verified(const VoteAccumulator& acc) const {
    return acc.verified(1, VoteKind::kNormal, block_);
  }
  void reset() {
    scheme_->verify_calls = scheme_->batch_calls = scheme_->batch_items = 0;
    scheme_->failed_batches = scheme_->aggregate_calls = 0;
  }

  std::shared_ptr<CountingScheme> scheme_;
  ValidatorSet::Generated gen_;
  BlockId block_;
};

TEST_F(QcReuseTest, AllSignersAlreadyVerifiedSkipsTheBatch) {
  VoteAccumulator acc(gen_.set, true);
  const QcPtr qc = collect(acc);
  EXPECT_EQ(scheme_->batch_calls, 1u);  // one batch at quorum
  EXPECT_EQ(scheme_->verify_calls, 0u);
  reset();
  EXPECT_TRUE(qc->validate(*gen_.set, true, nullptr, verified(acc)));
  EXPECT_EQ(scheme_->batch_calls, 0u);
  EXPECT_EQ(scheme_->verify_calls, 0u);
  // Without the reuse list the same QC pays for every signature.
  EXPECT_TRUE(qc->validate(*gen_.set, true, nullptr));
  EXPECT_EQ(scheme_->batch_items, 3u);
}

TEST_F(QcReuseTest, OnlyUnknownSignersGoToTheBatch) {
  VoteAccumulator acc(gen_.set, true);
  acc.add(vote_from(0), 1);
  acc.add(vote_from(1), 1);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_), 2u);  // settles both
  const QcPtr qc = QuorumCert::assemble({vote_from(1), vote_from(2), vote_from(3)}, 1, *gen_.set);
  reset();
  EXPECT_TRUE(qc->validate(*gen_.set, true, nullptr, verified(acc)));
  EXPECT_EQ(scheme_->batch_calls, 1u);
  EXPECT_EQ(scheme_->batch_items, 2u);  // voters 2 and 3
}

TEST_F(QcReuseTest, FlippedSignatureByteFailsDespiteKnownVoters) {
  VoteAccumulator acc(gen_.set, true);
  const QcPtr qc = collect(acc);
  for (std::size_t i = 0; i < qc->sigs.size(); ++i) {
    QuorumCert bad = *qc;
    bad.sigs[i].data[7] ^= 0x01;
    EXPECT_FALSE(bad.validate(*gen_.set, true, nullptr, verified(acc))) << "signer " << i;
  }
}

TEST_F(QcReuseTest, VotesOfAnotherViewKindOrBlockAreNeverReused) {
  // The same voters and signature bytes, relabelled: each signature covers
  // the original (view, kind, block), so the relabelled QC is forged and must
  // fail even when handed the original votes as already verified.
  VoteAccumulator acc(gen_.set, true);
  const QcPtr qc = collect(acc);
  QuorumCert other_view = *qc;
  other_view.view = 2;
  QuorumCert other_kind = *qc;
  other_kind.kind = VoteKind::kOptimistic;
  QuorumCert other_block = *qc;
  other_block.block.data[0] ^= 0xff;
  for (const QuorumCert* forged : {&other_view, &other_kind, &other_block}) {
    reset();
    EXPECT_FALSE(forged->validate(*gen_.set, true, nullptr, verified(acc)));
    EXPECT_EQ(scheme_->batch_items, 3u);
  }
}

TEST_F(QcReuseTest, AggregatedCertificatesIgnoreTheReuseList) {
  ASSERT_TRUE(gen_.set->scheme().supports_aggregation());
  VoteAccumulator acc(gen_.set, true);
  const QcPtr qc = collect(acc, true);
  ASSERT_TRUE(qc->aggregated);
  reset();
  EXPECT_TRUE(qc->validate(*gen_.set, true, nullptr, verified(acc)));
  EXPECT_EQ(scheme_->aggregate_calls, 1u);
  QuorumCert bad = *qc;
  bad.agg_sig.data[3] ^= 0x01;
  EXPECT_FALSE(bad.validate(*gen_.set, true, nullptr, verified(acc)));
}

// ------------------------------------------------------ bad-signature adversary

/// n=7 with node 6 running `badsig` and every node verifying signatures. Each
/// node gets its own counting scheme, so failed batches are per node.
void badsig_world(bool commit_moonshot) {
  constexpr std::size_t kN = 7;
  constexpr NodeId kBad = 6;
  const auto gen = ValidatorSet::generate(kN, crypto::fast_scheme(), 1);
  std::vector<crypto::PublicKey> keys;
  for (NodeId id = 0; id < kN; ++id) keys.push_back(gen.set->key(id));

  sim::Scheduler sched;
  std::vector<std::unique_ptr<IConsensusNode>> nodes;
  // One region: vote arrival order is decided by jitter alone, so the forged
  // vote often lands inside the first quorum and fails a batch.
  net::NetworkConfig net_cfg;
  net_cfg.matrix = net::LatencyMatrix::uniform(milliseconds(50));
  net_cfg.regions_used = 1;
  net_cfg.seed = 1;
  net_cfg.delta = milliseconds(500);
  net::SimNetwork network(sched, kN, net_cfg,
                          [&](NodeId to, NodeId from, const MessagePtr& m) {
                            nodes[to]->handle(from, m);
                          });
  const auto leaders = std::make_shared<const RoundRobinSchedule>(kN);
  std::vector<std::shared_ptr<CountingScheme>> schemes;
  for (NodeId id = 0; id < kN; ++id) {
    schemes.push_back(std::make_shared<CountingScheme>(crypto::fast_scheme()));
    NodeContext ctx;
    ctx.id = id;
    ctx.validators = std::make_shared<const ValidatorSet>(keys, schemes.back());
    ctx.priv = gen.private_keys[id];
    ctx.network = &network;
    ctx.sched = &sched;
    ctx.leaders = leaders;
    ctx.delta = milliseconds(500);
    ctx.payload_for_view = [](View v) { return Payload::synthetic(64, v); };
    ctx.verify_signatures = true;
    if (id == kBad) {
      adversary::AdversarySpec spec;
      spec.node = id;
      spec.strategy = "badsig";
      std::vector<adversary::Binding> bindings(1);
      bindings[0].spec = spec;
      bindings[0].strategy = adversary::make_strategy(spec);
      nodes.push_back(std::make_unique<adversary::AdversaryNode>(std::move(ctx),
                                                                 std::move(bindings), nullptr));
    } else if (commit_moonshot) {
      nodes.push_back(std::make_unique<CommitMoonshotNode>(std::move(ctx)));
    } else {
      nodes.push_back(std::make_unique<PipelinedMoonshotNode>(std::move(ctx)));
    }
  }
  for (auto& node : nodes) node->start();
  sched.run_until(TimePoint::zero() + seconds(8));

  const auto& reference = nodes[0]->commit_log().blocks();
  EXPECT_GT(reference.size(), 0u);
  for (NodeId id = 0; id < kBad; ++id) {
    const auto& log = nodes[id]->commit_log().blocks();
    const std::size_t common = std::min(log.size(), reference.size());
    for (std::size_t i = 0; i < common; ++i)
      ASSERT_EQ(log[i]->id(), reference[i]->id()) << "node " << id << " height " << i;
    const NodeCounters c = nodes[id]->counters();
    EXPECT_GT(c.vote_bad_signatures_caught, 0u) << "node " << id;
    EXPECT_GT(schemes[id]->failed_batches, 0u) << "node " << id;
    EXPECT_LE(schemes[id]->failed_batches, c.vote_bad_signatures_caught) << "node " << id;
  }
}

TEST(BadSignatureAdversary, PipelinedStaysSafeAndBoundsFailedBatches) {
  badsig_world(false);
}

TEST(BadSignatureAdversary, CommitStaysSafeAndBoundsFailedBatches) {
  badsig_world(true);
}

}  // namespace
}  // namespace moonshot
