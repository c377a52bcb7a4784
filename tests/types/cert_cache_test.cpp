// CertVerifyCache and its integration with certificate validation.
#include "types/cert_cache.hpp"

#include <gtest/gtest.h>

#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"
#include "harness/experiment.hpp"
#include "types/certs.hpp"
#include "types/validator_set.hpp"

namespace moonshot {
namespace {

crypto::Sha256Digest digest_of(int i) {
  Bytes b(4);
  b[0] = static_cast<std::uint8_t>(i);
  b[1] = static_cast<std::uint8_t>(i >> 8);
  return crypto::sha256(b);
}

TEST(CertVerifyCache, HitMissInsert) {
  CertVerifyCache cache(8);
  EXPECT_FALSE(cache.contains(digest_of(1)));
  cache.insert(digest_of(1));
  EXPECT_TRUE(cache.contains(digest_of(1)));
  EXPECT_FALSE(cache.contains(digest_of(2)));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CertVerifyCache, DuplicateInsertIsIdempotent) {
  CertVerifyCache cache(8);
  cache.insert(digest_of(1));
  cache.insert(digest_of(1));
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CertVerifyCache, FifoEviction) {
  CertVerifyCache cache(4);
  for (int i = 0; i < 6; ++i) cache.insert(digest_of(i));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  // Oldest two gone, newest four retained.
  EXPECT_FALSE(cache.contains(digest_of(0)));
  EXPECT_FALSE(cache.contains(digest_of(1)));
  for (int i = 2; i < 6; ++i) EXPECT_TRUE(cache.contains(digest_of(i))) << i;
}

TEST(CertVerifyCache, ZeroCapacityNeverStores) {
  CertVerifyCache cache(0);
  cache.insert(digest_of(1));
  EXPECT_FALSE(cache.contains(digest_of(1)));
  EXPECT_EQ(cache.size(), 0u);
}

// --- Integration with QC/TC validation ---------------------------------------

struct CertCacheFixture : ::testing::Test {
  ValidatorSet::Generated gen = ValidatorSet::generate(4, crypto::ed25519_scheme(), 9);
  BlockPtr block = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(0, 1));

  QcPtr make_qc() {
    std::vector<Vote> votes;
    for (NodeId i = 0; i < gen.set->quorum_size(); ++i)
      votes.push_back(Vote::make(VoteKind::kNormal, 1, block->id(), i,
                                 gen.private_keys[i], gen.set->scheme()));
    return QuorumCert::assemble(votes, 1, *gen.set);
  }
};

TEST_F(CertCacheFixture, QcValidatePopulatesAndHits) {
  const auto qc = make_qc();
  CertVerifyCache cache;
  EXPECT_TRUE(qc->validate(*gen.set, true, &cache));
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_TRUE(qc->validate(*gen.set, true, &cache));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);  // no re-insert on hit
}

TEST_F(CertCacheFixture, TamperedCertMissesCacheAndFails) {
  const auto qc = make_qc();
  CertVerifyCache cache;
  ASSERT_TRUE(qc->validate(*gen.set, true, &cache));

  // Same content, one signature byte flipped: different digest, so the cache
  // cannot be used to smuggle the tampered cert through.
  QuorumCert forged = *qc;
  forged.sigs[1].data[7] ^= 0x01;
  EXPECT_NE(qc->cache_key(*gen.set), forged.cache_key(*gen.set));
  EXPECT_FALSE(forged.validate(*gen.set, true, &cache));
  EXPECT_FALSE(cache.contains(forged.cache_key(*gen.set)));
}

TEST_F(CertCacheFixture, CacheKeyBoundToValidatorSet) {
  // A cert verified against one key set must not hit the cache when
  // re-validated against a different set with the same node IDs — the cache
  // key includes the validator-set digest, so this is a miss and the batch
  // verification (against the wrong keys) fails.
  const auto qc = make_qc();
  CertVerifyCache cache;
  ASSERT_TRUE(qc->validate(*gen.set, true, &cache));
  const auto other = ValidatorSet::generate(4, crypto::ed25519_scheme(), 77);
  EXPECT_NE(qc->cache_key(*gen.set), qc->cache_key(*other.set));
  EXPECT_FALSE(qc->validate(*other.set, true, &cache));
}

TEST_F(CertCacheFixture, CheckSigsFalseBypassesCache) {
  const auto qc = make_qc();
  CertVerifyCache cache;
  EXPECT_TRUE(qc->validate(*gen.set, false, &cache));
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
}

TEST_F(CertCacheFixture, TcValidateCachesSelfAndEmbeddedQc) {
  const auto qc = make_qc();
  std::vector<TimeoutMsg> timeouts;
  for (NodeId i = 0; i < gen.set->quorum_size(); ++i)
    timeouts.push_back(
        TimeoutMsg::make(2, i, qc, gen.private_keys[i], gen.set->scheme()));
  const auto tc = TimeoutCert::assemble(timeouts, *gen.set);
  ASSERT_TRUE(tc);

  CertVerifyCache cache;
  EXPECT_TRUE(tc->validate(*gen.set, true, &cache));
  // Both the TC and its high_qc were recorded.
  EXPECT_TRUE(cache.contains(tc->cache_key(*gen.set)));
  EXPECT_TRUE(cache.contains(qc->cache_key(*gen.set)));

  // Second pass hits; so does validating the QC alone.
  const auto before = cache.stats().hits;
  EXPECT_TRUE(tc->validate(*gen.set, true, &cache));
  EXPECT_TRUE(qc->validate(*gen.set, true, &cache));
  EXPECT_GT(cache.stats().hits, before);
}

TEST_F(CertCacheFixture, TamperedTcEntryRejected) {
  const auto qc = make_qc();
  std::vector<TimeoutMsg> timeouts;
  for (NodeId i = 0; i < gen.set->quorum_size(); ++i)
    timeouts.push_back(
        TimeoutMsg::make(2, i, qc, gen.private_keys[i], gen.set->scheme()));
  const auto tc = TimeoutCert::assemble(timeouts, *gen.set);
  ASSERT_TRUE(tc);
  TimeoutCert forged = *tc;
  forged.entries[0].sig.data[3] ^= 0x02;
  CertVerifyCache cache;
  EXPECT_FALSE(forged.validate(*gen.set, true, &cache));
  EXPECT_FALSE(cache.contains(forged.cache_key(*gen.set)));
}

// The cache pays off in a real world: with verification on and a third of
// the nodes crashed, the WJ schedule's timeout rounds carry the same locks
// in many timeouts and TCs, so nodes see certificates they already checked.
TEST(CertVerifyCacheWorld, VerifyingWjWorldWithCrashedNodesHitsTheCache) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.n = 31;
  cfg.crashed = 10;
  cfg.schedule = ScheduleKind::kWJ;
  cfg.verify_signatures = true;
  cfg.duration = seconds(10);
  Experiment e(cfg);
  const ExperimentResult r = e.run();
  EXPECT_GT(r.summary.committed_blocks, 0u);
  std::uint64_t hits = 0;
  for (NodeId id = 0; id < cfg.n - cfg.crashed; ++id) hits += e.node(id).counters().cert_cache_hits;
  EXPECT_GT(hits, 0u);
}

}  // namespace
}  // namespace moonshot
