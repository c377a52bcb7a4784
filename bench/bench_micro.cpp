// Micro-benchmarks for the substrates (google-benchmark): hashing, signing,
// certificate assembly/validation, serialization, event-queue throughput.
// Not a paper experiment — a sanity check that the substrates are fast
// enough to carry the simulations.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "consensus/accumulators.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/ed25519_group.hpp"
#include "crypto/ed25519_scalar.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "crypto/signature.hpp"
#include "types/cert_cache.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "types/certs.hpp"
#include "types/messages.hpp"
#include "wal/wal.hpp"

namespace {
using namespace moonshot;

void BM_Sha256_1KB(benchmark::State& state) {
  Bytes data(1024, 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256(data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KB);

void BM_Ed25519_Sign(benchmark::State& state) {
  const auto kp = crypto::ed25519_scheme()->derive_keypair(1);
  const Bytes msg(32, 0x42);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::ed25519_scheme()->sign(kp.priv, msg));
}
BENCHMARK(BM_Ed25519_Sign);

void BM_Ed25519_Verify(benchmark::State& state) {
  const auto kp = crypto::ed25519_scheme()->derive_keypair(1);
  const Bytes msg(32, 0x42);
  const auto sig = crypto::ed25519_scheme()->sign(kp.priv, msg);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::ed25519_scheme()->verify(kp.pub, msg, sig));
}
BENCHMARK(BM_Ed25519_Verify);

// Reference verification with plain double-and-add (two separate generic
// scalar multiplications) — the shape of the code before the comb tables and
// the Straus/wNAF multi-scalar kernel. Kept as a benchmark so the speedup of
// BM_Ed25519_Verify over this baseline is measured, not remembered.
bool ed25519_verify_reference(const crypto::Ed25519PublicKey& pub, BytesView message,
                              const crypto::Ed25519Signature& sig) {
  using namespace moonshot::crypto;
  const std::uint8_t* r_enc = sig.data.data();
  const std::uint8_t* s_enc = sig.data.data() + 32;
  if (!sc_is_canonical(s_enc)) return false;
  const auto A = ge_frombytes(pub.data.data());
  if (!A) return false;
  const auto R = ge_frombytes(r_enc);
  if (!R) return false;
  Sha512 h;
  h.update(BytesView(r_enc, 32));
  h.update(pub.view());
  h.update(message);
  const auto k_hash = h.finish();
  std::uint8_t challenge[32];
  sc_reduce512(challenge, k_hash.data.data());
  const GePoint sB = ge_scalarmult(s_enc, ge_basepoint());
  const GePoint kA = ge_scalarmult(challenge, *A);
  return ge_equal(ge_add(sB, ge_neg(kA)), *R);
}

void BM_Ed25519_VerifyRef(benchmark::State& state) {
  const auto kp = crypto::ed25519_scheme()->derive_keypair(1);
  const Bytes msg(32, 0x42);
  const auto sig = crypto::ed25519_scheme()->sign(kp.priv, msg);
  crypto::Ed25519PublicKey pub;
  std::memcpy(pub.data.data(), kp.pub.data.data(), 32);
  crypto::Ed25519Signature s;
  std::memcpy(s.data.data(), sig.data.data(), 64);
  for (auto _ : state)
    benchmark::DoNotOptimize(ed25519_verify_reference(pub, msg, s));
}
BENCHMARK(BM_Ed25519_VerifyRef);

void BM_Ed25519_BatchVerify(benchmark::State& state) {
  // n distinct keys signing the same digest — the exact shape of QC
  // validation. 67 = quorum of n=100; per-signature cost (items/s) is the
  // number to compare against BM_Ed25519_Verify.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Bytes msg(32, 0x42);
  std::vector<crypto::Ed25519Seed> seeds(n);
  std::vector<crypto::Ed25519PublicKey> pubs(n);
  std::vector<crypto::Ed25519Signature> sigs(n);
  for (std::size_t i = 0; i < n; ++i) {
    seeds[i].data[0] = static_cast<std::uint8_t>(i + 1);
    seeds[i].data[1] = static_cast<std::uint8_t>(i >> 8);
    pubs[i] = crypto::ed25519_public_key(seeds[i]);
    sigs[i] = crypto::ed25519_sign(seeds[i], msg);
  }
  std::vector<crypto::Ed25519BatchItem> items;
  for (std::size_t i = 0; i < n; ++i)
    items.push_back({&pubs[i], BytesView(msg), &sigs[i]});
  // Warm the per-key wNAF table cache so steady-state cost is measured.
  benchmark::DoNotOptimize(crypto::ed25519_verify_batch(items));
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::ed25519_verify_batch(items));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Ed25519_BatchVerify)->Arg(16)->Arg(67);

void BM_Ed25519_Keygen(benchmark::State& state) {
  // Public-key derivation: one comb evaluation of s*B plus the fe_invert in
  // ge_tobytes. Every keypair of an Ed25519 world's setup pays this.
  crypto::Ed25519Seed seed;
  seed.data[0] = 7;
  for (auto _ : state) benchmark::DoNotOptimize(crypto::ed25519_public_key(seed));
}
BENCHMARK(BM_Ed25519_Keygen);

// Per-step costs under one verification: the field kernel, the R
// decompression and the challenge hash. Field loops feed each result into the
// next call, so they time a dependent chain (latency), as the exponentiation
// ladders run it.
crypto::Fe bench_fe(std::uint8_t salt) {
  std::uint8_t b[32];
  for (int i = 0; i < 32; ++i) b[i] = static_cast<std::uint8_t>(i * 29 + salt);
  b[31] &= 0x7f;
  return crypto::fe_frombytes(b);
}

void BM_FeMul(benchmark::State& state) {
  crypto::Fe a = bench_fe(1);
  const crypto::Fe b = bench_fe(2);
  for (auto _ : state) {
    a = crypto::fe_mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FeMul);

void BM_FeSq(benchmark::State& state) {
  crypto::Fe a = bench_fe(3);
  for (auto _ : state) {
    a = crypto::fe_sq(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FeSq);

void BM_FeInvert(benchmark::State& state) {
  crypto::Fe a = bench_fe(4);  // nonzero, so every inverse in the chain is too
  for (auto _ : state) {
    a = crypto::fe_invert(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FeInvert);

void BM_GeFrombytes(benchmark::State& state) {
  // The R decompression of a vote signature (square root via fe_pow_p58).
  crypto::Ed25519Seed seed;
  seed.data[0] = 1;
  const auto sig = crypto::ed25519_sign(seed, Bytes(32, 0x42));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::ge_frombytes(sig.data.data()));
}
BENCHMARK(BM_GeFrombytes);

void BM_ChallengeHash(benchmark::State& state) {
  // k = SHA-512(R || A || M) mod L at vote size: M is the 32-byte vote
  // signing digest, so the hash input is 96 bytes.
  const Bytes ram(96, 0x5a);
  std::uint8_t k[32];
  for (auto _ : state) {
    const auto digest = crypto::sha512(ram);
    crypto::sc_reduce512(k, digest.data.data());
    benchmark::DoNotOptimize(k);
  }
}
BENCHMARK(BM_ChallengeHash);

// Shared key/signature pool for the parallel cache benchmark. Function-local
// static so the (expensive) signing setup runs once, not once per bench
// thread.
struct KeyPool {
  Bytes msg;
  std::vector<crypto::Ed25519PublicKey> pubs;
  std::vector<crypto::Ed25519Signature> sigs;
};

const KeyPool& key_pool() {
  static const KeyPool pool = [] {
    KeyPool p;
    p.msg = Bytes(32, 0x42);
    const std::size_t n = 32;
    for (std::size_t i = 0; i < n; ++i) {
      crypto::Ed25519Seed seed;
      seed.data[0] = static_cast<std::uint8_t>(i + 1);
      p.pubs.push_back(crypto::ed25519_public_key(seed));
      p.sigs.push_back(crypto::ed25519_sign(seed, p.msg));
    }
    return p;
  }();
  return pool;
}

void BM_KeyCtxParallel(benchmark::State& state) {
  // Concurrent verification across 32 distinct keys: the sharded per-key
  // wNAF-table cache (crypto/ed25519.cpp) under contention. Items/s should
  // hold (or scale) as threads rise; a single global cache lock would
  // serialize the lookups and flatline it.
  const KeyPool& pool = key_pool();
  std::size_t i = static_cast<std::size_t>(state.thread_index()) * 7;
  for (auto _ : state) {
    const std::size_t k = i++ % pool.pubs.size();
    benchmark::DoNotOptimize(crypto::ed25519_verify(pool.pubs[k], pool.msg, pool.sigs[k]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_KeyCtxParallel)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

void BM_FastScheme_Verify(benchmark::State& state) {
  const auto kp = crypto::fast_scheme()->derive_keypair(1);
  const Bytes msg(32, 0x42);
  const auto sig = crypto::fast_scheme()->sign(kp.priv, msg);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::fast_scheme()->verify(kp.pub, msg, sig));
}
BENCHMARK(BM_FastScheme_Verify);

void BM_QcAssembleValidate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto gen = ValidatorSet::generate(n, crypto::fast_scheme(), 1);
  const auto block = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(0, 1));
  std::vector<Vote> votes;
  for (NodeId i = 0; i < gen.set->quorum_size(); ++i)
    votes.push_back(Vote::make(VoteKind::kNormal, 1, block->id(), i, gen.private_keys[i],
                               gen.set->scheme()));
  for (auto _ : state) {
    const auto qc = QuorumCert::assemble(votes, 1, *gen.set);
    benchmark::DoNotOptimize(qc->validate(*gen.set, true));
  }
}
BENCHMARK(BM_QcAssembleValidate)->Arg(4)->Arg(100);

void BM_QcValidateEd25519(benchmark::State& state) {
  // Real-crypto certificate validation: quorum of 67 Ed25519 signatures
  // checked as one batch (the ed25519_verify_batch path behind validate()).
  const auto gen = ValidatorSet::generate(100, crypto::ed25519_scheme(), 1);
  const auto block = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(0, 1));
  std::vector<Vote> votes;
  for (NodeId i = 0; i < gen.set->quorum_size(); ++i)
    votes.push_back(Vote::make(VoteKind::kNormal, 1, block->id(), i, gen.private_keys[i],
                               gen.set->scheme()));
  const auto qc = QuorumCert::assemble(votes, 1, *gen.set);
  benchmark::DoNotOptimize(qc->validate(*gen.set, true));  // warm key tables
  for (auto _ : state) benchmark::DoNotOptimize(qc->validate(*gen.set, true));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(gen.set->quorum_size()));
}
BENCHMARK(BM_QcValidateEd25519);

void BM_QcValidateCached(benchmark::State& state) {
  // Re-validation of an already-seen certificate: structural checks plus one
  // SHA-256 of the serialization and a set lookup — no curve arithmetic.
  const auto gen = ValidatorSet::generate(100, crypto::ed25519_scheme(), 1);
  const auto block = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(0, 1));
  std::vector<Vote> votes;
  for (NodeId i = 0; i < gen.set->quorum_size(); ++i)
    votes.push_back(Vote::make(VoteKind::kNormal, 1, block->id(), i, gen.private_keys[i],
                               gen.set->scheme()));
  const auto qc = QuorumCert::assemble(votes, 1, *gen.set);
  CertVerifyCache cache;
  benchmark::DoNotOptimize(qc->validate(*gen.set, true, &cache));  // populate
  for (auto _ : state)
    benchmark::DoNotOptimize(qc->validate(*gen.set, true, &cache));
}
BENCHMARK(BM_QcValidateCached);

void BM_MessageSerialize(benchmark::State& state) {
  const auto gen = ValidatorSet::generate(100, crypto::fast_scheme(), 1);
  const auto block = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(1800, 1));
  std::vector<Vote> votes;
  for (NodeId i = 0; i < gen.set->quorum_size(); ++i)
    votes.push_back(Vote::make(VoteKind::kNormal, 1, block->id(), i, gen.private_keys[i],
                               gen.set->scheme()));
  const auto qc = QuorumCert::assemble(votes, 1, *gen.set);
  const auto m = make_message<ProposalMsg>(block, qc, nullptr, NodeId{0});
  for (auto _ : state) benchmark::DoNotOptimize(message_wire_size(*m));
}
BENCHMARK(BM_MessageSerialize);

void BM_SchedulerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int counter = 0;
    for (int i = 0; i < 1000; ++i)
      sched.schedule_at(TimePoint{i}, [&counter] { ++counter; });
    sched.run_all();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerChurn);

void BM_AggregateVerify(benchmark::State& state) {
  // Threshold-certificate validation: one XOR-MAC aggregate over the quorum.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto gen = ValidatorSet::generate(n, crypto::fast_scheme(), 1);
  const auto block = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(0, 1));
  std::vector<Vote> votes;
  for (NodeId i = 0; i < gen.set->quorum_size(); ++i)
    votes.push_back(Vote::make(VoteKind::kNormal, 1, block->id(), i, gen.private_keys[i],
                               gen.set->scheme()));
  const auto qc = QuorumCert::assemble(votes, 1, *gen.set, /*aggregate=*/true);
  for (auto _ : state) benchmark::DoNotOptimize(qc->validate(*gen.set, true));
}
BENCHMARK(BM_AggregateVerify)->Arg(4)->Arg(100);

void BM_TcAssemble(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto gen = ValidatorSet::generate(n, crypto::fast_scheme(), 1);
  const auto block = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(0, 1));
  std::vector<Vote> votes;
  for (NodeId i = 0; i < gen.set->quorum_size(); ++i)
    votes.push_back(Vote::make(VoteKind::kNormal, 1, block->id(), i, gen.private_keys[i],
                               gen.set->scheme()));
  const auto qc = QuorumCert::assemble(votes, 1, *gen.set);
  std::vector<TimeoutMsg> timeouts;
  for (NodeId i = 0; i < gen.set->quorum_size(); ++i)
    timeouts.push_back(TimeoutMsg::make(2, i, qc, gen.private_keys[i], gen.set->scheme()));
  for (auto _ : state)
    benchmark::DoNotOptimize(TimeoutCert::assemble(timeouts, *gen.set));
}
BENCHMARK(BM_TcAssemble)->Arg(4)->Arg(100);

void BM_BlockHash(benchmark::State& state) {
  // Block-id computation for a 1.8 kB inline payload.
  Payload p;
  p.inline_data = Bytes(1800, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Block::create(1, 1, Block::genesis()->id(), p));
  }
}
BENCHMARK(BM_BlockHash);

void BM_VoteAccumulator(benchmark::State& state) {
  const auto gen = ValidatorSet::generate(100, crypto::fast_scheme(), 1);
  const auto block = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(0, 1));
  std::vector<Vote> votes;
  for (NodeId i = 0; i < 100; ++i)
    votes.push_back(Vote::make(VoteKind::kNormal, 1, block->id(), i, gen.private_keys[i],
                               gen.set->scheme()));
  for (auto _ : state) {
    VoteAccumulator acc(gen.set, false);
    for (const auto& v : votes) benchmark::DoNotOptimize(acc.add(v, 1));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_VoteAccumulator);

void BM_VoteAccumulatorPm200(benchmark::State& state) {
  // Pipelined-Moonshot-shaped load at n=200: optimistic and normal votes,
  // three live views, and the view-entry prune. At the entry of view v a
  // third of the voters votes for each of v−1, v and v+1, so every view gets
  // all 200 voters of both kinds over three entries.
  constexpr NodeId kN = 200;
  constexpr View kViews = 12;
  const auto gen = ValidatorSet::generate(kN, crypto::fast_scheme(), 1);
  std::vector<BlockId> blocks;
  for (View v = 0; v <= kViews + 1; ++v)
    blocks.push_back(Block::create(v, v, Block::genesis()->id(), Payload::synthetic(0, v))->id());
  std::vector<std::vector<Vote>> arrivals(kViews + 1);  // by entered view
  for (View v = 1; v <= kViews; ++v) {
    for (NodeId i = 0; i < kN; ++i) {
      const View target = v + 1 - (3 * i) / kN;  // thirds: v+1, v, v−1
      if (target < 1) continue;
      for (const VoteKind kind : {VoteKind::kOptimistic, VoteKind::kNormal})
        arrivals[v].push_back(Vote::make(kind, target, blocks[target], i, gen.private_keys[i],
                                         gen.set->scheme()));
    }
  }
  std::int64_t items = 0;
  for (auto _ : state) {
    View view = 0;
    VoteAccumulator acc(gen.set, false, false, &view);
    for (view = 1; view <= kViews; ++view) {
      if (view > 2) acc.prune_below(view - 2);
      for (const Vote& vote : arrivals[view]) benchmark::DoNotOptimize(acc.add(vote, 1));
      items += static_cast<std::int64_t>(arrivals[view].size());
    }
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_VoteAccumulatorPm200);

// Trace hot path (DESIGN.md §5.2). The two variants bound the cost of
// instrumentation: recording, and the null-pointer hook guard compiled into
// every call site, which is all an untraced run pays.
void BM_TracerRecord(benchmark::State& state) {
  sim::Scheduler sched;
  obs::Tracer tracer(4);
  tracer.set_clock(&sched);
  std::uint64_t i = 0;
  for (auto _ : state) {
    tracer.record(static_cast<NodeId>(i & 3), obs::EventKind::kVoteCast, i, i, i & 1);
    ++i;
  }
  benchmark::DoNotOptimize(tracer.digest());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerRecord);

void BM_TracerHookNull(benchmark::State& state) {
  // The `if (tracer_) tracer_->record(...)` guard with no tracer installed —
  // what every instrumented call site costs in an untraced run.
  obs::Tracer* tracer = nullptr;
  benchmark::DoNotOptimize(tracer);
  std::uint64_t i = 0;
  for (auto _ : state) {
    if (tracer) tracer->record(0, obs::EventKind::kVoteCast, i, i, i & 1);
    ++i;
  }
  benchmark::DoNotOptimize(i);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerHookNull);

// WAL hot paths (DESIGN.md §5.3): the persist-before-send gate every vote
// takes, the recovery scan, and snapshot compaction. These bound the cost
// the durability layer adds to simulated runs (the modelled fsync latency is
// simulated time, not wall time — what these measure is the bookkeeping).
wal::Wal make_filled_wal(sim::Scheduler& sched, std::size_t views) {
  wal::Wal log(0, &sched, 1);
  const auto gen = ValidatorSet::generate(4, crypto::fast_scheme(), 1);
  BlockPtr parent = Block::genesis();
  for (std::size_t v = 1; v <= views; ++v) {
    const View view = static_cast<View>(v);
    const BlockPtr b =
        Block::create(view, view, parent->id(), Payload::synthetic(256, view));
    log.append_block(*b);
    log.record_vote(VoteKind::kNormal, view, b->id());
    std::vector<Vote> votes;
    for (NodeId i = 0; i < gen.set->quorum_size(); ++i)
      votes.push_back(Vote::make(VoteKind::kNormal, view, b->id(), i, gen.private_keys[i],
                                 gen.set->scheme()));
    log.append_qc(*QuorumCert::assemble(votes, view, *gen.set));
    if (v >= 2) log.append_commit(*parent);
    parent = b;
  }
  log.sync();
  return log;
}

void BM_WalAppendVote(benchmark::State& state) {
  // record_vote = admission check + framed append + sync: the full
  // persist-before-send gate on the vote path.
  sim::Scheduler sched;
  wal::Wal log(0, &sched, 1);
  const BlockId id = Block::genesis()->id();
  View v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.record_vote(VoteKind::kNormal, ++v, id));
    if (log.size() > (32u << 20)) log.wipe();  // bound memory, keep views rising
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WalAppendVote);

void BM_WalReplay(benchmark::State& state) {
  // Corruption-tolerant scan + state reconstruction over `range(0)` views
  // (each contributing a block, a vote, a certificate and a commit record).
  sim::Scheduler sched;
  wal::Wal log = make_filled_wal(sched, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const wal::RecoveredState rs = log.replay();
    benchmark::DoNotOptimize(rs.blocks.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log.size()));
}
BENCHMARK(BM_WalReplay)->Arg(64)->Arg(512);

void BM_WalSnapshot(benchmark::State& state) {
  // Full compaction: scan + snapshot serialization + log rewrite.
  sim::Scheduler sched;
  wal::Wal log = make_filled_wal(sched, static_cast<std::size_t>(state.range(0)));
  const Bytes saved = log.data();
  for (auto _ : state) {
    log.data_mutable() = saved;  // restore the un-compacted log
    log.compact();
    benchmark::DoNotOptimize(log.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(saved.size()));
}
BENCHMARK(BM_WalSnapshot)->Arg(64)->Arg(512);

}  // namespace

int main(int argc, char** argv) {
  // `--json <path>` is the shared bench-suite flag (see bench_common.hpp);
  // translate it to google-benchmark's own output flags so bench_micro emits
  // machine-readable results the same way the paper benches do.
  std::vector<char*> args;
  std::string out_flag;
  std::string fmt_flag = "--benchmark_out_format=json";
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      out_flag = std::string("--benchmark_out=") + argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
