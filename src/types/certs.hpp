// Block certificates (QCs) and timeout certificates (TCs).
//
// A block certificate C_v(B) is a quorum of distinct signed votes of one
// kind for block B in view v. Certificates are ranked by view: C_v ≤ C_v'
// iff v ≤ v'.
//
// A timeout certificate TC_v is a quorum of distinct signed timeout messages
// for view v. In Pipelined/Commit Moonshot (and Jolteon), each timeout
// carries the sender's lock; the TC then provably contains the highest of
// those locks: it stores each signer's *claimed* lock view (which is what
// the signature covers) plus one full copy of the highest-ranked QC.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "crypto/signature.hpp"
#include "support/codec.hpp"
#include "types/ids.hpp"
#include "types/validator_set.hpp"
#include "types/vote.hpp"

namespace moonshot {

class CertVerifyCache;

struct QuorumCert;
using QcPtr = std::shared_ptr<const QuorumCert>;

struct QuorumCert {
  VoteKind kind = VoteKind::kNormal;
  View view = 0;
  BlockId block{};
  Height height = 0;  // height of the certified block (metadata, not ranking)
  std::vector<NodeId> voters;            // strictly increasing
  std::vector<crypto::Signature> sigs;   // aligned with voters (array form)
  /// Aggregate (threshold-style) form: one constant-size signature over the
  /// vote digest instead of the array. On the wire the voter set becomes a
  /// bitmap, making certificates O(1)-sized — the assumption behind the
  /// paper's Table I communication-complexity column.
  bool aggregated = false;
  crypto::Signature agg_sig{};

  /// Certificates are ranked by view only (paper §II-B).
  View rank() const { return view; }
  bool is_genesis() const { return view == 0; }

  /// The implicit certificate for the genesis block, known to all nodes.
  static QcPtr genesis_qc();

  /// Assembles a certificate from votes (must be same kind/view/block,
  /// distinct voters, quorum-many). Returns nullptr if malformed. With
  /// `aggregate` set (and a scheme that supports it) the result carries a
  /// single aggregate signature.
  static QcPtr assemble(const std::vector<Vote>& votes, Height block_height,
                        const ValidatorSet& validators, bool aggregate = false);

  /// Full validation: quorum of distinct known voters with valid signatures.
  /// `check_sigs` can be disabled when the caller models signature cost
  /// elsewhere (large simulations). Signatures are checked as one batch
  /// (SignatureScheme::verify_batch); a non-null `cache` skips the signature
  /// work entirely for certificates whose digest it already holds and records
  /// newly verified ones. Structural checks always run. `verified_votes`
  /// lists votes whose signatures the caller already checked itself (its
  /// VoteAccumulator's); an array-form signature equal to one of them, same
  /// (kind, view, block, voter) and same bytes, stays out of the batch.
  bool validate(const ValidatorSet& validators, bool check_sigs = true,
                CertVerifyCache* cache = nullptr,
                std::span<const Vote> verified_votes = {}) const;

  /// Collision-resistant digest of the canonical serialization, bound to the
  /// validator set the signatures were checked against; the key under which
  /// CertVerifyCache remembers this certificate.
  crypto::Sha256Digest cache_key(const ValidatorSet& validators) const;

  void serialize(Writer& w) const;
  static std::optional<QuorumCert> deserialize(Reader& r);

  friend bool operator==(const QuorumCert& a, const QuorumCert& b) {
    return a.kind == b.kind && a.view == b.view && a.block == b.block;
  }
};

/// A signed ⟨timeout, v, lock⟩ message. In Simple Moonshot the lock is not
/// included (high_qc == nullptr, and the signature covers view only —
/// modelled by high_qc_view = 0 there).
struct TimeoutMsg {
  View view = 0;
  NodeId sender = kNoNode;
  View high_qc_view = 0;   // rank of the sender's lock (0 = genesis / absent)
  QcPtr high_qc;           // full lock; nullptr in Simple Moonshot timeouts
  crypto::Signature sig{};

  static crypto::Sha256Digest signing_digest(View view, View high_qc_view);

  static TimeoutMsg make(View view, NodeId sender, QcPtr lock,
                         const crypto::PrivateKey& priv,
                         const crypto::SignatureScheme& scheme);

  /// Signature check plus, when a lock is attached, consistency of the
  /// claimed view with the attached certificate. A non-null `cache` is used
  /// for (and updated with) the attached lock's validation.
  bool verify(const ValidatorSet& validators, bool check_sigs = true,
              CertVerifyCache* cache = nullptr) const;

  void serialize(Writer& w) const;
  static std::optional<TimeoutMsg> deserialize(Reader& r);
};

struct TimeoutCert;
using TcPtr = std::shared_ptr<const TimeoutCert>;

struct TimeoutCert {
  struct Entry {
    NodeId sender = kNoNode;
    View high_qc_view = 0;
    crypto::Signature sig{};
  };

  View view = 0;
  QcPtr high_qc;               // highest lock among entries; nullptr if none carried
  std::vector<Entry> entries;  // strictly increasing by sender

  /// Rank of the highest lock proven by this TC (0 when timeouts carry none).
  View high_qc_view() const {
    View v = 0;
    for (const auto& e : entries) v = std::max(v, e.high_qc_view);
    return v;
  }

  /// Assembles from a quorum of timeout messages for the same view.
  static TcPtr assemble(const std::vector<TimeoutMsg>& timeouts,
                        const ValidatorSet& validators);

  /// Entry signatures are batch-verified; `cache` (optional) short-circuits
  /// both this TC and its embedded high_qc, as in QuorumCert::validate.
  bool validate(const ValidatorSet& validators, bool check_sigs = true,
                CertVerifyCache* cache = nullptr) const;

  /// Digest of the canonical serialization (see QuorumCert::cache_key).
  crypto::Sha256Digest cache_key(const ValidatorSet& validators) const;

  void serialize(Writer& w) const;
  static std::optional<TimeoutCert> deserialize(Reader& r);
};

}  // namespace moonshot
