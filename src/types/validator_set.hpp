// The validator set: node identities, public keys, and quorum arithmetic.
#pragma once

#include <memory>
#include <vector>

#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"
#include "types/ids.hpp"

namespace moonshot {

/// Immutable set of the n validators' public keys plus the quorum math.
///
/// Fault threshold: f = ⌊(n-1)/3⌋. Quorum size: ⌈(n+f+1)/2⌉, which equals
/// 2f+1 when n = 3f+1. (The paper prints the quorum as "⌊n/2⌋ + f + 1" but
/// then states it equals 2f+1 for n = 3f+1; the printed formula gives 4 for
/// n = 4, so we use the standard ⌈(n+f+1)/2⌉, which matches the stated
/// 2f+1.)
class ValidatorSet {
 public:
  explicit ValidatorSet(std::vector<crypto::PublicKey> keys,
                        std::shared_ptr<const crypto::SignatureScheme> scheme);

  std::size_t size() const { return keys_.size(); }
  /// Maximum tolerated Byzantine nodes.
  std::size_t f() const { return (keys_.size() - 1) / 3; }
  /// Votes needed for a certificate.
  std::size_t quorum_size() const { return (keys_.size() + f() + 1 + 1) / 2; }
  /// Evidence threshold that at least one honest node acted: f + 1.
  std::size_t honest_evidence_size() const { return f() + 1; }

  bool contains(NodeId id) const { return id < keys_.size(); }
  const crypto::PublicKey& key(NodeId id) const { return keys_.at(id); }
  const crypto::SignatureScheme& scheme() const { return *scheme_; }

  /// Hash of (scheme name, all public keys in order), computed once at
  /// construction. Binds verified-certificate cache entries to the exact key
  /// set they were verified against.
  const crypto::Sha256Digest& digest() const { return digest_; }

  /// Deterministically generates a set of n validators (and their private
  /// keys) for tests and simulations.
  struct Generated {
    std::shared_ptr<const ValidatorSet> set;
    std::vector<crypto::PrivateKey> private_keys;  // indexed by NodeId
  };
  static Generated generate(std::size_t n,
                            std::shared_ptr<const crypto::SignatureScheme> scheme,
                            std::uint64_t seed);

 private:
  std::vector<crypto::PublicKey> keys_;
  std::shared_ptr<const crypto::SignatureScheme> scheme_;
  crypto::Sha256Digest digest_{};
};

using ValidatorSetPtr = std::shared_ptr<const ValidatorSet>;

}  // namespace moonshot
