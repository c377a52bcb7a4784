#include "crypto/signature.hpp"

#include <cstring>

#include "crypto/ed25519.hpp"
#include "crypto/hmac.hpp"
#include "support/prng.hpp"

namespace moonshot::crypto {

namespace {

PrivateKey seed_to_key(std::uint64_t seed) {
  PrivateKey k;
  std::uint64_t sm = seed ^ 0x517cc1b727220a95ull;
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t w = splitmix64(sm);
    for (int b = 0; b < 8; ++b)
      k.data[8 * i + b] = static_cast<std::uint8_t>(w >> (8 * b));
  }
  return k;
}

class Ed25519Scheme final : public SignatureScheme {
 public:
  KeyPair derive_keypair(std::uint64_t seed) const override {
    KeyPair kp;
    kp.priv = seed_to_key(seed);
    kp.pub = ed25519_public_key(Ed25519Seed{kp.priv.data});
    return kp;
  }

  Signature sign(const PrivateKey& priv, BytesView message) const override {
    const auto s = ed25519_sign(Ed25519Seed{priv.data}, message);
    return Signature{s.data};
  }

  bool verify(const PublicKey& pub, BytesView message, const Signature& sig) const override {
    return ed25519_verify(Ed25519PublicKey{pub.data}, message, Ed25519Signature{sig.data});
  }

  std::string name() const override { return "ed25519"; }

  bool verify_batch(const std::vector<BatchItem>& items,
                    std::vector<std::size_t>* bad) const override {
    // PublicKey/Signature are the same FixedBytes types as the Ed25519
    // aliases, so items translate by pointer without copying key material.
    std::vector<Ed25519BatchItem> ed;
    ed.reserve(items.size());
    for (const auto& item : items)
      ed.push_back(Ed25519BatchItem{item.pub, item.message, item.sig});
    return ed25519_verify_batch(ed, bad);
  }
};

/// The FastScheme global secret. Its only purpose is to let verify() rederive
/// the signer's MAC key from the public key; see signature.hpp.
constexpr const char kSimSecret[] = "moonshot-simulation-global-secret";

PrivateKey fast_priv_from_pub(const PublicKey& pub) {
  static const HmacSha256 kSimMac(to_bytes(kSimSecret));
  return PrivateKey{kSimMac.mac(pub.view()).data};
}

class FastScheme final : public SignatureScheme {
 public:
  KeyPair derive_keypair(std::uint64_t seed) const override {
    KeyPair kp;
    // Public key is just expanded seed bytes; private key derived from it.
    kp.pub = PublicKey{seed_to_key(seed ^ 0x6a09e667f3bcc908ull).data};
    kp.priv = fast_priv_from_pub(kp.pub);
    return kp;
  }

  Signature sign(const PrivateKey& priv, BytesView message) const override {
    const HmacSha256 mac(priv.view());
    const auto m1 = mac.mac(message);
    // Second half binds a domain-separated copy (message || 0x01) so the
    // signature is 64 bytes, matching Ed25519 on the wire.
    static constexpr std::uint8_t kSalt[1] = {0x01};
    const auto m2 = mac.mac(message, kSalt);
    Signature sig;
    std::memcpy(sig.data.data(), m1.data.data(), 32);
    std::memcpy(sig.data.data() + 32, m2.data.data(), 32);
    return sig;
  }

  bool verify(const PublicKey& pub, BytesView message, const Signature& sig) const override {
    const auto priv = fast_priv_from_pub(pub);
    const auto expect = sign(priv, message);
    return ct_equal(expect.view(), sig.view());
  }

  std::string name() const override { return "fast-hmac"; }

  // Simulated BLS-style aggregation: the aggregate of same-message MACs is
  // their XOR — constant size, verifiable by recomputation from the public
  // keys (the simulation secret rederives each private key). Faithful in
  // the property that matters to the experiments: certificate wire size
  // becomes independent of the quorum.
  bool supports_aggregation() const override { return true; }

  Signature aggregate(BytesView /*message*/,
                      const std::vector<Signature>& sigs) const override {
    Signature agg{};
    for (const auto& s : sigs)
      for (std::size_t i = 0; i < agg.size(); ++i) agg.data[i] ^= s.data[i];
    return agg;
  }

  bool verify_aggregate(const std::vector<PublicKey>& pubs, BytesView message,
                        const Signature& agg) const override {
    Signature expect{};
    for (const auto& pub : pubs) {
      const auto sig = sign(fast_priv_from_pub(pub), message);
      for (std::size_t i = 0; i < expect.size(); ++i) expect.data[i] ^= sig.data[i];
    }
    return ct_equal(expect.view(), agg.view());
  }
};

}  // namespace

bool SignatureScheme::verify_batch(const std::vector<BatchItem>& items,
                                   std::vector<std::size_t>* bad) const {
  bool ok = true;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!verify(*items[i].pub, items[i].message, *items[i].sig)) {
      ok = false;
      if (bad) bad->push_back(i);
    }
  }
  return ok;
}

std::shared_ptr<const SignatureScheme> ed25519_scheme() {
  static const auto instance = std::make_shared<const Ed25519Scheme>();
  return instance;
}

std::shared_ptr<const SignatureScheme> fast_scheme() {
  static const auto instance = std::make_shared<const FastScheme>();
  return instance;
}

}  // namespace moonshot::crypto
