#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

#include "support/hex.hpp"
#include "support/prng.hpp"

namespace moonshot::crypto {
namespace {

// RFC 4231 test vectors.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, to_bytes("Hi There")).view()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?")).view()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231VectorsThroughOneKeyedState) {
  // Case 2 twice through one keyed state: mac() leaves the state reusable.
  const HmacSha256 jefe(to_bytes("Jefe"));
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(to_hex(jefe.mac(to_bytes("what do ya want for nothing?")).view()),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  }
  // Case 6 (131-byte key, hashed first), with the message split by the
  // suffix argument.
  const HmacSha256 large(Bytes(131, 0xaa));
  EXPECT_EQ(to_hex(large.mac(to_bytes("Test Using Larger Than Block-Size Key"),
                             to_bytes(" - Hash Key First"))
                       .view()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

/// HMAC straight from its RFC 2104 definition, with one-shot hashes:
/// H((K0 ^ opad) || H((K0 ^ ipad) || message)).
Sha256Digest reference_hmac(const Bytes& key, const Bytes& message) {
  Bytes k0 = key;
  if (key.size() > 64) {
    const Sha256Digest d = sha256(key);
    k0.assign(d.data.begin(), d.data.end());
  }
  k0.resize(64, 0);
  Bytes inner, outer;
  for (const std::uint8_t b : k0) {
    inner.push_back(static_cast<std::uint8_t>(b ^ 0x36));
    outer.push_back(static_cast<std::uint8_t>(b ^ 0x5c));
  }
  inner.insert(inner.end(), message.begin(), message.end());
  const Sha256Digest h = sha256(inner);
  outer.insert(outer.end(), h.data.begin(), h.data.end());
  return sha256(outer);
}

TEST(Hmac, KeyedStateMatchesOneShotOnRandomInputs) {
  Prng prng(4231);
  for (int k = 0; k < 40; ++k) {
    Bytes key(prng.next_below(150));  // below, at and above one block
    prng.fill(key);
    const HmacSha256 keyed(key);
    for (int m = 0; m < 8; ++m) {
      Bytes message(prng.next_below(200));
      prng.fill(message);
      const Sha256Digest expect = reference_hmac(key, message);
      EXPECT_EQ(keyed.mac(message), expect);
      EXPECT_EQ(hmac_sha256(key, message), expect);
      const std::size_t cut = message.empty() ? 0 : prng.next_below(message.size() + 1);
      EXPECT_EQ(keyed.mac(BytesView(message).first(cut), BytesView(message).subspan(cut)),
                expect);
    }
  }
}

TEST(Hmac, Rfc4231LargeKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(key,
                               to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))
                       .view()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, SimpleKeyMessage) {
  EXPECT_EQ(to_hex(hmac_sha256(to_bytes("key"), to_bytes("message")).view()),
            "6e9ef29b75fffc5b7abae527d58fdadb2fe42e7219011976917343065f58ed4a");
}

TEST(Hmac, KeyExactly64Bytes) {
  const Bytes key(64, 0x6b);
  const Bytes key65(65, 0x6b);
  // Boundary behaviour: 64-byte keys are used directly; 65-byte keys hashed.
  EXPECT_NE(hmac_sha256(key, to_bytes("m")), hmac_sha256(key65, to_bytes("m")));
}

TEST(Hmac, DistinctKeysDistinctMacs) {
  EXPECT_NE(hmac_sha256(to_bytes("k1"), to_bytes("m")),
            hmac_sha256(to_bytes("k2"), to_bytes("m")));
  EXPECT_NE(hmac_sha256(to_bytes("k"), to_bytes("m1")),
            hmac_sha256(to_bytes("k"), to_bytes("m2")));
}

}  // namespace
}  // namespace moonshot::crypto
