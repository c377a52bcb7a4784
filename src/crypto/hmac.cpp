#include "crypto/hmac.hpp"

#include <cstring>

namespace moonshot::crypto {

HmacSha256::HmacSha256(BytesView key) {
  std::uint8_t k[64] = {0};
  if (key.size() > 64) {
    const auto d = sha256(key);
    std::memcpy(k, d.data.data(), 32);
  } else if (!key.empty()) {
    std::memcpy(k, key.data(), key.size());
  }

  std::uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  inner_.update(BytesView(ipad, 64));
  outer_.update(BytesView(opad, 64));
}

Sha256Digest HmacSha256::mac(BytesView message, BytesView suffix) const {
  Sha256 inner = inner_;
  inner.update(message);
  if (!suffix.empty()) inner.update(suffix);
  const auto inner_digest = inner.finish();

  Sha256 outer = outer_;
  outer.update(inner_digest.view());
  return outer.finish();
}

Sha256Digest hmac_sha256(BytesView key, BytesView message) {
  return HmacSha256(key).mac(message);
}

}  // namespace moonshot::crypto
