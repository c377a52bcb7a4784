// HMAC-SHA256 (RFC 2104). Used by the FastScheme signature substitute and by
// deterministic key derivation in tests/harness.
#pragma once

#include "crypto/sha256.hpp"
#include "support/bytes.hpp"

namespace moonshot::crypto {

/// HMAC-SHA256 with its key absorbed once: construction hashes the ipad and
/// opad blocks, so each mac() costs only the message and the outer digest.
/// One instance serves any number of messages.
class HmacSha256 {
 public:
  explicit HmacSha256(BytesView key);

  /// HMAC-SHA256(key, message || suffix).
  Sha256Digest mac(BytesView message, BytesView suffix = {}) const;

 private:
  Sha256 inner_;  // after absorbing key ^ ipad
  Sha256 outer_;  // after absorbing key ^ opad
};

/// Computes HMAC-SHA256(key, message).
Sha256Digest hmac_sha256(BytesView key, BytesView message);

}  // namespace moonshot::crypto
