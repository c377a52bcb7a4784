// Forwarding decorators that time the calls a world makes into each layer.
//
// The traced worlds put these between the layers the library already
// separates by interface: an INetwork around the network model, a
// SignatureScheme around the crypto backend, and the delivery callback
// around handle(). The decorators only forward, so a traced world executes
// exactly the events of its untraced twin.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "consensus/node.hpp"
#include "crypto/signature.hpp"
#include "net/network.hpp"

namespace worldbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

constexpr std::size_t kMessageTypes = std::variant_size_v<moonshot::Message>;

/// Counts and busy seconds of the calls a world makes into each layer.
struct Probe {
  std::array<std::uint64_t, kMessageTypes> handle_calls{};
  std::array<double, kMessageTypes> handle_s{};
  std::uint64_t send_calls = 0;
  double send_s = 0;
  double send_in_handle_s = 0;
  std::uint64_t sign_calls = 0;
  double sign_s = 0;
  std::uint64_t verify_calls = 0;
  double verify_s = 0;
  std::uint64_t batch_calls = 0;
  std::uint64_t batch_items = 0;
  double batch_s = 0;
  double crypto_in_handle_s = 0;
  std::size_t pending_max = 0;
  bool in_handle = false;

  double handle_total_s() const {
    double s = 0;
    for (double x : handle_s) s += x;
    return s;
  }
  std::uint64_t handle_total_calls() const {
    std::uint64_t c = 0;
    for (std::uint64_t x : handle_calls) c += x;
    return c;
  }
  double crypto_s() const { return sign_s + verify_s + batch_s; }
};

/// Times `fn()` and charges it to `busy`, and to `nested` when the call is
/// made from inside a timed handle().
template <typename Fn>
auto timed(Probe& p, double& busy, double& nested, Fn&& fn) {
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    const double dt = seconds_since(t0);
    busy += dt;
    if (p.in_handle) nested += dt;
  } else {
    auto result = fn();
    const double dt = seconds_since(t0);
    busy += dt;
    if (p.in_handle) nested += dt;
    return result;
  }
}

/// Times handle() by message type. handle() never re-enters itself: sends
/// only schedule deliveries.
template <typename Fn>
void timed_handle(Probe& p, std::size_t type, Fn&& fn) {
  const auto t0 = Clock::now();
  p.in_handle = true;
  fn();
  p.in_handle = false;
  p.handle_s[type] += seconds_since(t0);
  p.handle_calls[type]++;
}

class TimedNetwork final : public moonshot::net::INetwork {
 public:
  TimedNetwork(moonshot::net::INetwork& inner, Probe& probe) : inner_(inner), probe_(probe) {}

  void multicast(moonshot::NodeId from, moonshot::MessagePtr m) override {
    probe_.send_calls++;
    timed(probe_, probe_.send_s, probe_.send_in_handle_s,
          [&] { inner_.multicast(from, std::move(m)); });
  }
  void unicast(moonshot::NodeId from, moonshot::NodeId to, moonshot::MessagePtr m) override {
    probe_.send_calls++;
    timed(probe_, probe_.send_s, probe_.send_in_handle_s,
          [&] { inner_.unicast(from, to, std::move(m)); });
  }

 private:
  moonshot::net::INetwork& inner_;
  Probe& probe_;
};

/// Forwards every method, name() included, so the validator-set digest and
/// the certificate-cache keys match the untraced world's.
class TimedScheme final : public moonshot::crypto::SignatureScheme {
 public:
  TimedScheme(std::shared_ptr<const SignatureScheme> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  moonshot::crypto::KeyPair derive_keypair(std::uint64_t seed) const override {
    return inner_->derive_keypair(seed);
  }
  moonshot::crypto::Signature sign(const moonshot::crypto::PrivateKey& priv,
                                   moonshot::BytesView message) const override {
    probe_.sign_calls++;
    return timed(probe_, probe_.sign_s, probe_.crypto_in_handle_s,
                 [&] { return inner_->sign(priv, message); });
  }
  bool verify(const moonshot::crypto::PublicKey& pub, moonshot::BytesView message,
              const moonshot::crypto::Signature& sig) const override {
    probe_.verify_calls++;
    return timed(probe_, probe_.verify_s, probe_.crypto_in_handle_s,
                 [&] { return inner_->verify(pub, message, sig); });
  }
  bool verify_batch(const std::vector<moonshot::crypto::BatchItem>& items,
                    std::vector<std::size_t>* bad) const override {
    probe_.batch_calls++;
    probe_.batch_items += items.size();
    return timed(probe_, probe_.batch_s, probe_.crypto_in_handle_s,
                 [&] { return inner_->verify_batch(items, bad); });
  }
  std::string name() const override { return inner_->name(); }
  bool supports_aggregation() const override { return inner_->supports_aggregation(); }
  moonshot::crypto::Signature aggregate(
      moonshot::BytesView message,
      const std::vector<moonshot::crypto::Signature>& sigs) const override {
    return inner_->aggregate(message, sigs);
  }
  bool verify_aggregate(const std::vector<moonshot::crypto::PublicKey>& pubs,
                        moonshot::BytesView message,
                        const moonshot::crypto::Signature& agg) const override {
    probe_.verify_calls++;
    return timed(probe_, probe_.verify_s, probe_.crypto_in_handle_s,
                 [&] { return inner_->verify_aggregate(pubs, message, agg); });
  }

 private:
  std::shared_ptr<const SignatureScheme> inner_;
  Probe& probe_;
};

}  // namespace worldbench
