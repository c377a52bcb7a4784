// Composable link-fault filters for the simulated network.
//
// Chaos testing needs *stackable* faults: symmetric and asymmetric
// partitions, per-link probabilistic drops, message duplication, and delay
// spikes — several of which may be active at once with independent
// lifetimes. Each fault is an ILinkFault; SimNetwork consults an ordered
// FaultChain for every point-to-point copy it is about to send and combines
// the verdicts: any drop wins, delays add up, duplicate counts sum.
//
// Determinism: probabilistic faults own a seeded Prng; they draw in chain
// order for every consulted copy, so a run is a pure function of (seeds,
// schedule) and replays bit-identically.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "support/prng.hpp"
#include "support/time.hpp"
#include "types/messages.hpp"

namespace moonshot::net {

/// Combined outcome of the fault chain for one message copy.
struct FaultVerdict {
  bool drop = false;
  Duration extra_delay = Duration(0);
  int duplicates = 0;  // extra copies delivered on top of the original
};

class ILinkFault {
 public:
  virtual ~ILinkFault() = default;
  /// Inspects one copy about to traverse from -> to and folds its effect
  /// into `v`. Implementations must only use seeded randomness.
  virtual void apply(NodeId from, NodeId to, const Message& m, TimePoint now,
                     FaultVerdict& v) = 0;
};
using LinkFaultPtr = std::shared_ptr<ILinkFault>;

/// Ordered chain of active faults. Every fault sees every copy (even ones an
/// earlier fault already dropped) so that PRNG consumption — and therefore
/// replay determinism — does not depend on which other faults are armed.
class FaultChain {
 public:
  void add(LinkFaultPtr f);
  /// Removes a previously added fault (identity comparison). Returns true if
  /// it was present.
  bool remove(const ILinkFault* f);
  void clear() { faults_.clear(); }
  bool empty() const { return faults_.empty(); }
  std::size_t size() const { return faults_.size(); }

  FaultVerdict apply(NodeId from, NodeId to, const Message& m, TimePoint now) const;

 private:
  std::vector<LinkFaultPtr> faults_;
};

/// A directed link.
struct Link {
  NodeId from = 0;
  NodeId to = 0;
};

/// Symmetric partition: drops every message crossing group boundaries.
/// Nodes not named in any group form one implicit extra group (so
/// `{{3}}` with n=4 isolates node 3 from the other three).
class PartitionFault final : public ILinkFault {
 public:
  PartitionFault(std::size_t n, const std::vector<std::vector<NodeId>>& groups);
  void apply(NodeId from, NodeId to, const Message& m, TimePoint now,
             FaultVerdict& v) override;

 private:
  std::vector<int> group_of_;
};

/// Asymmetric partition: cuts exactly the listed directed links.
class LinkCutFault final : public ILinkFault {
 public:
  explicit LinkCutFault(std::vector<Link> links) : links_(std::move(links)) {}
  void apply(NodeId from, NodeId to, const Message& m, TimePoint now,
             FaultVerdict& v) override;

 private:
  std::vector<Link> links_;
};

/// Probabilistic per-link chaos: with probability p, drop the copy,
/// duplicate it, or add a fixed delay spike. An empty link list matches
/// every link.
class LinkChaosFault final : public ILinkFault {
 public:
  enum class Kind { kDrop, kDuplicate, kDelay };

  LinkChaosFault(Kind kind, double probability, Duration delay, std::vector<Link> links,
                 std::uint64_t seed);
  void apply(NodeId from, NodeId to, const Message& m, TimePoint now,
             FaultVerdict& v) override;

 private:
  bool matches(NodeId from, NodeId to) const;

  Kind kind_;
  double probability_;
  Duration delay_;
  std::vector<Link> links_;
  Prng prng_;
};

/// Drops every copy for which a caller-supplied predicate holds. For filters
/// no structured fault expresses, such as dropping one message type.
class PredicateFault final : public ILinkFault {
 public:
  using Predicate = std::function<bool(NodeId from, NodeId to, const Message&)>;
  explicit PredicateFault(Predicate p) : predicate_(std::move(p)) {}
  void apply(NodeId from, NodeId to, const Message& m, TimePoint now,
             FaultVerdict& v) override;

 private:
  Predicate predicate_;
};

}  // namespace moonshot::net
