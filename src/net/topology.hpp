// WAN topology: regions and inter-region latencies.
//
// Encodes Table II of the paper — observed round-trip latencies between the
// five AWS regions used in the evaluation (us-east-1, us-west-1, eu-north-1,
// ap-northeast-1, ap-southeast-2). One-way propagation is modelled as half
// the observed round trip. The table's "523" entry for us-east-1 to itself
// is an obvious misprint of 5.23 ms (every other self-latency is 3.7–6 ms)
// and is encoded as 5.23.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "support/time.hpp"
#include "types/ids.hpp"

namespace moonshot::net {

using RegionId = std::uint32_t;

class LatencyMatrix {
 public:
  /// Builds a matrix from round-trip milliseconds; rows = source regions.
  LatencyMatrix(std::vector<std::string> region_names,
                std::vector<std::vector<double>> rtt_ms);

  /// The paper's five-region AWS matrix (Table II).
  static const LatencyMatrix& aws5();

  /// A uniform matrix: every pair (including self) has the given one-way
  /// latency. Used by unit tests that reason in exact multiples of δ.
  static LatencyMatrix uniform(Duration one_way, std::size_t regions = 1);

  std::size_t regions() const { return names_.size(); }
  const std::string& name(RegionId r) const { return names_.at(r); }

  /// One-way propagation latency from region a to region b.
  Duration one_way(RegionId a, RegionId b) const;
  /// The observed round trip (as reported in Table II).
  double rtt_ms(RegionId a, RegionId b) const { return rtt_ms_.at(a).at(b); }

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<double>> rtt_ms_;
};

/// Assigns nodes to regions. The paper distributes nodes evenly across the
/// five regions in contiguous id ranges per region, matching how its
/// deployment launched per-region instance groups.
class RegionAssignment {
 public:
  RegionAssignment(std::size_t nodes, std::size_t regions)
      : nodes_(nodes), regions_(regions) {}

  RegionId region_of(NodeId id) const {
    const std::size_t per = (nodes_ + regions_ - 1) / regions_;
    return static_cast<RegionId>(std::min(id / per, regions_ - 1));
  }
  std::size_t nodes() const { return nodes_; }
  std::size_t regions() const { return regions_; }

 private:
  std::size_t nodes_;
  std::size_t regions_;
};

}  // namespace moonshot::net
