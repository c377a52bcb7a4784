// Critical-path commit-latency attribution.
//
// Reads the per-view lifecycle index (lifecycle.hpp), the one the span
// graph, the timeline lanes and the flight recorder read too. For every
// block the observer commits, walks the causal chain *backwards* from the
// commit to the view's proposal multicast and attributes the whole commit
// latency λ = committed − proposed to named, non-overlapping
// segments. Each walk step moves the cursor from one trace stamp to the
// stamp that causally enabled it, so consecutive segments share endpoints
// and the segment durations telescope: they sum to λ exactly (the sim is
// discrete, so "exactly" means to the tick).
//
// Segment vocabulary (paper mapping in §III/§IV):
//   propose_flight   leader's multicast → critical voter receives it (≈1δ)
//   retransmit_stall same flight, but a timeout retransmission was needed
//   vote_gate        proposal receipt → vote cast (processing, usually ~0)
//   vote_flight      critical vote cast → aggregator receives it (≈1δ;
//                    the slowest-quorum link)
//   cert_aggregation alias of vote_flight's tail when the QC formed later
//                    than the last vote arrived (never in this sim)
//   cert_relay       certificate formed elsewhere → observed via a message
//   cert_wait        vote/proposal gated on holding a previous certificate
//   propose_gate     optimistic handoff: leader of v+1 proposes upon voting
//                    in v (the ω = δ pipelining edge, ~0 long)
//   commit_rule      triggering certificate → commit applied (~0)
//   unattributed     missing stamps (ring wrap, crashes); clamps to λ
//
// The report also carries the block period ω: the gaps between adjacent
// views' first proposal multicasts (≈1δ with optimistic proposals, §IV).
//
// The per-view bound check compares measured λ against the paper's predicted
// cδ·δ + cω·ω form (3δ for the Moonshots/pipelined two-chain, 2δ+ω for
// Commit Moonshot, 5δ Jolteon, 7δ chained HotStuff) with a configurable
// tolerance for modelled processing costs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/hist.hpp"
#include "obs/lifecycle.hpp"

namespace moonshot::obs {

enum class SegmentKind : std::uint8_t {
  kProposeFlight,
  kRetransmitStall,
  kVoteGate,
  kVoteFlight,
  kCertRelay,
  kCertWait,
  kProposeGate,
  kCommitRule,
  kUnattributed,
};
constexpr std::size_t kSegmentKindCount =
    static_cast<std::size_t>(SegmentKind::kUnattributed) + 1;

const char* segment_kind_name(SegmentKind k);

struct Segment {
  SegmentKind kind{};
  View view = 0;        // view whose lifecycle this step belongs to
  NodeId from = kNoNode;  // acting endpoint at segment start
  NodeId to = kNoNode;    // acting endpoint at segment end
  TimePoint start{};
  TimePoint end{};

  Duration duration() const { return end - start; }
};

struct BlockPath {
  View view = 0;
  Height height = 0;
  TimePoint proposed{};
  TimePoint committed{};
  bool complete = false;       // walk reached the proposal with no gaps
  bool timeout_on_path = false;  // a timeout fired in a walked view
  std::vector<Segment> segments;  // chronological; endpoints telescope

  Duration latency() const { return committed - proposed; }
  Duration attributed() const;  // sum of segment durations
};

struct CritPathReport {
  NodeId observer = 0;
  std::vector<BlockPath> blocks;  // committed blocks, view order
  Histogram by_kind[kSegmentKindCount];  // nonzero segment durations
  Histogram latency;                     // λ of complete paths
  /// ω samples: gaps between the first proposal multicasts of views v and
  /// v+1. Only adjacent views contribute, so timeout gaps don't skew it.
  Histogram period;
};

/// Runs the backward walk for every block the observer committed.
CritPathReport analyze_critical_path(const LifecycleIndex& index,
                                     NodeId observer = 0);

/// Paper latency bound λ ≤ cδ·δ + cω·ω.
struct LatencyBound {
  double delta_mult = 3.0;
  double omega_mult = 0.0;
};

/// Bound for a protocol tag ("sm", "pm", "cm", "j"/"jolteon",
/// "hs"/"hotstuff"); defaults to 3δ for unknown tags.
LatencyBound paper_bound(const std::string& protocol_tag);

struct BoundViolation {
  View view = 0;
  Duration measured{};
  Duration bound{};
  Duration over{};  // measured − allowed (bound scaled by tolerance + slack)
};

/// Checks every complete path against `bound` evaluated at (delta, omega).
/// `tolerance` is a multiplicative allowance for modelled processing costs
/// (signature checks, per-KB serialization) and `slack` an absolute one.
std::vector<BoundViolation> check_bounds(const CritPathReport& report,
                                         const LatencyBound& bound,
                                         Duration delta, Duration omega,
                                         double tolerance = 0.05,
                                         Duration slack = milliseconds(1));

/// Per-block breakdown table plus per-kind aggregates; δ > 0 adds
/// δ-multiples.
void print_critpath(const CritPathReport& report, Duration delta,
                    std::FILE* out);

/// The short form: block count, ω and λ against the paper's targets (ω = δ
/// and `bound` for λ) as δ-multiples, then the segment aggregates.
void print_latency_summary(const CritPathReport& report,
                           const LatencyBound& bound, Duration delta,
                           std::FILE* out);

/// One line per violation (empty list prints a "0 violations" summary).
void print_bound_check(const std::vector<BoundViolation>& violations,
                       const LatencyBound& bound, Duration delta,
                       Duration omega, std::size_t blocks_checked,
                       std::FILE* out);

}  // namespace moonshot::obs
