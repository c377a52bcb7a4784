// Declarative placement of one active-Byzantine node: which node misbehaves,
// which strategy it runs, over which view range, and with what parameters.
//
// Specs are the lingua franca of the adversary stack: ExperimentConfig takes
// a list of them, chaos schedules serialize them as `adv(...)` events, and
// the mc explorer samples them as Twins-style placement choices. A node may
// carry several specs (disjoint view ranges → different behaviours over the
// run); outside every bound range it falls back to honest mimicry.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "support/time.hpp"
#include "types/ids.hpp"

namespace moonshot::adversary {

struct AdversarySpec {
  NodeId node = kNoNode;
  /// One of strategy_names(): "equivocate", "silent", "delay", "partial",
  /// "fork", "stale", "timeout-equiv", "withhold", "badsig", "future-flood".
  std::string strategy = "equivocate";
  /// Active view range [view_from, view_to]; view_to == 0 means unbounded.
  View view_from = 1;
  View view_to = 0;
  /// DelayedRelease hold-back before the proposal leaves; 0 = 2Δ default
  /// (still under the 3Δ view timer, so no view change is triggered).
  Duration delay = Duration(0);
  /// PartialBroadcast recipient count; 0 = f+1 default.
  std::size_t subset = 0;

  bool active_at(View v) const {
    return v >= view_from && (view_to == 0 || v <= view_to);
  }

  friend bool operator==(const AdversarySpec& a, const AdversarySpec& b) = default;
};

/// All registered strategy names, in canonical order (the order the chaos
/// generator and the mc placement search draw from).
const std::vector<std::string>& strategy_names();
bool known_strategy(std::string_view name);

}  // namespace moonshot::adversary
