// Violation flight recorder.
//
// When a chaos or model-checking oracle latches (safety fork, liveness
// stall, conformance breach), the run's observability state is about to be
// torn down with the process — this module snapshots it first, as two
// sibling files. The JSON one is the machine-readable record
// (moonshot-flight-v1): the failure reason, a replayable reproducer command,
// the registry's metrics, the tail of the merged event stream, the last-N
// lifecycle spans, and the critical-path attribution of every block that
// still committed. The text one is the postmortem for humans, rendered from
// the same in-memory state by the critpath, timeline and Prometheus
// printers; nothing else is needed to start a postmortem.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace moonshot::obs {

class Registry;

struct FlightContext {
  std::string reason;      // oracle that latched ("safety: commit fork …")
  std::vector<std::string> violations;  // full violation strings
  std::string protocol;    // protocol tag ("pm")
  std::string schedule;    // fault schedule, chaos grammar
  std::string repro;       // command line that reproduces the run
  std::uint64_t seed = 0;
  std::size_t nodes = 0;
  double delta_ms = 0.0;
  TimePoint trigger{};     // sim time when the oracle latched
};

struct FlightConfig {
  std::size_t max_events = 2048;  // tail of the merged stream
  std::size_t max_spans = 256;    // tail of the span graph
};

/// The text sibling of a JSON recording path: a trailing ".json" becomes
/// ".txt"; any other path gets ".txt" appended.
std::string flight_text_path(const std::string& path);

/// Writes the JSON recording to `path` and the rendered postmortem to
/// flight_text_path(path); returns false when either file cannot be written.
/// `tracer` and `registry` may be null — the corresponding sections are
/// emitted empty.
bool write_flight_recording(const std::string& path, const FlightContext& ctx,
                            const Tracer* tracer, const Registry* registry,
                            const FlightConfig& cfg = {});

}  // namespace moonshot::obs
