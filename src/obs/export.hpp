// Trace exporters: JSONL, Chrome trace_event JSON, terminal timeline.
// The timeline's span lanes read the lifecycle index (lifecycle.hpp).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "obs/lifecycle.hpp"

namespace moonshot::obs {

/// One JSON object per line, fixed key order — the golden-file format.
/// `node` is -1 for environment events.
std::string to_jsonl(const std::vector<Event>& events);

/// Chrome trace_event JSON ({"traceEvents": [...]}), loadable in
/// chrome://tracing / Perfetto. Events become instants on pid = node
/// (pid = `nodes` for the environment); view_enter/view_exit pairs
/// additionally become complete ("X") spans so views render as bars.
void write_chrome_trace(const std::vector<Event>& events, std::size_t nodes,
                        std::FILE* out);

/// Per-view terminal timeline: chronological event listing with a separator
/// each time the maximum entered view advances. Each separator carries a
/// counter track (view entries via QC vs TC, timeouts fired,
/// retransmissions) and the view's span lanes: per-node recv/vote/qc/commit
/// offsets from the view's earliest stamp, read off `index` (built from the
/// same `events`). Truncated at `max_events`.
void print_timeline(const std::vector<Event>& events, const LifecycleIndex& index,
                    std::FILE* out, std::size_t max_events = 400);

}  // namespace moonshot::obs
