// Golden files for the human-facing trace analyses: the critical-path table
// (print_critpath), the span graph's Graphviz export (write_span_dot) and the
// per-view timeline with its span lanes (print_timeline). Two seeded runs
// in the fixed-δ setting `trace_tool --fixed-delay-ms 100` uses: a Commit
// Moonshot run with every event retained, and a Pipelined Moonshot run whose
// 64-event rings have wrapped, so early views survive only in part. A drift
// means the analysis or the traced event stream changed; regenerate
// deliberately with
//
//   MOONSHOT_UPDATE_GOLDEN=1 ./build/tests/test_obs --gtest_filter=AnalysisGolden.*
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "harness/experiment.hpp"
#include "obs/critpath.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace moonshot {
namespace {

#ifndef MOONSHOT_OBS_TEST_DIR
#error "MOONSHOT_OBS_TEST_DIR must point at tests/obs (set in tests/CMakeLists.txt)"
#endif

constexpr auto kFixedDelay = milliseconds(100);

std::string capture(const std::function<void(std::FILE*)>& write) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  write(f);
  std::fflush(f);
  const long size = std::ftell(f);
  std::rewind(f);
  std::string out(static_cast<std::size_t>(size), '\0');
  EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
  std::fclose(f);
  return out;
}

// Runs one traced world and renders the three analyses, one section each.
std::string render_analyses(ProtocolKind protocol, Duration duration,
                            std::size_t ring_capacity) {
  obs::TracerConfig tcfg;
  tcfg.ring_capacity = ring_capacity;
  obs::Tracer tracer(4, tcfg);
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.n = 4;
  cfg.seed = 1;
  cfg.delta = milliseconds(500);
  cfg.duration = duration;
  cfg.net.matrix = net::LatencyMatrix::uniform(kFixedDelay);
  cfg.net.regions_used = 1;
  cfg.net.jitter = 0.0;
  cfg.tracer = &tracer;
  run_experiment(cfg);

  const std::vector<obs::Event> merged = tracer.merged();
  const obs::LifecycleIndex index = obs::build_lifecycle_index(merged, 4);
  const obs::CritPathReport report = obs::analyze_critical_path(index);
  const obs::SpanGraph graph = obs::build_span_graph(index);
  std::string out = "==== critpath ====\n";
  out += capture([&](std::FILE* f) { obs::print_critpath(report, kFixedDelay, f); });
  out += "==== dot ====\n";
  out += capture([&](std::FILE* f) { obs::write_span_dot(graph, f); });
  out += "==== timeline ====\n";
  out += capture([&](std::FILE* f) { obs::print_timeline(merged, index, f); });
  return out;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return {};
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void check_against_golden(const std::string& got, const std::string& path) {
  ASSERT_FALSE(got.empty());
  // Every span starts inside its view's root, so no DOT offset is negative.
  EXPECT_EQ(got.find("+-"), std::string::npos) << "negative span offset";
  if (std::getenv("MOONSHOT_UPDATE_GOLDEN")) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << "cannot write " << path;
    std::fwrite(got.data(), 1, got.size(), f);
    std::fclose(f);
    GTEST_SKIP() << "golden file regenerated at " << path;
  }
  const std::string want = read_file(path);
  ASSERT_FALSE(want.empty()) << "missing golden file " << path
                             << " — regenerate with MOONSHOT_UPDATE_GOLDEN=1";
  if (got != want) {
    std::size_t line = 1, i = 0;
    while (i < got.size() && i < want.size() && got[i] == want[i]) {
      if (got[i] == '\n') ++line;
      ++i;
    }
    FAIL() << "analysis output drifted from " << path << " at line " << line
           << "; if the change is intentional, regenerate with "
              "MOONSHOT_UPDATE_GOLDEN=1";
  }
}

TEST(AnalysisGolden, CommitMoonshotFixedDeltaMatchesGolden) {
  check_against_golden(
      render_analyses(ProtocolKind::kCommitMoonshot, milliseconds(1000), 1 << 16),
      MOONSHOT_OBS_TEST_DIR "/golden/analysis_cm_n4.txt");
}

TEST(AnalysisGolden, PipelinedMoonshotRingWrappedMatchesGolden) {
  check_against_golden(
      render_analyses(ProtocolKind::kPipelinedMoonshot, milliseconds(3000), 64),
      MOONSHOT_OBS_TEST_DIR "/golden/analysis_pm_n4_ring64.txt");
}

}  // namespace
}  // namespace moonshot
