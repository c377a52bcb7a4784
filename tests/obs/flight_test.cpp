// Flight recorder: the JSON record and its rendered text sibling, plus golden
// files pinning both. The recording is produced from a small deterministic
// traced run, so the goldens are byte-stable across machines; regenerate
// deliberately with MOONSHOT_UPDATE_GOLDEN=1.
#include "obs/flight.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "harness/experiment.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace moonshot {
namespace {

#ifndef MOONSHOT_OBS_TEST_DIR
#error "MOONSHOT_OBS_TEST_DIR must point at tests/obs (set in tests/CMakeLists.txt)"
#endif

constexpr const char* kGoldenFlight = MOONSHOT_OBS_TEST_DIR "/golden/flight.json";
constexpr const char* kGoldenFlightText = MOONSHOT_OBS_TEST_DIR "/golden/flight.txt";

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

// A short deterministic traced run: enough views for spans and a critical
// path, small enough that the golden stays readable.
void run_traced(obs::Tracer& tracer) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.n = 4;
  cfg.delta = milliseconds(200);
  cfg.duration = milliseconds(800);
  cfg.seed = 1;
  cfg.net.matrix = net::LatencyMatrix::uniform(milliseconds(50), 1);
  cfg.net.regions_used = 1;
  cfg.net.jitter = 0.0;
  cfg.net.adversarial_before_gst = false;
  cfg.tracer = &tracer;
  run_experiment(cfg);
}

obs::FlightContext make_context() {
  obs::FlightContext ctx;
  ctx.reason = "safety: commit fork at height 3";
  ctx.violations = {"safety: commit fork at height 3",
                    "conformance: node 2 voted twice in view 5"};
  ctx.protocol = "pm";
  ctx.schedule = "part(200-600;1)";
  ctx.repro = "chaos_fuzz --protocol pm --n 4 --seed 1 --schedule 'part(200-600;1)'";
  ctx.seed = 1;
  ctx.nodes = 4;
  ctx.delta_ms = 200.0;
  ctx.trigger = TimePoint::zero() + milliseconds(800);
  return ctx;
}

TEST(Flight, WriteRendersTextPostmortem) {
  obs::Tracer tracer(4);
  run_traced(tracer);
  obs::Registry reg;
  reg.set_time(TimePoint::zero() + milliseconds(800));
  reg.counter("view_change_total", "views beyond happy path",
              {{"protocol", "pm"}})
      .inc(2);
  reg.gauge("throughput_blocks_per_sec", "committed blocks/s").set(4.5);

  const std::string path = testing::TempDir() + "flight_roundtrip.json";
  ASSERT_TRUE(obs::write_flight_recording(path, make_context(), &tracer, &reg));

  const std::string text_path = obs::flight_text_path(path);
  const std::string text = read_file(text_path);
  EXPECT_NE(text.find("safety: commit fork at height 3"), std::string::npos);
  EXPECT_NE(text.find("protocol pm, n=4, seed 1, delta 200.0ms"),
            std::string::npos);
  EXPECT_NE(text.find("schedule: part(200-600;1)"), std::string::npos);
  EXPECT_NE(text.find("violations (2):"), std::string::npos);
  EXPECT_NE(text.find("node 2 voted twice in view 5"), std::string::npos);
  EXPECT_NE(text.find("view_change_total{protocol=\"pm\"} 2"), std::string::npos);
  EXPECT_NE(text.find("critical path ("), std::string::npos);
  EXPECT_NE(text.find("spans captured:"), std::string::npos);
  EXPECT_NE(text.find("event tail (last 20 of"), std::string::npos);
  std::remove(path.c_str());
  std::remove(text_path.c_str());
}

TEST(Flight, RenderedTextKeepsFullSeed) {
  // 2^53 + 1 has no exact double: the text must print the integers as such.
  obs::FlightContext ctx = make_context();
  ctx.seed = 9007199254740993ULL;
  ctx.trigger = TimePoint{(std::int64_t{1} << 53) + 1};
  const std::string path = testing::TempDir() + "flight_seed.json";
  ASSERT_TRUE(obs::write_flight_recording(path, ctx, nullptr, nullptr));
  const std::string text_path = obs::flight_text_path(path);
  const std::string text = read_file(text_path);
  EXPECT_NE(text.find("seed 9007199254740993,"), std::string::npos) << text;
  EXPECT_NE(text.find("(9007199254740993ns)"), std::string::npos) << text;
  std::remove(path.c_str());
  std::remove(text_path.c_str());
}

TEST(Flight, TextPathReplacesTrailingJsonSuffix) {
  EXPECT_EQ(obs::flight_text_path("out/flight.json"), "out/flight.txt");
  EXPECT_EQ(obs::flight_text_path("flight"), "flight.txt");
  EXPECT_EQ(obs::flight_text_path("flight.json.bak"), "flight.json.bak.txt");
}

TEST(Flight, UnwritablePathReturnsFalse) {
  EXPECT_FALSE(obs::write_flight_recording(
      testing::TempDir() + "no-such-dir/flight.json", make_context(), nullptr,
      nullptr));
}

TEST(Flight, NullTracerAndRegistryEmitEmptySections) {
  const std::string path = testing::TempDir() + "flight_empty.json";
  ASSERT_TRUE(obs::write_flight_recording(path, make_context(), nullptr, nullptr));
  const std::string doc = read_file(path);
  EXPECT_NE(doc.find("\"metrics\": [\n  ]"), std::string::npos);
  EXPECT_NE(doc.find("\"events\": [\n  ]"), std::string::npos);
  const std::string text_path = obs::flight_text_path(path);
  const std::string text = read_file(text_path);
  // An empty recording still renders its header.
  EXPECT_NE(text.find("reason:   safety: commit fork at height 3"),
            std::string::npos);
  EXPECT_EQ(text.find("--- metrics"), std::string::npos);
  EXPECT_EQ(text.find("event tail"), std::string::npos);
  std::remove(path.c_str());
  std::remove(text_path.c_str());
}

TEST(Flight, TailLimitsKeepLastNEventsAndSpans) {
  obs::Tracer tracer(4);
  run_traced(tracer);
  obs::FlightConfig small;
  small.max_events = 16;
  small.max_spans = 8;
  const std::string path = testing::TempDir() + "flight_small.json";
  ASSERT_TRUE(
      obs::write_flight_recording(path, make_context(), &tracer, nullptr, small));
  const std::string doc = read_file(path);
  // Count array elements by their invariant keys.
  std::size_t events = 0, spans = 0;
  for (std::size_t p = doc.find("{\"t\":"); p != std::string::npos;
       p = doc.find("{\"t\":", p + 1))
    ++events;
  for (std::size_t p = doc.find("{\"id\":"); p != std::string::npos;
       p = doc.find("{\"id\":", p + 1))
    ++spans;
  EXPECT_EQ(events, 16u);
  EXPECT_EQ(spans, 8u);
  // The tail keeps the *latest* events: the final commit must be present.
  EXPECT_NE(doc.find("\"kind\":\"commit\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Flight, DocumentMatchesGolden) {
  obs::Tracer tracer(4);
  run_traced(tracer);
  obs::Registry reg;
  reg.set_time(TimePoint::zero() + milliseconds(800));
  reg.counter("view_change_total", "views beyond happy path",
              {{"protocol", "pm"}})
      .inc(2);

  obs::FlightConfig small;
  small.max_events = 64;
  small.max_spans = 32;
  const std::string path = testing::TempDir() + "flight_golden.json";
  ASSERT_TRUE(
      obs::write_flight_recording(path, make_context(), &tracer, &reg, small));
  const std::string text_path = obs::flight_text_path(path);
  const std::string got = read_file(path);
  const std::string got_text = read_file(text_path);
  std::remove(path.c_str());
  std::remove(text_path.c_str());
  ASSERT_FALSE(got.empty());
  ASSERT_FALSE(got_text.empty());

  if (std::getenv("MOONSHOT_UPDATE_GOLDEN")) {
    for (const auto& [golden, content] :
         {std::pair{kGoldenFlight, &got}, std::pair{kGoldenFlightText, &got_text}}) {
      std::FILE* f = std::fopen(golden, "wb");
      ASSERT_NE(f, nullptr) << "cannot write " << golden;
      std::fwrite(content->data(), 1, content->size(), f);
      std::fclose(f);
    }
    GTEST_SKIP() << "golden files regenerated at " << kGoldenFlight << " and "
                 << kGoldenFlightText;
  }

  const std::string want = read_file(kGoldenFlight);
  ASSERT_FALSE(want.empty()) << "missing golden file " << kGoldenFlight
                             << " — regenerate with MOONSHOT_UPDATE_GOLDEN=1";
  EXPECT_EQ(got, want) << "flight recording format drifted; if intentional, "
                          "regenerate with MOONSHOT_UPDATE_GOLDEN=1";
  const std::string want_text = read_file(kGoldenFlightText);
  ASSERT_FALSE(want_text.empty()) << "missing golden file " << kGoldenFlightText
                                  << " — regenerate with MOONSHOT_UPDATE_GOLDEN=1";
  EXPECT_EQ(got_text, want_text) << "flight postmortem text drifted; if "
                                    "intentional, regenerate with "
                                    "MOONSHOT_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace moonshot
