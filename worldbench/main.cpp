// world_bench: what one whole world costs, end to end and per layer.
//
//   world_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//
// Untraced (--trace 0), it builds fresh worlds of the workload until S
// seconds are used, checks each, and prints the end-to-end metrics as
// medians over the worlds. Traced (--trace 1), it alternates untraced worlds
// with decorator-traced twins, throws out any twin whose fingerprint or
// commit count differs, and prints the per-layer split. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. Exit 1
// when a correctness check failed, 2 on bad usage, 3 from a build that
// measures a different program (Debug, sanitizers, no NDEBUG).
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "obs/trace.hpp"
#include "probe.hpp"
#include "worlds.hpp"

namespace worldbench {
namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};
using Metrics = std::vector<Metric>;

/// FNV-1a digests of each workload's digest text at seed 1, as printed by
/// `world_bench --workload <name> --seed 1`. A change that moves any
/// simulated output of these worlds must regenerate them on purpose.
struct Pinned {
  const char* workload;
  std::uint64_t digest;
};
constexpr Pinned kPinned[] = {
    {"pm-n200-wan", 0x80f76d2240fda971ull},
    {"pm-n50-ed25519", 0x664b8aa6882e8f7bull},
    {"cm-n100-wj-wal", 0xb1fc16d1f350ce2bull},
};

// Set-ups sampled before the worlds: this many, or as many as fit.
constexpr std::size_t kSetupSamples = 101;
constexpr double kSetupSeconds = 2.0;
constexpr std::size_t kMinWorlds = 3;  // untraced worlds per run
constexpr std::size_t kMinPairs = 2;   // untraced/traced pairs per traced run

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

/// A Debug, sanitizer or assert-enabled build measures a different program.
const char* unfit_build() {
  if (std::strcmp(WORLDBENCH_BUILD_TYPE, "Debug") == 0) return "Debug build";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "sanitizer build";
#endif
#endif
#ifndef NDEBUG
  return "build without NDEBUG";
#endif
  return nullptr;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<double> each(const std::vector<WorldRun>& runs, double (*f)(const WorldRun&)) {
  std::vector<double> v;
  for (const WorldRun& r : runs) v.push_back(f(r));
  return v;
}

/// The CPUs this process may run on, at most four.
std::vector<int> lane_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE && cpus.size() < 4; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown: one unpinned lane
  return cpus;
}

/// Untraced simulated worlds side by side, one lane pinned to each CPU,
/// until `seconds` after `t0`. The slowdowns of a shared VM hit each CPU
/// independently, so pooling lanes steadies the medians; each lane runs at
/// least its share of kMinWorlds.
std::vector<WorldRun> run_lanes(const SimSpec& spec, Clock::time_point t0, double seconds) {
  const std::vector<int> cpus = lane_cpus();
  const std::size_t min_per_lane = (kMinWorlds + cpus.size() - 1) / cpus.size();
  std::vector<std::vector<WorldRun>> per_lane(cpus.size());
  std::vector<std::exception_ptr> errors(cpus.size());
  {
    std::vector<std::thread> lanes;
    for (std::size_t k = 0; k < cpus.size(); ++k) {
      lanes.emplace_back([&, k] {
        try {
          if (cpus[k] >= 0) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[k], &one);
            pthread_setaffinity_np(pthread_self(), sizeof one, &one);
          }
          std::vector<WorldRun>& mine = per_lane[k];
          double step = 0;
          while (mine.size() < min_per_lane || seconds_since(t0) + step <= seconds) {
            const auto tw = Clock::now();
            mine.push_back(run_sim_untraced(spec));
            step = seconds_since(tw);
          }
        } catch (...) {
          errors[k] = std::current_exception();
        }
      });
    }
    for (std::thread& t : lanes) t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<WorldRun> all;
  for (std::vector<WorldRun>& lane : per_lane) {
    for (WorldRun& w : lane) all.push_back(std::move(w));
  }
  return all;
}

/// The per-layer split of one traced world. Self times partition the loop:
/// a layer's self time is its calls' time minus the calls it makes into
/// the layers below (consensus calls net and crypto), and sim.self_s is what
/// the scheduler loop spent outside handle() and outside top-level net and
/// crypto calls — its own bookkeeping plus timer bodies. As that residual
/// closes the sum, no unattributed time is reported.
///
/// Every time reported here is nonzero on every workload. Work a workload
/// may not do at all (a message type, signature checks, WAL replay) is
/// reported as a count and as a share of a nonzero time instead.
Metrics layer_metrics(const WorldRun& w) {
  const LayerInputs& in = *w.traced;
  const Probe& p = in.probe;
  const double handle = p.handle_total_s();
  const std::uint64_t handles = p.handle_total_calls();
  const double consensus_self = handle - p.send_in_handle_s - p.crypto_in_handle_s;
  const double net_top = p.send_s - p.send_in_handle_s;
  const double crypto_top = p.crypto_s() - p.crypto_in_handle_s;
  const double sim_self = w.loop_s - handle - net_top - crypto_top;
  const double crypto = p.crypto_s();

  Metrics m;
  const auto add = [&](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };
  add("sim.events", static_cast<double>(w.events), "count");
  add("sim.self_s", sim_self, "s");
  add("sim.pending_max", static_cast<double>(p.pending_max), "count");
  add("sim.loop_share", ratio(sim_self, w.loop_s), "ratio");

  add("net.send_calls", static_cast<double>(p.send_calls), "count");
  add("net.send_s", p.send_s, "s");
  add("net.us_per_send", ratio(p.send_s * 1e6, static_cast<double>(p.send_calls)), "us");
  add("net.copies", static_cast<double>(in.net.messages_delivered), "count");
  add("net.bytes_sent", static_cast<double>(in.net.bytes_sent), "B");
  add("net.dropped_ratio",
      ratio(static_cast<double>(in.net.messages_dropped),
            static_cast<double>(in.net.messages_delivered + in.net.messages_dropped)),
      "ratio");
  add("net.loop_share", ratio(p.send_s, w.loop_s), "ratio");

  for (std::size_t t = 0; t < kMessageTypes; ++t) {
    add(std::string("consensus.handle_calls.") + moonshot::obs::message_type_label(t),
        static_cast<double>(p.handle_calls[t]), "count");
  }
  for (std::size_t t = 0; t < kMessageTypes; ++t) {
    add(std::string("consensus.handle_share.") + moonshot::obs::message_type_label(t),
        ratio(p.handle_s[t], handle), "ratio");
  }
  add("consensus.handle_s", handle, "s");
  add("consensus.self_s", consensus_self, "s");
  add("consensus.us_per_handle", ratio(handle * 1e6, static_cast<double>(handles)), "us");
  add("consensus.cert_cache_hit_ratio",
      ratio(static_cast<double>(in.cert_cache_hits),
            static_cast<double>(in.cert_cache_hits + in.cert_cache_misses)),
      "ratio");
  constexpr std::size_t kVote = 3;  // VoteMsg's index in the Message variant
  add("consensus.vote_dup_ratio",
      ratio(static_cast<double>(in.vote_duplicates), static_cast<double>(p.handle_calls[kVote])),
      "ratio");
  add("consensus.view_changes", static_cast<double>(in.view_changes), "count");
  add("consensus.timeouts_fired", static_cast<double>(in.timeouts_fired), "count");
  add("consensus.loop_share", ratio(consensus_self, w.loop_s), "ratio");

  add("crypto.sign_calls", static_cast<double>(p.sign_calls), "count");
  add("crypto.sign_s", p.sign_s, "s");
  add("crypto.verify_calls", static_cast<double>(p.verify_calls), "count");
  add("crypto.batch_calls", static_cast<double>(p.batch_calls), "count");
  add("crypto.batch_items", static_cast<double>(p.batch_items), "count");
  add("crypto.self_s", crypto, "s");
  add("crypto.us_per_op",
      ratio(crypto * 1e6, static_cast<double>(p.sign_calls + p.verify_calls + p.batch_items)),
      "us");
  add("crypto.verify_share", ratio(p.verify_s, crypto), "ratio");
  add("crypto.batch_share", ratio(p.batch_s, crypto), "ratio");
  add("crypto.loop_share", ratio(crypto, w.loop_s), "ratio");

  add("wal.appends", static_cast<double>(in.wal.appends), "count");
  add("wal.bytes", static_cast<double>(in.wal.bytes_appended), "B");
  add("wal.syncs", static_cast<double>(in.wal.syncs), "count");
  add("wal.snapshots", static_cast<double>(in.wal.snapshots), "count");
  add("wal.recover_calls", static_cast<double>(in.recover_calls), "count");
  add("wal.recover_share", ratio(in.recover_s, w.world_s), "ratio");
  add("wal.replayed_records", static_cast<double>(in.wal.replayed_records), "count");

  add("ledger.commits", static_cast<double>(in.ledger_commits), "count");
  add("ledger.block_store_max", static_cast<double>(in.block_store_max), "count");
  add("ledger.commit_log_max", static_cast<double>(in.commit_log_max), "count");

  add("harness.keygen_s", in.keygen_s, "s");
  add("harness.result_s", w.result_s, "s");
  add("harness.teardown_s", w.teardown_s, "s");
  return m;
}

/// Per-metric medians over the traced worlds (all share one name list).
Metrics median_layers(const std::vector<WorldRun>& traced) {
  std::vector<Metrics> per_world;
  for (const WorldRun& w : traced) per_world.push_back(layer_metrics(w));
  Metrics out = per_world.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> v;
    for (const Metrics& m : per_world) v.push_back(m[i].value);
    out[i].value = median(std::move(v));
  }
  return out;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed, const Metrics& m) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", m[i].value);
    s += (i ? ", \"" : "\"") + m[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         m[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  bool tiny = false;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0;
}

int run(const Options& o) {
  const auto sim = sim_spec(o.workload, o.seed, o.tiny);
  if (!sim) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  std::printf("stamp nproc=%u cpu=\"%s\" compiler=\"%s\" build_type=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(), WORLDBENCH_COMPILER,
              WORLDBENCH_BUILD_TYPE);
  std::printf("workload %s seed=%llu seconds=%g trace=%d%s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
              o.tiny ? " tiny" : "");

  const auto t0 = Clock::now();
  std::vector<double> setups;
  while (setups.size() < kSetupSamples && seconds_since(t0) < kSetupSeconds) {
    setups.push_back(setup_sim(*sim));
  }

  // Whole worlds until the time is used: a world starts only if it is
  // expected to finish in time, once the minimum is met. Untraced, a solo
  // world gives the peak RSS of one world, then the timed worlds run side by
  // side, one lane per CPU (see run_lanes). Traced, untraced/traced pairs
  // run one after the other.
  std::vector<WorldRun> plain, traced;
  plain.push_back(run_sim_untraced(*sim));
  const double peak_rss = peak_rss_mb();
  if (!o.trace) {
    std::vector<WorldRun> lanes = run_lanes(*sim, t0, o.seconds);
    for (WorldRun& w : lanes) plain.push_back(std::move(w));
  } else {
    while (true) {
      const auto tw = Clock::now();
      if (plain.size() > traced.size()) {
        traced.push_back(run_sim_traced(*sim));
      } else {
        plain.push_back(run_sim_untraced(*sim));
        traced.push_back(run_sim_traced(*sim));
      }
      const double step = seconds_since(tw);
      if (traced.size() >= kMinPairs && seconds_since(t0) + step > o.seconds) break;
    }
  }
  // Timing samples: the solo world ran under other conditions than the
  // lanes and only feeds the checks.
  const std::vector<WorldRun> timed(plain.begin() + (o.trace ? 0 : 1), plain.end());
  const auto show = [](const char* kind, const WorldRun& w) {
    std::printf("%s fp=%016llx committed=%llu loop_s=%.4f world_s=%.4f\n", kind,
                static_cast<unsigned long long>(w.fingerprint),
                static_cast<unsigned long long>(w.committed), w.loop_s, w.world_s);
  };
  for (const WorldRun& w : plain) show("world", w);
  for (const WorldRun& w : traced) show("twin", w);

  // Correctness: every world safe and live, all worlds agree on their
  // digest and, at seed 1, match the pinned value; so traced twins
  // reproduce the untraced fingerprint and commit count.
  std::size_t failed = 0;
  std::string first_digest;
  std::uint64_t pinned = 0;
  for (const Pinned& p : kPinned) {
    if (o.workload == p.workload && o.seed == 1 && !o.tiny) pinned = p.digest;
  }
  const auto check = [&](const WorldRun& w, const char* kind) {
    if (first_digest.empty()) first_digest = w.digest_text;
    const bool ok = w.consistent && w.committed > 0 && w.digest_text == first_digest &&
                    (pinned == 0 || fnv1a(w.digest_text) == pinned);
    if (!ok) {
      std::printf("FAILED %s world: consistent=%d committed=%llu digest=%s\n", kind,
                  w.consistent ? 1 : 0, static_cast<unsigned long long>(w.committed),
                  w.digest_text.c_str());
    }
    failed += ok ? 0 : 1;
    return ok;
  };
  for (const WorldRun& w : plain) check(w, "untraced");
  std::vector<WorldRun> kept;
  for (WorldRun& w : traced) {
    if (check(w, "traced")) kept.push_back(std::move(w));
  }
  std::printf("digest %016llx %s\n", static_cast<unsigned long long>(fnv1a(first_digest)),
              first_digest.c_str());
  if (pinned == 0) std::printf("digest not pinned for this seed: worlds of the run must agree\n");
  const std::size_t attempted = plain.size() + traced.size();
  std::printf("worlds untraced=%zu traced=%zu failed=%zu failed_ratio=%.4f\n", plain.size(),
              traced.size(), failed, ratio(static_cast<double>(failed), attempted));

  const double loop_med = median(each(timed, [](const WorldRun& w) { return w.loop_s; }));
  const double wall_per_sim_s = loop_med / sim->cfg.duration.count() * 1e9;

  Metrics m;
  if (!o.trace) {
    m.push_back({"world_wall_s",
                 median(each(timed, [](const WorldRun& w) { return w.world_s; })), "s"});
    m.push_back({"setup_s", median(setups), "s"});
    m.push_back({"us_per_msg", median(each(timed, [](const WorldRun& w) {
                   return ratio(w.loop_s * 1e6, static_cast<double>(w.copies));
                 })), "us"});
    m.push_back({"commits_per_s", median(each(timed, [](const WorldRun& w) {
                   return ratio(static_cast<double>(w.committed), w.loop_s);
                 })), "1/s"});
    m.push_back({"peak_rss_mb", peak_rss, "MB"});
    std::printf("info wall_per_sim_s=%.6f s/s\n", wall_per_sim_s);
  } else if (kept.empty()) {
    std::printf("no traced world reproduced its untraced twin\n");
  } else {
    m = median_layers(kept);
    const double traced_loop = median(each(kept, [](const WorldRun& w) { return w.loop_s; }));
    const double events = static_cast<double>(plain.front().events);
    m.push_back({"sim.events_per_s", ratio(events, loop_med), "1/s"});
    m.push_back({"sim.wall_per_sim_s", wall_per_sim_s, "s/s"});
    m.push_back({"trace.overhead_ratio", ratio(traced_loop, loop_med) - 1.0, "ratio"});
  }
  for (const Metric& x : m) std::printf("metric %-36s %.6g %s\n", x.name.c_str(), x.value, x.unit);

  const bool correct = failed == 0 && !m.empty();
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace worldbench

int main(int argc, char** argv) {
  if (const char* why = worldbench::unfit_build()) {
    std::fprintf(stderr, "world_bench: refusing to measure a %s\n", why);
    return 3;
  }
  worldbench::Options o;
  if (!worldbench::parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: world_bench --workload <name> [--seed N] [--seconds S] "
                 "[--trace 0|1] [--tiny]\n");
    return 2;
  }
  return worldbench::run(o);
}
