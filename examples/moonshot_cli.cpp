// moonshot_cli — run any experiment the library supports from the command
// line. The downstream user's swiss-army knife:
//
//   moonshot_cli --protocol pm --n 50 --payload 1800 --duration 20
//   moonshot_cli --protocol j --n 100 --crashed 33 --schedule wj --delta-ms 500
//   moonshot_cli --protocol cm --n 10 --net lan --tx-rate 500
//   moonshot_cli --help
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/experiment.hpp"

namespace {

using namespace moonshot;

void usage() {
  std::printf(
      "usage: moonshot_cli [options]\n"
      "  --protocol sm|pm|cm|j|hs   protocol (default pm)\n"
      "  --n <int>                  network size (default 4)\n"
      "  --payload <bytes>          synthetic payload per block (default 0)\n"
      "  --duration <seconds>       simulated run length (default 10)\n"
      "  --delta-ms <ms>            protocol Delta (default 500)\n"
      "  --schedule rr|b|wm|wj      leader schedule (default rr)\n"
      "  --crashed <int>            crash-silent nodes (default 0)\n"
      "  --equivocate               faulty nodes equivocate instead of crashing\n"
      "  --net wan|lan              Table II WAN or uniform 5ms LAN (default wan)\n"
      "  --seed <int>               determinism seed (default 1)\n"
      "  --tx-rate <tx/s>           track end-to-end transaction latency\n"
      "  --ed25519                  real Ed25519 signatures\n"
      "  --aggregate                threshold-style certificates\n"
      "  --lso                      leader-speaks-once variant\n"
      "  --no-opt-proposal          disable optimistic proposals (ablation)\n"
      "  --aggregator-votes         unicast votes to next leader (ablation)\n"
      "  --backoff                  exponential pacemaker backoff\n");
}

bool parse_schedule(const char* s, ScheduleKind* out) {
  const std::string v(s);
  if (v == "rr") *out = ScheduleKind::kRoundRobin;
  else if (v == "b") *out = ScheduleKind::kB;
  else if (v == "wm") *out = ScheduleKind::kWM;
  else if (v == "wj") *out = ScheduleKind::kWJ;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig cfg;
  cfg.duration = seconds(10);
  bool lan = false;

  for (int i = 1; i < argc; ++i) {
    const auto is = [&](const char* flag) { return std::strcmp(argv[i], flag) == 0; };
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (is("--help") || is("-h")) {
      usage();
      return 0;
    } else if (is("--protocol")) {
      const auto p = parse_protocol_tag(value());
      if (!p) {
        std::fprintf(stderr, "unknown protocol\n");
        return 2;
      }
      cfg.protocol = *p;
    } else if (is("--n")) {
      cfg.n = static_cast<std::size_t>(std::atoll(value()));
    } else if (is("--payload")) {
      cfg.payload_size = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (is("--duration")) {
      cfg.duration = Duration(static_cast<std::int64_t>(std::atof(value()) * 1e9));
    } else if (is("--delta-ms")) {
      cfg.delta = milliseconds(std::atoll(value()));
    } else if (is("--schedule")) {
      if (!parse_schedule(value(), &cfg.schedule)) {
        std::fprintf(stderr, "unknown schedule\n");
        return 2;
      }
    } else if (is("--crashed")) {
      cfg.crashed = static_cast<std::size_t>(std::atoll(value()));
    } else if (is("--equivocate")) {
      cfg.fault_kind = FaultKind::kEquivocate;
    } else if (is("--net")) {
      lan = std::string(value()) == "lan";
    } else if (is("--seed")) {
      cfg.seed = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (is("--tx-rate")) {
      cfg.tx_rate = std::atof(value());
    } else if (is("--ed25519")) {
      cfg.use_ed25519 = true;
      cfg.verify_signatures = true;
    } else if (is("--aggregate")) {
      cfg.aggregate_certificates = true;
    } else if (is("--lso")) {
      cfg.lso_mode = true;
    } else if (is("--no-opt-proposal")) {
      cfg.enable_opt_proposal = false;
    } else if (is("--aggregator-votes")) {
      cfg.multicast_votes = false;
    } else if (is("--backoff")) {
      cfg.timeout_backoff = true;
    } else {
      std::fprintf(stderr, "unknown option %s (try --help)\n", argv[i]);
      return 2;
    }
  }

  if (lan) {
    cfg.net.matrix = net::LatencyMatrix::uniform(milliseconds(5), 1);
    cfg.net.regions_used = 1;
  }

  std::printf("protocol=%s n=%zu payload=%llu duration=%.1fs delta=%.0fms schedule=%s "
              "faulty=%zu(%s) net=%s seed=%llu\n",
              protocol_name(cfg.protocol), cfg.n,
              static_cast<unsigned long long>(cfg.payload_size), to_seconds(cfg.duration),
              to_ms(cfg.delta), schedule_name(cfg.schedule), cfg.crashed,
              cfg.fault_kind == FaultKind::kCrash ? "crash" : "equivocate",
              lan ? "lan-5ms" : "aws5-wan", static_cast<unsigned long long>(cfg.seed));

  const auto r = run_experiment(cfg);
  std::printf("\nblocks committed  : %llu (%.2f blocks/s)\n",
              static_cast<unsigned long long>(r.summary.committed_blocks),
              r.summary.blocks_per_sec);
  std::printf("commit latency    : avg %.1f ms, p50 %.1f ms, p90 %.1f ms\n",
              r.summary.avg_latency_ms, r.summary.p50_latency_ms, r.summary.p90_latency_ms);
  std::printf("transfer rate     : %.1f kB/s\n", r.summary.transfer_rate_bps / 1e3);
  std::printf("views reached     : %llu\n", static_cast<unsigned long long>(r.max_view));
  std::printf("network           : %llu msgs, %.1f MB sent\n",
              static_cast<unsigned long long>(r.net_stats.messages_sent),
              static_cast<double>(r.net_stats.bytes_sent) / 1e6);
  if (cfg.tx_rate > 0) {
    std::printf("transactions      : %llu submitted, %llu committed, e2e avg %.1f ms "
                "(p90 %.1f ms)\n",
                static_cast<unsigned long long>(r.tx.submitted),
                static_cast<unsigned long long>(r.tx.committed), r.tx.avg_e2e_ms,
                r.tx.p90_e2e_ms);
  }
  std::printf("cross-node safety : %s\n", r.logs_consistent ? "consistent" : "VIOLATED");
  return r.logs_consistent ? 0 : 1;
}
