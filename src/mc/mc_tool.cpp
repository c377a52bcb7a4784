// mc_explore — command-line front-end for the systematic state-space explorer.
//
// Model-check a protocol in 30 seconds:
//   mc_explore --protocol pm                      # exhaustive smoke budget
//   mc_explore --protocol pm --strategy random --traces 500 --depth 40
//   mc_explore --mutation double-vote --expect-violation --shrink
//   mc_explore --replay cex.txt --protocol pm
//
// Exit codes: 0 = no violation (or expected one found), 1 = violation (or an
// expected one missed), 2 = usage error.
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "exec/world_runner.hpp"
#include "mc/explorer.hpp"
#include "support/mutations.hpp"

namespace {

using namespace moonshot;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --protocol sm|pm|cm|jolteon|hotstuff   protocol to explore (default pm)\n"
      << "  --strategy exhaustive|random           exploration strategy\n"
      << "  --traces N        trace budget\n"
      << "  --depth N         choice points per trace\n"
      << "  --seed N          random-strategy seed\n"
      << "  --timers N        early timer-fire budget per trace\n"
      << "  --byzantine N     active equivocators (highest node ids)\n"
      << "  --adversary NODE:STRATEGY[:FROM-TO]  explicit adversary placement\n"
      << "                    (repeatable; see adversary/spec.hpp for names)\n"
      << "  --adversary-pool s1,s2,...  random strategy only: sample one\n"
      << "                    strategy per byzantine node from this pool each trace\n"
      << "  --leaders a,b,c   explicit leader rotation\n"
      << "  --no-liveness     skip natural-tail liveness checks\n"
      << "  --mutation NAME   arm a seeded bug and use its tuned probe config\n"
      << "                    (mutation-validation builds only)\n"
      << "  --expect-violation  exit 0 iff a violation IS found\n"
      << "  --shrink          ddmin the counterexample before printing\n"
      << "  --jobs N          worker lanes (\"auto\" = all cores, default 1);\n"
      << "                    stdout is byte-identical for every N (stderr log\n"
      << "                    lines from speculative traces may differ)\n"
      << "  --replay FILE     replay a counterexample schedule instead of exploring\n"
      << "  --cex FILE        write the (shrunk) counterexample schedule to FILE\n"
      << "  --flight FILE     on violation write a flight recording (JSON) to FILE\n"
      << "                    and its rendered postmortem to FILE's .txt sibling\n"
      << "  --list-mutations  print the mutation catalogue and exit\n";
  return 2;
}

void print_stats(const mc::McStats& st) {
  std::cout << "traces=" << st.traces << " choices=" << st.choices
            << " events=" << st.events << " deduped=" << st.states_deduped
            << " sleep-skips=" << st.sleep_skips << " liveness-checks="
            << st.liveness_checks << " max-depth=" << st.max_depth_seen
            << (st.budget_exhausted ? " (budget exhausted)" : "") << "\n";
}

void print_violation(const mc::Violation& v) {
  std::cout << "VIOLATION [" << mc::violation_kind_name(v.kind) << "] " << v.detail
            << "\n  digest: " << std::hex << v.digest << std::dec
            << "\n  schedule (" << v.schedule.events.size() << " choices):\n";
  std::cout << v.schedule.to_string();
}

}  // namespace

int main(int argc, char** argv) {
  mc::McConfig cfg;
  bool have_strategy = false, have_traces = false, have_depth = false,
       have_timers = false, no_liveness = false;
  bool expect_violation = false, do_shrink = false;
  std::string replay_path, cex_path, flight_path;
  Mutation mutation = Mutation::kNone;
  bool have_mutation = false;
  unsigned jobs = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--protocol") {
      const char* v = next();
      const auto p = v ? parse_protocol_tag(v) : std::nullopt;
      if (!p) return usage(argv[0]);
      cfg.protocol = *p;
    } else if (a == "--strategy") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      if (std::strcmp(v, "exhaustive") == 0) cfg.strategy = mc::Strategy::kExhaustive;
      else if (std::strcmp(v, "random") == 0) cfg.strategy = mc::Strategy::kRandom;
      else return usage(argv[0]);
      have_strategy = true;
    } else if (a == "--traces") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.max_traces = std::stoull(v);
      have_traces = true;
    } else if (a == "--depth") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.max_depth = std::stoull(v);
      have_depth = true;
    } else if (a == "--seed") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.seed = std::stoull(v);
    } else if (a == "--timers") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.max_timer_injections = std::stoull(v);
      have_timers = true;
    } else if (a == "--byzantine") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.byzantine = std::stoull(v);
    } else if (a == "--adversary") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      std::stringstream ss(v);
      std::string node, strat, range;
      if (!std::getline(ss, node, ':') || !std::getline(ss, strat, ':')) {
        return usage(argv[0]);
      }
      adversary::AdversarySpec sp;
      sp.node = static_cast<NodeId>(std::stoul(node));
      sp.strategy = strat;
      if (!adversary::known_strategy(sp.strategy)) {
        std::cerr << "unknown adversary strategy: " << sp.strategy << "\n";
        return 2;
      }
      if (std::getline(ss, range, ':')) {
        const auto dash = range.find('-');
        if (dash == std::string::npos) return usage(argv[0]);
        sp.view_from = std::stoull(range.substr(0, dash));
        sp.view_to = std::stoull(range.substr(dash + 1));
      }
      cfg.adversaries.push_back(std::move(sp));
    } else if (a == "--adversary-pool") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      std::stringstream ss(v);
      std::string tok;
      cfg.adversary_pool.clear();
      while (std::getline(ss, tok, ',')) {
        if (tok.empty()) continue;
        if (!adversary::known_strategy(tok)) {
          std::cerr << "unknown adversary strategy: " << tok << "\n";
          return 2;
        }
        cfg.adversary_pool.push_back(tok);
      }
    } else if (a == "--leaders") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      std::stringstream ss(v);
      std::string tok;
      cfg.leader_order.clear();
      while (std::getline(ss, tok, ',')) {
        cfg.leader_order.push_back(static_cast<NodeId>(std::stoul(tok)));
      }
    } else if (a == "--jobs") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      jobs = exec::parse_jobs(v);
      if (jobs == 0) return usage(argv[0]);
    } else if (a == "--no-liveness") {
      no_liveness = true;
    } else if (a == "--mutation") {
      const char* v = next();
      const Mutation m = v ? parse_mutation(v) : Mutation::kCount;
      if (m == Mutation::kCount || m == Mutation::kNone) {
        std::cerr << "unknown mutation; --list-mutations prints the catalogue\n";
        return 2;
      }
      mutation = m;
      have_mutation = true;
    } else if (a == "--expect-violation") {
      expect_violation = true;
    } else if (a == "--shrink") {
      do_shrink = true;
    } else if (a == "--replay") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      replay_path = v;
    } else if (a == "--cex") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cex_path = v;
    } else if (a == "--flight") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      flight_path = v;
    } else if (a == "--list-mutations") {
      for (std::size_t m = 1; m < static_cast<std::size_t>(Mutation::kCount); ++m) {
        std::cout << mutation_name(static_cast<Mutation>(m)) << "\n";
      }
      return 0;
    } else {
      return usage(argv[0]);
    }
  }

  if (have_mutation) {
    if (!mutations_compiled()) {
      std::cerr << "this binary was built without -DMOONSHOT_MUTATIONS=ON\n";
      return 2;
    }
    // Start from the tuned probe for this mutation, then layer explicit flags.
    mc::McConfig probe = mc::mutation_probe_config(mutation, cfg.protocol);
    probe.protocol = cfg.protocol;
    if (have_strategy) probe.strategy = cfg.strategy;
    if (have_traces) probe.max_traces = cfg.max_traces;
    if (have_depth) probe.max_depth = cfg.max_depth;
    if (have_timers) probe.max_timer_injections = cfg.max_timer_injections;
    if (!cfg.leader_order.empty()) probe.leader_order = cfg.leader_order;
    cfg = probe;
    cfg.mutation = mutation;
  } else if (!have_strategy && !have_traces && !have_depth) {
    const mc::McConfig smoke = mc::smoke_config(cfg.protocol);
    const auto keep_leaders = cfg.leader_order;
    const auto keep_byz = cfg.byzantine;
    const auto keep_seed = cfg.seed;
    const auto keep_advs = cfg.adversaries;
    const auto keep_pool = cfg.adversary_pool;
    cfg = smoke;
    if (!keep_leaders.empty()) cfg.leader_order = keep_leaders;
    cfg.byzantine = keep_byz;
    cfg.seed = keep_seed;
    cfg.adversaries = keep_advs;
    cfg.adversary_pool = keep_pool;
  }
  if (no_liveness) cfg.check_liveness = false;
  cfg.flight_path = flight_path;
  // Applied after the smoke/probe merge overwrote cfg wholesale.
  cfg.jobs = jobs;

  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::cerr << "cannot open " << replay_path << "\n";
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const auto sched = chaos::FaultSchedule::parse(buf.str());
    if (!sched) {
      std::cerr << "cannot parse schedule in " << replay_path << "\n";
      return 2;
    }
    const mc::Violation v = mc::replay(cfg, *sched);
    if (v) {
      print_violation(v);
      return expect_violation ? 0 : 1;
    }
    std::cout << "replay: no violation\n";
    return expect_violation ? 1 : 0;
  }

  std::cout << "exploring " << protocol_name(cfg.protocol) << " ("
            << mc::strategy_name(cfg.strategy) << ", depth " << cfg.max_depth
            << ", traces " << cfg.max_traces;
  if (have_mutation) std::cout << ", mutation " << mutation_name(mutation);
  std::cout << ")\n";

  mc::McResult res = mc::explore(cfg);
  print_stats(res.stats);

  if (res.ok()) {
    std::cout << "no violation found\n";
    return expect_violation ? 1 : 0;
  }

  mc::Violation v = res.violation;
  if (do_shrink) {
    const chaos::FaultSchedule small = mc::shrink(cfg, v);
    std::cout << "shrunk " << v.schedule.events.size() << " -> "
              << small.events.size() << " choices\n";
    mc::Violation replayed = mc::replay(cfg, small);
    if (replayed.kind == v.kind) {
      v = replayed;
    }
  } else if (!flight_path.empty()) {
    // Exploration itself doesn't record; one replay of the counterexample
    // reproduces the violation and snapshots it as a postmortem.
    mc::replay(cfg, v.schedule);
  }
  print_violation(v);
  if (!cex_path.empty()) {
    std::ofstream out(cex_path);
    out << v.schedule.to_string();
    std::cout << "counterexample written to " << cex_path << "\n";
  }
  return expect_violation ? 0 : 1;
}
