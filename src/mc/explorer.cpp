#include "mc/explorer.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "chaos/shrink.hpp"
#include "exec/world_runner.hpp"
#include "obs/flight.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"
#include "support/fnv.hpp"
#include "support/prng.hpp"

namespace moonshot::mc {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kExhaustive: return "exhaustive";
    case Strategy::kRandom: return "random";
  }
  return "?";
}

const char* violation_kind_name(ViolationKind v) {
  switch (v) {
    case ViolationKind::kNone: return "none";
    case ViolationKind::kCommitFork: return "commit-fork";
    case ViolationKind::kLogDivergence: return "log-divergence";
    case ViolationKind::kLiveness: return "liveness";
  }
  return "?";
}

namespace {

/// Natural-tail length for liveness checks, in multiples of delta.
constexpr std::int64_t kLivenessTailDeltas = 64;

/// Digest over (kind, detail). Both safety violation kinds latch at their
/// first occurrence and liveness details are deterministic functions of the
/// replayed prefix, so explore-time and replay-time digests match.
std::uint64_t violation_digest(ViolationKind kind, const std::string& detail) {
  std::uint64_t h = kFnv1aOffsetBasis;
  fnv1a_fold(h, static_cast<std::uint64_t>(kind));
  for (const char c : detail) fnv1a_fold(h, static_cast<std::uint8_t>(c));
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Arms the requested seeded bug for the lifetime of one exploration and
/// always disarms on exit (the registry is process-global).
class MutationGuard {
 public:
  explicit MutationGuard(Mutation m) {
#ifdef MOONSHOT_MUTATIONS
    set_active_mutation(m);
#else
    MOONSHOT_INVARIANT(m == Mutation::kNone,
                       "mutation probe requested in a non-mutations build");
#endif
  }
  ~MutationGuard() {
#ifdef MOONSHOT_MUTATIONS
    set_active_mutation(Mutation::kNone);
#endif
  }
  MutationGuard(const MutationGuard&) = delete;
  MutationGuard& operator=(const MutationGuard&) = delete;
};

/// A canonical scheduling choice. Identified not by TaskId (which differs
/// across rebuilt executions) but by content — (kind, receiver, sender,
/// wire type) — plus an ordinal among frontier entries with the same key in
/// (time, seq) order. The same choice prefix replayed against a fresh world
/// deterministically resolves to the same events.
struct Choice {
  char kind = 'd';  // 'd' delivery, 't' timer
  std::uint32_t to = 0;
  std::uint32_t from = 0;
  std::uint32_t type = 0;
  std::uint32_t ordinal = 0;

  std::tuple<char, std::uint32_t, std::uint32_t, std::uint32_t> key() const {
    return {kind, to, from, type};
  }
  bool operator==(const Choice& o) const {
    return kind == o.kind && to == o.to && from == o.from && type == o.type &&
           ordinal == o.ordinal;
  }
};

/// Sleep-set independence: two choices commute when they drive different
/// receivers — each handler mutates only its own node's state, and the new
/// events either schedules are disjoint. (Per-node state digests make the
/// resulting states compare equal under either order.)
bool independent(const Choice& a, const Choice& b) { return a.to != b.to; }

bool contains(const std::vector<Choice>& v, const Choice& c) {
  return std::find(v.begin(), v.end(), c) != v.end();
}

chaos::FaultSchedule to_schedule(const std::vector<Choice>& path) {
  chaos::FaultSchedule s;
  s.events.reserve(path.size());
  for (std::size_t i = 0; i < path.size(); ++i) {
    const Choice& c = path[i];
    chaos::FaultEvent e;
    e.type = chaos::FaultType::kMcChoice;
    // Zero-width, stamped with the choice index (ms) purely for ordering and
    // readability; replay matches events sequentially against the frontier.
    e.start = e.end = TimePoint{static_cast<std::int64_t>(i) * 1'000'000};
    e.mc_kind = c.kind;
    e.mc_to = c.to;
    e.mc_from = c.from;
    e.mc_type = c.type;
    e.mc_ordinal = c.ordinal;
    s.events.push_back(std::move(e));
  }
  return s;
}

/// The complete adversary world of a config: explicit placements plus the
/// byzantine-equivocator sugar, as specs.
std::vector<adversary::AdversarySpec> world_adversaries(const McConfig& cfg) {
  std::vector<adversary::AdversarySpec> out = cfg.adversaries;
  for (std::size_t k = 0; k < cfg.byzantine; ++k) {
    adversary::AdversarySpec sp;  // default strategy: equivocate
    sp.node = static_cast<NodeId>(cfg.n - 1 - k);
    out.push_back(std::move(sp));
  }
  return out;
}

/// Prepends the adversary world to a counterexample as zero-width adv()
/// events, making the schedule self-contained: replay() rebuilds the exact
/// placements from the schedule, not from the caller's flags.
chaos::FaultSchedule with_adversaries(chaos::FaultSchedule s,
                                      const std::vector<adversary::AdversarySpec>& specs) {
  std::vector<chaos::FaultEvent> evs;
  for (const adversary::AdversarySpec& sp : specs) {
    chaos::FaultEvent e;
    e.type = chaos::FaultType::kAdversary;
    e.start = e.end = TimePoint{0};
    e.nodes.push_back(sp.node);
    e.adv_strategy = sp.strategy;
    e.adv_view_from = sp.view_from;
    e.adv_view_to = sp.view_to;
    e.delay = sp.delay;
    e.adv_subset = sp.subset;
    evs.push_back(std::move(e));
  }
  s.events.insert(s.events.begin(), evs.begin(), evs.end());
  return s;
}

/// One execution of the small world under explorer control: an Experiment on
/// a uniform 1 ms LAN with zero jitter and zero processing cost, a tolerant
/// commit log (forks latch instead of aborting), and a private tracer whose
/// per-node digests provide the dedup state key. Deterministic: rebuilding a
/// Run and applying the same choice prefix reproduces the same state.
class Run {
 public:
  explicit Run(const McConfig& cfg)
      : cfg_(cfg), tracer_(cfg.n, obs::TracerConfig{/*ring_capacity=*/512}) {
    ExperimentConfig e;
    e.protocol = cfg.protocol;
    e.n = cfg.n;
    e.delta = cfg.delta;
    e.duration = seconds(3600);  // never used: the explorer drives manually
    e.seed = cfg.seed;
    e.leader_order = cfg.leader_order;
    if (cfg.byzantine > 0) {
      e.crashed = cfg.byzantine;
      e.fault_kind = FaultKind::kEquivocate;
    }
    e.adversaries = cfg.adversaries;
    e.net.matrix = net::LatencyMatrix::uniform(milliseconds(1), 1);
    e.net.regions_used = 1;
    e.net.jitter = 0.0;
    e.net.bandwidth_bps = 1e12;
    e.net.tcp_window_bytes = 0;
    e.net.proc_base = Duration(0);
    e.net.proc_sig = Duration(0);
    e.net.proc_cert = Duration(0);
    e.net.proc_per_kb = Duration(0);
    e.verify_signatures = false;
    e.tolerant_commit_log = true;
    e.sample_queue_depth = false;
    e.tracer = &tracer_;
    exp_ = std::make_unique<Experiment>(std::move(e));
    exp_->start();
    drain();
  }

  /// Faulty = equivocator sugar + framework adversary placements; oracles
  /// judge the honest remainder only.
  bool is_honest(NodeId id) const { return !exp_->is_faulty(id); }
  std::uint64_t events_run() const { return exp_->scheduler().events_executed(); }
  std::uint64_t state_digest() const { return tracer_.state_digest(); }
  Experiment& experiment() { return *exp_; }
  const obs::Tracer& tracer() const { return tracer_; }

  /// The enabled tagged events, canonicalized with per-key ordinals.
  std::vector<Choice> enabled() const {
    std::vector<Choice> out;
    for (const auto& [c, id] : frontier_choices()) out.push_back(c);
    return out;
  }

  /// Runs the tagged event matching `c`, then drains bookkeeping. With
  /// `lenient`, an exact ordinal miss falls back to the lowest-ordinal event
  /// with the same key, and a complete miss is a no-op (shrunk schedules
  /// legitimately drop prerequisite events).
  bool apply(const Choice& c, bool lenient = false) {
    sim::TaskId id = 0;
    for (const auto& [f, task] : frontier_choices()) {
      if (f == c) {
        id = task;
        break;
      }
      if (lenient && id == 0 && f.key() == c.key()) id = task;
    }
    if (id == 0) return false;
    exp_->scheduler().run_task(id);
    drain();
    return true;
  }

  /// Safety oracles, checked after every choice. Both latch: a CommitLog
  /// fork is recorded permanently, and commit logs are append-only so the
  /// first cross-node divergence point never changes.
  Violation check_safety() const {
    Violation v;
    for (NodeId id = 0; id < cfg_.n; ++id) {
      if (!is_honest(id)) continue;
      const CommitLog& log = exp_->node(id).commit_log();
      if (log.fork_detected()) {
        v.kind = ViolationKind::kCommitFork;
        std::ostringstream os;
        os << "node " << id << ": " << log.fork_detail();
        v.detail = os.str();
        v.digest = violation_digest(v.kind, v.detail);
        return v;
      }
    }
    for (NodeId i = 0; i < cfg_.n; ++i) {
      if (!is_honest(i)) continue;
      for (NodeId j = i + 1; j < cfg_.n; ++j) {
        if (!is_honest(j)) continue;
        const auto& a = exp_->node(i).commit_log().blocks();
        const auto& b = exp_->node(j).commit_log().blocks();
        const std::size_t common = std::min(a.size(), b.size());
        for (std::size_t h = 0; h < common; ++h) {
          if (a[h]->id() == b[h]->id()) continue;
          v.kind = ViolationKind::kLogDivergence;
          std::ostringstream os;
          os << "nodes " << i << "/" << j << " diverge at height " << (h + 1) << ": "
             << hex16(obs::id_prefix(a[h]->id())) << " vs "
             << hex16(obs::id_prefix(b[h]->id()));
          v.detail = os.str();
          v.digest = violation_digest(v.kind, v.detail);
          return v;
        }
      }
    }
    return v;
  }

  /// Liveness oracle: after the explored prefix, a fault-free natural tail
  /// must resynchronize views and grow every honest commit log. Consumes the
  /// run (the tail executes tagged events in natural order).
  Violation run_tail_and_check() {
    std::vector<std::size_t> before(cfg_.n, 0);
    for (NodeId id = 0; id < cfg_.n; ++id)
      if (is_honest(id)) before[id] = exp_->node(id).commit_log().size();

    sim::Scheduler& s = exp_->scheduler();
    s.run_until(s.now() + cfg_.delta * kLivenessTailDeltas);

    // Safety first: a latched fork discovered during the tail outranks any
    // liveness judgement.
    if (Violation v = check_safety()) return v;

    Violation v;
    for (NodeId id = 0; id < cfg_.n; ++id) {
      if (!is_honest(id)) continue;
      if (exp_->node(id).commit_log().size() > before[id]) continue;
      v.kind = ViolationKind::kLiveness;
      std::ostringstream os;
      os << "node " << id << ": no commit growth in a "
         << kLivenessTailDeltas << "-delta fault-free tail (stuck at "
         << before[id] << " blocks, view " << exp_->node(id).current_view() << ")";
      v.detail = os.str();
      v.digest = violation_digest(v.kind, v.detail);
      return v;
    }
    View lo = 0, hi = 0;
    bool first = true;
    for (NodeId id = 0; id < cfg_.n; ++id) {
      if (!is_honest(id)) continue;
      const View view = exp_->node(id).current_view();
      if (first || view < lo) lo = view;
      if (first || view > hi) hi = view;
      first = false;
    }
    if (hi > lo + 2) {
      v.kind = ViolationKind::kLiveness;
      std::ostringstream os;
      os << "honest views failed to synchronize after the tail: spread [" << lo << ", "
         << hi << "]";
      v.detail = os.str();
      v.digest = violation_digest(v.kind, v.detail);
    }
    return v;
  }

 private:
  /// Eagerly runs all deterministic bookkeeping so the frontier holds only
  /// tagged choice points.
  void drain() { exp_->scheduler().run_internal(); }

  /// The tagged frontier events in frontier order, each as its canonical
  /// (kind, to, from, type, ordinal) choice with the task that runs it.
  std::vector<std::pair<Choice, sim::TaskId>> frontier_choices() const {
    std::map<std::tuple<char, std::uint32_t, std::uint32_t, std::uint32_t>, std::uint32_t>
        counts;
    std::vector<std::pair<Choice, sim::TaskId>> out;
    for (const sim::PendingEvent& pe : exp_->scheduler().frontier()) {
      if (pe.tag.kind == sim::EventTag::Kind::kInternal) continue;
      Choice c;
      c.kind = pe.tag.kind == sim::EventTag::Kind::kTimer ? 't' : 'd';
      c.to = pe.tag.node;
      if (c.kind == 'd') {
        c.from = pe.tag.peer;
        c.type = pe.tag.type;
      }
      c.ordinal = counts[c.key()]++;
      out.emplace_back(c, pe.id);
    }
    return out;
  }

  McConfig cfg_;
  obs::Tracer tracer_;
  std::unique_ptr<Experiment> exp_;
};

bool quiescent(const std::vector<Choice>& choices) {
  return std::none_of(choices.begin(), choices.end(),
                      [](const Choice& c) { return c.kind == 'd'; });
}

std::size_t timers_in(const std::vector<Choice>& path) {
  return static_cast<std::size_t>(
      std::count_if(path.begin(), path.end(), [](const Choice& c) { return c.kind == 't'; }));
}

// --- exhaustive DFS with sleep sets + state dedup ---------------------------

struct Frame {
  std::vector<Choice> choices;
  std::size_t next = 0;
  std::vector<Choice> sleep;     // inherited: skip without exploring
  std::vector<Choice> explored;  // fully explored at this frame
};

/// One DFS over the ordering tree whose root frame offers `root_choices`
/// (explore_exhaustive passes one first choice per shard; an empty list
/// makes the root itself the only leaf). `trace_budget` bounds the leaves
/// this DFS may visit.
McResult explore_exhaustive_impl(const McConfig& cfg, std::vector<Choice> root_choices,
                                 std::size_t trace_budget) {
  McResult res;
  std::unordered_map<std::uint64_t, std::size_t> visited;  // state digest → min depth
  std::vector<Choice> path;
  std::vector<Frame> stack;

  auto run = std::make_unique<Run>(cfg);
  visited[run->state_digest()] = 0;
  {
    Frame root;
    root.choices = std::move(root_choices);
    stack.push_back(std::move(root));
  }
  // `run` mirrors the state at stack.back() with `path` applied; false after
  // a backtrack or a consumed liveness tail, forcing a rebuild-and-replay.
  bool in_sync = true;

  auto rebuild = [&] {
    res.stats.events += run->events_run();
    run = std::make_unique<Run>(cfg);
    for (const Choice& c : path) {
      const bool ok = run->apply(c);
      MOONSHOT_INVARIANT(ok, "deterministic replay lost a choice");
      ++res.stats.choices;
    }
    in_sync = true;
  };

  auto finish = [&](Violation v) {
    v.schedule = with_adversaries(to_schedule(path), world_adversaries(cfg));
    res.violation = std::move(v);
    res.stats.events += run->events_run();
    return res;
  };

  while (!stack.empty()) {
    if (res.stats.traces >= trace_budget) {
      res.stats.budget_exhausted = true;
      break;
    }
    Frame& f = stack.back();
    while (f.next < f.choices.size() && contains(f.sleep, f.choices[f.next])) {
      ++f.next;
      ++res.stats.sleep_skips;
    }
    const bool at_depth_limit = path.size() >= cfg.max_depth;

    if (f.next >= f.choices.size() || at_depth_limit) {
      // Leaf: every continuation is explored, asleep, or beyond the bound.
      ++res.stats.traces;
      if (cfg.check_liveness && cfg.liveness_sample_every > 0 &&
          res.stats.traces % cfg.liveness_sample_every == 1) {
        if (!in_sync) rebuild();
        ++res.stats.liveness_checks;
        if (Violation v = run->run_tail_and_check()) return finish(std::move(v));
        in_sync = false;  // the tail consumed the run
      }
      stack.pop_back();
      if (!path.empty()) {
        const Choice taken = path.back();
        path.pop_back();
        if (!stack.empty()) stack.back().explored.push_back(taken);
      }
      in_sync = false;
      continue;
    }

    const Choice c = f.choices[f.next++];
    // Timer fires are budgeted while deliveries remain (each models one
    // node's view expiring early); at quiescence they are the only moves.
    if (c.kind == 't' && !quiescent(f.choices) &&
        timers_in(path) >= cfg.max_timer_injections) {
      continue;
    }

    if (!in_sync) rebuild();
    if (!run->apply(c)) continue;  // defensive: should not happen
    ++res.stats.choices;
    path.push_back(c);
    res.stats.max_depth_seen = std::max<std::uint64_t>(res.stats.max_depth_seen, path.size());

    if (Violation v = run->check_safety()) return finish(std::move(v));

    const std::uint64_t digest = run->state_digest();
    if (auto it = visited.find(digest); it != visited.end() && it->second <= path.size()) {
      // Reached a state some other interleaving already covered at least as
      // shallowly: prune this branch.
      ++res.stats.states_deduped;
      path.pop_back();
      stack.back().explored.push_back(c);
      in_sync = false;
      continue;
    }
    visited[digest] = path.size();

    Frame child;
    child.choices = run->enabled();
    for (const Choice& s : stack.back().sleep) {
      if (independent(s, c) && contains(child.choices, s)) child.sleep.push_back(s);
    }
    for (const Choice& s : stack.back().explored) {
      if (independent(s, c) && contains(child.choices, s)) child.sleep.push_back(s);
    }
    stack.push_back(std::move(child));
  }
  res.stats.events += run->events_run();
  return res;
}

/// The root frontier is sharded: one independent DFS per first choice, each
/// with a private visited map and sleep sets and an even split of the trace
/// budget. The shards are pure functions of the config (cfg.jobs only decides
/// how many run at once), so output is byte-identical across jobs values.
/// The lowest-index violating shard wins — deterministic even though a later
/// shard may finish its violation first — and stats sum over shards
/// [0, winner], mirroring the prefix a sequential left-to-right scan of the
/// shards would have accumulated.
McResult explore_exhaustive(const McConfig& cfg) {
  std::vector<Choice> roots;
  {
    Run probe(cfg);
    roots = probe.enabled();
  }
  // With no timer budget, a timer fire is only explorable when nothing else
  // is (inside a shard the single-choice root frame is trivially quiescent,
  // so the gate must be applied here).
  std::vector<Choice> shard_roots;
  const bool quiet = quiescent(roots);
  for (const Choice& c : roots) {
    if (c.kind == 't' && !quiet && cfg.max_timer_injections == 0) continue;
    shard_roots.push_back(c);
  }
  if (shard_roots.empty()) return explore_exhaustive_impl(cfg, {}, cfg.max_traces);

  const std::size_t n = shard_roots.size();
  std::vector<std::size_t> budget(n, cfg.max_traces / n);
  for (std::size_t i = 0; i < cfg.max_traces % n; ++i) ++budget[i];

  std::vector<McResult> shard(n);
  exec::run_worlds(static_cast<unsigned>(cfg.jobs), n, [&](std::size_t i) {
    shard[i] = explore_exhaustive_impl(cfg, {shard_roots[i]}, budget[i]);
  });

  McResult res;
  for (std::size_t i = 0; i < n; ++i) {
    McResult& s = shard[i];
    res.stats.traces += s.stats.traces;
    res.stats.choices += s.stats.choices;
    res.stats.events += s.stats.events;
    res.stats.states_deduped += s.stats.states_deduped;
    res.stats.sleep_skips += s.stats.sleep_skips;
    res.stats.liveness_checks += s.stats.liveness_checks;
    res.stats.max_depth_seen = std::max(res.stats.max_depth_seen, s.stats.max_depth_seen);
    res.stats.budget_exhausted |= s.stats.budget_exhausted;
    if (s.violation) {
      res.violation = std::move(s.violation);
      return res;
    }
  }
  return res;
}

// --- random strategy: deaf-set withholding + timer injection ----------------

/// One sampled trace's contribution to the exploration stats. Everything a
/// sequential scan would have accumulated while running this trace, so the
/// parallel driver can replay the accumulation in index order.
struct TraceOut {
  Violation violation;
  std::uint64_t choices = 0;
  std::uint64_t events = 0;
  std::uint64_t max_depth = 0;
  bool liveness_checked = false;
};

/// Runs random trace `trace` to its leaf (or first violation). A pure
/// function of (cfg, trace): the PRNG stream is derived from the trace index
/// alone, so traces can run concurrently in any order.
TraceOut run_random_trace(const McConfig& cfg, std::size_t trace) {
  TraceOut out;
  Prng rng(cfg.seed * 0x9e3779b97f4a7c15ull + trace + 1);
  // Per-trace strategy sampling: each of the `byzantine` highest ids gets a
  // strategy drawn from the pool, replacing the fixed equivocator sugar for
  // this trace. The draws happen before the deaf-set draws, so traces with
  // an empty pool keep their historical rng stream.
  McConfig tcfg;
  const McConfig* world = &cfg;
  if (!cfg.adversary_pool.empty() && cfg.byzantine > 0) {
    tcfg = cfg;
    tcfg.byzantine = 0;
    for (std::size_t k = 0; k < cfg.byzantine; ++k) {
      adversary::AdversarySpec sp;
      sp.node = static_cast<NodeId>(cfg.n - 1 - k);
      sp.strategy = cfg.adversary_pool[rng.next_below(cfg.adversary_pool.size())];
      tcfg.adversaries.push_back(std::move(sp));
    }
    world = &tcfg;
  }
  Run run(*world);
  std::vector<Choice> path;

  // Twins-style targeted withholding: during a window of choice steps, a
  // random subset of nodes goes "deaf" — deliveries to them are postponed
  // whenever anything else is enabled. Combined with early timer fires this
  // reaches withheld-certificate states (certificates assembled by a
  // minority) that fair orderings never produce.
  std::vector<char> deaf(cfg.n, 0);
  std::size_t w0 = 0, w1 = 0;
  if (rng.next_below(4) != 0) {  // 3 in 4 traces use a deaf window
    const std::size_t k = 1 + rng.next_below(cfg.n > 1 ? cfg.n - 1 : 1);
    for (std::size_t picked = 0; picked < k;) {
      const NodeId id = static_cast<NodeId>(rng.next_below(cfg.n));
      if (!deaf[id]) {
        deaf[id] = 1;
        ++picked;
      }
    }
    w0 = rng.next_below(cfg.max_depth > 1 ? cfg.max_depth / 2 : 1);
    w1 = w0 + 1 + rng.next_below(cfg.max_depth);
  }

  std::size_t timers_used = 0;
  for (std::size_t step = 0; step < cfg.max_depth; ++step) {
    const std::vector<Choice> choices = run.enabled();
    if (choices.empty()) break;
    std::vector<Choice> deliveries, timers, preferred;
    const bool in_window = step >= w0 && step < w1;
    for (const Choice& c : choices) {
      if (c.kind == 't') {
        timers.push_back(c);
        continue;
      }
      deliveries.push_back(c);
      if (!(in_window && deaf[c.to])) preferred.push_back(c);
    }

    Choice c;
    if (deliveries.empty()) {
      if (timers.empty()) break;
      // Quiescent: a timer is the protocol's own next move, not an injection.
      c = timers[rng.next_below(timers.size())];
    } else if (!timers.empty() && timers_used < cfg.max_timer_injections &&
               rng.next_below(8) == 0) {
      c = timers[rng.next_below(timers.size())];
      ++timers_used;
    } else if (!preferred.empty()) {
      c = preferred[rng.next_below(preferred.size())];
    } else if (!timers.empty() && timers_used < cfg.max_timer_injections) {
      // Everything enabled targets a deaf node: fire a timer instead, which
      // is exactly the withholding-then-timeout shape.
      c = timers[rng.next_below(timers.size())];
      ++timers_used;
    } else {
      c = deliveries[rng.next_below(deliveries.size())];
    }

    if (!run.apply(c)) break;
    ++out.choices;
    path.push_back(c);
    out.max_depth = std::max<std::uint64_t>(out.max_depth, path.size());
    if (Violation v = run.check_safety()) {
      v.schedule = with_adversaries(to_schedule(path), world_adversaries(*world));
      out.violation = std::move(v);
      out.events = run.events_run();
      return out;
    }
  }
  // Events are captured before the liveness tail, like the sequential scan
  // always did — the tail's events never count toward the stats.
  out.events = run.events_run();
  if (cfg.check_liveness && cfg.liveness_sample_every > 0 &&
      trace % cfg.liveness_sample_every == 0) {
    out.liveness_checked = true;
    if (Violation v = run.run_tail_and_check()) {
      v.schedule = with_adversaries(to_schedule(path), world_adversaries(*world));
      out.violation = std::move(v);
    }
  }
  return out;
}

/// cfg.jobs <= 1 samples traces one at a time — the sequential scan. cfg.jobs
/// > 1 samples blocks of jobs*4 traces concurrently, then merges in trace
/// order: the lowest-index violating trace wins and the stats stop at it,
/// so the result is byte-identical to the sequential scan (which would have
/// stopped there without ever running the later traces).
McResult explore_random(const McConfig& cfg) {
  McResult res;
  const std::size_t block = cfg.jobs > 1 ? cfg.jobs * 4 : 1;
  for (std::size_t base = 0; base < cfg.max_traces; base += block) {
    const std::size_t count = std::min(block, cfg.max_traces - base);
    std::vector<TraceOut> outs(count);
    exec::run_worlds(static_cast<unsigned>(cfg.jobs), count,
                     [&](std::size_t i) { outs[i] = run_random_trace(cfg, base + i); });
    for (std::size_t i = 0; i < count; ++i) {
      TraceOut& o = outs[i];
      ++res.stats.traces;
      res.stats.choices += o.choices;
      res.stats.events += o.events;
      res.stats.max_depth_seen = std::max(res.stats.max_depth_seen, o.max_depth);
      if (o.liveness_checked) ++res.stats.liveness_checks;
      if (o.violation) {
        res.violation = std::move(o.violation);
        return res;
      }
    }
  }
  return res;
}

}  // namespace

McResult explore(const McConfig& cfg) {
  MutationGuard guard(cfg.mutation);
  switch (cfg.strategy) {
    case Strategy::kExhaustive: return explore_exhaustive(cfg);
    case Strategy::kRandom: return explore_random(cfg);
  }
  return {};
}

Violation replay(const McConfig& cfg, const chaos::FaultSchedule& schedule) {
  MutationGuard guard(cfg.mutation);
  // adv() events in a counterexample define the entire adversary world (the
  // byzantine sugar was folded in when the schedule was emitted), so replay
  // is independent of the caller's placement flags. A schedule without adv()
  // events — hand-written, or shrunk down to none — falls back to the
  // caller's configuration.
  McConfig rcfg = cfg;
  if (std::vector<adversary::AdversarySpec> advs = schedule.adversaries(); !advs.empty()) {
    rcfg.byzantine = 0;
    rcfg.adversaries = std::move(advs);
  }
  Run run(rcfg);
  // Snapshots the run's observability state into a postmortem when an oracle
  // latched during this replay.
  const auto record_flight = [&](const Violation& v) {
    if (cfg.flight_path.empty() || !v) return;
    obs::Registry reg;
    run.experiment().export_metrics(reg);
    obs::FlightContext fctx;
    fctx.reason = std::string(violation_kind_name(v.kind)) + ": " + v.detail;
    fctx.violations = {v.detail};
    fctx.protocol = protocol_cli_tag(cfg.protocol);
    fctx.schedule = schedule.to_string();
    fctx.seed = cfg.seed;
    fctx.nodes = cfg.n;
    fctx.delta_ms = to_ms(cfg.delta);
    fctx.trigger = run.experiment().scheduler().now();
    std::ostringstream repro;
    repro << "mc_explore --protocol " << protocol_cli_tag(cfg.protocol)
          << " --seed " << cfg.seed << " --replay <counterexample-file>";
    if (cfg.mutation != Mutation::kNone) {
      repro << " --mutation " << mutation_name(cfg.mutation);
    }
    fctx.repro = repro.str();
    if (!obs::write_flight_recording(cfg.flight_path, fctx, &run.tracer(), &reg))
      std::fprintf(stderr, "flight: cannot write %s\n", cfg.flight_path.c_str());
  };
  for (const chaos::FaultEvent& e : schedule.events) {
    if (e.type != chaos::FaultType::kMcChoice) continue;
    Choice c;
    c.kind = e.mc_kind == 't' ? 't' : 'd';
    c.to = e.mc_to;
    if (c.kind == 'd') {
      c.from = e.mc_from;
      c.type = e.mc_type;
    }
    c.ordinal = e.mc_ordinal;
    run.apply(c, /*lenient=*/true);
    if (Violation v = run.check_safety()) {
      v.schedule = schedule;
      record_flight(v);
      return v;
    }
  }
  // The natural tail re-checks latched safety and (when configured) judges
  // liveness exactly like exploration does.
  Violation v = run.run_tail_and_check();
  if (v.kind == ViolationKind::kLiveness && !cfg.check_liveness) v = Violation{};
  v.schedule = schedule;
  record_flight(v);
  return v;
}

chaos::FaultSchedule shrink(const McConfig& cfg, const Violation& v,
                            std::size_t max_oracle_calls) {
  // The oracle replays candidates by the hundred; only the caller's final
  // replay should emit a postmortem.
  McConfig probe = cfg;
  probe.flight_path.clear();
  const chaos::ShrinkOracle oracle = [&](const chaos::FaultSchedule& candidate) {
    return replay(probe, candidate).kind == v.kind;
  };
  const unsigned jobs = cfg.jobs > 1 ? static_cast<unsigned>(cfg.jobs) : 1;
  return chaos::shrink_schedule(v.schedule, oracle, max_oracle_calls, jobs).schedule;
}

McConfig smoke_config(ProtocolKind p) {
  McConfig cfg;
  cfg.protocol = p;
  cfg.strategy = Strategy::kExhaustive;
  cfg.max_depth = 10;
  cfg.max_traces = 600;
  cfg.max_timer_injections = 1;
  cfg.check_liveness = true;
  cfg.liveness_sample_every = 64;
  return cfg;
}

McConfig mutation_probe_config(Mutation m, ProtocolKind p) {
  McConfig cfg;
  cfg.protocol = p;
  cfg.strategy = Strategy::kRandom;
  cfg.max_depth = 320;
  cfg.max_traces = 200;
  cfg.max_timer_injections = 3;
  cfg.check_liveness = false;
  cfg.seed = 0x5eed;
  cfg.mutation = m;
  switch (m) {
    case Mutation::kDoubleVote:
    case Mutation::kCertQuorumFPlusOne:
      // The equivocator must lead two consecutive views so both certified
      // branches can complete a (mutated) two-chain.
      cfg.byzantine = 1;
      cfg.leader_order = {0, 3, 3, 1};
      cfg.max_timer_injections = 0;
      break;
    case Mutation::kStaleJustify:
      // Honest views commit a prefix first; then the equivocator proposes a
      // genesis-justified fork which the mutated adjacency check lets in.
      cfg.byzantine = 1;
      cfg.leader_order = {0, 1, 2, 3};
      cfg.max_timer_injections = 0;
      break;
    case Mutation::kFallbackIgnoresTcRank:
    case Mutation::kTimeoutCarriesNoLock:
      // Timeouts hand a TC to the equivocating next leader, whose genesis-
      // justified fallback the mutated rank guard (or genesis-lock timeouts)
      // lets through.
      cfg.byzantine = 1;
      cfg.leader_order = {0, 1, 2, 3};
      break;
    case Mutation::kCommitOnOneChain:
    case Mutation::kCommitSkipParentLink:
      // Honest-only: a withheld certificate (deaf majority) plus early
      // timeouts builds a certified-then-abandoned sibling.
      cfg.max_traces = 400;
      break;
    case Mutation::kLockNeverRises:
      // Honest-only, via the timeout path: normal-path commits never consult
      // the lock, but every timeout now advertises genesis, so TC.high = 0
      // and an honest fallback leader justifies with its genesis lock — the
      // intact rank guard passes vacuously and the genesis fork commits.
      cfg.max_timer_injections = 4;
      break;
    case Mutation::kNone:
    case Mutation::kCount:
      break;
  }
  return cfg;
}

}  // namespace moonshot::mc
