#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <optional>

#include "sim/async_engine.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/rank.hpp"
#include "support/check.hpp"

namespace pb::trace {
namespace {

using mmn::NodeId;
using mmn::scenario::NodeResults;
using mmn::scenario::Scenario;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// step(1) until done or `max_rounds` steps, one span per step.  Runs the
/// same rounds as one step(max_rounds) call: each step(1) checks
/// completion before and after its round.
template <typename EngineT>
bool step_loop(EngineT& eng, std::uint64_t max_rounds, Recorder& rec) {
  for (std::uint64_t i = 0; i < max_rounds; ++i) {
    Recorder::Scope step(rec, Kind::kStep);
    if (eng.step(1)) return true;
  }
  return false;
}

/// The fault plan run() would install, under its own span.  A fault-free
/// workload still records the (near-empty) span of deciding it has none.
mmn::sim::FaultPlan traced_plan(const Scenario& s, const Workload& w,
                                const mmn::Graph& g, std::uint64_t seed,
                                Recorder& rec) {
  Recorder::Scope span(rec, Kind::kFaultPlan);
  const std::uint32_t k = w.faults > 0 ? w.faults : s.default_faults;
  if (k == 0 || !s.make_fault_plan) return {};
  return s.make_fault_plan(g, k, seed);
}

/// scenario::run's non-recovery sync branch and its native async load
/// branch, with the scheduler and discipline decorated and the engine
/// stepped one round at a time.
TracedRun traced_local(const Workload& w, std::uint64_t seed, Recorder& rec) {
  const Scenario& s = scenario_of(w);
  MMN_REQUIRE(!s.fault_recovery, "recovery scenarios are not traced");
  TracedRun out;
  out.run_id = rec.next_run();
  Recorder::Scope run_span(rec, Kind::kRun);

  const mmn::Graph g = [&] {
    Recorder::Scope span(rec, Kind::kGraphBuild);
    return mmn::scenario::make_scenario_graph(s, w.n, seed);
  }();
  out.counts.graph_bytes = g.topology_bytes();
  const double offered = w.load > 0.0 ? w.load : s.default_load;
  const mmn::sim::FaultPlan plan = traced_plan(s, w, g, seed, rec);
  out.counts.fault_events = plan.events().size();

  auto sched = std::make_unique<TracedScheduler>(
      mmn::sim::make_scheduler(w.parallelism), rec);
  auto disc = std::make_unique<TracedDiscipline>(
      mmn::sim::make_discipline(s.discipline, mmn::sim::UnslottedConfig{},
                                seed),
      rec);
  // The engine owns the decorators; read their counts before it goes.
  auto note_counts = [&out, &sched_view = *sched, &disc_view = *disc] {
    out.counts.node_dispatches = sched_view.dispatches();
    out.counts.for_each_calls = sched_view.calls();
    out.counts.slots = disc_view.slots();
    out.counts.channel_writes = disc_view.writes();
  };

  Outcome& o = out.outcome;
  o.realized_n = g.num_nodes();
  // Steps the constructed engine to completion and digests it as run()
  // does: the fault trajectory folds into the digest of a faulted run.
  auto finish = [&](auto& eng, const NodeResults& results) {
    o.completed = step_loop(eng, s.max_rounds, rec);
    o.observed.metrics = eng.metrics();
    note_counts();
    Recorder::Scope span(rec, Kind::kDigest);
    if (s.digest) o.observed.digest = s.digest(results);
    if (eng.faults() != nullptr) {
      o.observed.faults = eng.faults()->stats();
      if (s.digest) {
        o.observed.digest = mmn::scenario::digest_mix(
            o.observed.digest, o.observed.faults.digest_word());
      }
    }
  };
  if (w.path == RunPath::kAsync) {
    MMN_REQUIRE(s.make_async_load_factory != nullptr,
                "traced async runs drive native open-loop stations");
    std::optional<mmn::sim::AsyncEngine> eng;
    {
      Recorder::Scope span(rec, Kind::kEngineCtor);
      eng.emplace(g, s.make_async_load_factory(g, offered), seed,
                  s.async_max_delay_slots, std::move(sched), std::move(disc));
      if (!plan.empty()) eng->install_faults(plan);
    }
    finish(*eng, NodeResults{g.num_nodes(), nullptr,
                             [&eng](NodeId v) -> const mmn::sim::AsyncProcess& {
                               return eng->process(v);
                             }});
  } else {
    std::optional<mmn::sim::Engine> eng;
    {
      Recorder::Scope span(rec, Kind::kEngineCtor);
      eng.emplace(g,
                  s.make_load_factory ? s.make_load_factory(g, offered)
                                      : s.make_factory(g),
                  seed, std::move(sched), std::move(disc));
      if (!plan.empty()) eng->install_faults(plan);
    }
    finish(*eng, NodeResults{g.num_nodes(),
                             [&eng](NodeId v) -> const mmn::sim::Process& {
                               return eng->process(v);
                             }});
  }
  return out;
}

/// What each rank reports to rank 0 after a traced sharded run.
struct RankTally {
  std::uint64_t digest = 0;
  std::uint64_t p2p_messages = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t xshard_msgs = 0;
  std::uint64_t completed = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t graph_bytes = 0;
};

/// One framed control exchange with `peer` on the undecorated transport,
/// so the exchange spans cover only the engine's own exchanges.
std::vector<std::uint8_t> swap(mmn::sim::shard_comm::Transport& t,
                               unsigned peer, const void* out,
                               std::size_t bytes) {
  std::vector<std::uint8_t> in;
  t.exchange(peer, static_cast<const std::uint8_t*>(out), bytes, in);
  return in;
}

template <typename T>
T swap_value(mmn::sim::shard_comm::Transport& t, unsigned peer,
             const void* out, std::size_t bytes) {
  const std::vector<std::uint8_t> in = swap(t, peer, out, bytes);
  MMN_REQUIRE(in.size() == sizeof(T), "rank control exchange: bad frame");
  T value{};
  std::memcpy(&value, in.data(), sizeof(T));
  return value;
}

/// run_sharded's rank body (scenario/rank_run.cpp) with the transport and
/// discipline decorated and the RankEngine stepped one round at a time;
/// afterwards every rank ships its tally and spans to rank 0, which
/// assembles the serial-identical result.
void traced_rank(const Workload& w, std::uint64_t seed,
                 mmn::sim::shard_comm::Transport& t, Recorder& rec,
                 TracedRun* out) {
  const Scenario& s = scenario_of(w);
  const unsigned rank = t.rank();
  const unsigned ranks = t.ranks();
  rec.set_rank(static_cast<std::uint8_t>(rank));
  const std::size_t first_span = rec.spans().size();
  TracedTransport traced_t(t, rec);

  RankTally mine;
  Counts counts;  // rank 0's are reported: the channel is replicated
  mmn::Metrics metrics;
  mmn::sim::FaultStats fault_stats;
  bool faulted = false;
  NodeId realized_n = 0;
  {
    Recorder::Scope run_span(rec, Kind::kRun);
    const NodeId n = mmn::topology_round_n(s.topology, w.n);
    const auto [lo, hi] = mmn::sim::Scheduler::shard_range(n, rank, ranks);
    const mmn::Graph g = [&] {
      Recorder::Scope span(rec, Kind::kGraphBuild);
      return mmn::build_topology_window(mmn::TopologySpec{s.topology, n, seed},
                                        mmn::GraphWindow{lo, hi});
    }();
    realized_n = g.num_nodes();
    mine.graph_bytes = g.topology_bytes();
    mmn::sim::FaultPlan plan;
    {
      Recorder::Scope span(rec, Kind::kFaultPlan);
      const std::uint32_t k = w.faults > 0 ? w.faults : s.default_faults;
      if (k > 0 && s.make_fault_plan) {
        // Plans draw from the full topology; every rank derives the same.
        const mmn::Graph full =
            mmn::scenario::make_scenario_graph(s, w.n, seed);
        plan = s.make_fault_plan(full, k, seed);
      }
    }
    faulted = !plan.empty();
    counts.fault_events = plan.events().size();
    const double offered = w.load > 0.0 ? w.load : s.default_load;
    auto disc = std::make_unique<TracedDiscipline>(
        mmn::sim::make_discipline(s.discipline, mmn::sim::UnslottedConfig{},
                                  seed),
        rec);
    const TracedDiscipline& disc_view = *disc;
    std::optional<mmn::sim::RankEngine> eng;
    {
      Recorder::Scope span(rec, Kind::kEngineCtor);
      eng.emplace(g, mmn::sim::RankSpec{rank, ranks, lo, hi},
                  s.make_load_factory ? s.make_load_factory(g, offered)
                                      : s.make_factory(g),
                  seed, traced_t, std::move(disc));
      if (faulted) eng->install_faults(plan);
    }
    const bool completed = step_loop(*eng, s.max_rounds, rec);

    Recorder::Scope digest_span(rec, Kind::kDigest);
    std::uint64_t h = 0;
    if (s.digest) {
      std::uint64_t h_prev = mmn::scenario::kDigestSeed;
      const std::uint64_t dummy = 0;
      if (rank > 0) {
        h_prev = swap_value<std::uint64_t>(t, rank - 1, &dummy, sizeof(dummy));
      }
      h = s.digest(NodeResults{
          hi - lo,
          [&eng](NodeId v) -> const mmn::sim::Process& {
            return eng->process(v);
          },
          nullptr, lo, h_prev});
      if (rank + 1 < ranks) swap(t, rank + 1, &h, sizeof(h));
    }
    mine.digest = h;
    mine.p2p_messages = eng->metrics().p2p_messages;
    mine.fault_drops = faulted ? eng->faults()->stats().drops : 0;
    mine.xshard_msgs = eng->xshard_msgs();
    mine.completed = completed ? 1 : 0;
    mine.wire_bytes = t.bytes_out();
    counts.slots = disc_view.slots();
    counts.channel_writes = disc_view.writes();
    metrics = eng->metrics();
    if (faulted) fault_stats = eng->faults()->stats();
  }

  const Span* my_spans = rec.spans().data() + first_span;
  const std::size_t my_count = rec.spans().size() - first_span;
  if (rank != 0) {
    swap(t, 0, &mine, sizeof(mine));
    swap(t, 0, my_spans, my_count * sizeof(Span));
    return;
  }

  RankTally total = mine;
  for (unsigned r = 1; r < ranks; ++r) {
    const auto peer = swap_value<RankTally>(t, r, nullptr, 0);
    MMN_REQUIRE(peer.completed == mine.completed,
                "ranks disagree on termination — determinism broken");
    total.p2p_messages += peer.p2p_messages;
    total.fault_drops += peer.fault_drops;
    total.xshard_msgs += peer.xshard_msgs;
    total.wire_bytes += peer.wire_bytes;
    total.graph_bytes += peer.graph_bytes;
    if (r == ranks - 1) total.digest = peer.digest;
    const std::vector<std::uint8_t> bytes = swap(t, r, nullptr, 0);
    MMN_REQUIRE(bytes.size() % sizeof(Span) == 0, "span frame misaligned");
    std::vector<Span> theirs(bytes.size() / sizeof(Span));
    if (!bytes.empty()) std::memcpy(theirs.data(), bytes.data(), bytes.size());
    rec.merge(theirs, first_span);
  }

  Outcome& o = out->outcome;
  o.completed = mine.completed == 1;
  o.realized_n = realized_n;
  o.observed.metrics = metrics;
  o.observed.metrics.p2p_messages = total.p2p_messages;
  o.observed.xshard_msgs = total.xshard_msgs;
  if (s.digest) o.observed.digest = total.digest;
  if (faulted) {
    o.observed.faults = fault_stats;
    o.observed.faults.drops = total.fault_drops;
    if (s.digest) {
      o.observed.digest = mmn::scenario::digest_mix(
          o.observed.digest, o.observed.faults.digest_word());
    }
  }
  out->counts = counts;
  out->counts.graph_bytes = total.graph_bytes;
  out->counts.wire_bytes = total.wire_bytes;
}

}  // namespace

const char* kind_name(Kind k) {
  static constexpr const char* kNames[] = {
      "run",   "graph_build", "fault_plan", "engine_ctor", "step",
      "node_phase", "resolve", "exchange", "digest"};
  static_assert(std::size(kNames) == static_cast<std::size_t>(Kind::kCount));
  return kNames[static_cast<std::size_t>(k)];
}

std::int32_t Recorder::open(Kind kind) {
  Span s;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run_;
  s.kind = kind;
  s.rank = rank_;
  s.start_ns = now_ns();
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(id);
  return id;
}

void Recorder::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  MMN_REQUIRE(!stack_.empty() && stack_.back() == id, "spans must nest");
  stack_.pop_back();
}

void Recorder::merge(std::span<const Span> theirs, std::size_t their_base) {
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span s : theirs) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) >= their_base) {
      s.parent = static_cast<std::int32_t>(
          base + s.parent - static_cast<std::int64_t>(their_base));
    }
    spans_.push_back(s);
  }
}

bool Recorder::write(const std::string& path,
                     const std::string& header) const {
  std::ofstream f(path);
  if (!f) return false;
  f << header << "#id\trun\trank\tkind\tparent\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << i << '\t' << s.run << '\t' << unsigned{s.rank} << '\t'
      << kind_name(s.kind) << '\t' << s.parent << '\t' << s.start_ns << '\t'
      << s.end_ns << '\n';
  }
  return static_cast<bool>(f);
}

TracedScheduler::TracedScheduler(std::unique_ptr<mmn::sim::Scheduler> inner,
                                 Recorder& rec)
    : inner_(std::move(inner)), rec_(&rec), counters_(inner_->shards()) {}

void TracedScheduler::dispatch(void* env, unsigned shard, NodeId v) {
  auto* e = static_cast<Env*>(env);
  ++e->counters[shard].value;
  e->inner(shard, v);
}

void TracedScheduler::for_each_node(NodeId n, NodeFn fn) {
  Recorder::Scope span(*rec_, Kind::kNodePhase);
  ++calls_;
  Env env{fn, counters_.data()};
  inner_->for_each_node(n, NodeFn{&TracedScheduler::dispatch, &env});
}

std::uint64_t TracedScheduler::dispatches() const {
  std::uint64_t total = 0;
  for (const Counter& c : counters_) total += c.value;
  return total;
}

mmn::sim::SlotObservation TracedDiscipline::slot(
    std::span<const mmn::sim::ChannelWrite> writes, mmn::sim::Channel& channel,
    mmn::Metrics& metrics) {
  Recorder::Scope span(*rec_, Kind::kResolve);
  ++slots_;
  writes_ += writes.size();
  return inner_->slot(writes, channel, metrics);
}

void TracedTransport::exchange(unsigned peer, const std::uint8_t* data,
                               std::size_t bytes,
                               std::vector<std::uint8_t>& in) {
  Recorder::Scope span(*rec_, Kind::kExchange);
  inner_->exchange(peer, data, bytes, in);
}

TracedRun run_traced(const Workload& w, std::uint64_t seed, Recorder& rec) {
  if (w.path != RunPath::kRanks) return traced_local(w, seed, rec);
  TracedRun out;
  out.run_id = rec.next_run();
  mmn::sim::shard_comm::run_ranks(
      w.parallelism, [&](mmn::sim::shard_comm::Transport& t) {
        traced_rank(w, seed, t, rec, &out);
      });
  rec.set_rank(0);
  return out;
}

std::vector<Metric> layer_metrics(const Recorder& rec, const TracedRun& run,
                                  double traced_run_s, double untraced_run_s) {
  constexpr auto kKinds = static_cast<std::size_t>(Kind::kCount);
  struct PerRank {
    double total[kKinds] = {};    ///< seconds inside spans of each kind
    double in_step[kKinds] = {};  ///< the same, direct children of steps
    double self[kKinds] = {};     ///< total minus direct children
    std::vector<double> step_us;
  };
  const std::vector<Span>& spans = rec.spans();
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  std::size_t ranks = 1;
  for (const Span& s : spans) {
    if (s.run != run.run_id) continue;
    ranks = std::max<std::size_t>(ranks, s.rank + 1u);
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<PerRank> per(ranks);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.run != run.run_id) continue;
    PerRank& p = per[s.rank];
    const auto k = static_cast<std::size_t>(s.kind);
    const std::uint64_t dur_ns = s.end_ns - s.start_ns;
    p.total[k] += static_cast<double>(dur_ns) * 1e-9;
    p.self[k] += static_cast<double>(dur_ns - child_ns[i]) * 1e-9;
    if (s.parent >= 0 &&
        spans[static_cast<std::size_t>(s.parent)].kind == Kind::kStep) {
      p.in_step[k] += static_cast<double>(dur_ns) * 1e-9;
    }
    if (s.kind == Kind::kStep) {
      p.step_us.push_back(static_cast<double>(dur_ns) * 1e-3);
    }
  }
  auto total = [](const PerRank& p, Kind k) {
    return p.total[static_cast<std::size_t>(k)];
  };
  auto in_step = [](const PerRank& p, Kind k) {
    return p.in_step[static_cast<std::size_t>(k)];
  };
  auto compute = [&](const PerRank& p) {
    return total(p, Kind::kStep) - in_step(p, Kind::kExchange);
  };
  // Set-up and digest spans: the slowest rank's total.
  auto max_total = [&](std::initializer_list<Kind> kinds) {
    double m = 0.0;
    for (const PerRank& q : per) {
      double sum = 0.0;
      for (Kind k : kinds) sum += total(q, k);
      m = std::max(m, sum);
    }
    return m;
  };
  // Ranks run in lockstep, so every rank's step total includes the wait
  // for the slowest; the slowest rank is the one with the most compute,
  // and its step breakdown is the one that sets the run time.
  std::size_t slow = 0;
  double min_compute = compute(per[0]);
  for (std::size_t r = 1; r < ranks; ++r) {
    if (compute(per[r]) > compute(per[slow])) slow = r;
    min_compute = std::min(min_compute, compute(per[r]));
  }
  const PerRank& p = per[slow];
  const double step_s = total(p, Kind::kStep);
  const double other_s = p.self[static_cast<std::size_t>(Kind::kStep)];
  // Only the work of the rounds: a node phase, resolve or exchange made
  // while constructing the engine belongs to engine.ctor_s.
  const double node_s = in_step(p, Kind::kNodePhase);
  const double resolve_s = in_step(p, Kind::kResolve);
  const double exchange_s = in_step(p, Kind::kExchange);
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  auto share = [&](double part) { return ratio(part, step_s); };

  const Reference& o = run.outcome.observed;
  const auto rounds = static_cast<double>(o.metrics.rounds);
  const auto msgs = static_cast<double>(o.metrics.p2p_messages);
  const Counts& c = run.counts;
  std::vector<double> step_us = p.step_us;
  if (step_us.empty()) step_us.push_back(0.0);
  return {
      {"graph.build_s", "s", max_total({Kind::kGraphBuild})},
      {"graph.bytes_per_node", "B/node",
       ratio(static_cast<double>(c.graph_bytes),
             static_cast<double>(run.outcome.realized_n))},
      {"engine.ctor_s", "s", max_total({Kind::kEngineCtor})},
      {"engine.step_s", "s", step_s},
      {"engine.round_us_p50", "us", quantile(step_us, 0.50)},
      {"engine.round_us_p99", "us", quantile(step_us, 0.99)},
      {"engine.other_s", "s", other_s},
      {"engine.other_share", "ratio", share(other_s)},
      {"sched.node_phase_s", "s", node_s},
      {"sched.node_phase_share", "ratio", share(node_s)},
      {"sched.node_dispatches", "count",
       static_cast<double>(c.node_dispatches)},
      {"sched.dispatches_per_msg", "ratio",
       ratio(static_cast<double>(c.node_dispatches), msgs)},
      {"sched.calls_per_slot", "ratio",
       ratio(static_cast<double>(c.for_each_calls), rounds)},
      {"arena.msgs", "count", msgs},
      // Computed, not measured: 16-byte MsgHeaders per delivered message.
      {"arena.header_bytes_per_round", "B/round", ratio(msgs * 16.0, rounds)},
      {"discipline.resolve_s", "s", resolve_s},
      {"discipline.resolve_share", "ratio", share(resolve_s)},
      {"discipline.writes_per_slot", "ratio",
       ratio(static_cast<double>(c.channel_writes),
             static_cast<double>(c.slots))},
      {"discipline.success_ratio", "ratio",
       ratio(static_cast<double>(o.metrics.slots_success),
             static_cast<double>(o.metrics.slots_busy()))},
      {"fault.plan_build_s", "s", max_total({Kind::kFaultPlan})},
      {"fault.events", "count", static_cast<double>(c.fault_events)},
      {"fault.drops", "count", static_cast<double>(o.faults.drops)},
      {"shard.exchange_s", "s", exchange_s},
      {"shard.exchange_share", "ratio", share(exchange_s)},
      {"shard.compute_s", "s", compute(p)},
      {"shard.compute_skew", "ratio", ratio(compute(p), min_compute)},
      {"shard.wire_bytes_per_round", "B/round",
       ratio(static_cast<double>(c.wire_bytes), rounds)},
      {"shard.xshard_msgs", "count", static_cast<double>(o.xshard_msgs)},
      {"shard.setup_s", "s",
       max_total({Kind::kGraphBuild, Kind::kFaultPlan, Kind::kEngineCtor})},
      {"scenario.digest_s", "s", max_total({Kind::kDigest})},
      {"trace.overhead", "ratio", traced_run_s / untraced_run_s - 1.0},
  };
}

}  // namespace pb::trace
