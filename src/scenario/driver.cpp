// The one scenario driver behind run() (scenario/registry.hpp) and
// run_sharded() (scenario/rank_run.hpp).  Every run, in one process or as
// one rank of K, goes through the same steps: graph, fault plan, recovery
// phase A, discipline, engine, step, digest, gather.
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/synchronizer.hpp"
#include "graph/epoch.hpp"
#include "graph/generators.hpp"
#include "scenario/rank_run.hpp"
#include "scenario/registry.hpp"
#include "sim/rank.hpp"
#include "sim/shard_comm.hpp"
#include "support/check.hpp"

namespace mmn::scenario {
namespace {

using sim::shard_comm::Transport;

void require_knobs(const Scenario& s, double load, std::uint32_t faults) {
  MMN_REQUIRE(load == 0.0 || s.make_load_factory != nullptr,
              "scenario is not load-capable (no make_load_factory)");
  MMN_REQUIRE(faults == 0 || s.make_fault_plan != nullptr,
              "scenario is not fault-capable (no make_fault_plan)");
}

/// Per-rank tallies gathered to rank 0 after the run: the reductions whose
/// single-process counterparts are sums over all nodes, plus the digest
/// chain's final accumulator (meaningful only in rank K-1's record) and the
/// completion verdict (replicated — rank 0 cross-checks).
struct RankTally {
  std::uint64_t digest = 0;
  std::uint64_t p2p_messages = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t xshard_msgs = 0;
  std::uint64_t boundary_edges = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t completed = 0;
};
static_assert(sizeof(RankTally) == 7 * sizeof(std::uint64_t),
              "RankTally is exchanged as raw bytes");

void swap_bytes(Transport& t, unsigned peer, const void* out,
                std::size_t out_bytes, void* in, std::size_t in_bytes) {
  std::vector<std::uint8_t> scratch;
  t.exchange(peer, static_cast<const std::uint8_t*>(out), out_bytes, scratch);
  MMN_REQUIRE(scratch.size() == in_bytes,
              "rank control exchange: unexpected frame size");
  if (in_bytes > 0) std::memcpy(in, scratch.data(), in_bytes);
}

/// Digest chain, rank-major: rank r folds its window starting from rank
/// r-1's partial accumulator, reproducing the single-process node-major
/// fold exactly (NodeResults::begin/h0).
std::uint64_t chained_digest(const Scenario& s, Transport* t,
                             NodeResults results) {
  if (t == nullptr) return s.digest(results);
  std::uint64_t dummy = 0;
  if (t->rank() > 0) {
    swap_bytes(*t, t->rank() - 1, &dummy, sizeof(dummy), &results.h0,
               sizeof(results.h0));
  }
  const std::uint64_t h = s.digest(results);
  if (t->rank() + 1 < t->ranks()) {
    swap_bytes(*t, t->rank() + 1, &h, sizeof(h), &dummy, sizeof(dummy));
  }
  return h;
}

/// Gathers every rank's tally on rank 0, which turns its own result into
/// the single-process one: slot/round and fault-event counters are
/// replicas; p2p messages and fault drops sum across ranks; the digest is
/// the chain's end at rank K-1.
ShardStats gather(Transport& t, const sim::Engine& eng, RunResult& result) {
  const RankTally mine{result.digest,      result.metrics.p2p_messages,
                       result.faults.drops, eng.xshard_msgs(),
                       eng.boundary_edges(), t.bytes_out(),
                       result.completed ? 1u : 0u};
  if (t.rank() != 0) {
    swap_bytes(t, 0, &mine, sizeof(mine), nullptr, 0);
    return {};
  }
  RankTally total = mine;
  for (unsigned r = 1; r < t.ranks(); ++r) {
    RankTally peer;
    swap_bytes(t, r, nullptr, 0, &peer, sizeof(peer));
    MMN_REQUIRE(peer.completed == mine.completed,
                "ranks disagree on termination — determinism broken");
    total.p2p_messages += peer.p2p_messages;
    total.fault_drops += peer.fault_drops;
    total.xshard_msgs += peer.xshard_msgs;
    total.boundary_edges += peer.boundary_edges;
    total.wire_bytes += peer.wire_bytes;
    total.digest = peer.digest;  // the chain ends at rank K-1
  }
  result.metrics.p2p_messages = total.p2p_messages;
  result.faults.drops = total.fault_drops;
  result.digest = total.digest;
  // Every cross-shard edge is counted by both owning windows.
  return ShardStats{total.xshard_msgs, total.boundary_edges / 2,
                    total.wire_bytes};
}

/// One run of `s`, in this process alone (t == null) or as the rank
/// t->rank() of a sharded run (synchronous engine only).  In rank mode the
/// returned result is meaningful on rank 0 only.
RunResult drive(const Scenario& s, NodeId nominal, std::uint64_t seed,
                std::unique_ptr<sim::Scheduler> scheduler, EngineKind engine,
                double load, std::uint32_t faults, Transport* t,
                ShardStats* stats) {
  require_knobs(s, load, faults);
  MMN_REQUIRE(t == nullptr || engine == EngineKind::kSync,
              "sharded runs drive the synchronous engine");
  const double offered = load > 0.0 ? load : s.default_load;
  const std::uint32_t intensity = faults > 0 ? faults : s.default_faults;

  // 1. The graph.  A rank materializes only its window of the CSR arena;
  // the windowed build replays the full generator and weight-permutation
  // streams, so owned rows are bit-identical to the full build's.
  const TopologySpec spec{s.topology, topology_round_n(s.topology, nominal),
                          seed};
  const auto [lo, hi] = sim::Scheduler::shard_range(
      spec.n, t != nullptr ? t->rank() : 0, t != nullptr ? t->ranks() : 1);
  const Graph g = t != nullptr
                      ? build_topology_window(spec, GraphWindow{lo, hi})
                      : build_topology(spec);
  RunResult result;
  result.realized_n = g.num_nodes();

  // 2. The fault plan, a pure function of (graph, intensity, seed) drawn
  // from the full topology (global edge-id lottery).  A rank builds the
  // full graph transiently — all replicas derive the same plan — and drops
  // it before the run, so the steady-state footprint stays the window's.
  sim::FaultPlan plan;
  if (intensity > 0 && s.make_fault_plan) {
    plan = t != nullptr ? s.make_fault_plan(build_topology(spec), intensity,
                                            seed)
                        : s.make_fault_plan(g, intensity, seed);
  }
  const bool faulted = !plan.empty();
  const bool recovery = faulted && s.fault_recovery;
  MMN_REQUIRE(t == nullptr || !recovery,
              "fault-recovery scenarios (two-phase epoch rebuild) do not "
              "run sharded");

  // 3. Recovery flow, phase A.  It steps the protocol serially into the
  // fault: the round where the kills land runs with in-flight traffic
  // hitting dead links (dropped and counted), and one round beyond would
  // start violating the protocol's own invariants — the paper's
  // deterministic protocols assume reliable links, so the recovery
  // mechanism is the epoch rebuild, not in-protocol loss tolerance.  The
  // epoch overlay then compacts the surviving topology into a fresh arena,
  // and phase B (steps 4-6) re-runs the protocol from scratch on it under
  // the caller's scheduler; the slots between the fault and the configured
  // epoch boundary model the detection/rebuild window and bill into
  // recovery_slots.  The recovery digest folds phase B's protocol result
  // with the overlay's kill-set word — both are invariant to where the
  // epoch boundary lands (any boundary past the last fault event yields
  // the same compacted graph), so recovery runs pin re-convergence without
  // being sensitive to drop timing.
  std::optional<EpochOverlay::Compaction> compaction;
  std::uint64_t overlay_word = 0;
  if (recovery) {
    MMN_REQUIRE(engine == EngineKind::kSync,
                "fault-recovery scenarios run on the synchronous engine");
    MMN_REQUIRE(s.fault_epoch_slots > 0,
                "fault-recovery scenarios need fault_epoch_slots");
    std::uint64_t last_fault = 0;
    for (const sim::FaultEvent& e : plan.events()) {
      last_fault = std::max(last_fault, e.slot);
    }
    MMN_REQUIRE(s.fault_epoch_slots > last_fault,
                "the epoch boundary must fall after the last fault event");
    sim::Engine wounded(g, s.make_factory(g), seed, nullptr,
                        sim::make_discipline(s.discipline,
                                             sim::UnslottedConfig{}, seed));
    wounded.install_faults(plan);
    wounded.step(last_fault + 1);
    EpochOverlay& overlay = wounded.faults()->overlay();
    compaction.emplace(overlay.compact());
    overlay_word = overlay.digest_word();
    result.faults = wounded.faults()->stats();
  }
  const Graph& run_g = compaction ? compaction->graph : g;

  // 4. The discipline.  The run seed also feeds its own lottery stream
  // (the stabilized-Aloha kinds; the others ignore it — make_discipline).
  std::unique_ptr<sim::ChannelDiscipline> discipline =
      sim::make_discipline(s.discipline, sim::UnslottedConfig{}, seed);

  // 5-6. The engine, stepped to completion or the cap (a capped run
  // reports completed == false instead of aborting).
  NodeResults results{hi - lo, nullptr, nullptr, lo, kDigestSeed};
  std::optional<sim::Engine> sync;
  std::optional<sim::AsyncEngine> async;
  bool digestible = true;
  if (engine == EngineKind::kSync) {
    const sim::ProcessFactory factory =
        s.make_load_factory ? s.make_load_factory(run_g, offered)
                            : s.make_factory(run_g);
    if (t != nullptr) {
      sync.emplace(run_g, sim::RankSpec{t->rank(), t->ranks(), lo, hi},
                   factory, seed, *t, std::move(discipline));
    } else {
      sync.emplace(run_g, factory, seed, std::move(scheduler),
                   std::move(discipline));
    }
    if (faulted && !recovery) sync->install_faults(plan);
    result.completed = sync->step(s.max_rounds);
    result.metrics = sync->metrics();
    results.at = [&sync](NodeId v) -> const sim::Process& {
      return sync->process(v);
    };
  } else if (s.make_async_load_factory) {
    // Native asynchronous open-loop path: the stations are AsyncProcesses
    // driven by the AsyncEngine directly, no synchronizer in between —
    // deferring disciplines are fine because open-loop stations never read
    // an idle slot as information.
    async.emplace(g, s.make_async_load_factory(g, offered), seed,
                  s.async_max_delay_slots, std::move(scheduler),
                  std::move(discipline));
    if (faulted) async->install_faults(plan);
    result.completed = async->step(s.max_rounds);
    results.at_async = [&async](NodeId v) -> const sim::AsyncProcess& {
      return async->process(v);
    };
  } else {
    MMN_REQUIRE(!faulted,
                "fault injection is not supported on the synchronizer path");
    MMN_REQUIRE(s.channel_free,
                "scenario uses the channel and cannot run under the "
                "synchronizer on the asynchronous engine");
    MMN_REQUIRE(!discipline->defers(),
                "a deferring discipline would falsify the synchronizer's "
                "idle-slot pulses on the asynchronous engine");
    async.emplace(g, synchronize(s.make_factory(g)), seed,
                  s.async_max_delay_slots, std::move(scheduler),
                  std::move(discipline));
    result.completed = async->step(s.max_rounds);
    // A capped synchronizer run leaves protocols mid-flight: only completed
    // runs are digested.
    digestible = result.completed;
    results.at = [&async](NodeId v) -> const sim::Process& {
      return static_cast<const SynchronizerProcess&>(async->process(v))
          .inner();
    };
  }
  if (async) result.metrics = async->metrics();
  const sim::FaultRuntime* runtime = sync ? sync->faults() : async->faults();
  if (runtime != nullptr) result.faults = runtime->stats();

  // 7-8. The chained digest; in rank mode, the tallies gathered on rank 0.
  // The fault or overlay word folds in last, over the reduced drop count.
  if (s.digest && digestible) result.digest = chained_digest(s, t, results);
  ShardStats shard_stats;
  if (t != nullptr) shard_stats = gather(*t, *sync, result);
  shard_stats.rounds = result.metrics.rounds;
  if (stats != nullptr) *stats = shard_stats;
  if (recovery) {
    const std::uint64_t first = plan.first_fault_slot();
    const std::uint64_t phase_a =
        s.fault_epoch_slots > first ? s.fault_epoch_slots - first : 0;
    result.recovery_slots = phase_a + result.metrics.rounds;
    result.faults.recovery_slots = result.recovery_slots;
    if (s.digest) result.digest = digest_mix(result.digest, overlay_word);
  } else if (faulted && s.digest) {
    // The fault trajectory is part of the run's identity: fold it so the
    // scheduler-equivalence suites cover drop accounting too.
    result.digest = digest_mix(result.digest, result.faults.digest_word());
  }
  return result;
}

}  // namespace

RunResult run(const Scenario& s, NodeId n, std::uint64_t seed,
              std::unique_ptr<sim::Scheduler> scheduler, EngineKind engine,
              double load, std::uint32_t faults) {
  return drive(s, n, seed, std::move(scheduler), engine, load, faults,
               nullptr, nullptr);
}

RunResult run_sharded(const Scenario& s, NodeId n, std::uint64_t seed,
                      unsigned ranks, double load, std::uint32_t faults,
                      ShardStats* stats) {
  MMN_REQUIRE(ranks >= 1, "ranks must be positive");
  if (ranks == 1) {
    return drive(s, n, seed, nullptr, EngineKind::kSync, load, faults,
                 nullptr, stats);
  }
  require_knobs(s, load, faults);  // fail here, before any rank forks
  RunResult result;
  sim::shard_comm::run_ranks(ranks, [&](Transport& t) {
    RunResult mine = drive(s, n, seed, nullptr, EngineKind::kSync, load,
                           faults, &t, stats);
    if (t.rank() == 0) result = std::move(mine);
  });
  return result;
}

}  // namespace mmn::scenario
