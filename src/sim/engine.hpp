// Synchronous multimedia-network engine.
//
// Executes one Process per node in lockstep rounds (Section 2):
//   * point-to-point messages sent in round r are delivered in round r + 1
//     (message delay = 1 time unit, one message per link direction per round);
//   * the channel slot of round r is observed by every node in round r + 1
//     (slot length = 1 time unit).
// Each process sees only its local view — its id, its incident links, n, and
// whatever arrives over the two media.  Every run is deterministic given the
// seed; per-node RNG streams are forked from it.
//
// The engine is a thin stepping policy over sim::RuntimeCore, which owns the
// substrate (views, RNGs, channel, metrics, flat message arena); see
// sim/runtime_core.hpp.  Node execution within a round is delegated to a
// Scheduler — serial by default, or an std::thread pool that shards the node
// set; both produce bit-identical results for the same seed
// (sim/scheduler.hpp).  Termination is detected incrementally and batched
// per shard: each shard keeps an outstanding (not-yet-finished) counter on
// its own cache line, a node's finished() probe only touches that counter
// on a transition, and the engine sums the handful of shard counters after
// the barrier — no per-node delta staging, no O(n) scan.
//
// The same engine runs one rank of a sharded multi-process run: built from
// a RankSpec and a shard_comm::Transport (sim/rank.hpp), the core owns
// only the rank's node window, and RankExchange (sim/rank_exchange.hpp)
// carries every cross-window effect after the node phase, so node step,
// termination and round commit are this file's and RuntimeCore's at any
// rank count.
//
// The per-node hot path is devirtualized end to end: the scheduler reaches
// node_round through a raw function pointer, and NodeContext is a concrete
// final class (sim/runtime_core.hpp) staging effects straight into the
// shard buffer — the only virtual call per node per round is Process::round
// itself.  The same Process still runs on the asynchronous engine
// underneath the busy-tone synchronizer of Section 7.1, which feeds
// NodeContext through its sink hooks (see core/synchronizer.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "sim/runtime_core.hpp"
#include "support/metrics.hpp"

namespace mmn::sim {

class FaultPlan;
class FaultRuntime;
struct RankSpec;

class Engine {
 public:
  /// Builds the network: one process per node of g.  `g` must outlive the
  /// engine — node views are zero-copy windows into its adjacency arena.
  /// The default scheduler
  /// is serial; pass make_scheduler(threads) to shard rounds over a pool.
  /// A null discipline is the free-for-all channel (the seed behavior);
  /// pass make_discipline(kind) to run the workload under TDMA, Capetanakis
  /// tree scheduling, or the unslotted busy-tone emulation
  /// (sim/channel_discipline.hpp).
  Engine(const Graph& g, const ProcessFactory& factory, std::uint64_t seed);
  Engine(const Graph& g, const ProcessFactory& factory, std::uint64_t seed,
         std::unique_ptr<Scheduler> scheduler,
         std::unique_ptr<ChannelDiscipline> discipline = nullptr);
  /// One rank of a sharded run over `spec`'s window, which must equal
  /// Scheduler::shard_range(n, rank, ranks) and match the transport.  `g`
  /// may be a windowed build (its owned rows cover the window); `factory`
  /// sees owned views only.  Every rank must pass the same seed and
  /// discipline, and step with the same budget (they exchange every round
  /// and decide termination on identical global state).  Serial per rank.
  Engine(const Graph& g, const RankSpec& spec, const ProcessFactory& factory,
         std::uint64_t seed, shard_comm::Transport& transport,
         std::unique_ptr<ChannelDiscipline> discipline);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs until every process is finished and the channel is idle (no write
  /// staged, nothing deferred inside the discipline), or until max_rounds
  /// elapse — then status() reports kSlotCapReached instead of aborting,
  /// the same non-aborting surface AsyncEngine has had since PR 2.  The
  /// returned metrics are well-formed either way.
  Metrics run(std::uint64_t max_rounds);

  /// Runs at most `rounds` additional rounds; returns true if all finished
  /// and the channel is idle.
  bool step(std::uint64_t rounds);

  /// Outcome of the last run()/step() call (kRunning after a step() that
  /// ran out of rounds; run() maps that to kSlotCapReached).
  RunStatus status() const { return status_; }

  /// Installs deterministic fault injection (sim/fault.hpp).  Must be
  /// called before the first round; the plan's events apply at slot
  /// boundaries, before the round's node phase.  One installation per
  /// engine — recovery flows build a fresh engine on the compacted graph.
  /// Every rank of a sharded run installs the identical full plan, so
  /// overlay liveness and discipline stifles agree across ranks.
  void install_faults(const FaultPlan& plan);

  /// The installed fault runtime (stats + overlay), or null.
  const FaultRuntime* faults() const { return faults_.get(); }
  FaultRuntime* faults() { return faults_.get(); }

  /// In rank mode, slot/round counters are exact replicas of the
  /// single-process run's; p2p_messages counts only sends by owned nodes.
  const Metrics& metrics() const { return core_.metrics(); }

  /// Per-class delay/backlog accounting of open-loop workloads
  /// (sim/traffic.hpp); untouched by closed-loop protocols.
  const LatencyRecorder& latency() const { return core_.latency(); }

  /// Direct access to a node's process by global id (owned nodes only in
  /// rank mode), for reading results and tests.  Mutating a process so
  /// that finished() changes outside of round() breaks the engine's
  /// incrementally maintained finished count — finished() must only change
  /// inside round() calls.
  Process& process(NodeId v);
  const Process& process(NodeId v) const;
  NodeId num_nodes() const { return core_.num_nodes(); }

  /// Rank mode: cross-shard messages this rank sent, and edges with
  /// exactly one endpoint in its window.  Both 0 in a single process.
  std::uint64_t xshard_msgs() const { return core_.xshard_msgs(); }
  std::uint64_t boundary_edges() const { return core_.boundary_edges(); }

 private:
  void node_round(unsigned shard, NodeId i);
  void run_one_round();

  RuntimeCore core_;
  std::vector<std::unique_ptr<Process>> processes_;  ///< window-local
  std::unique_ptr<FaultRuntime> faults_;  // null on the fault-free fast path
  RunStatus status_ = RunStatus::kRunning;
};

}  // namespace mmn::sim
