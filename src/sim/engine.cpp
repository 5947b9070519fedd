#include "sim/engine.hpp"

#include <utility>

#include "sim/fault.hpp"
#include "sim/rank.hpp"
#include "sim/shard_comm.hpp"
#include "support/check.hpp"

namespace mmn::sim {

Engine::Engine(const Graph& g, const ProcessFactory& factory,
               std::uint64_t seed)
    : Engine(g, factory, seed, nullptr) {}

Engine::Engine(const Graph& g, const ProcessFactory& factory,
               std::uint64_t seed, std::unique_ptr<Scheduler> scheduler,
               std::unique_ptr<ChannelDiscipline> discipline)
    : core_(g, seed, std::move(scheduler), std::move(discipline)) {
  processes_ = core_.spawn(factory);
}

Engine::Engine(const Graph& g, const RankSpec& spec,
               const ProcessFactory& factory, std::uint64_t seed,
               shard_comm::Transport& transport,
               std::unique_ptr<ChannelDiscipline> discipline)
    : core_(g, seed, nullptr, std::move(discipline), &transport) {
  MMN_REQUIRE(spec.ranks >= 1 && spec.rank < spec.ranks, "rank out of range");
  MMN_REQUIRE(transport.rank() == spec.rank && transport.ranks() == spec.ranks,
              "transport and RankSpec disagree");
  MMN_REQUIRE(spec.lo == core_.lo() && spec.hi == core_.lo() + core_.owned(),
              "RankSpec window must equal shard_range(n, rank, ranks)");
  processes_ = core_.spawn(factory);
}

Engine::~Engine() = default;

Process& Engine::process(NodeId v) {
  MMN_REQUIRE(v >= core_.lo() && v - core_.lo() < processes_.size(),
              "node id out of range (or not owned by this rank)");
  return *processes_[v - core_.lo()];
}

const Process& Engine::process(NodeId v) const {
  MMN_REQUIRE(v >= core_.lo() && v - core_.lo() < processes_.size(),
              "node id out of range (or not owned by this rank)");
  return *processes_[v - core_.lo()];
}

/// The per-node body of one round, for window-local index i; reached from
/// the scheduler through a raw function pointer, with a concrete
/// NodeContext staging every externally visible effect into the shard's
/// buffer — the core commits shards in ascending order, so the trace is
/// scheduler-independent.
void Engine::node_round(unsigned shard, NodeId i) {
  const EpochOverlay* overlay = nullptr;
  if (faults_ != nullptr) [[unlikely]] {
    overlay = &faults_->overlay();
    if (!overlay->node_alive(core_.lo() + i)) {
      // A crashed node does not step; whatever was delivered to it this
      // round is lost-and-counted, not processed.
      core_.shard(shard).fault_drops += core_.inbox(i).size();
      return;
    }
  }
  NodeContext ctx(core_.view(i), core_.rng(i), core_.inbox(i), core_.slot(),
                  core_.round(), core_.shard(shard), overlay);
  processes_[i]->round(ctx);
  core_.note_finished(shard, i, processes_[i]->finished());
}

void Engine::run_one_round() {
  // Fault events scheduled for this slot apply before any shard steps, on
  // one thread — every node of the round sees the same topology (on every
  // rank: each replays the full plan against its own overlay replica).
  if (faults_ != nullptr) [[unlikely]] {
    faults_->apply_slot(core_.round(), core_.discipline());
  }
  core_.run_round(Scheduler::NodeFn{
      [](void* env, unsigned s, NodeId v) {
        static_cast<Engine*>(env)->node_round(s, v);
      },
      this});
}

void Engine::install_faults(const FaultPlan& plan) {
  MMN_REQUIRE(core_.round() == 0 && faults_ == nullptr,
              "install_faults: once, before the first round");
  // A windowed graph reports global n and m, so the overlay bitsets span
  // the whole topology on every rank.
  faults_ = std::make_unique<FaultRuntime>(core_.graph(), plan);
  core_.set_fault_runtime(faults_.get());
}

bool Engine::step(std::uint64_t rounds) {
  // Like AsyncEngine, completion additionally requires an idle channel: a
  // deferring discipline (TDMA, Capetanakis) may still hold a write that
  // was registered but not yet transmitted, and dropping it would silently
  // diverge from the non-deferring run of the same workload.  In rank mode
  // every rank evaluates identical (outstanding, channel) state, so every
  // rank runs the same number of rounds — which keeps the per-round
  // exchanges in lockstep without any extra control traffic.
  if (status_ != RunStatus::kCompleted) status_ = RunStatus::kRunning;
  for (std::uint64_t i = 0;; ++i) {
    if (core_.all_finished() && core_.channel_idle()) {
      status_ = RunStatus::kCompleted;
      return true;
    }
    if (i == rounds) return false;
    run_one_round();
  }
}

Metrics Engine::run(std::uint64_t max_rounds) {
  if (!step(max_rounds)) status_ = RunStatus::kSlotCapReached;
  return core_.metrics();
}

}  // namespace mmn::sim
