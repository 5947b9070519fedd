#include "sim/async_engine.hpp"

#include <utility>

#include "sim/fault.hpp"
#include "support/check.hpp"

namespace mmn::sim {

AsyncEngine::AsyncEngine(const Graph& g, const AsyncProcessFactory& factory,
                         std::uint64_t seed, std::uint32_t max_delay_slots,
                         std::unique_ptr<Scheduler> scheduler,
                         std::unique_ptr<ChannelDiscipline> discipline)
    : core_(g, seed, std::move(scheduler), std::move(discipline)),
      max_delay_ticks_(max_delay_slots * kTicksPerSlot) {
  MMN_REQUIRE(max_delay_slots >= 1, "max_delay_slots must be >= 1");
  const NodeId n = core_.num_nodes();
  // A message sent at tick t is due at most max_delay_slots * kTicksPerSlot
  // ticks later; +2 covers the boundary tick of the emitting phase.
  core_.slot_buckets().reset(n, kTicksPerSlot,
                             std::uint64_t{max_delay_slots} + 2);
  last_write_slot_.assign(n, static_cast<std::uint64_t>(-1));
  processes_ = core_.spawn(factory);
}

AsyncEngine::~AsyncEngine() = default;

void AsyncEngine::install_faults(const FaultPlan& plan) {
  MMN_REQUIRE(!started_ && faults_ == nullptr,
              "install_faults: once, before the first slot");
  faults_ = std::make_unique<FaultRuntime>(core_.graph(), plan);
  core_.set_fault_runtime(faults_.get());
}

AsyncProcess& AsyncEngine::process(NodeId v) {
  MMN_REQUIRE(v < processes_.size(), "node id out of range");
  return *processes_[v];
}

const AsyncProcess& AsyncEngine::process(NodeId v) const {
  MMN_REQUIRE(v < processes_.size(), "node id out of range");
  return *processes_[v];
}

void AsyncEngine::start_node(unsigned shard, NodeId v) {
  const EpochOverlay* overlay = nullptr;
  if (faults_ != nullptr) [[unlikely]] {
    overlay = &faults_->overlay();
    if (!overlay->node_alive(v)) return;  // crashed at time zero
  }
  AsyncContext ctx(core_.view(v), core_.rng(v), core_.shard(shard),
                   slot_index_, max_delay_ticks_, &last_write_slot_[v],
                   /*now=*/0, overlay);
  processes_[v]->start(ctx);
  core_.note_finished(shard, v, processes_[v]->finished());
}

/// One phase of a slot: `Body` at every node under the scheduler, then the
/// shard-ordered commit.
template <void (AsyncEngine::*Body)(unsigned, NodeId)>
void AsyncEngine::run_phase() {
  core_.scheduler().for_each_node(
      core_.num_nodes(),
      Scheduler::NodeFn{[](void* env, unsigned s, NodeId v) {
                          (static_cast<AsyncEngine*>(env)->*Body)(s, v);
                        },
                        this});
  core_.commit_async_phase();
}

void AsyncEngine::deliver_node(unsigned shard, NodeId v) {
  SlotBuckets& buckets = core_.slot_buckets();
  const std::span<const StampedHeader> msgs = buckets.inbox(v);
  if (msgs.empty()) return;
  const EpochOverlay* overlay = nullptr;
  if (faults_ != nullptr) [[unlikely]] {
    overlay = &faults_->overlay();
    if (!overlay->node_alive(v)) {
      // A crashed node's deliveries are lost-and-counted; the staged
      // payloads are released wholesale by the next stage() call, so
      // skipping the handlers leaks nothing.
      core_.shard(shard).fault_drops += msgs.size();
      return;
    }
  }
  AsyncContext ctx(core_.view(v), core_.rng(v), core_.shard(shard),
                   slot_index_, max_delay_ticks_, &last_write_slot_[v],
                   /*now=*/0, overlay);
  for (const StampedHeader& m : msgs) {
    ctx.set_now(m.tick);
    // Materialize the Received view over the pooled payload; the pool is
    // immutable for the duration of the sub-round (pushes land in shard
    // buffers and reach the pool only at commit, after the barrier).
    const Received msg{m.from, m.via, &buckets.payload(m.ref)};
    processes_[v]->on_message(msg, ctx);
  }
  core_.note_finished(shard, v, processes_[v]->finished());
}

void AsyncEngine::run_delivery_phase() {
  SlotBuckets& buckets = core_.slot_buckets();
  // Fixed point over deterministic sub-rounds: sub-round k delivers every
  // message due in this slot that was in flight when sub-round k - 1
  // committed, each destination handling its messages in ascending
  // (tick, seq).  A cascade send lands at least one tick after the message
  // that triggered it, so each sub-round's earliest delivery tick strictly
  // grows and the loop runs at most kTicksPerSlot times per slot.
  while (buckets.stage(slot_index_) > 0) {
    run_phase<&AsyncEngine::deliver_node>();
  }
}

void AsyncEngine::fanout_node(unsigned shard, NodeId v) {
  const EpochOverlay* overlay = nullptr;
  if (faults_ != nullptr) [[unlikely]] {
    overlay = &faults_->overlay();
    if (!overlay->node_alive(v)) return;  // crashed nodes do not step
  }
  AsyncContext ctx(core_.view(v), core_.rng(v), core_.shard(shard),
                   slot_index_, max_delay_ticks_, &last_write_slot_[v],
                   slot_index_ * kTicksPerSlot, overlay);
  processes_[v]->on_slot(slot_obs_, ctx);
  core_.note_finished(shard, v, processes_[v]->finished());
}

bool AsyncEngine::step(std::uint64_t slots) {
  if (status_ != RunStatus::kCompleted) status_ = RunStatus::kRunning;
  if (!started_) {
    // Slot-0 fault events apply before time zero: a node crashed at slot 0
    // never runs start().
    if (faults_ != nullptr) [[unlikely]] {
      faults_->apply_slot(slot_index_, core_.discipline());
    }
    run_phase<&AsyncEngine::start_node>();
    started_ = true;
  }
  for (std::uint64_t i = 0; i < slots; ++i) {
    if (status_ == RunStatus::kCompleted) return true;
    // Fault events due this slot apply at the boundary, single-threaded,
    // before the delivery phase — every phase of the slot sees the same
    // topology under every scheduler.
    if (faults_ != nullptr) [[unlikely]] {
      faults_->apply_slot(slot_index_, core_.discipline());
    }
    // One slot = delivery phase, channel resolution at the boundary, then
    // the outcome fans out to every node (which may start the next slot's
    // writes and sends).
    run_delivery_phase();
    slot_obs_ = core_.resolve_slot();
    ++core_.metrics().rounds;
    ++slot_index_;
    run_phase<&AsyncEngine::fanout_node>();
    if (core_.all_finished() && core_.slot_buckets().in_flight() == 0 &&
        core_.channel_idle()) {
      status_ = RunStatus::kCompleted;
    }
  }
  return status_ == RunStatus::kCompleted;
}

Metrics AsyncEngine::run(std::uint64_t max_slots) {
  if (!step(max_slots)) status_ = RunStatus::kSlotCapReached;
  return core_.metrics();
}

}  // namespace mmn::sim
