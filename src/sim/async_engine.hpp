// Asynchronous multimedia-network engine (Section 7).
//
// The point-to-point half is asynchronous: each message experiences an
// arbitrary (here: pseudo-random, bounded) delay.  The channel remains
// slotted — Section 7.2 shows any unslotted channel can be slotted with an
// FDMA busy-tone side channel, so we model the post-slotting abstraction
// directly.  Internally time advances in integer ticks with kTicksPerSlot
// ticks per slot; message delays are drawn uniformly from [1, max_delay_slots
// * kTicksPerSlot] ticks.  With max_delay_slots == 1 this realizes the
// paper's time-accounting assumption (delay <= one slot).
//
// AsyncProcess is event-driven: on_message fires at delivery time (inside a
// slot), on_slot fires at every slot boundary with the outcome of the slot
// that just ended.  The busy-tone synchronizer (core/synchronizer.hpp) runs
// synchronous Processes on top of this engine.
//
// The engine is the slot-phase stepping policy over sim::RuntimeCore: the
// views, RNG streams, channel, and metrics all live in the shared core —
// identical state to the synchronous engine.  In-flight messages are filed
// in the core's SlotBuckets arena (tick- and seq-stamped), and every slot
// executes as a fixed phase sequence — delivery sub-rounds iterated to a
// fixed point for intra-slot cascades, channel resolution at the boundary,
// then the on_slot fan-out — each phase sharded over the same Serial /
// ParallelScheduler as a synchronous round, with all effects staged per
// shard and merged in ascending shard order.  Parallel asynchronous runs
// are therefore bit-identical to serial ones for the same seed (the
// determinism argument is spelled out in ARCHITECTURE.md).
//
// Delivery-order semantics: within one sub-round a node handles its
// messages in ascending (tick, seq); a message sent *during* delivery that
// lands in the same slot is handled in a later sub-round — causal order —
// even if its delivery tick is smaller than messages already handled.  This
// is the one (deterministic, documented) refinement over the retired global
// event queue, which interleaved intra-slot cascades by raw tick.  Both
// orders realize the same asynchronous model (delays are arbitrary within
// the bound); slot counts, message counts, channel outcomes, and every
// synchronizer-driven workload's per-node trace are preserved exactly, and
// the pinned-seed golden cases in test_scheduler_equiv hold the policy to
// that.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "sim/runtime_core.hpp"
#include "support/metrics.hpp"

namespace mmn::sim {

class AsyncContext;

class AsyncProcess {
 public:
  virtual ~AsyncProcess() = default;

  /// Called once at time zero.
  virtual void start(AsyncContext& ctx) = 0;

  /// Called when a point-to-point message is delivered.
  virtual void on_message(const Received& msg, AsyncContext& ctx) = 0;

  /// Called at each slot boundary with the outcome of the ended slot.
  virtual void on_slot(const SlotObservation& obs, AsyncContext& ctx) = 0;

  virtual bool finished() const = 0;
};

/// Per-phase context of one node — a concrete final class (no virtual
/// dispatch on the send path; the virtual seam is the AsyncProcess handler
/// itself).  Every externally visible effect — sends (with their delivery
/// tick already drawn from the node's own RNG stream), channel writes,
/// message counts — is staged into the shard's buffer; the core commits
/// shards in ascending order after the phase barrier, so the trace is
/// scheduler-independent.  `now` is the simulated tick the node is acting
/// at: the delivery tick of the message in hand, or the boundary tick
/// during the on_slot fan-out.
class AsyncContext final {
 public:
  /// `faults` is the run's epoch overlay when fault injection is installed
  /// (read-only during a phase — events apply at slot boundaries), null on
  /// the fault-free fast path.
  AsyncContext(const LocalView& view, Rng& rng, ShardBuffer& shard,
               std::uint64_t slot_index, std::uint32_t max_delay_ticks,
               std::uint64_t* last_write_slot, std::uint64_t now,
               const EpochOverlay* faults = nullptr)
      : view_(&view),
        rng_(&rng),
        shard_(&shard),
        last_write_slot_(last_write_slot),
        faults_(faults),
        slot_index_(slot_index),
        now_(now),
        max_delay_ticks_(max_delay_ticks) {}

  AsyncContext(const AsyncContext&) = delete;
  AsyncContext& operator=(const AsyncContext&) = delete;

  const LocalView& view() const { return *view_; }
  Rng& rng() { return *rng_; }

  /// Index of the slot currently in progress.
  std::uint64_t slot_index() const { return slot_index_; }

  /// Sends a message; it is delivered after a random bounded delay.
  void send(EdgeId edge, const Packet& packet) {
    const int idx = view_->link_index(edge);
    MMN_REQUIRE(idx >= 0, "send over a link not incident to this node");
    MMN_REQUIRE(packet.size() <= Packet::kMaxWords,
                "packet exceeds the O(log n) bound");
    const Neighbor nb = view_->links()[static_cast<std::uint32_t>(idx)];
    if (faults_ != nullptr &&
        (!faults_->link_alive(edge) || !faults_->node_alive(nb.to)))
        [[unlikely]] {
      // Dropped at the sender; no delay is drawn — the packet never enters
      // the medium.  (The overlay is identical under every scheduler, so
      // the per-node RNG streams stay in lockstep too.)
      ++shard_->fault_drops;
      return;
    }
    const std::uint64_t delay = 1 + rng_->next_below(max_delay_ticks_);
    shard_->async_outbox.push_back(AsyncMsgHeader{
        now_ + delay, nb.to, view_->self, edge, shard_->stage_packet(packet)});
    ++shard_->p2p_sent;
  }

  /// Sends one packet to every neighbor, staging ONE pooled payload plus
  /// deg(v) headers that share its ref (interned by commit_async_phase into
  /// a single refcounted PacketPool slot).  Each neighbor still gets its
  /// own delay draw, in ascending link order — exactly the RNG consumption
  /// and header trace of `for (nb : links()) send(nb.edge, packet)`, so
  /// converting a manual loop is bit-identical.
  void broadcast(const Packet& packet) {
    MMN_REQUIRE(packet.size() <= Packet::kMaxWords,
                "packet exceeds the O(log n) bound");
    const NeighborRange links = view_->links();
    const std::size_t deg = links.size();
    if (deg == 0) return;
    if (faults_ != nullptr) [[unlikely]] {
      // Fault path mirrors NodeContext::broadcast: per-link liveness gate,
      // payload staged lazily, survivors share one interned ref.  Dead
      // links draw no delay.
      PacketRef ref = 0;
      bool staged = false;
      for (std::size_t i = 0; i < deg; ++i) {
        const Neighbor nb = links[i];
        if (!faults_->link_alive(nb.edge) || !faults_->node_alive(nb.to)) {
          ++shard_->fault_drops;
          continue;
        }
        if (!staged) {
          ref = shard_->stage_packet(packet);
          staged = true;
        }
        const std::uint64_t delay = 1 + rng_->next_below(max_delay_ticks_);
        shard_->async_outbox.push_back(
            AsyncMsgHeader{now_ + delay, nb.to, view_->self, nb.edge, ref});
        ++shard_->p2p_sent;
      }
      return;
    }
    const PacketRef ref = shard_->stage_packet(packet);
    for (std::size_t i = 0; i < deg; ++i) {
      const Neighbor nb = links[i];
      const std::uint64_t delay = 1 + rng_->next_below(max_delay_ticks_);
      shard_->async_outbox.push_back(
          AsyncMsgHeader{now_ + delay, nb.to, view_->self, nb.edge, ref});
    }
    shard_->p2p_sent += deg;
  }

  /// Registers a write for the slot currently in progress.  Multiple writes
  /// per slot from one node collapse into one transmission: physically the
  /// node is already holding the medium for this slot.  The dedup slot is
  /// node-local state, so staging it here is shard-safe.
  void channel_write(const Packet& packet) {
    MMN_REQUIRE(packet.size() <= Packet::kMaxWords,
                "packet exceeds the O(log n) bound");
    if (*last_write_slot_ == slot_index_) return;
    *last_write_slot_ = slot_index_;
    shard_->channel_writes.push_back(ChannelWrite{view_->self, packet});
  }

  /// Open-loop accounting (sim/traffic.hpp), mirroring NodeContext: counts
  /// fresh arrivals of class `cls` against this node's shard block.
  void note_arrivals(QosClass cls, std::uint64_t count) {
    shard_->latency->note_arrivals(cls, count);
  }

  /// Folds one delivered packet's enqueue->delivery delay (in slots) into
  /// this node's shard block.
  void record_latency(QosClass cls, std::uint64_t delay_slots) {
    shard_->latency->record(cls, delay_slots);
  }

  NodeId self() const { return view_->self; }

  /// Engine-internal: advances the acting tick between deliveries.
  void set_now(std::uint64_t now) { now_ = now; }

 private:
  const LocalView* view_;
  Rng* rng_;
  ShardBuffer* shard_;
  std::uint64_t* last_write_slot_;  ///< this node's write-dedup slot
  const EpochOverlay* faults_ = nullptr;  ///< null => fault-free fast path
  std::uint64_t slot_index_;
  std::uint64_t now_;
  std::uint32_t max_delay_ticks_;
};

using AsyncProcessFactory =
    std::function<std::unique_ptr<AsyncProcess>(const LocalView&)>;

class FaultPlan;
class FaultRuntime;

class AsyncEngine {
 public:
  static constexpr std::uint64_t kTicksPerSlot = 16;

  /// Outcome of the last run()/step() call — the shared engine status
  /// (sim/runtime_core.hpp); the nested alias keeps the PR 2 spelling
  /// `AsyncEngine::RunStatus::kCompleted` working.
  using RunStatus = sim::RunStatus;

  /// max_delay_slots >= 1: upper bound on message delay, in slot lengths.
  /// `g` must outlive the engine — node views are zero-copy windows into
  /// its adjacency arena.
  /// The default scheduler is serial; pass make_scheduler(threads) to shard
  /// the slot phases over a thread pool (bit-identical results).  A null
  /// discipline is the free-for-all channel; a non-null one must not defer
  /// writes if the workload reads idle slots as information (the busy-tone
  /// synchronizer does — see sim/channel_discipline.hpp).
  AsyncEngine(const Graph& g, const AsyncProcessFactory& factory,
              std::uint64_t seed, std::uint32_t max_delay_slots,
              std::unique_ptr<Scheduler> scheduler = nullptr,
              std::unique_ptr<ChannelDiscipline> discipline = nullptr);
  ~AsyncEngine();

  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;

  /// Runs until every process is finished or max_slots slots elapse.  Never
  /// aborts: a protocol that fails to terminate is reported through status()
  /// (== kSlotCapReached), so sweeps over pathological configurations can
  /// observe and skip the run — mirroring how Engine::step exposes the
  /// synchronous round cap.
  Metrics run(std::uint64_t max_slots);

  /// Runs at most `slots` additional slots; returns true once all finished.
  bool step(std::uint64_t slots);

  RunStatus status() const { return status_; }
  const Metrics& metrics() const { return core_.metrics(); }

  /// Installs deterministic fault injection (sim/fault.hpp).  Must be
  /// called before the first slot; events apply at slot boundaries, before
  /// the slot's delivery phase.  Messages already in flight over a link
  /// that dies mid-flight still deliver — faults gate the send commit.
  void install_faults(const FaultPlan& plan);

  /// The installed fault runtime (stats + overlay), or null.
  const FaultRuntime* faults() const { return faults_.get(); }
  FaultRuntime* faults() { return faults_.get(); }

  /// Per-class delay/backlog accounting of open-loop workloads
  /// (sim/traffic.hpp); untouched by closed-loop protocols.
  const LatencyRecorder& latency() const { return core_.latency(); }

  /// Direct access to a node's process (for reading results and tests).
  /// Termination is detected incrementally, like the synchronous engine:
  /// finished() must only change inside start/on_message/on_slot calls.
  AsyncProcess& process(NodeId v);
  const AsyncProcess& process(NodeId v) const;
  NodeId num_nodes() const { return core_.num_nodes(); }

 private:
  template <void (AsyncEngine::*Body)(unsigned, NodeId)>
  void run_phase();
  void start_node(unsigned shard, NodeId v);
  void run_delivery_phase();
  void deliver_node(unsigned shard, NodeId v);
  void fanout_node(unsigned shard, NodeId v);

  RuntimeCore core_;
  std::vector<std::unique_ptr<AsyncProcess>> processes_;
  std::unique_ptr<FaultRuntime> faults_;  // null on the fault-free fast path
  std::vector<std::uint64_t> last_write_slot_;  // per-node write dedup
  std::uint64_t slot_index_ = 0;
  SlotObservation slot_obs_;  ///< the resolved slot being fanned out
  std::uint32_t max_delay_ticks_;
  bool started_ = false;
  RunStatus status_ = RunStatus::kRunning;
};

}  // namespace mmn::sim
