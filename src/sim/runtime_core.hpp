// The shared execution substrate of the multimedia-network model.
//
// Both engines — the synchronous lockstep Engine and the tick-driven
// AsyncEngine (Section 7) — simulate the same object: n nodes with local
// views, per-node RNG streams forked from one seed, point-to-point links,
// and one shared collision channel whose slot costs one time unit.
// RuntimeCore owns that substrate exactly once; the engines are thin
// stepping policies over it.
//
// Hot-path data layout (the full argument lives in ARCHITECTURE.md):
// message delivery is structure-of-arrays.  A staged send is a small POD
// header (destination, sender, link, plus tick/seq stamps on the
// asynchronous path) carrying a PacketRef index into a packet pool; the
// per-round counting sort in MessageArena::flip and the bucket drain in
// SlotBuckets::stage move 16–32-byte headers while the 80-byte payloads
// stay put.  The count/prefix passes of both run through the runtime-
// dispatched kernels in support/simd.hpp (AVX2 on capable hosts, scalar
// reference otherwise, pinnable via MMN_FORCE_SCALAR); broadcast() interns
// one pooled payload behind deg(v) headers instead of staging deg(v)
// copies.  Pools and ring buckets are recycled at their high-water-mark
// capacity, so a warmed-up run performs zero heap allocations per round.
// Determinism is unchanged: shards are contiguous ascending node ranges,
// so concatenating their header buffers in shard order reproduces the
// serial send order bit for bit (see sim/scheduler.hpp) — the payload
// indirection never participates in ordering.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/epoch.hpp"
#include "graph/graph.hpp"
#include "sim/channel.hpp"
#include "sim/channel_discipline.hpp"
#include "sim/message.hpp"
#include "sim/scheduler.hpp"
#include "sim/traffic.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace mmn::sim {

class FaultRuntime;
class RankExchange;
namespace shard_comm {
class Transport;
}

/// Outcome of an engine's last step()/run() call.  Shared by both stepping
/// policies: AsyncEngine has reported it since PR 2; the synchronous Engine
/// grew the same non-aborting surface in the fault PR.  kSlotCapReached
/// means the budget ran out with work outstanding — the run is capped, not
/// corrupted: metrics, latency summaries, and digests are all well-formed.
enum class RunStatus : std::uint8_t {
  kRunning,
  kCompleted,
  kSlotCapReached,
};

/// One incident link as known locally by a node — the graph layer's packed
/// adjacency row itself (graph/graph.hpp).  The former sim-local twin
/// struct is gone: a LocalView windows the Graph's CSR arena directly.
using mmn::Neighbor;

/// A node's a-priori knowledge: its id, its links sorted by ascending weight,
/// and the network size n (assumed known, Section 2; Section 7.3/7.4 shows
/// how to compute/estimate it — see core/size.hpp).
///
/// A 16-byte non-owning view: `links()` is a zero-copy window into the
/// topology's shared CSR arena (or an O(1) generator on the implicit dense
/// families) and `link_index` resolves through the graph's shared per-edge
/// slab — nothing is copied per node, so RuntimeCore construction is O(n)
/// regardless of m.  The Graph must outlive every view (RuntimeCore, the
/// engines, and every Process hold views by reference).
struct LocalView {
  NodeId self = kNoNode;
  NodeId n = 0;
  const Graph* topo = nullptr;

  /// This node's links, ascending weight.  Value-semantic range — build it
  /// per access (range-for keeps it alive for the loop), don't store it.
  NeighborRange links() const { return topo->neighbors(self); }

  std::uint32_t degree() const { return topo->degree(self); }

  /// Index into links() of the given edge, or -1 if not incident.  O(1)
  /// from the edge's canonical endpoint, O(log degree) otherwise.
  int link_index(EdgeId edge) const { return topo->link_slot(self, edge); }
};

/// A point-to-point message as received: the delivery header plus a pointer
/// to the payload in the round's packet pool.  Handed to node code by value;
/// the payload pointer is valid only for the duration of the handler call
/// (the pool is recycled once the round ends) — a process that needs the
/// payload later must copy the Packet, not the Received.
struct Received {
  NodeId from = kNoNode;
  EdgeId via = kNoEdge;
  const Packet* pkt = nullptr;

  const Packet& packet() const { return *pkt; }
};

/// A staged point-to-point send: the 16-byte unit MessageArena::flip
/// counting-sorts.  `ref` indexes the staging shard's packet pool.
struct MsgHeader {
  NodeId to = kNoNode;
  NodeId from = kNoNode;
  EdgeId via = kNoEdge;
  PacketRef ref = 0;
};

/// A send staged by the asynchronous policy.  The delivery tick is already
/// fixed (drawn from the sender's own RNG stream at send time); the global
/// order stamp is assigned when the phase commits, in ascending shard order
/// — i.e. in exactly the serial emission order.
struct AsyncMsgHeader {
  std::uint64_t due_tick = 0;
  NodeId to = kNoNode;
  NodeId from = kNoNode;
  EdgeId via = kNoEdge;
  PacketRef ref = 0;
};

/// Externally visible effects of one shard's nodes during one round (or one
/// asynchronous slot phase).  Nodes of one shard run sequentially, so no
/// synchronization is needed; the core merges shards in ascending order
/// after the barrier.  Cache-line aligned: adjacent shards are written by
/// different worker threads on the hottest path (every send of every node),
/// so they must not share a line.
struct alignas(64) ShardBuffer {
  std::vector<MsgHeader> outbox;
  std::vector<AsyncMsgHeader> async_outbox;
  /// Payload slots behind outbox/async_outbox refs.  Lean staging: the
  /// vector is held at its high-water SIZE (not just capacity) and
  /// `pool_used` tracks the live prefix, so stage_packet never
  /// default-constructs (and so never zero-fills) a slot in steady state —
  /// it memcpys only the packet's live prefix over whatever stale words the
  /// slot held two rounds ago.  Contract-abiding readers never see the
  /// stale tail (Packet::live_bytes()).
  std::vector<Packet> pool;
  std::uint32_t pool_used = 0;    ///< slots staged this round
  std::uint64_t pool_bytes = 0;   ///< live payload bytes staged this round
  std::vector<ChannelWrite> channel_writes;
  std::uint64_t p2p_sent = 0;
  /// Sends this shard's nodes aimed at a dead link or dead endpoint this
  /// round (sim/fault.hpp), plus inboxes of crashed nodes the engine
  /// skipped.  Merged shard-major into FaultStats::drops — a pure sum, so
  /// the merge order only matters for uniformity with every other effect.
  std::uint64_t fault_drops = 0;
  /// This shard's delay-histogram block (sim/traffic.hpp), wired by
  /// RuntimeCore at construction.  Written only by the shard's own worker,
  /// like everything else here; merged shard-major on read.
  LatencyBlock* latency = nullptr;

  /// Files one payload in the shard's pool and returns its ref.  Only the
  /// live prefix is copied; slots are appended only past the high-water
  /// mark, so a warmed-up round stages without allocating or zero-filling.
  /// (A fixed-size copy rounded up to 32/72 bytes was tried and measured
  /// slower than the variable-length live-prefix memcpy — glibc's
  /// small-copy dispatch beats the extra stores.)
  PacketRef stage_packet(const Packet& packet) {
    const PacketRef ref = pool_used;
    if (pool_used == pool.size()) [[unlikely]] {
      pool.emplace_back();
    }
    const std::size_t bytes = packet.live_bytes();
    std::memcpy(&pool[pool_used], &packet, bytes);
    pool_bytes += bytes;
    ++pool_used;
    return ref;
  }

  void clear_round() {
    outbox.clear();
    async_outbox.clear();
    pool_used = 0;   // slots stay allocated at the high-water mark
    pool_bytes = 0;
    channel_writes.clear();
    p2p_sent = 0;
    fault_drops = 0;
  }
};

/// One shard's count of not-yet-finished nodes within its static node range
/// (Scheduler::shard_range).  RuntimeCore batches the per-node finished()
/// probe into these counters: a probe only touches the counter on a
/// finished-transition, each counter is written exclusively by its shard's
/// worker (cache-line aligned — adjacent shards run on different threads),
/// and the driver sums the handful of counters after the barrier.  This
/// replaces the per-node finished-delta staging ShardBuffer used to carry.
struct alignas(64) ShardOutstanding {
  std::int64_t count = 0;
};

/// Per-round API handed to a Process.  All sends happen "this round" and are
/// delivered next round; at most one channel write per round.
///
/// A concrete final class, not an interface: the engine's hot path reaches
/// send/inbox/channel_write without any virtual dispatch (the one virtual
/// seam per node per round is Process::round itself).  The synchronizer
/// (core/synchronizer.hpp), which runs synchronous Processes over the
/// asynchronous engine, plugs in through the Sink escape hatch — a pair of
/// raw function pointers taken only when no shard buffer is attached, so the
/// engine path pays a single predictable null test.
class NodeContext final {
 public:
  /// External effect sink for contexts not backed by an engine shard (the
  /// busy-tone synchronizer's shim).  Both hooks are required.
  struct Sink {
    void (*send)(void* self, EdgeId edge, const Packet& packet) = nullptr;
    void (*channel_write)(void* self, const Packet& packet) = nullptr;
    void* self = nullptr;
  };

  /// Engine staging path: effects go to `shard`, merged after the barrier.
  /// `faults` is the run's epoch overlay when fault injection is installed
  /// (read-only during the round — events apply at slot boundaries), null on
  /// the fault-free fast path.
  NodeContext(const LocalView& view, Rng& rng, std::span<const Received> inbox,
              const SlotObservation& slot, std::uint64_t round,
              ShardBuffer& shard, const EpochOverlay* faults = nullptr)
      : view_(&view),
        rng_(&rng),
        slot_(&slot),
        shard_(&shard),
        faults_(faults),
        inbox_(inbox),
        round_(round) {}

  /// Sink path: effects go through `sink` (synchronizer shim).
  NodeContext(const LocalView& view, Rng& rng, std::span<const Received> inbox,
              const SlotObservation& slot, std::uint64_t round, Sink sink)
      : view_(&view),
        rng_(&rng),
        slot_(&slot),
        sink_(sink),
        inbox_(inbox),
        round_(round) {}

  NodeContext(const NodeContext&) = delete;
  NodeContext& operator=(const NodeContext&) = delete;

  std::uint64_t round() const { return round_; }
  const LocalView& view() const { return *view_; }
  Rng& rng() { return *rng_; }

  /// Messages delivered this round (a span into the round's flat arena;
  /// valid only for the duration of the round call).
  std::span<const Received> inbox() const { return inbox_; }

  /// The outcome of the previous round's channel slot.
  const SlotObservation& slot() const { return *slot_; }

  /// Sends a packet over one of this node's incident links.
  void send(EdgeId edge, const Packet& packet) {
    if (shard_ == nullptr) [[unlikely]] {
      sink_.send(sink_.self, edge, packet);
      sent_message_ = true;
      return;
    }
    const int idx = view_->link_index(edge);
    MMN_REQUIRE(idx >= 0, "send over a link not incident to this node");
    MMN_REQUIRE(packet.size() <= Packet::kMaxWords,
                "packet exceeds the O(log n) bound");
    const Neighbor nb = view_->links()[static_cast<std::uint32_t>(idx)];
    if (faults_ != nullptr &&
        (!faults_->link_alive(edge) || !faults_->node_alive(nb.to)))
        [[unlikely]] {
      ++shard_->fault_drops;  // dropped at the sender; nothing left the node
      return;
    }
    shard_->outbox.push_back(
        MsgHeader{nb.to, view_->self, edge, shard_->stage_packet(packet)});
    ++shard_->p2p_sent;
    sent_message_ = true;
  }

  /// Sends one packet to every neighbor (ascending link order — exactly the
  /// trace of `for (nb : links()) send(nb.edge, packet)`), staging ONE
  /// pooled payload plus deg(v) headers that share its ref instead of
  /// deg(v) payload copies.  Sharing needs no refcount here: the flip
  /// recycles each round's pool wholesale, so every header of the round —
  /// shared or not — expires with the pool two flips later.
  void broadcast(const Packet& packet) {
    if (shard_ == nullptr) [[unlikely]] {
      // Sink path (busy-tone synchronizer): per-link sends, so the shim's
      // ack accounting sees every message individually.
      for (const Neighbor& nb : view_->links()) {
        sink_.send(sink_.self, nb.edge, packet);
        sent_message_ = true;
      }
      return;
    }
    MMN_REQUIRE(packet.size() <= Packet::kMaxWords,
                "packet exceeds the O(log n) bound");
    const NeighborRange links = view_->links();
    const std::size_t deg = links.size();
    if (deg == 0) return;
    if (faults_ != nullptr) [[unlikely]] {
      // Fault path: per-link liveness gate, with the payload staged lazily
      // so a fully dark neighborhood stages nothing at all.  Surviving
      // links still share one interned payload.
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
        shard_->outbox.push_back(MsgHeader{nb.to, view_->self, nb.edge, ref});
        ++shard_->p2p_sent;
        sent_message_ = true;
      }
      return;
    }
    const PacketRef ref = shard_->stage_packet(packet);
    for (std::size_t i = 0; i < deg; ++i) {
      const Neighbor nb = links[i];
      shard_->outbox.push_back(MsgHeader{nb.to, view_->self, nb.edge, ref});
    }
    shard_->p2p_sent += deg;
    sent_message_ = true;
  }

  /// Writes to the channel slot of the current round (at most once).
  void channel_write(const Packet& packet) {
    MMN_REQUIRE(!wrote_channel_, "at most one channel write per node per slot");
    if (shard_ == nullptr) [[unlikely]] {
      sink_.channel_write(sink_.self, packet);
      wrote_channel_ = true;
      return;
    }
    MMN_REQUIRE(packet.size() <= Packet::kMaxWords,
                "packet exceeds the O(log n) bound");
    wrote_channel_ = true;
    shard_->channel_writes.push_back(ChannelWrite{view_->self, packet});
  }

  /// Open-loop accounting (sim/traffic.hpp): counts `count` fresh arrivals
  /// of class `cls` against this node's shard block.  Engine path only —
  /// the synchronizer's sink contexts carry no shard, and the open-loop
  /// workloads never run under it.
  void note_arrivals(QosClass cls, std::uint64_t count) {
    MMN_REQUIRE(shard_ != nullptr,
                "open-loop accounting needs an engine-backed context");
    shard_->latency->note_arrivals(cls, count);
  }

  /// Folds one delivered packet's enqueue->delivery delay (in slots) into
  /// the per-class histogram of this node's shard block.  Two array
  /// increments and an add — the recorder allocates nothing in steady state.
  void record_latency(QosClass cls, std::uint64_t delay_slots) {
    MMN_REQUIRE(shard_ != nullptr,
                "open-loop accounting needs an engine-backed context");
    shard_->latency->record(cls, delay_slots);
  }

  /// True if this node already wrote to the channel this round.
  bool wrote_channel() const { return wrote_channel_; }

  /// True if this node sent at least one point-to-point message this round.
  bool sent_message() const { return sent_message_; }

  NodeId self() const { return view_->self; }

 private:
  const LocalView* view_;
  Rng* rng_;
  const SlotObservation* slot_;
  ShardBuffer* shard_ = nullptr;  ///< null => route through sink_
  const EpochOverlay* faults_ = nullptr;  ///< null => fault-free fast path
  Sink sink_{};
  std::span<const Received> inbox_;
  std::uint64_t round_;
  bool wrote_channel_ = false;
  bool sent_message_ = false;
};

/// A node program.  round() is invoked exactly once per simulated round.
class Process {
 public:
  virtual ~Process() = default;

  virtual void round(NodeContext& ctx) = 0;

  /// The engine stops once every process reports finished.
  virtual bool finished() const = 0;
};

using ProcessFactory = std::function<std::unique_ptr<Process>(const LocalView&)>;

/// Fixed-capacity recycling payload store for in-flight asynchronous
/// messages: acquire() files a packet under a stable PacketRef with
/// refcount 1, add_ref() lets further headers share the slot (an interned
/// broadcast payload is one slot referenced by deg(v) headers), and
/// release() decrements — the slot returns to the free list only when the
/// LAST reader lets go.  Slots are only appended when the free list is
/// empty, so a warmed-up pool sits at its high-water mark and never
/// allocates again.  Refs stay valid across the backing vector's growth
/// (they are indices, not pointers); at(ref) pointers are only materialized
/// transiently, between mutations.
class PacketPool {
 public:
  void reset() {
    slots_.clear();
    refs_.clear();
    free_.clear();
  }

  PacketRef acquire(const Packet& packet) {
    PacketRef ref;
    if (!free_.empty()) {
      ref = free_.back();
      free_.pop_back();
    } else {
      slots_.emplace_back();
      refs_.push_back(0);
      ref = static_cast<PacketRef>(slots_.size() - 1);
    }
    // Lean copy, like ShardBuffer::stage_packet: live prefix only; the
    // slot's stale tail is never read by contract-abiding code.
    std::memcpy(&slots_[ref], &packet, packet.live_bytes());
    refs_[ref] = 1;
    return ref;
  }

  /// One more header now shares the slot.
  void add_ref(PacketRef ref) {
    MMN_DCHECK(ref < refs_.size() && refs_[ref] > 0,
               "add_ref on a slot that is not live");
    ++refs_[ref];
  }

  void release(PacketRef ref) {
    MMN_DCHECK(ref < refs_.size() && refs_[ref] > 0,
               "release on a slot that is not live");
    if (--refs_[ref] == 0) free_.push_back(ref);
  }

  const Packet& at(PacketRef ref) const { return slots_[ref]; }

  /// Live readers of a slot (0 = free).  Test hook for the interning
  /// lifetime suite.
  std::uint32_t ref_count(PacketRef ref) const { return refs_[ref]; }

  /// High-water mark: every slot ever acquired (free or live).
  std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<Packet> slots_;
  std::vector<std::uint32_t> refs_;  ///< per-slot reader count
  std::vector<PacketRef> free_;
};

/// Double-buffered flat delivery buffer: all messages delivered in the
/// current round, grouped by destination, with per-node offset spans.
/// flip() counting-sorts 16-byte MsgHeaders and steals the shards' packet
/// pools by buffer swap, so payloads are written once at send time and never
/// copied again; the pools rotate through a two-deep recycle queue and are
/// handed back to the shards with their capacity intact.
///
/// The counting sort runs on one of three paths, picked per flip:
///  * empty      — O(1) short-circuit for message-free rounds;
///  * sparse     — when the round carries far fewer messages than nodes,
///                 the headers are sorted directly (by destination, original
///                 order as tie-break — i.e. stably) and the offset table is
///                 written in one monotone pass, skipping the dense
///                 count/prefix/cursor passes over all n counters;
///  * dense      — histogram + exclusive prefix sum through the
///                 support/simd.hpp kernels (AVX2 when the host has it,
///                 scalar reference otherwise), then a stable scalar
///                 scatter.
/// All three produce bit-identical delivery tables: the scatter order is
/// always ascending (destination, serial send position).
class MessageArena {
 public:
  void reset(NodeId n, unsigned shards);

  std::span<const Received> inbox(NodeId v) const {
    return {buf_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Counting-sorts the staged headers of all shards (ascending shard order,
  /// preserving per-shard send order — i.e. exactly the serial send order)
  /// into the back buffer, recycles the shard pools, and flips buffers.
  void flip(std::vector<ShardBuffer>& shards);

  /// Cumulative bytes the flips moved: headers read + delivery records
  /// written + live payload bytes staged by the flipped rounds.  The
  /// roofline bench divides this by rounds and by wall-clock to report the
  /// hot path's traffic against measured machine bandwidth.
  std::uint64_t bytes_moved() const { return bytes_moved_; }

 private:
  /// The sparse or dense counting sort of `total` staged headers into
  /// next_buf_ / next_offsets_.
  void sort_into_next(std::vector<ShardBuffer>& shards, std::size_t total);

  /// One sparse-path entry: the destination and stable rank as sort key
  /// plus the fully resolved delivery record (headers from different shards
  /// resolve into different pools, so the pointer must be bound pre-sort).
  struct SparseEntry {
    NodeId to;
    std::uint32_t rank;  ///< serial send position (stable tie-break)
    Received r;
  };

  NodeId n_ = 0;
  bool empty_ = true;  // both delivery buffers empty, both offset sets zero
  std::uint64_t bytes_moved_ = 0;
  std::vector<Received> buf_;       // delivered this round
  std::vector<Received> next_buf_;  // being filled for next round
  std::vector<std::uint32_t> offsets_;       // n_ + 1 spans into buf_
  std::vector<std::uint32_t> next_offsets_;  // n_ + 1 spans into next_buf_
  std::vector<std::uint32_t> cursor_;        // scatter cursors, n_
  std::vector<SparseEntry> scratch_;         // sparse-path sort buffer
  std::vector<std::vector<Packet>> pools_;   // per shard, backing buf_
  std::vector<std::vector<Packet>> next_pools_;  // recycled next flip
};

/// An in-flight asynchronous message header, stamped for deterministic
/// delivery: `tick` is its fixed delivery time, `seq` its position in the
/// serial emission order, `ref` its payload in the bucket store's pool.
/// Within one staged delivery sub-round, a node handles its messages in
/// ascending (tick, seq); across sub-rounds, causal order wins — an
/// intra-slot cascade is always handled after the sub-round that triggered
/// it, even if its tick is smaller (see sim/async_engine.hpp).
struct StampedHeader {
  std::uint64_t tick = 0;
  std::uint64_t seq = 0;
  NodeId to = kNoNode;
  NodeId from = kNoNode;
  EdgeId via = kNoEdge;
  PacketRef ref = 0;
};

/// Slot-bucketed delivery store for the asynchronous stepping policy: every
/// in-flight message is filed under the slot its delivery tick falls into (a
/// ring of max_delay + slack buckets).  stage(slot) drains one bucket into a
/// flat per-destination delivery table — grouped by node, each node's
/// messages in ascending (tick, seq) — that a delivery phase shards exactly
/// like a synchronous round.  Because seq stamps are assigned at commit time
/// in ascending shard order, the table is scheduler-independent: parallel
/// async runs see bit-identical delivery orders to serial ones.
///
/// Only 32-byte headers move through the buckets and the sort; payloads live
/// in a recycling PacketPool from commit to delivery.  Ring buckets, the
/// staged table, and the pool all retain their high-water capacity, so a
/// warmed-up engine stages slots without heap allocation.
class SlotBuckets {
 public:
  /// Sizes the store: n destination nodes, the tick<->slot mapping, and the
  /// bucket ring (ring_slots must exceed the maximum delivery-slot span).
  void reset(NodeId n, std::uint64_t ticks_per_slot, std::uint64_t ring_slots);

  /// Stamps one committed send with the next serial-order seq, files its
  /// payload in the pool (refcount 1), and files the header under its
  /// delivery slot.  Call in ascending shard order only.  Returns the pool
  /// ref so a run of sends sharing one staged payload (a broadcast) can
  /// intern it via push_shared.
  PacketRef push(const AsyncMsgHeader& send, const Packet& payload);

  /// Like push, but instead of filing a new payload the header shares
  /// `pooled` — the ref a preceding push() of the same commit returned.
  /// Bumps the slot's refcount; the slot frees when the last sharing
  /// header's delivery releases it.
  void push_shared(const AsyncMsgHeader& send, PacketRef pooled);

  /// Drains every message due in `slot` into the delivery table; returns the
  /// number of messages staged.  Messages pushed after this call land in a
  /// fresh bucket, so calling again stages only the intra-slot cascades.
  /// The previous table's payloads are released back to the pool.
  ///
  /// The per-slot sort is a radix partition: a histogram + prefix sum over
  /// destinations (support/simd.hpp kernels), a stable scatter — bucket
  /// order is ascending seq, so each destination's run lands seq-sorted —
  /// and a small per-run sort by (tick, seq) only where a run holds more
  /// than one message.  Identical table to the old global
  /// sort-by-(to, tick, seq), without moving every header through an
  /// O(m log m) comparison sort.
  std::size_t stage(std::uint64_t slot);

  /// Messages staged for `v` by the last stage() call, ascending (tick, seq).
  /// Valid until the next stage() call.
  std::span<const StampedHeader> inbox(NodeId v) const {
    return {staged_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Payload of a staged header.  The reference is valid until the next
  /// push() or stage() call — materialize per delivery, do not hold.
  const Packet& payload(PacketRef ref) const { return pool_.at(ref); }

  /// Total messages filed but not yet staged for delivery.
  std::size_t in_flight() const { return in_flight_; }

  /// The payload pool (test hook: the interning lifetime suite reads
  /// refcounts and the high-water capacity through it).
  const PacketPool& pool() const { return pool_; }

 private:
  NodeId n_ = 0;
  std::uint64_t ticks_per_slot_ = 1;
  std::uint64_t next_seq_ = 0;
  std::size_t in_flight_ = 0;
  std::vector<std::vector<StampedHeader>> ring_;  ///< bucket = slot % size
  std::vector<StampedHeader> staged_;  ///< last staged slot, (to, tick, seq)
  std::vector<std::uint32_t> offsets_;  ///< n_ + 1 spans into staged_
  std::vector<std::uint32_t> cursor_;   ///< radix scatter cursors, n_
  PacketPool pool_;                     ///< payloads, commit -> delivery
};

/// The substrate both engines execute on, over a node window.
///
/// Outside rank mode the window is the whole node set [0, n).  Given a
/// transport of K > 1 ranks, it is this rank's
/// Scheduler::shard_range(n, rank, K) (sim/rank_exchange.hpp): views, RNG
/// streams, finished flags, shard buffers and the delivery arena exist only
/// for owned nodes, while the channel discipline and metrics still span all
/// n.  Per-node accessors take window-local indices i, node lo() + i — the
/// node id itself outside rank mode.
class RuntimeCore {
 public:
  /// Builds views, per-node RNG streams forked from `seed`, the channel,
  /// metrics, and the message arena.  Views are non-owning windows into the
  /// graph's CSR arena (O(n) pointer setup, no adjacency copies), so `g`
  /// must outlive the core and every engine built on it.  A null scheduler
  /// means serial; a null discipline means free-for-all (the bare Section 2
  /// channel).  A transport of more than one rank makes the core one rank
  /// of a sharded run: `g` may then be a windowed build covering the owned
  /// rows, and every rank must pass the same seed and discipline.
  RuntimeCore(const Graph& g, std::uint64_t seed,
              std::unique_ptr<Scheduler> scheduler = nullptr,
              std::unique_ptr<ChannelDiscipline> discipline = nullptr,
              shard_comm::Transport* transport = nullptr);
  ~RuntimeCore();

  RuntimeCore(const RuntimeCore&) = delete;
  RuntimeCore& operator=(const RuntimeCore&) = delete;

  /// Global node count n.
  NodeId num_nodes() const { return graph_->num_nodes(); }
  /// First owned node, and the number of owned nodes.
  NodeId lo() const { return lo_; }
  NodeId owned() const { return static_cast<NodeId>(views_.size()); }
  const Graph& graph() const { return *graph_; }
  const LocalView& view(NodeId i) const { return views_[i]; }
  Rng& rng(NodeId i) { return rngs_[i]; }
  Channel& channel() { return channel_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  const SlotObservation& slot() const { return slot_; }
  std::uint64_t round() const { return round_; }
  std::span<const Received> inbox(NodeId i) const { return arena_.inbox(i); }
  Scheduler& scheduler() { return *scheduler_; }
  ShardBuffer& shard(unsigned s) { return shards_[s]; }
  ChannelDiscipline& discipline() { return *discipline_; }

  /// Builds one process per owned node through `factory` (views are fully
  /// built first, so the vector never reallocates under a process) and
  /// seeds the finished tracking from their initial finished() probes.
  template <typename P>
  std::vector<std::unique_ptr<P>> spawn(
      const std::function<std::unique_ptr<P>(const LocalView&)>& factory) {
    std::vector<std::unique_ptr<P>> processes;
    processes.reserve(owned());
    finished_flag_.reserve(owned());
    for (const LocalView& view : views_) {
      processes.push_back(factory(view));
      MMN_REQUIRE(processes.back() != nullptr, "factory returned null process");
      finished_flag_.push_back(processes.back()->finished() ? 1 : 0);
    }
    count_outstanding();
    return processes;
  }

  /// Folds node i's finished() probe, taken right after its handlers ran,
  /// into its shard's outstanding counter.  Touches the counter only on a
  /// transition, so termination stays exact without an O(n) scan per round.
  void note_finished(unsigned shard, NodeId i, bool finished) {
    const char done = finished ? 1 : 0;
    if (done != finished_flag_[i]) {
      finished_flag_[i] = done;
      outstanding_[shard].count += done ? -1 : 1;
    }
  }

  /// True when no node of any window is unfinished.
  bool all_finished() const {
    if (peer_outstanding_ != 0) return false;
    for (const ShardOutstanding& s : outstanding_) {
      if (s.count != 0) return false;
    }
    return true;
  }

  /// Installs the fault runtime whose drop counters the commit paths merge
  /// into (null = fault-free; the default).  Owned by the engine.
  void set_fault_runtime(FaultRuntime* faults) { faults_ = faults; }
  FaultRuntime* fault_runtime() { return faults_; }

  /// One lockstep round: runs `fn` over every owned node under the
  /// scheduler, then commits deterministically — channel writes and p2p
  /// sends merged in ascending shard order (and, in rank mode, swapped with
  /// the peers and merged in ascending rank order), slot resolved, arena
  /// flipped, round advanced.
  void run_round(Scheduler::NodeFn fn);

  /// Resolves the current slot through the channel discipline: the staged
  /// writes (ascending commit order = ascending node order within the slot)
  /// are handed to the policy, which picks the contenders and resolves.
  /// Used by run_round internally; the asynchronous policy calls it at each
  /// slot boundary.
  SlotObservation resolve_slot();

  /// True when no channel work is outstanding: no write staged for the
  /// current slot and nothing deferred inside the discipline.
  bool channel_idle() const {
    return slot_writes_.empty() && discipline_->backlog() == 0;
  }

  /// The asynchronous policy's bucket store; inert until its reset().
  SlotBuckets& slot_buckets() { return slot_buckets_; }

  /// Per-class delay/backlog accounting for open-loop workloads
  /// (sim/traffic.hpp).  Always present (a block per shard, ~1 KiB each);
  /// closed-loop runs simply never write to it.
  const LatencyRecorder& latency() const { return latency_; }
  LatencyRecorder& latency() { return latency_; }

  /// Commits one asynchronous slot phase: the staged effects of all shards
  /// merged in ascending shard order — channel writes into the channel,
  /// async sends seq-stamped into the slot buckets, p2p counts into metrics.
  /// The shard-major merge order equals the serial emission order, so the
  /// committed state is identical under any scheduler.
  void commit_async_phase();

  /// Rank mode's cross-shard messages sent and window boundary edges
  /// (sim/rank_exchange.hpp); both 0 outside rank mode.
  std::uint64_t xshard_msgs() const;
  std::uint64_t boundary_edges() const;

 private:
  void count_outstanding();

  const Graph* graph_;
  NodeId lo_ = 0;
  std::vector<LocalView> views_;
  std::vector<Rng> rngs_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<ChannelDiscipline> discipline_;
  std::vector<ShardBuffer> shards_;
  LatencyRecorder latency_;
  MessageArena arena_;
  SlotBuckets slot_buckets_;
  Channel channel_;
  std::vector<ChannelWrite> slot_writes_;  // staged for the current slot
  SlotObservation slot_;  // outcome of the previous round's slot
  Metrics metrics_;
  FaultRuntime* faults_ = nullptr;  ///< engine-owned; drops merge here
  std::uint64_t round_ = 0;
  std::vector<char> finished_flag_;  // per owned node; char: shard-safe
  /// Per-shard count of unfinished nodes in the shard's static node range.
  /// Written only by the shard's own worker (cache-line aligned), summed
  /// after the barrier — the batched finished() probe.
  std::vector<ShardOutstanding> outstanding_;
  /// Null outside rank mode: a single process allocates no rank scratch.
  std::unique_ptr<RankExchange> exchange_;
  std::int64_t peer_outstanding_ = 0;  ///< other windows' unfinished nodes
};

}  // namespace mmn::sim
