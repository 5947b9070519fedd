// The cross-window seams of sharded synchronous execution, in one module.
//
// Rank r of K runs the ordinary Engine over the node window
// [lo, hi) = Scheduler::shard_range(n, r, K) of a windowed CSR arena
// (graph/generators.hpp, build_topology_window): RuntimeCore holds views,
// RNG streams, finished flags and the delivery arena only for owned nodes
// (sim/runtime_core.hpp).  The multi-access channel is NOT sharded: every
// rank holds a replica of the channel and its discipline, feeds it the
// identical rank-major merged write list each slot, and so resolves every
// slot to the identical observation without a coordinator — disciplines are
// deterministic functions of the committed write sequence and the seed
// (sim/channel_discipline.hpp).
//
// RankExchange is everything that crosses a window boundary.  After the
// node phase of every round, RuntimeCore::run_round hands it the staged
// shard buffers; per ordered pair of ranks one batched blob is swapped over
// a shard_comm::Transport.  The blob format, written and parsed only here:
//
//   u64 h | MsgHeader[h]          cross-shard sends, owned sender -> peer
//                                 window; `to` is global, `ref` is a wire
//                                 ordinal into the payload stream
//   u64 p | p bytes               the payloads, live prefix only; one per
//                                 run of equal refs (a broadcast ships one
//                                 payload: broadcast interning carried
//                                 onto the wire)
//   u64 w | (NodeId, Packet)[w]   this rank's channel writes (every peer
//                                 gets the same list — the channel is
//                                 replicated)
//   u64                           this rank's outstanding (unfinished) count
//
// Each rank then merges: ingress buffers indexed by source rank feed one
// MessageArena::flip — ascending rank order concatenates to exactly the
// ascending-node serial send order, so the stable counting sort delivers
// bit-identical inboxes; channel writes merge rank-major into the
// replicated discipline; outstanding counts sum into the same termination
// predicate Engine::step evaluates on one process, so all ranks stop on the
// same round with no extra handshake.  The initial counts are swapped once
// before the first round (the predicate is checked before it runs).
//
// Fault plans replay identically on every rank (they are plan-time-drawn
// from the full graph — sim/fault.hpp), so overlay state and discipline
// stifles stay replicated under churn too.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/runtime_core.hpp"
#include "sim/shard_comm.hpp"

namespace mmn::sim {

class RankExchange {
 public:
  /// `g` is the windowed build the rank runs on; [lo, hi) its owned window.
  RankExchange(const Graph& g, NodeId lo, NodeId hi,
               shard_comm::Transport& transport);

  /// Swaps this window's initial outstanding count with every peer and
  /// returns the peers' sum.
  std::int64_t swap_outstanding(std::int64_t local);

  /// One round's exchange, after the node phase.  Partitions the staged
  /// sends of `staged` (ascending shard order) into the own-window ingress
  /// buffer and one wire batch per peer, then clears the staged buffers;
  /// swaps blobs with every peer; replaces `writes` (this rank's channel
  /// writes, ascending node order) with every rank's, rank-major.  Returns
  /// the peers' outstanding sum after their node phase.
  std::int64_t exchange_round(std::vector<ShardBuffer>& staged,
                              std::vector<ChannelWrite>& writes,
                              std::int64_t local_outstanding);

  /// Per-source-rank ingress buffers, headers addressed window-locally;
  /// flip them in ascending rank order.
  std::vector<ShardBuffer>& ingress() { return ingress_; }

  /// Cross-shard messages this rank sent to peers (headers on the wire).
  std::uint64_t xshard_msgs() const { return xshard_msgs_; }
  /// Edges with exactly one endpoint in the window — the frontier the
  /// cross-shard traffic rides.
  std::uint64_t boundary_edges() const { return boundary_edges_; }

 private:
  unsigned owner_of(NodeId v) const;
  void partition(std::vector<ShardBuffer>& staged);
  void write_blob(unsigned peer, const std::vector<ChannelWrite>& writes,
                  std::int64_t outstanding);
  std::int64_t read_blob(unsigned peer);

  shard_comm::Transport* transport_;
  unsigned rank_;
  unsigned ranks_;
  NodeId n_;
  NodeId lo_;
  NodeId hi_;
  std::vector<NodeId> bounds_;  ///< ranks + 1 window bounds, owner lookup

  std::vector<ShardBuffer> ingress_;  ///< per source rank

  /// Per-peer wire scratch, all held at high-water capacity.
  std::vector<std::vector<MsgHeader>> out_headers_;     ///< per dst rank
  std::vector<std::vector<std::uint8_t>> out_payload_;  ///< per dst rank
  std::vector<PacketRef> last_src_;   ///< per dst: last staged ref seen
  std::vector<PacketRef> last_emit_;  ///< per dst: payloads emitted
  std::vector<std::uint8_t> out_blob_;
  std::vector<std::uint8_t> in_blob_;
  std::vector<std::vector<ChannelWrite>> peer_writes_;  ///< per src rank

  std::uint64_t xshard_msgs_ = 0;
  std::uint64_t boundary_edges_ = 0;
};

}  // namespace mmn::sim
