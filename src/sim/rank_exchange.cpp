#include "sim/rank_exchange.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "sim/scheduler.hpp"
#include "support/check.hpp"

namespace mmn::sim {
namespace {

constexpr PacketRef kNoRef = static_cast<PacketRef>(-1);

void append_bytes(std::vector<std::uint8_t>& blob, const void* data,
                  std::size_t bytes) {
  if (bytes == 0) return;  // data() of an empty vector may be null
  const std::size_t old = blob.size();
  blob.resize(old + bytes);
  std::memcpy(blob.data() + old, data, bytes);
}

void append_u64(std::vector<std::uint8_t>& blob, std::uint64_t x) {
  append_bytes(blob, &x, sizeof(x));
}

/// Bounds-checked cursor over a received blob; every read is validated so a
/// torn or hostile frame trips MMN_REQUIRE instead of reading wild memory.
struct BlobReader {
  const std::uint8_t* p;
  std::size_t size;
  std::size_t cur = 0;

  void read(void* out, std::size_t bytes) {
    MMN_REQUIRE(cur + bytes <= size, "rank exchange blob truncated");
    std::memcpy(out, p + cur, bytes);
    cur += bytes;
  }

  std::uint64_t read_u64() {
    std::uint64_t x;
    read(&x, sizeof(x));
    return x;
  }

  /// Parses one live-prefix Packet (the first word carries the size field,
  /// so the wire length is self-describing).  The void* casts opt into the
  /// same partial-object copy the staging pools do (stale tail never read).
  void read_packet(Packet& out) {
    MMN_REQUIRE(cur + sizeof(std::uint64_t) <= size,
                "rank exchange blob truncated");
    std::memcpy(static_cast<void*>(&out), p + cur, sizeof(std::uint64_t));
    const std::size_t live = out.live_bytes();
    MMN_REQUIRE(live <= sizeof(Packet) && cur + live <= size,
                "rank exchange packet overruns its blob");
    std::memcpy(static_cast<void*>(&out), p + cur, live);
    cur += live;
  }
};

}  // namespace

RankExchange::RankExchange(const Graph& g, NodeId lo, NodeId hi,
                           shard_comm::Transport& transport)
    : transport_(&transport),
      rank_(transport.rank()),
      ranks_(transport.ranks()),
      n_(g.num_nodes()),
      lo_(lo),
      hi_(hi) {
  bounds_.resize(ranks_ + 1);
  for (unsigned r = 0; r < ranks_; ++r) {
    bounds_[r] = Scheduler::shard_range(n_, r, ranks_).first;
  }
  bounds_[ranks_] = n_;
  ingress_.resize(ranks_);
  out_headers_.resize(ranks_);
  out_payload_.resize(ranks_);
  last_src_.resize(ranks_);
  last_emit_.resize(ranks_);
  peer_writes_.resize(ranks_);
  for (NodeId v = lo_; v < hi_; ++v) {
    for (const Neighbor& nb : g.neighbors(v)) {
      if (nb.to < lo_ || nb.to >= hi_) ++boundary_edges_;
    }
  }
}

std::int64_t RankExchange::swap_outstanding(std::int64_t local) {
  std::int64_t peers = 0;
  for (unsigned peer = 0; peer < ranks_; ++peer) {
    if (peer == rank_) continue;
    out_blob_.clear();
    append_u64(out_blob_, static_cast<std::uint64_t>(local));
    transport_->exchange(peer, out_blob_.data(), out_blob_.size(), in_blob_);
    BlobReader in{in_blob_.data(), in_blob_.size()};
    peers += static_cast<std::int64_t>(in.read_u64());
    MMN_REQUIRE(in.cur == in.size, "rank exchange blob has trailing bytes");
  }
  return peers;
}

unsigned RankExchange::owner_of(NodeId v) const {
  auto r = static_cast<unsigned>(static_cast<std::uint64_t>(v) * ranks_ / n_);
  if (r >= ranks_) r = ranks_ - 1;
  while (v < bounds_[r]) --r;
  while (v >= bounds_[r + 1]) ++r;
  return r;
}

/// Partition preserves outbox order, so every per-destination stream is
/// still ascending-sender.  Interned broadcast runs (consecutive equal refs
/// — refs are unique per stage_packet call within one shard's round, so
/// equality implies one run) ship/stage one payload.
void RankExchange::partition(std::vector<ShardBuffer>& staged) {
  ShardBuffer& own = ingress_[rank_];
  for (unsigned r = 0; r < ranks_; ++r) {
    out_headers_[r].clear();
    out_payload_[r].clear();
    last_emit_[r] = 0;
  }
  for (ShardBuffer& sb : staged) {
    // Refs restart in every shard's pool, so a run never spans shards.
    last_src_.assign(ranks_, kNoRef);
    const Packet* pool = sb.pool.data();
    for (const MsgHeader& h : sb.outbox) {
      const unsigned dst = owner_of(h.to);
      if (dst == rank_) {
        if (h.ref != last_src_[dst]) {
          last_src_[dst] = h.ref;
          last_emit_[dst] = own.stage_packet(pool[h.ref]);
        }
        own.outbox.push_back(
            MsgHeader{h.to - lo_, h.from, h.via, last_emit_[dst]});
      } else {
        if (h.ref != last_src_[dst]) {
          last_src_[dst] = h.ref;
          const Packet& pkt = pool[h.ref];
          append_bytes(out_payload_[dst], &pkt, pkt.live_bytes());
          ++last_emit_[dst];  // 1-based count; wire ref = count - 1
        }
        out_headers_[dst].push_back(
            MsgHeader{h.to, h.from, h.via, last_emit_[dst] - 1});
        ++xshard_msgs_;
      }
    }
    sb.clear_round();
  }
}

void RankExchange::write_blob(unsigned peer,
                              const std::vector<ChannelWrite>& writes,
                              std::int64_t outstanding) {
  out_blob_.clear();
  append_u64(out_blob_, out_headers_[peer].size());
  append_bytes(out_blob_, out_headers_[peer].data(),
               out_headers_[peer].size() * sizeof(MsgHeader));
  append_u64(out_blob_, out_payload_[peer].size());
  append_bytes(out_blob_, out_payload_[peer].data(),
               out_payload_[peer].size());
  append_u64(out_blob_, writes.size());
  for (const ChannelWrite& w : writes) {
    append_bytes(out_blob_, &w.node, sizeof(w.node));
    append_bytes(out_blob_, &w.packet, w.packet.live_bytes());
  }
  append_u64(out_blob_, static_cast<std::uint64_t>(outstanding));
}

/// Parses the blob just received from `peer` into its ingress buffer and
/// write list; returns the peer's outstanding count.
std::int64_t RankExchange::read_blob(unsigned peer) {
  BlobReader in{in_blob_.data(), in_blob_.size()};
  const std::uint64_t n_headers = in.read_u64();
  ShardBuffer& ingress = ingress_[peer];
  MMN_REQUIRE(in.cur + n_headers * sizeof(MsgHeader) <= in.size,
              "rank exchange blob truncated");
  const auto* headers = reinterpret_cast<const MsgHeader*>(in.p + in.cur);
  in.cur += n_headers * sizeof(MsgHeader);
  const std::uint64_t payload_bytes = in.read_u64();
  BlobReader payload{in.p + in.cur, payload_bytes};
  in.cur += payload_bytes;
  MMN_REQUIRE(in.cur <= in.size, "rank exchange blob truncated");
  // Wire refs are run ordinals: a ref change means the next payload in the
  // stream; equal refs share the previously staged slot.
  PacketRef last_wire = kNoRef;
  PacketRef staged = 0;
  Packet pkt;
  for (std::uint64_t i = 0; i < n_headers; ++i) {
    const MsgHeader h = headers[i];
    MMN_REQUIRE(h.to >= lo_ && h.to < hi_,
                "cross-shard header addressed to a node this rank "
                "does not own");
    if (h.ref != last_wire) {
      MMN_REQUIRE(h.ref == last_wire + 1 || last_wire == kNoRef,
                  "cross-shard payload runs out of order");
      last_wire = h.ref;
      payload.read_packet(pkt);
      staged = ingress.stage_packet(pkt);
    }
    ingress.outbox.push_back(MsgHeader{h.to - lo_, h.from, h.via, staged});
  }
  MMN_REQUIRE(payload.cur == payload.size,
              "cross-shard payload bytes left over");

  const std::uint64_t n_writes = in.read_u64();
  peer_writes_[peer].clear();
  for (std::uint64_t i = 0; i < n_writes; ++i) {
    ChannelWrite w;
    in.read(&w.node, sizeof(w.node));
    in.read_packet(w.packet);
    peer_writes_[peer].push_back(std::move(w));
  }
  const auto outstanding = static_cast<std::int64_t>(in.read_u64());
  MMN_REQUIRE(in.cur == in.size, "rank exchange blob has trailing bytes");
  return outstanding;
}

/// Peers are visited in ascending id; the swap itself is full-duplex
/// (shard_comm.hpp), and ascending order admits no waiting cycle, so the
/// round's exchange always completes.
std::int64_t RankExchange::exchange_round(std::vector<ShardBuffer>& staged,
                                          std::vector<ChannelWrite>& writes,
                                          std::int64_t local_outstanding) {
  partition(staged);
  std::int64_t peers = 0;
  for (unsigned peer = 0; peer < ranks_; ++peer) {
    if (peer == rank_) continue;
    write_blob(peer, writes, local_outstanding);
    transport_->exchange(peer, out_blob_.data(), out_blob_.size(), in_blob_);
    peers += read_blob(peer);
  }
  // Ranks own ascending node windows, so the rank-major merge is ascending
  // node order — the exact serial commit order the disciplines'
  // determinism contract is stated over.  Merged in place: this rank's
  // writes shift up behind the lower ranks' (no second write list).
  std::size_t lower = 0;
  std::size_t total = writes.size();
  for (unsigned r = 0; r < ranks_; ++r) {
    if (r < rank_) lower += peer_writes_[r].size();
    if (r != rank_) total += peer_writes_[r].size();
  }
  const std::size_t mine = writes.size();
  writes.resize(total);
  std::move_backward(writes.begin(), writes.begin() + mine,
                     writes.begin() + lower + mine);
  auto out = writes.begin();
  for (unsigned r = 0; r < ranks_; ++r) {
    if (r == rank_) {
      out += mine;
    } else {
      out = std::move(peer_writes_[r].begin(), peer_writes_[r].end(), out);
    }
  }
  return peers;
}

}  // namespace mmn::sim
