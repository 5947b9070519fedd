// Cross-rank transport for sharded execution.
//
// Rank mode splits the node set over OS processes, each running the Engine
// over its node window; per round each pair of ranks swaps one batched blob
// whose format sim/rank_exchange.hpp owns.  This header is the seam that
// keeps the engine code transport-agnostic: Transport is a tiny
// pairwise-exchange interface, the bundled implementation is an AF_UNIX
// socketpair full mesh built by fork(), and an MPI backend could drop in
// behind the same three calls without touching the exchange.
//
// The exchange primitive is a *swap*, not a send: both sides of a pair call
// exchange() with their outgoing blob and receive the peer's.  The
// implementation drains both directions concurrently (poll() on a
// nonblocking fd), so the swap cannot deadlock no matter how lopsided the
// two blobs are — neither side needs the other to finish writing first.
// Ranks visit peers in ascending (min, max) pair order, which gives the
// deterministic rank-major merge order the determinism proof needs
// (ARCHITECTURE.md, "Sharded execution").
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace mmn::sim::shard_comm {

/// Pairwise blob swap between this rank and one peer.  Implementations are
/// process-private handles onto a pre-built mesh; they are not thread-safe
/// (rank mode is one process per rank, serial inside).
class Transport {
 public:
  virtual ~Transport() = default;

  virtual unsigned rank() const = 0;
  virtual unsigned ranks() const = 0;

  /// Swaps `bytes` of `data` against the peer's concurrent exchange() call;
  /// the peer's blob lands in `in` (resized, capacity reused round over
  /// round).  Both sides must call — the swap is symmetric and blocking.
  virtual void exchange(unsigned peer, const std::uint8_t* data,
                        std::size_t bytes, std::vector<std::uint8_t>& in) = 0;

  /// Wire traffic so far, both directions, framing included — the
  /// cross-boundary byte counters bench_shard_comm publishes.
  virtual std::uint64_t bytes_out() const = 0;
  virtual std::uint64_t bytes_in() const = 0;
};

/// Forks `ranks - 1` child processes and runs `fn(transport)` in every rank
/// over an AF_UNIX socketpair full mesh (parent = rank 0).  Children _exit
/// when fn returns or throws — a child never returns into the caller's
/// code; a throwing rank prints its error to stderr.  The parent reaps
/// every child, and if any rank failed throws one std::runtime_error
/// naming the rank that failed first (its exit code or signal, and its
/// message), not the peers that failed on its closed sockets afterwards.
/// With ranks == 1 no fork happens and fn gets a transport with no peers.
/// Returns only in the parent.  fn must not spawn threads
/// before exchanging (the mesh is built pre-fork; rank mode is serial per
/// rank by design).
void run_ranks(unsigned ranks, const std::function<void(Transport&)>& fn);

}  // namespace mmn::sim::shard_comm
