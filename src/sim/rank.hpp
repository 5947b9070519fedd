// Sharded synchronous execution: one rank per OS process, each running the
// ordinary Engine over a contiguous node window of the topology, with the
// cross-window seams in one module (sim/rank_exchange.hpp) behind a
// shard_comm::Transport (sim/shard_comm.hpp).
#pragma once

#include "graph/graph.hpp"
#include "sim/engine.hpp"

namespace mmn::sim {

/// This rank's slice of the node set: shard_range(n, rank, ranks).
struct RankSpec {
  unsigned rank = 0;
  unsigned ranks = 1;
  NodeId lo = 0;
  NodeId hi = 0;
};

/// One rank's engine is the Engine built from a RankSpec; the name stays
/// for callers that spell the sharded engine out.
using RankEngine = Engine;

}  // namespace mmn::sim
