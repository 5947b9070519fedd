// Deterministic fault injection (sim/fault.hpp, graph/epoch.hpp): plan
// construction is a pure function of (graph, parameters, seed); the epoch
// overlay's compaction preserves surviving edges bit for bit; the registry's
// recovery scenarios re-converge to pinned digests after mid-run link kills;
// and every faulted run — recovery, churn, sync, async — is bit-identical
// across serial and 2/4/8-thread schedulers and across epoch-boundary
// placement.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/openloop.hpp"
#include "graph/epoch.hpp"
#include "graph/generators.hpp"
#include "scenario/registry.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"

namespace mmn {
namespace {

using sim::FaultEvent;
using sim::FaultKind;
using sim::FaultPlan;

// ---- plan construction -----------------------------------------------------

TEST(FaultPlan, ChurnIsDeterministicPerSeed) {
  const Graph g = random_connected(64, 128, 7);
  const FaultPlan a = FaultPlan::link_churn(g, 0.01, 500, 7);
  const FaultPlan b = FaultPlan::link_churn(g, 0.01, 500, 7);
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_TRUE(std::equal(a.events().begin(), a.events().end(),
                         b.events().begin()));
  // All draws happen at plan-build time from a forked stream, so the plan
  // depends on the seed and on nothing else.
  const FaultPlan c = FaultPlan::link_churn(g, 0.01, 500, 8);
  EXPECT_FALSE(a.events().size() == c.events().size() &&
               std::equal(a.events().begin(), a.events().end(),
                          c.events().begin()));
}

TEST(FaultPlan, LinkKillsAreConnectivitySafe) {
  const Graph g = random_connected(64, 128, 7);
  const FaultPlan plan = FaultPlan::link_kills(g, 6, /*slot=*/10, 7);
  ASSERT_EQ(plan.events().size(), 6u);
  EpochOverlay overlay(g);
  for (const FaultEvent& e : plan.events()) {
    EXPECT_EQ(e.slot, 10u);
    EXPECT_EQ(e.kind, FaultKind::kLinkDown);
    overlay.kill_link(e.id);
  }
  // BFS over the overlay: every node must still be reachable.
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> queue{0};
  seen[0] = 1;
  while (!queue.empty()) {
    const NodeId u = queue.back();
    queue.pop_back();
    for (const Neighbor& nb : g.neighbors(u)) {
      if (!overlay.link_alive(nb.edge) || seen[nb.to]) continue;
      seen[nb.to] = 1;
      queue.push_back(nb.to);
    }
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<long>(g.num_nodes()));
}

TEST(FaultPlan, NodeChurnPairsEveryCrashWithARecovery) {
  const Graph g = random_connected(64, 128, 7);
  const FaultPlan plan = FaultPlan::node_churn(g, 0.05, /*down_slots=*/30,
                                               /*horizon=*/400, 7);
  ASSERT_FALSE(plan.empty());
  std::map<NodeId, std::vector<std::uint64_t>> crashes;
  std::map<NodeId, std::vector<std::uint64_t>> recoveries;
  for (const FaultEvent& e : plan.events()) {
    if (e.kind == FaultKind::kNodeCrash) crashes[e.id].push_back(e.slot);
    if (e.kind == FaultKind::kNodeRecover) recoveries[e.id].push_back(e.slot);
  }
  EXPECT_FALSE(crashes.empty());
  for (const auto& [v, slots] : crashes) {
    ASSERT_EQ(recoveries[v].size(), slots.size()) << "node " << v;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      EXPECT_EQ(recoveries[v][i], slots[i] + 30) << "node " << v;
    }
  }
}

TEST(FaultPlan, OutageWindowsAlternateWithinHorizon) {
  FaultPlan plan;
  plan.add_outage_windows(/*link=*/3, /*first_down=*/10, /*down_slots=*/5,
                          /*up_slots=*/15, /*horizon=*/60);
  // down at 10, up at 15, down at 30, up at 35, down at 50, up at 55.
  ASSERT_EQ(plan.events().size(), 6u);
  EXPECT_EQ(plan.events()[0], (FaultEvent{10, FaultKind::kLinkDown, 3}));
  EXPECT_EQ(plan.events()[1], (FaultEvent{15, FaultKind::kLinkUp, 3}));
  EXPECT_EQ(plan.events()[4], (FaultEvent{50, FaultKind::kLinkDown, 3}));
  EXPECT_EQ(plan.first_fault_slot(), 10u);
}

// ---- epoch overlay ---------------------------------------------------------

TEST(EpochOverlay, CompactPreservesSurvivorsAndAppliesDelta) {
  const Graph g = random_connected(32, 64, 7);
  EpochOverlay overlay(g);
  const EdgeId killed_a = 3;
  const EdgeId killed_b = 10;
  overlay.kill_link(killed_a);
  overlay.kill_link(killed_b);
  const Edge e0 = g.edge(0);
  overlay.add_link(e0.u, e0.v, 999'999);  // parallel delta link
  const EpochOverlay::Compaction c = overlay.compact();
  EXPECT_EQ(c.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(c.graph.num_edges(), g.num_edges() - 2 + 1);
  EXPECT_EQ(overlay.epoch(), 1u);
  ASSERT_EQ(c.old_to_new.size(), g.num_edges());
  EXPECT_EQ(c.old_to_new[killed_a], kNoEdge);
  EXPECT_EQ(c.old_to_new[killed_b], kNoEdge);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (e == killed_a || e == killed_b) continue;
    const EdgeId mapped = c.old_to_new[e];
    ASSERT_NE(mapped, kNoEdge);
    const Edge old_edge = g.edge(e);
    const Edge new_edge = c.graph.edge(mapped);
    EXPECT_EQ(new_edge.u, old_edge.u);
    EXPECT_EQ(new_edge.v, old_edge.v);
    EXPECT_EQ(new_edge.weight, old_edge.weight);
  }
}

TEST(EpochOverlay, AddThenKillSameLinkWithinOneEpoch) {
  // A link is replaced mid-epoch: a delta link between the same endpoints
  // goes in first, then the base link is killed.  The compaction must drop
  // the base edge (old_to_new maps it to kNoEdge) while the delta
  // replacement survives as a real edge of the fresh arena with its own
  // weight — the add/kill order within the epoch is irrelevant because the
  // tombstone set and the delta adjacency are independent structures.
  const Graph g = build_topology(TopologySpec{TopoKind::kRing, 16, 7});
  EpochOverlay overlay(g);
  const EdgeId base_e = 4;
  const Edge ed = g.edge(base_e);
  const Weight replacement_w = 999'999;
  overlay.add_link(ed.u, ed.v, replacement_w);
  overlay.kill_link(base_e);
  EXPECT_EQ(overlay.links_down(), 1u);
  EXPECT_EQ(overlay.delta_links(), 1u);
  const EpochOverlay::Compaction c = overlay.compact();
  // Net edge count is unchanged: one base edge died, one delta arrived.
  EXPECT_EQ(c.graph.num_edges(), g.num_edges());
  EXPECT_EQ(c.old_to_new[base_e], kNoEdge);
  // The replacement is the last edge (delta ids follow the survivors) and
  // carries the delta weight, not the killed base link's.
  const Edge fresh = c.graph.edge(c.graph.num_edges() - 1);
  EXPECT_EQ(fresh.u, std::min(ed.u, ed.v));
  EXPECT_EQ(fresh.v, std::max(ed.u, ed.v));
  EXPECT_EQ(fresh.weight, replacement_w);
  // Both endpoints keep their degree: the replacement slot is live.
  EXPECT_EQ(c.graph.degree(ed.u), g.degree(ed.u));
  EXPECT_EQ(c.graph.degree(ed.v), g.degree(ed.v));
}

TEST(EpochOverlay, CompactDropsDeltaLinksWithCrashedEndpoints) {
  // A delta link whose endpoint crashed before the epoch boundary must NOT
  // materialize in the fresh arena — compaction filters the delta by node
  // liveness exactly as it filters base edges.
  const Graph g = build_topology(TopologySpec{TopoKind::kRing, 16, 7});
  EpochOverlay overlay(g);
  overlay.add_link(2, 9, 999'998);   // endpoint 9 will crash
  overlay.add_link(3, 11, 999'999);  // both endpoints stay alive
  overlay.crash_node(9);
  EXPECT_EQ(overlay.delta_links(), 2u);
  const EpochOverlay::Compaction c = overlay.compact();
  // Node 9's two ring edges die with it; of the two delta links only the
  // live-endpoint one lands.
  EXPECT_EQ(c.graph.num_edges(), g.num_edges() - 2 + 1);
  EXPECT_EQ(c.graph.degree(9), 0u);
  EXPECT_EQ(c.graph.degree(2), g.degree(2));  // no half-added stub at 2
  const Edge fresh = c.graph.edge(c.graph.num_edges() - 1);
  EXPECT_EQ(fresh.u, 3u);
  EXPECT_EQ(fresh.v, 11u);
  EXPECT_EQ(fresh.weight, 999'999u);
  // The delta was consumed either way — the crashed-endpoint link did not
  // linger to resurface later.  (The overlay stays bound to the OLD base,
  // so a second boundary re-streams the base survivors only: no delta.)
  EXPECT_EQ(overlay.delta_links(), 0u);
  const EpochOverlay::Compaction c2 = overlay.compact();
  EXPECT_EQ(c2.graph.num_edges(), g.num_edges() - 2);
}

TEST(EpochOverlay, CrashedEndpointsDropTheirEdgesOnCompaction) {
  const Graph g = build_topology(TopologySpec{TopoKind::kRing, 16, 7});
  EpochOverlay overlay(g);
  overlay.crash_node(5);
  const EpochOverlay::Compaction c = overlay.compact();
  // Node ids are stable (the crashed node stays as an isolated vertex);
  // both ring edges at node 5 are gone.
  EXPECT_EQ(c.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(c.graph.num_edges(), g.num_edges() - 2);
  EXPECT_EQ(c.graph.degree(5), 0u);
}

// ---- recovery scenarios ----------------------------------------------------

TEST(FaultRecovery, PartitionAndMstReconvergeToPinnedDigests) {
  scenario::register_builtin();
  struct Pin {
    const char* name;
    std::uint64_t digest;
    std::uint64_t recovery_slots;
  };
  // Pinned per (n=64, default seed, k=4): phase A runs into 4 link kills at
  // slot 24, the overlay compacts, phase B re-converges from scratch on the
  // surviving topology.  A change here is a behavior change in the fault
  // path or the protocols, never noise.
  const Pin pins[] = {
      {"fault/partition/det/random", 0x3a8ecbb1f87a7cd9ULL, 343},
      {"fault/mst/random", 0x0c179d95bd036db7ULL, 367},
  };
  for (const Pin& pin : pins) {
    const scenario::Scenario* s = scenario::Registry::instance().find(pin.name);
    ASSERT_NE(s, nullptr) << pin.name;
    const scenario::RunResult r = scenario::run(*s, 64, s->default_seed);
    EXPECT_TRUE(r.completed) << pin.name;
    EXPECT_EQ(r.digest, pin.digest) << pin.name;
    EXPECT_EQ(r.recovery_slots, pin.recovery_slots) << pin.name;
    EXPECT_EQ(r.faults.link_downs, 4u) << pin.name;
    EXPECT_EQ(r.faults.recovery_slots, r.recovery_slots) << pin.name;
  }
}

TEST(FaultRecovery, DigestIsInvariantToEpochBoundaryPlacement) {
  scenario::register_builtin();
  const scenario::Scenario* base =
      scenario::Registry::instance().find("fault/partition/det/random");
  ASSERT_NE(base, nullptr);
  scenario::Scenario late = *base;  // same kills, later compaction
  late.fault_epoch_slots = 160;
  const scenario::RunResult at96 = scenario::run(*base, 64, base->default_seed);
  const scenario::RunResult at160 = scenario::run(late, 64, base->default_seed);
  // Any boundary past the last fault event compacts the same surviving
  // graph, so phase B and the kill-set word — hence the digest — agree;
  // only the billed detection window (recovery_slots) moves.
  EXPECT_EQ(at96.digest, at160.digest);
  EXPECT_EQ(at160.recovery_slots, at96.recovery_slots + (160 - 96));
}

TEST(FaultRecovery, SerialAndParallelRunsAreBitIdentical) {
  scenario::register_builtin();
  for (const char* name : {"fault/partition/det/random", "fault/mst/random"}) {
    const scenario::Scenario* s = scenario::Registry::instance().find(name);
    ASSERT_NE(s, nullptr) << name;
    const scenario::RunResult serial = scenario::run(*s, 64, s->default_seed);
    for (const unsigned threads : {2u, 4u, 8u}) {
      const scenario::RunResult parallel = scenario::run(
          *s, 64, s->default_seed, sim::make_scheduler(threads));
      EXPECT_EQ(parallel.digest, serial.digest)
          << name << " with " << threads << " threads";
      EXPECT_EQ(parallel.metrics.rounds, serial.metrics.rounds);
      EXPECT_EQ(parallel.recovery_slots, serial.recovery_slots);
      EXPECT_TRUE(parallel.faults == serial.faults);
    }
  }
}

// ---- churn on the open-loop path -------------------------------------------

TEST(FaultChurn, BothEnginesAreSchedulerInvariant) {
  scenario::register_builtin();
  const scenario::Scenario* s =
      scenario::Registry::instance().find("fault/load/churn/ring");
  ASSERT_NE(s, nullptr);
  for (const scenario::EngineKind kind :
       {scenario::EngineKind::kSync, scenario::EngineKind::kAsync}) {
    const scenario::RunResult serial =
        scenario::run(*s, 64, s->default_seed, nullptr, kind);
    EXPECT_GT(serial.faults.link_downs + serial.faults.node_crashes, 0u);
    for (const unsigned threads : {2u, 4u, 8u}) {
      const scenario::RunResult parallel = scenario::run(
          *s, 64, s->default_seed, sim::make_scheduler(threads), kind);
      EXPECT_EQ(parallel.digest, serial.digest)
          << (kind == scenario::EngineKind::kSync ? "sync" : "async")
          << " with " << threads << " threads";
      EXPECT_EQ(parallel.metrics.rounds, serial.metrics.rounds);
      EXPECT_TRUE(parallel.faults == serial.faults);
    }
  }
}

TEST(FaultDegradation, CrashedStationsOrphanBacklogAndDeadLinksDrop) {
  // An oversaturated reservation ring: every station is backlogged, so a
  // permanent crash strands that backlog as orphaned_pkts, its neighbors'
  // gossip into the dead station counts as drops, and the delivered ratio
  // falls below the fault-free run's.
  const Graph g = build_topology(TopologySpec{TopoKind::kRing, 32, 7});
  OpenLoopConfig config;
  config.offered = 2.0;
  config.horizon = 800;
  FaultPlan plan;
  plan.add({/*slot=*/400, FaultKind::kNodeCrash, /*id=*/5});
  const LoadReport faulted = run_open_loop(
      g, config, sim::DisciplineKind::kReservation, 7, nullptr, &plan);
  const LoadReport clean = run_open_loop(
      g, config, sim::DisciplineKind::kReservation, 7);
  EXPECT_GT(faulted.degradation.faults.orphaned_pkts, 0u);
  EXPECT_GT(faulted.degradation.faults.drops, 0u);
  EXPECT_EQ(faulted.degradation.faults.node_crashes, 1u);
  EXPECT_EQ(faulted.degradation.faults.nodes_down, 1u);
  EXPECT_LT(faulted.degradation.delivered_ratio,
            clean.degradation.delivered_ratio);
  // The fault-free report carries a zeroed degradation section.
  EXPECT_TRUE(clean.degradation.faults == sim::FaultStats{});
}

}  // namespace
}  // namespace mmn
