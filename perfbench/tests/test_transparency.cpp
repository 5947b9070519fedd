// The traced pass must measure the runs the end-to-end path times, not
// different ones: every decorator forwards every hook, and a traced run
// reproduces the untraced digest, Metrics and FaultStats bit for bit.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using pb::trace::Recorder;

/// A discipline whose every hook is observable.
class ProbeDiscipline final : public mmn::sim::ChannelDiscipline {
 public:
  const char* name() const override { return "probe"; }
  void reset(mmn::NodeId n) override { reset_n = n; }
  mmn::sim::SlotObservation slot(std::span<const mmn::sim::ChannelWrite>,
                                 mmn::sim::Channel&, mmn::Metrics&) override {
    return {};
  }
  std::size_t backlog() const override { return 42; }
  bool defers() const override { return true; }
  void stifle(mmn::NodeId v) override { stifled.push_back(v); }

  mmn::NodeId reset_n = 0;
  std::vector<mmn::NodeId> stifled;
};

/// A transport that answers every exchange with the bytes it was sent.
class EchoTransport final : public mmn::sim::shard_comm::Transport {
 public:
  unsigned rank() const override { return 2; }
  unsigned ranks() const override { return 5; }
  void exchange(unsigned peer, const std::uint8_t* data, std::size_t bytes,
                std::vector<std::uint8_t>& in) override {
    last_peer = peer;
    in.assign(data, data + bytes);
  }
  std::uint64_t bytes_out() const override { return 123; }
  std::uint64_t bytes_in() const override { return 456; }

  unsigned last_peer = 0;
};

TEST(Decorators, SchedulerForwardsShardsAndCountsEveryDispatch) {
  Recorder rec;
  pb::trace::TracedScheduler sched(mmn::sim::make_scheduler(3), rec);
  EXPECT_EQ(sched.shards(), 3u);
  EXPECT_STREQ(sched.name(), "parallel");

  std::vector<int> visits(1000, 0);
  sched.for_each_node(
      1000, mmn::sim::Scheduler::NodeFn{
                [](void* env, unsigned, mmn::NodeId v) {
                  ++(*static_cast<std::vector<int>*>(env))[v];
                },
                &visits});
  for (int v : visits) EXPECT_EQ(v, 1);
  EXPECT_EQ(sched.dispatches(), 1000u);
  EXPECT_EQ(sched.calls(), 1u);
  ASSERT_EQ(rec.spans().size(), 1u);
  EXPECT_EQ(rec.spans()[0].kind, pb::trace::Kind::kNodePhase);
}

TEST(Decorators, DisciplineForwardsEveryHook) {
  Recorder rec;
  auto probe = std::make_unique<ProbeDiscipline>();
  ProbeDiscipline& inner = *probe;
  pb::trace::TracedDiscipline disc(std::move(probe), rec);
  EXPECT_STREQ(disc.name(), "probe");
  EXPECT_TRUE(disc.defers());
  EXPECT_EQ(disc.backlog(), 42u);
  disc.reset(17);
  EXPECT_EQ(inner.reset_n, 17u);
  disc.stifle(5);
  disc.stifle(9);
  EXPECT_EQ(inner.stifled, (std::vector<mmn::NodeId>{5, 9}));

  mmn::sim::Channel channel;
  mmn::Metrics metrics;
  const std::vector<mmn::sim::ChannelWrite> writes(3);
  disc.slot(writes, channel, metrics);
  EXPECT_EQ(disc.slots(), 1u);
  EXPECT_EQ(disc.writes(), 3u);
}

TEST(Decorators, TransportForwardsEveryHook) {
  Recorder rec;
  EchoTransport inner;
  pb::trace::TracedTransport t(inner, rec);
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.ranks(), 5u);
  EXPECT_EQ(t.bytes_out(), 123u);
  EXPECT_EQ(t.bytes_in(), 456u);
  const std::uint8_t out[] = {1, 2, 3};
  std::vector<std::uint8_t> in;
  t.exchange(4, out, sizeof(out), in);
  EXPECT_EQ(inner.last_peer, 4u);
  EXPECT_EQ(in, (std::vector<std::uint8_t>{1, 2, 3}));
  ASSERT_EQ(rec.spans().size(), 1u);
  EXPECT_EQ(rec.spans()[0].kind, pb::trace::Kind::kExchange);
}

TEST(Recorder, MergeRebasesForeignParents) {
  Recorder rec;
  const auto outer = rec.open(pb::trace::Kind::kRun);
  rec.close(outer);
  // Another process recorded two spans starting at its own index 1, the
  // second nested in the first.
  std::vector<pb::trace::Span> theirs(2);
  theirs[0].parent = -1;
  theirs[1].parent = 1;
  rec.merge(theirs, /*their_base=*/1);
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[1].parent, -1);
  EXPECT_EQ(rec.spans()[2].parent, 1);
}

class Transparency : public ::testing::TestWithParam<const char*> {};

TEST_P(Transparency, TracedRunReproducesTheUntracedRunBitForBit) {
  const pb::Workload* w = pb::find_workload(GetParam());
  ASSERT_NE(w, nullptr);
  constexpr std::uint64_t kSeed = 7;
  pb::Reference pinned;
  ASSERT_TRUE(pb::pinned_reference(*w, kSeed, &pinned));

  const pb::Outcome plain = pb::run_workload(*w, kSeed);
  Recorder rec;
  const pb::trace::TracedRun traced = pb::trace::run_traced(*w, kSeed, rec);

  EXPECT_EQ(pb::mismatch(plain, pinned), "");
  EXPECT_EQ(pb::mismatch(traced.outcome, pinned), "");
  EXPECT_EQ(traced.outcome.observed.digest, plain.observed.digest);
  EXPECT_EQ(traced.outcome.observed.metrics, plain.observed.metrics);
  EXPECT_EQ(traced.outcome.observed.faults, plain.observed.faults);
  EXPECT_EQ(traced.outcome.observed.xshard_msgs, plain.observed.xshard_msgs);
  EXPECT_EQ(traced.outcome.realized_n, plain.realized_n);

  // The step breakdown is exhaustive: node phase + resolve + exchange +
  // other (the step's self time) is the step total.
  std::map<std::string, double> m;
  for (const pb::Metric& x :
       pb::trace::layer_metrics(rec, traced, 1.0, 1.0)) {
    m[x.name] = x.value;
  }
  EXPECT_GT(m["engine.step_s"], 0.0);
  EXPECT_NEAR(m["sched.node_phase_s"] + m["discipline.resolve_s"] +
                  m["shard.exchange_s"] + m["engine.other_s"],
              m["engine.step_s"], 1e-6);
  EXPECT_EQ(m["arena.msgs"],
            static_cast<double>(plain.observed.metrics.p2p_messages));
  if (w->path == pb::RunPath::kRanks) {
    EXPECT_GT(m["shard.exchange_s"], 0.0);
    EXPECT_EQ(m["shard.xshard_msgs"],
              static_cast<double>(plain.observed.xshard_msgs));
  } else {
    EXPECT_GT(m["sched.node_dispatches"], 0.0);
  }
}

TEST_P(Transparency, SetUpBuildsTheEngineTheRunSteps) {
  // pb_e2e times pb::set_up as setup_s.  It copies scenario::run's set-up,
  // so the engine it builds must run to the same reference as the run.
  const pb::Workload* w = pb::find_workload(GetParam());
  ASSERT_NE(w, nullptr);
  constexpr std::uint64_t kSeed = 7;
  pb::Reference pinned;
  ASSERT_TRUE(pb::pinned_reference(*w, kSeed, &pinned));
  const mmn::scenario::Scenario& s = pb::scenario_of(*w);

  const auto su = pb::set_up(*w, kSeed);
  EXPECT_EQ(su->g.num_nodes(), pb::run_workload(*w, kSeed).realized_n);
  mmn::sim::FaultStats faults;
  switch (w->path) {
    case pb::RunPath::kSync:
      ASSERT_NE(su->sync, nullptr);
      ASSERT_TRUE(su->sync->step(s.max_rounds));
      EXPECT_EQ(su->sync->metrics(), pinned.metrics);
      if (su->sync->faults() != nullptr) faults = su->sync->faults()->stats();
      break;
    case pb::RunPath::kAsync:
      ASSERT_NE(su->async, nullptr);
      EXPECT_EQ(su->async->run(s.max_rounds), pinned.metrics);
      EXPECT_EQ(su->async->status(), mmn::sim::RunStatus::kCompleted);
      if (su->async->faults() != nullptr) {
        faults = su->async->faults()->stats();
      }
      break;
    case pb::RunPath::kRanks: {
      // Rank 0's window of the run's graph: node 0's row as in the full
      // build, the last node's (owned by the last rank) empty; no engine.
      EXPECT_EQ(su->sync, nullptr);
      EXPECT_EQ(su->async, nullptr);
      const mmn::Graph full =
          mmn::scenario::make_scenario_graph(s, w->n, kSeed);
      EXPECT_EQ(su->g.num_edges(), full.num_edges());
      EXPECT_EQ(su->g.degree(0), full.degree(0));
      EXPECT_GT(su->g.degree(0), 0u);
      EXPECT_EQ(su->g.degree(full.num_nodes() - 1), 0u);
      break;
    }
  }
  EXPECT_EQ(faults, pinned.faults);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, Transparency,
                         ::testing::Values("ring_sparse", "hypercube_flood",
                                           "churn_load_async", "ring_ranks4"));

}  // namespace
