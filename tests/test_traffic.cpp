// The open-loop traffic subsystem: arrival processes (sim/traffic.hpp),
// the per-class latency histograms, and the end-to-end load runs
// (core/openloop.hpp).  The statistical checks run at fixed seeds, so
// every bound below is deterministic — wide enough to survive a future
// reseed, tight enough to catch a broken generator.
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/openloop.hpp"
#include "graph/generators.hpp"
#include "scenario/registry.hpp"
#include "sim/scheduler.hpp"
#include "sim/traffic.hpp"
#include "support/rng.hpp"

namespace mmn {
namespace {

// ---- arrival processes -----------------------------------------------------

TEST(TrafficSource, PoissonMeanMatchesRate) {
  constexpr double kRate = 0.5;
  constexpr std::uint64_t kSlots = 200'000;
  sim::TrafficConfig config;
  config.kind = sim::ArrivalKind::kPoisson;
  config.rate = kRate;
  sim::TrafficSource source(config);
  Rng rng = Rng(12345).fork(7);
  std::uint64_t total = 0;
  for (std::uint64_t s = 0; s < kSlots; ++s) total += source.arrivals(rng);
  const double mean = static_cast<double>(total) / kSlots;
  // Poisson(0.5): sd of the sample mean is sqrt(0.5/200k) ~ 0.0016; a
  // +-0.01 band is ~6 sigma, deterministic at this seed either way.
  EXPECT_NEAR(mean, kRate, 0.01);
}

TEST(TrafficSource, PoissonIsDeterministicPerSeed) {
  sim::TrafficConfig config;
  config.kind = sim::ArrivalKind::kPoisson;
  config.rate = 0.8;
  std::vector<std::uint32_t> a, b;
  for (std::vector<std::uint32_t>* out : {&a, &b}) {
    sim::TrafficSource source(config);
    Rng rng = Rng(99).fork(3);
    for (int s = 0; s < 1000; ++s) out->push_back(source.arrivals(rng));
  }
  EXPECT_EQ(a, b);
}

TEST(TrafficSource, OnOffDutyCycleIsExact) {
  sim::TrafficConfig config;
  config.kind = sim::ArrivalKind::kOnOff;
  config.on_slots = 2;
  config.off_slots = 6;
  config.burst = 3;
  config.phase = 0;
  sim::TrafficSource source(config);
  Rng rng(1);  // never drawn from: on-off is purely periodic
  // Slot-exact pattern: 3 arrivals in each of the first 2 slots of every
  // 8-slot cycle, silence in the remaining 6.
  for (std::uint64_t s = 0; s < 64; ++s) {
    const std::uint32_t expect = (s % 8 < 2) ? 3u : 0u;
    EXPECT_EQ(source.arrivals(rng), expect) << "slot " << s;
  }
}

TEST(TrafficSource, OnOffPhaseShiftsTheCycle) {
  sim::TrafficConfig config;
  config.kind = sim::ArrivalKind::kOnOff;
  config.on_slots = 1;
  config.off_slots = 3;
  config.burst = 2;
  config.phase = 2;  // slot 0 lands two slots into the cycle
  sim::TrafficSource source(config);
  Rng rng(1);
  std::uint64_t total = 0;
  for (std::uint64_t s = 0; s < 16; ++s) {
    const std::uint32_t k = source.arrivals(rng);
    // ON slot is where (phase + s) % 4 == 0, i.e. slots 2, 6, 10, 14.
    EXPECT_EQ(k, ((2 + s) % 4 == 0) ? 2u : 0u) << "slot " << s;
    total += k;
  }
  EXPECT_EQ(total, 8u);  // 4 cycles x burst 2 — the mean rate is exact
}

TEST(TrafficSource, ConstantRateIsACreditStream) {
  sim::TrafficConfig config;
  config.kind = sim::ArrivalKind::kConstant;
  config.rate = 0.25;
  sim::TrafficSource source(config);
  Rng rng(1);
  std::uint64_t total = 0;
  for (std::uint64_t s = 0; s < 1000; ++s) total += source.arrivals(rng);
  EXPECT_EQ(total, 250u);  // exactly rate * slots, no randomness
}

// ---- latency histograms ----------------------------------------------------

/// Scatters a fixed multiset of (class, delay) samples across `shards`
/// recorder blocks round-robin and returns the merged block.
sim::LatencyBlock scatter_and_merge(unsigned shards) {
  sim::LatencyRecorder recorder;
  recorder.reset(shards);
  unsigned next = 0;
  for (std::uint64_t d = 0; d < 300; ++d) {
    const auto cls = static_cast<sim::QosClass>(d % sim::kNumQosClasses);
    recorder.block(next).note_arrivals(cls, 1);
    recorder.block(next).record(cls, d * 7 % 113);
    next = (next + 1) % shards;
  }
  return recorder.merged();
}

TEST(LatencyRecorder, MergeIsShardingIndependent) {
  // The same sample multiset must merge to the identical histogram no
  // matter how the nodes were sharded — 2, 4, and 8 blocks, byte for byte.
  const sim::LatencyBlock two = scatter_and_merge(2);
  const sim::LatencyBlock four = scatter_and_merge(4);
  const sim::LatencyBlock eight = scatter_and_merge(8);
  for (std::size_t c = 0; c < sim::kNumQosClasses; ++c) {
    EXPECT_EQ(two.hist[c], four.hist[c]);
    EXPECT_EQ(four.hist[c], eight.hist[c]);
    EXPECT_EQ(two.arrivals[c], eight.arrivals[c]);
    EXPECT_EQ(two.delivered[c], eight.delivered[c]);
    EXPECT_EQ(two.delay_sum[c], eight.delay_sum[c]);
  }
}

TEST(LatencyRecorder, QuantilesReadBucketUpperBounds) {
  sim::LatencyRecorder recorder;
  recorder.reset(1);
  // 100 voice samples: 90 at delay 1 (bucket 1, upper bound 1) and 10 at
  // delay 100 (bucket 7, upper bound 127).
  for (int i = 0; i < 90; ++i) recorder.block(0).record(sim::QosClass::kVoice, 1);
  for (int i = 0; i < 10; ++i) {
    recorder.block(0).record(sim::QosClass::kVoice, 100);
  }
  const sim::QosSummary s = recorder.summary(sim::QosClass::kVoice);
  EXPECT_EQ(s.delivered, 100u);
  EXPECT_EQ(s.p50, 1u);
  EXPECT_EQ(s.p90, 1u);    // the 90th sample is still in the delay-1 bucket
  EXPECT_EQ(s.p99, 127u);  // the 99th lands among the delay-100 samples
}

TEST(LatencyRecorder, JitterIsTheDelaySampleStddev) {
  sim::LatencyRecorder recorder;
  recorder.reset(2);
  // Samples {2, 4, 4, 4, 5, 5, 7, 9} scattered over two shards: mean 5,
  // E[d^2] = 232 / 8 = 29, variance 29 - 25 = 4 — stddev exactly 2.
  const std::uint64_t samples[] = {2, 4, 4, 4, 5, 5, 7, 9};
  unsigned i = 0;
  for (const std::uint64_t d : samples) {
    recorder.block(i++ % 2).record(sim::QosClass::kVideo, d);
  }
  const sim::QosSummary s = recorder.summary(sim::QosClass::kVideo);
  EXPECT_EQ(s.delivered, 8u);
  EXPECT_EQ(s.delay_sum, 40u);
  EXPECT_EQ(s.delay_sq_sum, 232u);
  EXPECT_DOUBLE_EQ(s.jitter(), 2.0);
}

TEST(LatencyRecorder, JitterOfConstantDelayIsZero) {
  sim::LatencyRecorder recorder;
  recorder.reset(1);
  for (int i = 0; i < 50; ++i) {
    recorder.block(0).record(sim::QosClass::kVoice, 3);
  }
  const sim::QosSummary s = recorder.summary(sim::QosClass::kVoice);
  EXPECT_DOUBLE_EQ(s.jitter(), 0.0);
  // And with no samples at all the report is 0, not NaN.
  EXPECT_DOUBLE_EQ(recorder.summary(sim::QosClass::kData).jitter(), 0.0);
}

TEST(LatencyRecorder, BacklogIsArrivalsMinusDelivered) {
  sim::LatencyRecorder recorder;
  recorder.reset(2);
  recorder.block(0).note_arrivals(sim::QosClass::kData, 5);
  recorder.block(1).note_arrivals(sim::QosClass::kData, 3);
  recorder.block(1).record(sim::QosClass::kData, 2);
  const sim::QosSummary s = recorder.summary(sim::QosClass::kData);
  EXPECT_EQ(s.arrivals, 8u);
  EXPECT_EQ(s.delivered, 1u);
  EXPECT_EQ(s.backlog(), 7u);
}

// ---- end-to-end saturation behavior ----------------------------------------

LoadReport sweep_point(sim::DisciplineKind discipline, double offered,
                       std::unique_ptr<sim::Scheduler> scheduler = nullptr) {
  const Graph g = build_topology(TopologySpec{TopoKind::kRing, 64, 7});
  OpenLoopConfig config;
  config.offered = offered;
  config.horizon = 1500;
  return run_open_loop(g, config, discipline, 7, std::move(scheduler));
}

std::uint64_t total_backlog(const LoadReport& r) {
  std::uint64_t b = 0;
  for (const sim::QosSummary& cls : r.classes) b += cls.backlog();
  return b;
}

TEST(OpenLoopSaturation, FreeForAllLivelocksAndBacklogGrowsWithLoad) {
  // Two simultaneously backlogged stations re-collide every slot forever,
  // so free-for-all strands essentially the whole offered volume — and
  // strands more of it at higher load.
  const LoadReport low = sweep_point(sim::DisciplineKind::kFreeForAll, 0.3);
  const LoadReport high = sweep_point(sim::DisciplineKind::kFreeForAll, 0.9);
  EXPECT_GT(total_backlog(low), 64u);
  EXPECT_GT(total_backlog(high), total_backlog(low));
}

TEST(OpenLoopSaturation, ReservationBoundsVoiceDelayPastSaturation) {
  // Offered 1.3 > 1 packet/slot is guaranteed oversaturation, yet the
  // reservation grant ring keeps the voice class's p99 delay tiny while
  // the best-effort data lane absorbs the overload.
  const LoadReport r = sweep_point(sim::DisciplineKind::kReservation, 1.3);
  const auto voice = static_cast<std::size_t>(sim::QosClass::kVoice);
  const auto data = static_cast<std::size_t>(sim::QosClass::kData);
  EXPECT_GT(r.classes[voice].delivered, 100u);
  EXPECT_LE(r.classes[voice].p99, 31u);
  EXPECT_GT(r.classes[data].p99, r.classes[voice].p99);
}

TEST(OpenLoopSaturation, StabilizedAlohaDrainsWhereFreeForAllCannot) {
  const LoadReport ffa = sweep_point(sim::DisciplineKind::kFreeForAll, 0.3);
  const LoadReport pb =
      sweep_point(sim::DisciplineKind::kPseudoBayesian, 0.3);
  EXPECT_LE(total_backlog(pb), 8u);       // boundary artifact at most
  EXPECT_GT(total_backlog(ffa), 100u);    // livelocked
  std::uint64_t pb_delivered = 0;
  for (const sim::QosSummary& cls : pb.classes) pb_delivered += cls.delivered;
  EXPECT_GT(pb_delivered, 300u);
}

TEST(OpenLoopSaturation, CappedRunsReportStatusWithIntactQos) {
  // A run that exhausts its slot budget must never abort: it reports
  // completed == false / kSlotCapReached with the QoS summaries of the
  // capped prefix intact, on both engines, serial and parallel.
  // Pseudo-Bayesian at offered 6.0 generates ~16x the stabilized capacity,
  // so the drain window elapses with the backlog still standing.
  const LoadReport serial =
      sweep_point(sim::DisciplineKind::kPseudoBayesian, 6.0);
  EXPECT_FALSE(serial.quiescent);
  std::uint64_t delivered = 0;
  for (const sim::QosSummary& cls : serial.classes) delivered += cls.delivered;
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(total_backlog(serial), 0u);
  const LoadReport parallel =
      sweep_point(sim::DisciplineKind::kPseudoBayesian, 6.0,
                  sim::make_scheduler(4));
  EXPECT_FALSE(parallel.quiescent);
  EXPECT_EQ(parallel.digest, serial.digest);
  for (std::size_t c = 0; c < sim::kNumQosClasses; ++c) {
    EXPECT_EQ(parallel.classes[c].delivered, serial.classes[c].delivered);
    EXPECT_EQ(parallel.classes[c].p99, serial.classes[c].p99);
  }
  // The same surface through the registry, both engines: the sync Engine
  // no longer aborts on a capped run — scenario::run reports the cap
  // uniformly through `completed`.
  scenario::register_builtin();
  const scenario::Scenario* pb =
      scenario::Registry::instance().find("load/poisson/pb/ring");
  ASSERT_NE(pb, nullptr);
  const scenario::RunResult sync_run = scenario::run(
      *pb, 64, pb->default_seed, nullptr, scenario::EngineKind::kSync, 6.0);
  EXPECT_FALSE(sync_run.completed);
  const scenario::Scenario* ffa =
      scenario::Registry::instance().find("load/poisson/ffa/ring");
  ASSERT_NE(ffa, nullptr);
  const scenario::RunResult async_run = scenario::run(
      *ffa, 64, ffa->default_seed, nullptr, scenario::EngineKind::kAsync, 1.5);
  EXPECT_FALSE(async_run.completed);
  const scenario::RunResult async_parallel = scenario::run(
      *ffa, 64, ffa->default_seed, sim::make_scheduler(4),
      scenario::EngineKind::kAsync, 1.5);
  EXPECT_EQ(async_parallel.digest, async_run.digest);
  EXPECT_EQ(async_parallel.completed, async_run.completed);
}

// ---- scheduler equivalence on the load path --------------------------------

TEST(OpenLoopEquivalence, SerialAndParallelRunsAreBitIdentical) {
  for (const sim::DisciplineKind kind :
       {sim::DisciplineKind::kFreeForAll, sim::DisciplineKind::kPseudoBayesian,
        sim::DisciplineKind::kReservation}) {
    const LoadReport serial = sweep_point(kind, 0.7);
    for (const unsigned threads : {2u, 4u, 8u}) {
      const LoadReport parallel =
          sweep_point(kind, 0.7, sim::make_scheduler(threads));
      EXPECT_EQ(parallel.digest, serial.digest)
          << sim::discipline_name(kind) << " with " << threads << " threads";
      EXPECT_EQ(parallel.slots, serial.slots);
      for (std::size_t c = 0; c < sim::kNumQosClasses; ++c) {
        EXPECT_EQ(parallel.classes[c].delivered, serial.classes[c].delivered);
        EXPECT_EQ(parallel.classes[c].p99, serial.classes[c].p99);
      }
    }
  }
}

TEST(OpenLoopEquivalence, NativeAsyncLoadRunsAreSchedulerInvariant) {
  // The native-async load path bypasses the synchronizer, so the generic
  // async equivalence suite (gated on channel_free) never sees it — pin it
  // here: serial and 4-thread AsyncEngine runs must match bit for bit.
  scenario::register_builtin();
  const scenario::Scenario* s =
      scenario::Registry::instance().find("load/poisson/resv/ring");
  ASSERT_NE(s, nullptr);
  const scenario::RunResult serial = scenario::run(
      *s, 64, s->default_seed, nullptr, scenario::EngineKind::kAsync);
  const scenario::RunResult parallel = scenario::run(
      *s, 64, s->default_seed, sim::make_scheduler(4),
      scenario::EngineKind::kAsync);
  EXPECT_EQ(parallel.digest, serial.digest);
  EXPECT_EQ(parallel.metrics.rounds, serial.metrics.rounds);
  EXPECT_EQ(parallel.completed, serial.completed);
}

}  // namespace
}  // namespace mmn
