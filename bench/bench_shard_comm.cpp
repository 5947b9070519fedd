// E15 — Sharded execution bench (google-benchmark): cross-rank message
// batching throughput of the Engine over rank windows (the wire seams in
// sim/rank_exchange.hpp, the mesh in sim/shard_comm.hpp, the driver behind
// scenario/rank_run.hpp).
//
// Rows shard/<scenario>/<n>/r<K> fork K rank processes per iteration, each
// owning one contiguous node window of the topology, and step the scenario
// to completion over the socketpair mesh.  Counters:
//
//   msgs_xshard/s            — cross-shard MsgHeaders carried per second of
//                              wall clock, summed over ranks.  The headline
//                              batching rate; gated against regression by
//                              tools/bench_gate.py on armed machines.
//   bytes_per_boundary_edge  — transport bytes sent (framing included) per
//                              cut edge over the whole run.  A model-side
//                              batching-efficiency figure: deterministic
//                              per configuration, gated like a memory
//                              counter (lower is better), and the first
//                              thing to move if the wire format regresses.
//   xshard_msgs / boundary_edges / rounds — the raw model quantities.
//
// Every row certifies determinism before publishing: the sharded digest
// must equal the serial run's digest bit for bit, else the row aborts via
// SkipWithError.  `--json` maps to google-benchmark's JSON writer
// (BENCH_shard_comm.json).
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "scenario/rank_run.hpp"
#include "scenario/registry.hpp"

namespace mmn {
namespace {

void BM_Sharded(benchmark::State& state, const char* scenario_name, NodeId n,
                unsigned ranks) {
  scenario::register_builtin();
  const scenario::Scenario* s =
      scenario::Registry::instance().find(scenario_name);
  if (s == nullptr) {
    state.SkipWithError("scenario not registered");
    return;
  }
  const scenario::RunResult serial = scenario::run(*s, n, s->default_seed);
  scenario::RunResult result;
  scenario::ShardStats stats;
  for (auto _ : state) {
    result = scenario::run_sharded(*s, n, s->default_seed, ranks, 0.0, 0,
                                   &stats);
    benchmark::DoNotOptimize(result.digest);
  }
  if (result.digest != serial.digest ||
      !(result.metrics == serial.metrics)) {
    state.SkipWithError("sharded and serial runs diverged");
    return;
  }
  state.counters["msgs_xshard/s"] = benchmark::Counter(
      static_cast<double>(stats.xshard_msgs) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["xshard_msgs"] =
      benchmark::Counter(static_cast<double>(stats.xshard_msgs));
  state.counters["boundary_edges"] =
      benchmark::Counter(static_cast<double>(stats.boundary_edges));
  state.counters["bytes_per_boundary_edge"] = benchmark::Counter(
      stats.boundary_edges == 0
          ? 0.0
          : static_cast<double>(stats.wire_bytes) /
                static_cast<double>(stats.boundary_edges));
  state.counters["rounds"] =
      benchmark::Counter(static_cast<double>(stats.rounds));
  state.SetLabel(result.completed ? "completed" : "capped");
}

void register_rows() {
  struct Row {
    const char* scenario;
    const char* tag;
    NodeId n;
  };
  static constexpr Row kRows[] = {
      {"global/min/rand/ring", "ring", 1024},
      {"global/min/rand/ring", "ring", 4096},
      {"global/min/det/random", "random", 1024},
      {"global/min/det/random", "random", 4096},
  };
  for (const Row& row : kRows) {
    for (const unsigned ranks : {2u, 4u}) {
      const std::string name = std::string("shard/") + row.tag + "/" +
                               std::to_string(row.n) + "/r" +
                               std::to_string(ranks);
      benchmark::RegisterBenchmark(name.c_str(), BM_Sharded, row.scenario,
                                   row.n, ranks)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace mmn

int main(int argc, char** argv) {
  mmn::register_rows();
  // Map the repo-wide --json flag onto google-benchmark's JSON writer.
  std::vector<char*> args;
  std::string out_flag = "--benchmark_out=BENCH_shard_comm.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      args.push_back(out_flag.data());
      args.push_back(fmt_flag.data());
    } else {
      args.push_back(argv[i]);
    }
  }
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
