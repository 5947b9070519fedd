// pb_trace — the per-layer breakdown of one benchmark workload.
//
//   pb_trace --workload NAME --seed N --seconds S [--commit SHA]
//            [--spans PATH]
//
// Times untraced runs for half the window (the base of trace.overhead),
// then makes one traced pass (trace.hpp), checks both against the
// reference, writes every span to PATH, and prints the per-layer metrics
// as the last stdout line.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

constexpr int kMinRuns = 3;

}  // namespace

int main(int argc, char** argv) {
  pb::main_pid();
  const pb::Args args = pb::parse_args(argc, argv);
  const pb::Workload* w = pb::find_workload(args.workload);
  if (w == nullptr) pb::usage(argv[0], "unknown workload");
  try {
    pb::stamp_or_refuse(args.commit, "pb_trace");
    pb::Reference ref;
    if (!pb::pinned_reference(*w, args.seed, &ref)) {
      ref = pb::serial_reference(*w, args.seed);
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    auto check = [&](const pb::Outcome& got, const char* what) {
      ++attempted;
      const std::string why = pb::mismatch(got, ref);
      if (why.empty()) return true;
      ++failed;
      std::fprintf(stderr, "pb_trace: %s %s run failed: %s\n", w->name, what,
                   why.c_str());
      return false;
    };

    // Untraced runs: the first is a warm-up, the rest are the base the
    // trace overhead is taken against.
    std::vector<double> untraced_s;
    const double window_end = pb::now_s() + args.seconds / 2.0;
    for (int i = 0; i == 0 || i <= kMinRuns || pb::now_s() < window_end; ++i) {
      const double t0 = pb::now_s();
      const pb::Outcome got = pb::run_workload(*w, args.seed);
      const double dt = pb::now_s() - t0;
      if (check(got, "untraced") && i > 0) untraced_s.push_back(dt);
    }

    pb::trace::Recorder rec;
    const double t0 = pb::now_s();
    const pb::trace::TracedRun traced =
        pb::trace::run_traced(*w, args.seed, rec);
    const double traced_s = pb::now_s() - t0;
    check(traced.outcome, "traced");
    if (untraced_s.empty()) {
      std::fprintf(stderr, "pb_trace: every untraced run of %s failed\n",
                   w->name);
      return 1;
    }

    const std::vector<pb::Metric> metrics = pb::trace::layer_metrics(
        rec, traced, traced_s, pb::median(untraced_s));
    std::printf("# workload=%s seed=%llu traced_run_s=%.6f untraced_run_s=%.6f "
                "(median of %zu) spans=%zu\n",
                w->name, static_cast<unsigned long long>(args.seed), traced_s,
                pb::median(untraced_s), untraced_s.size(), rec.spans().size());
    for (const pb::Metric& m : metrics) {
      std::printf("# %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (!args.spans_path.empty()) {
      const std::string header = "# workload=" + std::string(w->name) +
                                 " seed=" + std::to_string(args.seed) +
                                 " commit=" + args.commit + "\n";
      if (!rec.write(args.spans_path, header)) {
        std::fprintf(stderr, "pb_trace: cannot write %s\n",
                     args.spans_path.c_str());
        return 1;
      }
      std::printf("# spans written to %s\n", args.spans_path.c_str());
    }
    pb::print_result(failed == 0, attempted, failed, metrics);
    return 0;
  } catch (const std::exception& e) {
    pb::exit_if_child_rank();
    std::fprintf(stderr, "pb_trace: %s\n", e.what());
    return 1;
  }
}
