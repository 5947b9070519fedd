// pb_e2e — end-to-end timing of one benchmark workload, tracing off.
//
//   pb_e2e --workload NAME --seed N --seconds S [--commit SHA]
//
// Times complete runs for S seconds, checks every run against the serial
// reference (pinned for seed 7, else computed here by an untimed serial
// run), and prints the end-to-end metrics as the last stdout line.
//
// run_s is one scenario::run / run_sharded call, graph build to digest,
// timed on the calling thread.  setup_s times the calls that precede round
// 1 (pb::set_up) as calls of their own.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace {

/// After each timed run the set-up is repeated for this share of that
/// run's time (once at the least), so the set-up samples spread over the
/// whole window as the runs do.
constexpr double kSetupShare = 0.1;
/// Timed runs per invocation at the least, even when one run outlasts the
/// measurement window.
constexpr int kMinRuns = 3;

/// Wall-clock seconds of one set-up, up to the point where round 1 would
/// start (teardown excluded).
double time_setup(const pb::Workload& w, std::uint64_t seed) {
  const double t0 = pb::now_s();
  const auto su = pb::set_up(w, seed);
  return pb::now_s() - t0;
}

}  // namespace

int main(int argc, char** argv) {
  pb::main_pid();
  const pb::Args args = pb::parse_args(argc, argv);
  const pb::Workload* w = pb::find_workload(args.workload);
  if (w == nullptr) pb::usage(argv[0], "unknown workload");
  try {
    pb::stamp_or_refuse(args.commit, "pb_e2e");

    // One complete run: its outcome, and its error when it threw ("" when
    // it did not; the reference check comes later).
    struct Attempt {
      pb::Outcome got;
      std::string error;
    };
    auto attempt = [&] {
      Attempt a;
      try {
        a.got = pb::run_workload(*w, args.seed);
      } catch (const std::exception& e) {
        pb::exit_if_child_rank();
        a.error = e.what();
      }
      return a;
    };

    // The first run is a warm-up (page faults, lazily built tables), checked
    // but not timed.  Nothing ran before it, so the peak resident set
    // read right after it is that of one run, not of the reference run, or
    // of the heap repeated runs and set-ups leave behind.
    const Attempt warm = attempt();
    const double peak =
        pb::peak_rss_mib(/*children=*/w->path == pb::RunPath::kRanks);

    pb::Reference ref;
    if (!pb::pinned_reference(*w, args.seed, &ref)) {
      ref = pb::serial_reference(*w, args.seed);
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    // Counts a run as attempted, and as failed when it threw or the
    // reference check fails it; true when it passed.
    auto judge = [&](const Attempt& a, int i) {
      ++attempted;
      const std::string why =
          a.error.empty() ? pb::mismatch(a.got, ref) : a.error;
      if (why.empty()) return true;
      ++failed;
      std::fprintf(stderr, "pb_e2e: %s seed %llu run %d failed: %s\n",
                   w->name, static_cast<unsigned long long>(args.seed), i,
                   why.c_str());
      return false;
    };
    judge(warm, 0);

    std::vector<double> setup_s;
    std::vector<double> run_s;
    mmn::NodeId realized_n = 0;
    std::uint64_t rounds = 0;
    const double window_end = pb::now_s() + args.seconds;
    for (int i = 1; i <= kMinRuns || pb::now_s() < window_end; ++i) {
      const double t0 = pb::now_s();
      const Attempt a = attempt();
      const double dt = pb::now_s() - t0;
      if (judge(a, i)) {
        run_s.push_back(dt);
        realized_n = a.got.realized_n;
        rounds = a.got.observed.metrics.rounds;
      }
      const double setup_end = pb::now_s() + kSetupShare * dt;
      do {
        setup_s.push_back(time_setup(*w, args.seed));
      } while (pb::now_s() < setup_end);
    }

    if (run_s.empty()) {
      std::fprintf(stderr, "pb_e2e: every run of %s failed\n", w->name);
      return 1;
    }
    const double fail_ratio =
        static_cast<double>(failed) / static_cast<double>(attempted);
    const double run_med = pb::median(run_s);
    // setup_s is the fastest set-up, not the median: a set-up is a few ms
    // of user-space work, which a loaded neighbour slows by half for tens
    // of seconds at a time, and only the minimum stays put (README.md).
    const double setup_min =
        *std::min_element(setup_s.begin(), setup_s.end());
    const double rate =
        static_cast<double>(realized_n) * static_cast<double>(rounds) /
        run_med;
    std::printf(
        "# workload=%s scenario=%s n=%u parallelism=%u seed=%llu "
        "rounds=%llu\n"
        "# run_s          %.6f s    (median of %zu timed runs)\n"
        "# setup_s        %.6f s    (min of %zu; p10 %.6f, median %.6f)\n"
        "# node_rounds/s  %.6g 1/s\n"
        "# peak_rss_mb    %.1f MiB\n"
        "# fail_ratio     %.3f      (%llu of %llu runs failed)\n",
        w->name, w->scenario, realized_n, w->parallelism,
        static_cast<unsigned long long>(args.seed),
        static_cast<unsigned long long>(rounds), run_med, run_s.size(),
        setup_min, setup_s.size(), pb::quantile(setup_s, 0.1),
        pb::median(setup_s), rate, peak,
        fail_ratio, static_cast<unsigned long long>(failed),
        static_cast<unsigned long long>(attempted));
    std::printf("# run_s samples:");
    for (double x : run_s) std::printf(" %.4f", x);
    std::printf("\n");
    // run_s and fail_ratio are reported above but are not bounded metrics:
    // run_s scales with the seed's round count (2982..5542 rounds over 40
    // seeds of global/min/rand/ring), and fail_ratio is 0 whenever the
    // program is correct.  node_rounds_per_s is run_s normalised by the
    // round count, which the reference check pins per seed.
    pb::print_result(failed == 0, attempted, failed,
                     {{"setup_s", "s", setup_min},
                      {"node_rounds_per_s", "1/s", rate},
                      {"peak_rss_mb", "MiB", peak}});
    return 0;
  } catch (const std::exception& e) {
    pb::exit_if_child_rank();
    std::fprintf(stderr, "pb_e2e: %s\n", e.what());
    return 1;
  }
}
