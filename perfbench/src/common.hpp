// Shared plumbing of the benchmark programs: command line, clocks, order
// statistics, peak memory, the build/machine stamp and the result line.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "support/simd.hpp"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif
#ifndef PB_LIB_SANITIZE
#define PB_LIB_SANITIZE ""
#endif

namespace pb {

// ---- command line ----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 0.0;
  std::string commit = "unknown";
  std::string spans_path;  ///< pb_trace: where the span dump goes
};

[[noreturn]] inline void usage(const char* prog, const char* why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload NAME --seed N --seconds S "
               "[--commit SHA] [--spans PATH]\n",
               prog, why, prog);
  std::exit(2);
}

inline bool parse_u64(const char* text, std::uint64_t* out) {
  if (*text == '\0' || std::strspn(text, "0123456789") != std::strlen(text)) {
    return false;
  }
  errno = 0;
  *out = std::strtoull(text, nullptr, 10);
  return errno == 0;
}

inline Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage(argv[0], "flag without a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &a.seed)) usage(argv[0], "bad --seed");
      a.have_seed = true;
    } else if (flag == "--seconds") {
      std::uint64_t s = 0;
      if (!parse_u64(value, &s) || s < 1 || s > 3600) {
        usage(argv[0], "--seconds must be a whole number in [1, 3600]");
      }
      a.seconds = static_cast<double>(s);
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      usage(argv[0], "unknown flag");
    }
  }
  if (a.workload.empty() || !a.have_seed) {
    usage(argv[0], "--workload and --seed are required");
  }
  if (a.seconds <= 0.0) usage(argv[0], "--seconds missing");
  return a;
}

// ---- time and order statistics ---------------------------------------------

/// Wall-clock seconds on the calling thread's steady clock — every time and
/// rate the benchmark reports comes from here, never from CPU time.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile (q in [0, 1]) of a non-empty sample.
inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1),
                       q * static_cast<double>(v.size() - 1) + 0.5));
  return v[idx];
}

inline double median(const std::vector<double>& v) {
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t m = s.size() / 2;
  return s.size() % 2 == 1 ? s[m] : 0.5 * (s[m - 1] + s[m]);
}

/// Peak resident set, MiB: this process, or the largest reaped child when
/// `children` (the rank processes of a sharded run).  ru_maxrss is
/// monotone over a process's life, so each workload runs in a process of
/// its own.
inline double peak_rss_mib(bool children) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  double kib = static_cast<double>(self.ru_maxrss);
  if (children) {
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    kib = std::max(kib, static_cast<double>(kids.ru_maxrss));
  }
  return kib / 1024.0;
}

// ---- machine and build stamp -----------------------------------------------

struct Stamp {
  unsigned nproc = 0;
  std::string cpu;
  std::string simd;
  std::string compiler;
  std::string build_type = PB_BUILD_TYPE;
  bool optimized = false;
  std::string sanitizer;  ///< empty = none
  bool scalar_forced = false;
  std::string commit;
};

inline std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();  // stop at the first NUL
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

inline Stamp make_stamp(const std::string& commit) {
  Stamp st;
  st.nproc = std::thread::hardware_concurrency();
  st.cpu = cpu_model();
  const mmn::simd::Level level = mmn::simd::active_level();
  st.simd = mmn::simd::level_name(level);
  st.compiler = __VERSION__;
#ifdef __OPTIMIZE__
  st.optimized = true;
#endif
  st.sanitizer = PB_LIB_SANITIZE;
#if defined(__SANITIZE_ADDRESS__)
  st.sanitizer += st.sanitizer.empty() ? "address" : "+address";
#endif
#if defined(__SANITIZE_THREAD__)
  st.sanitizer += st.sanitizer.empty() ? "thread" : "+thread";
#endif
#if defined(PB_LIB_FORCE_SCALAR)
  st.scalar_forced = true;
#endif
#if defined(__x86_64__) || defined(__i386__)
  // The dispatch picks AVX2 whenever the host has it; scalar on such a host
  // means something pinned it (the MMN_FORCE_SCALAR option or variable).
  if (level == mmn::simd::Level::kScalar && __builtin_cpu_supports("avx2")) {
    st.scalar_forced = true;
  }
#endif
  st.commit = commit;
  return st;
}

/// Why numbers from this build must not be published, or "" when they may.
inline std::string refusal(const Stamp& st) {
  if (!st.optimized) return "the benchmark was built without optimisation";
  if (st.build_type != "Release" && st.build_type != "RelWithDebInfo") {
    return "the library build type is " + st.build_type +
           ", not Release or RelWithDebInfo";
  }
  if (!st.sanitizer.empty()) {
    return "the build is sanitized (" + st.sanitizer + ")";
  }
  if (st.scalar_forced) return "the SIMD dispatch is forced to scalar";
  return "";
}

inline void print_stamp(const Stamp& st, std::FILE* out) {
  std::fprintf(out,
               "# machine: nproc=%u cpu=\"%s\" simd=%s\n"
               "# build: compiler=\"%s\" type=%s optimized=%d sanitizer=%s "
               "scalar_forced=%d commit=%s\n",
               st.nproc, st.cpu.c_str(), st.simd.c_str(), st.compiler.c_str(),
               st.build_type.c_str(), st.optimized ? 1 : 0,
               st.sanitizer.empty() ? "none" : st.sanitizer.c_str(),
               st.scalar_forced ? 1 : 0, st.commit.c_str());
}

/// Exits with code 3 when the build must not publish numbers.
inline Stamp stamp_or_refuse(const std::string& commit, const char* prog) {
  const Stamp st = make_stamp(commit);
  print_stamp(st, stdout);
  const std::string why = refusal(st);
  if (!why.empty()) {
    std::fprintf(stderr, "%s: refusing to publish numbers: %s\n", prog,
                 why.c_str());
    std::exit(3);
  }
  return st;
}

// ---- the result line -------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The last stdout line: exactly correct / attempted / failed / metrics.
inline void print_result(bool correct, std::uint64_t attempted,
                         std::uint64_t failed,
                         const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Rank processes are forked children of the calling process.  If a run
/// throws inside one, the exception unwinds into benchmark code in the
/// child; it must end there instead of carrying on as a second benchmark.
inline pid_t& main_pid() {
  static pid_t pid = ::getpid();
  return pid;
}

inline void exit_if_child_rank() {
  if (::getpid() != main_pid()) ::_exit(70);
}

}  // namespace pb
