// CLI for the deterministic torture harness.
//
//   torture --seed=7 --ops=2000            one run, verbose result
//   torture --runs=20 --ops=10000          seed sweep (seeds 1..20)
//   torture --budget-seconds=60            sweep until the wall-clock budget
//   torture --seed=7 --check-determinism   run twice, compare trace digests
//   torture --seed=7 --trace-csv=out.csv   export the run's trace
//   torture --runs=8 --json=report.json    machine-readable report
//   torture --artifacts-dir=out/           on failure, drop the first failing
//                                          seed's black-box bundle (repro.txt
//                                          with its shrunk line, trace.csv,
//                                          blackbox.json — the fleet flight-
//                                          recorder layout) and the report
//                                          JSON there (CI uploads them)
//   torture --runs=64 --jobs=8             sweep on 8 pool workers, in waves
//                                          of 8 seeds (default --jobs=1)
//   torture --timer-queue=list             run against the reference sorted
//                                          timer list instead of the wheel
//   torture --num-cores=2                  partitioned-SMP runs: generated
//                                          threads pinned round-robin across
//                                          N virtual cores (1 = the classic
//                                          single-core harness, bit-identical
//                                          digests)
//
// On failure: prints the one-line repro command, shrinks the first failing
// seed's op budget by bisection, and exits 1. Runs are deterministic per
// (seed, options), so every --jobs value reports the same runs, shrink and
// artifacts. A malformed flag prints a diagnostic plus usage and exits 2;
// so does a report or trace file that cannot be written completely.

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/file.h"
#include "src/base/flags.h"
#include "src/base/thread_pool.h"
#include "src/core/config.h"
#include "src/fuzz/torture.h"

namespace emeralds {
namespace fuzz {
namespace {

// Upper bound on --jobs, checked before any pool is built.
constexpr int kMaxJobs = 256;

constexpr FlagContext kFlags{
    "torture",
    "usage: torture [--seed=S] [--ops=N] [--op-limit=K] [--runs=R] [--jobs=J]\n"
    "               [--budget-seconds=T] [--num-cores=C] [--timer-queue=wheel|list]\n"
    "               [--no-faults] [--no-irq-storms] [--no-charge-resets] [--tiny-ring]\n"
    "               [--check-determinism] [--trace-csv=OUT.csv] [--json=OUT.json]\n"
    "               [--artifacts-dir=DIR]\n"};

void PrintResult(const TortureOptions& options, const TortureResult& result) {
  std::printf("seed=%llu %s ops=%d vtime=%lldus trace=%llu(+%llu dropped) digest=%016llx\n",
              static_cast<unsigned long long>(result.seed), result.ok ? "OK" : "FAIL",
              result.ops_executed, static_cast<long long>(result.virtual_time.micros()),
              static_cast<unsigned long long>(result.trace_retained),
              static_cast<unsigned long long>(result.trace_dropped),
              static_cast<unsigned long long>(result.trace_digest));
  if (!result.ok) {
    std::printf("  failure: %s\n", result.failure.c_str());
    std::printf("  repro:   %s\n", ReproCommand(options).c_str());
  }
}

int Run(int argc, char** argv) {
  TortureOptions base;
  int runs = 1;
  int jobs = 1;
  double budget_seconds = 0;
  const char* json_path = nullptr;
  const char* csv_path = nullptr;
  const char* artifacts_dir = nullptr;
  bool check_determinism = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    bool ok = true;
    if (FlagValue(arg, "--seed", &v)) {
      ok = kFlags.Int<uint64_t>("--seed", v, 0, INT64_MAX, &base.seed);
    } else if (FlagValue(arg, "--ops", &v)) {
      ok = kFlags.Int("--ops", v, 1, INT_MAX, &base.ops);
    } else if (FlagValue(arg, "--op-limit", &v)) {
      ok = kFlags.Int("--op-limit", v, 0, INT_MAX, &base.op_limit);
    } else if (FlagValue(arg, "--runs", &v)) {
      ok = kFlags.Int("--runs", v, 1, INT_MAX, &runs);
    } else if (FlagValue(arg, "--jobs", &v)) {
      ok = kFlags.Int("--jobs", v, 1, kMaxJobs, &jobs);
    } else if (FlagValue(arg, "--budget-seconds", &v)) {
      ok = kFlags.Double("--budget-seconds", v, 0.0, 1e7, &budget_seconds);
    } else if (FlagValue(arg, "--num-cores", &v)) {
      ok = kFlags.Int("--num-cores", v, 1, kMaxCores, &base.num_cores);
    } else if (FlagValue(arg, "--timer-queue", &v)) {
      bool wheel = std::strcmp(v, "wheel") == 0;
      ok = wheel || std::strcmp(v, "list") == 0;
      base.timer_queue = wheel ? TimerQueueImpl::kWheel : TimerQueueImpl::kSortedList;
      if (!ok) {
        kFlags.Fail("bad value '%s' for --timer-queue", v);
      }
    } else if (FlagValue(arg, "--json", &v)) {
      json_path = v;
    } else if (FlagValue(arg, "--trace-csv", &v)) {
      csv_path = v;
    } else if (FlagValue(arg, "--artifacts-dir", &v)) {
      artifacts_dir = v;
    } else if (std::strcmp(arg, "--no-faults") == 0) {
      base.inject_faults = false;
    } else if (std::strcmp(arg, "--no-irq-storms") == 0) {
      base.irq_storms = false;
    } else if (std::strcmp(arg, "--no-charge-resets") == 0) {
      base.charge_resets = false;
    } else if (std::strcmp(arg, "--tiny-ring") == 0) {
      base.tiny_trace_ring = true;
    } else if (std::strcmp(arg, "--check-determinism") == 0) {
      check_determinism = true;
    } else {
      kFlags.Fail("unknown argument '%s'", arg);
      ok = false;
    }
    if (!ok) {
      return 2;
    }
  }

  if (check_determinism) {
    TortureResult a = RunTorture(base);
    TortureResult b = RunTorture(base);
    PrintResult(base, a);
    if (a.trace_digest != b.trace_digest) {
      std::printf("DETERMINISM FAIL: digests %016llx vs %016llx for seed=%llu\n",
                  static_cast<unsigned long long>(a.trace_digest),
                  static_cast<unsigned long long>(b.trace_digest),
                  static_cast<unsigned long long>(base.seed));
      return 1;
    }
    std::printf("determinism OK: two runs of seed=%llu produced identical digests\n",
                static_cast<unsigned long long>(base.seed));
    return a.ok ? 0 : 1;
  }

  if (csv_path != nullptr) {
    if (!ExportTortureTraceCsv(base, csv_path)) {
      std::fprintf(stderr, "cannot write %s\n", csv_path);
      return 2;
    }
    std::printf("trace csv written to %s\n", csv_path);
  }

  // The sweep is seeds base.seed .. base.seed + runs - 1 (one seed unless
  // --runs or --budget-seconds says otherwise).
  std::vector<TortureOptions> all_options;
  std::vector<TortureResult> all_results;
  int failed = 0;
  auto start = std::chrono::steady_clock::now();
  // Seeds run on the pool in waves of `jobs`, in seed order. Each run writes
  // its own result slot, and a wave is printed only once it is complete, so
  // the output, the shrink and the artifacts are the same for every --jobs;
  // with --jobs=1 each wave is one seed and the output streams per seed.
  ThreadPool pool(jobs);
  for (;;) {
    int next = static_cast<int>(all_results.size());
    int wave = jobs;
    if (budget_seconds > 0) {
      double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      if (next > 0 && elapsed >= budget_seconds) {
        break;
      }
    } else if (next >= runs) {
      break;
    } else if (runs - next < wave) {
      wave = runs - next;
    }
    for (int i = 0; i < wave; ++i) {
      TortureOptions options = base;
      options.seed = base.seed + static_cast<uint64_t>(next + i);
      all_options.push_back(options);
    }
    all_results.resize(all_options.size());
    for (size_t slot = static_cast<size_t>(next); slot < all_results.size(); ++slot) {
      pool.Submit([&, slot] { all_results[slot] = RunTorture(all_options[slot]); });
    }
    pool.Wait();
    for (size_t slot = static_cast<size_t>(next); slot < all_results.size(); ++slot) {
      const TortureOptions& options = all_options[slot];
      const TortureResult& result = all_results[slot];
      PrintResult(options, result);
      if (result.ok || ++failed > 1) {
        continue;
      }
      // Only the first failing seed is shrunk (it re-runs the seed many
      // times) and bundled: later failures of one sweep are almost always the
      // same bug, and CI wants one clear repro.
      TortureOptions shrunk = ShrinkFailingRun(options);
      std::printf("  shrunk:  %s\n", ReproCommand(shrunk).c_str());
      if (artifacts_dir == nullptr) {
        continue;
      }
      // The standard black-box bundle (repro.txt with the shrunk line
      // appended, trace.csv, blackbox.json) at the artifacts root.
      if (ExportTortureBlackBox(options, result, artifacts_dir,
                                "shrunk: " + ReproCommand(shrunk))) {
        std::printf("  artifacts: %s/{repro.txt,trace.csv,blackbox.json}\n", artifacts_dir);
      } else {
        std::fprintf(stderr, "cannot write bundle under %s\n", artifacts_dir);
      }
    }
  }

  if (artifacts_dir != nullptr && failed > 0) {
    std::string report_path = std::string(artifacts_dir) + "/torture-report.json";
    if (!WriteTextFile(report_path, BuildTortureReport(all_options, all_results))) {
      std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
      return 2;
    }
  }

  if (json_path != nullptr) {
    if (!WriteTextFile(json_path, BuildTortureReport(all_options, all_results))) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 2;
    }
    std::printf("report written to %s\n", json_path);
  }

  std::printf("%zu run(s), %d failed\n", all_results.size(), failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fuzz
}  // namespace emeralds

int main(int argc, char** argv) { return emeralds::fuzz::Run(argc, argv); }
