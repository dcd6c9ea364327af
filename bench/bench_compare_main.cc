// CLI for the perf-regression gate (see bench_compare.h):
//
//   bench_compare <baseline.json> <candidate.json> [--tolerance=0.03]
//                 [--abs-slack-ns=20000]
//
// Exit status: 0 within tolerance, 1 regression (or the candidate violates
// its own invariants), 2 usage / I/O / parse failure.

#include <cstdint>
#include <cstdio>

#include "bench/bench_compare.h"
#include "src/base/flags.h"

int main(int argc, char** argv) {
  using emeralds::bench::CompareOptions;
  using emeralds::bench::CompareReportFiles;
  using emeralds::bench::CompareResult;

  const emeralds::FlagContext flags{
      "bench_compare",
      "usage: bench_compare <baseline.json> <candidate.json> [--tolerance=0.03]\n"
      "                     [--abs-slack-ns=20000]\n"};
  const char* baseline = nullptr;
  const char* candidate = nullptr;
  CompareOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (emeralds::FlagValue(argv[i], "--tolerance", &v)) {
      if (!flags.Double("--tolerance", v, 0.0, 1e6, &options.rel_tolerance)) {
        return 2;
      }
    } else if (emeralds::FlagValue(argv[i], "--abs-slack-ns", &v)) {
      if (!flags.Int<int64_t>("--abs-slack-ns", v, 0, INT64_MAX, &options.abs_slack_ns)) {
        return 2;
      }
    } else if (argv[i][0] == '-' || candidate != nullptr) {
      flags.Fail("unknown argument '%s'", argv[i]);
      return 2;
    } else if (baseline == nullptr) {
      baseline = argv[i];
    } else {
      candidate = argv[i];
    }
  }
  if (candidate == nullptr) {
    flags.Fail("need a baseline and a candidate report");
    return 2;
  }

  CompareResult result = CompareReportFiles(baseline, candidate, options);
  for (const std::string& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "FAIL: %s\n", failure.c_str());
  }
  // I/O and parse problems surface as failures mentioning the path; map the
  // "could not even compare" cases to exit 2.
  if (!result.ok) {
    for (const std::string& failure : result.failures) {
      if (failure.find("cannot open") != std::string::npos ||
          failure.find("does not parse") != std::string::npos) {
        return 2;
      }
    }
    std::fprintf(stderr, "bench_compare: %s regressed against %s\n", candidate, baseline);
    return 1;
  }
  std::printf("OK: %s within tolerance of %s\n", candidate, baseline);
  return 0;
}
