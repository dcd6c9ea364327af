#include "bench/breakdown_harness.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_report.h"
#include "src/analysis/breakdown.h"
#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/workload/workload.h"

namespace emeralds {
namespace {

constexpr int kNumPolicies = 5;
const PolicySpec kPolicies[kNumPolicies] = {PolicySpec::Rm(), PolicySpec::Edf(),
                                            PolicySpec::Csd(2), PolicySpec::Csd(3),
                                            PolicySpec::Csd(4)};

int WorkloadsPerPoint() {
  const char* env = std::getenv("EMERALDS_WORKLOADS");
  if (env != nullptr) {
    int value = std::atoi(env);
    if (value > 0) {
      return value;
    }
  }
  return 60;
}

// Workloads per point re-run on the naive reference engine (for the
// eval_reduction trajectory and the on-line equivalence check); 0 disables.
int ReferenceSample(int workloads) {
  int value = 4;
  const char* env = std::getenv("EMERALDS_BENCH_REF_SAMPLE");
  if (env != nullptr && std::atoi(env) >= 0) {
    value = std::atoi(env);
  }
  return value < workloads ? value : workloads;
}

// One workload's results. Padded to a cache line: the rows are the only
// cross-thread writes in the sweep, so padding keeps parallel workers from
// bouncing a shared line between cores.
struct alignas(64) WorkloadRow {
  double util[kNumPolicies] = {};
  BreakdownResult csd[3];  // CSD-2/3/4 results (seed chain + reference check)
  CsdSearchStats stats;
};

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

}  // namespace

void RunBreakdownFigure(const char* figure_name, int divide) {
  const int workloads = WorkloadsPerPoint();
  const int ref_sample = ReferenceSample(workloads);
  const CostModel cost = CostModel::MC68040_25MHz();

  std::printf("%s: average breakdown utilization (%%), periods / %d\n", figure_name, divide);
  std::printf("(%d random workloads per point; paper used 500 — set EMERALDS_WORKLOADS)\n",
              workloads);
  std::printf("%4s", "n");
  for (const PolicySpec& policy : kPolicies) {
    std::printf(" %8s", policy.Name());
  }
  std::printf("\n");

  BenchReport report;
  report.figure = figure_name;
  report.divide = divide;
  report.workloads_per_point = workloads;

  Rng root(20260704);
  ThreadPool pool;
  for (int n = 5; n <= 50; n += 5) {
    auto start = std::chrono::steady_clock::now();
    std::vector<WorkloadRow> rows(workloads);
    pool.ParallelFor(workloads, [&](int64_t w) {
      Rng rng = root.Fork(static_cast<uint64_t>(n) * 10000 + divide * 1000 + w);
      TaskSet set = GenerateWorkload(rng, n).PeriodsDividedBy(divide);
      WorkloadRow& row = rows[w];
      for (int p = 0; p < kNumPolicies; ++p) {
        BreakdownOptions options;
        options.stats = &row.stats;
        if (kPolicies[p].kind == PolicySpec::Kind::kCsd && kPolicies[p].csd_queues == 4) {
          // Warm-start the CSD-4 hill climb from this workload's CSD-3
          // result instead of recomputing CSD-3 inside the search.
          options.csd_seed = &row.csd[1];
        }
        BreakdownResult result = ComputeBreakdown(set, kPolicies[p], cost, options);
        row.util[p] = result.utilization;
        if (kPolicies[p].kind == PolicySpec::Kind::kCsd) {
          row.csd[kPolicies[p].csd_queues - 2] = std::move(result);
        }
      }
    });
    double wall = Seconds(start);

    BenchPoint point;
    point.n = n;
    point.wall_seconds = wall;
    point.workloads_per_sec = wall > 0.0 ? workloads / wall : 0.0;
    std::vector<double> sums(kNumPolicies, 0.0);
    for (const WorkloadRow& row : rows) {
      for (int p = 0; p < kNumPolicies; ++p) {
        sums[p] += row.util[p];
      }
      point.evals.Add(row.stats);
    }
    for (int p = 0; p < kNumPolicies; ++p) {
      point.avg_breakdown_pct.emplace_back(kPolicies[p].Name(), 100.0 * sums[p] / workloads);
    }

    // Reference sample: re-run the first few workloads through the identical
    // search on the naive engine (unseeded CSD-4, the pre-engine baseline) to
    // record its evaluation counts and confirm the results match.
    point.reference_sample = ref_sample;
    auto ref_start = std::chrono::steady_clock::now();
    for (int w = 0; w < ref_sample; ++w) {
      Rng rng = root.Fork(static_cast<uint64_t>(n) * 10000 + divide * 1000 + w);
      TaskSet set = GenerateWorkload(rng, n).PeriodsDividedBy(divide);
      bool mismatch = false;
      for (int queues : {2, 3, 4}) {
        BreakdownOptions options;
        options.stats = &point.reference_evals;
        BreakdownResult ref =
            ComputeBreakdownReference(set, PolicySpec::Csd(queues), cost, options);
        const BreakdownResult& opt = rows[w].csd[queues - 2];
        if (ref.partition != opt.partition ||
            std::abs(ref.utilization - opt.utilization) > 1e-12) {
          mismatch = true;
        }
      }
      if (mismatch) {
        ++point.reference_mismatches;
      }
    }
    point.reference_wall_seconds = ref_sample > 0 ? Seconds(ref_start) : 0.0;
    if (ref_sample > 0 && point.evals.full_evals > 0) {
      double opt_per_workload = static_cast<double>(point.evals.full_evals) / workloads;
      double ref_per_workload =
          static_cast<double>(point.reference_evals.full_evals) / ref_sample;
      point.eval_reduction = ref_per_workload / opt_per_workload;
    }

    std::printf("%4d", n);
    for (int p = 0; p < kNumPolicies; ++p) {
      std::printf(" %8.1f", 100.0 * sums[p] / workloads);
    }
    std::printf("\n");
    std::printf("     [%.2fs, %.1f workloads/s; CSD evals/workload %.0f",
                wall, point.workloads_per_sec,
                static_cast<double>(point.evals.full_evals) / workloads);
    if (ref_sample > 0) {
      std::printf(" vs %.0f naive = %.1fx fewer%s",
                  static_cast<double>(point.reference_evals.full_evals) / ref_sample,
                  point.eval_reduction,
                  point.reference_mismatches == 0 ? "" : "; RESULT MISMATCH");
    }
    std::printf("]\n");
    std::fflush(stdout);

    report.points.push_back(std::move(point));
  }

  std::string json_path = BenchJsonPath("BENCH_breakdown.json");
  if (WriteBenchReport(report, json_path)) {
    std::printf("perf trajectory written to %s\n\n", json_path.c_str());
  } else {
    std::printf("WARNING: could not write %s\n\n", json_path.c_str());
  }
}

}  // namespace emeralds
