// Ablation (Section 5.6): how many CSD queues are worth having?
//
// Sweeps CSD-x for x = 1..6 (x = 1 is plain RM; each additional queue costs
// 0.55 us per selection to parse) on short-period workloads where the effect
// is largest, and reports average breakdown utilization.
//
// Expected shape (paper): a significant jump from CSD-2 to CSD-3, minimal
// further gain at CSD-4, and eventually decline as the added schedulability
// overhead of many statically-ordered EDF queues plus the queue-parse cost
// outweighs the shrinking run-time savings ("as x approaches n, performance
// of CSD-x will degrade to that of RM").

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/analysis/breakdown.h"
#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/workload/workload.h"

int main() {
  using namespace emeralds;
  const char* env = std::getenv("EMERALDS_WORKLOADS");
  const int workloads = env != nullptr && std::atoi(env) > 0 ? std::atoi(env) : 40;
  const CostModel cost = CostModel::MC68040_25MHz();

  std::printf("CSD-x queue-count sweep: average breakdown utilization (%%)\n");
  std::printf("(periods / 3, %d workloads per point; x = 1 is plain RM)\n\n", workloads);
  std::printf("%4s", "n");
  for (int x = 1; x <= 6; ++x) {
    std::printf("   CSD-%d", x);
  }
  std::printf("\n");

  // Padded rows: parallel workers write only their own cache line.
  struct alignas(64) Row {
    double util[6] = {};
  };

  Rng root(555);
  ThreadPool pool;
  for (int n : {20, 30, 40, 50}) {
    std::vector<Row> results(workloads);
    pool.ParallelFor(workloads, [&](int64_t w) {
      Rng rng = root.Fork(static_cast<uint64_t>(n) * 100 + w);
      TaskSet set = GenerateWorkload(rng, n).PeriodsDividedBy(3);
      BreakdownResult prev;
      for (int x = 1; x <= 6; ++x) {
        PolicySpec policy = x == 1 ? PolicySpec::Rm() : PolicySpec::Csd(x);
        BreakdownOptions options;
        if (x >= 4) {
          // Chain the seeds: CSD-(x-1)'s winning partition warm-starts the
          // CSD-x hill climb.
          options.csd_seed = &prev;
        }
        BreakdownResult result = ComputeBreakdown(set, policy, cost, options);
        results[w].util[x - 1] = result.utilization;
        if (x >= 2) {
          prev = std::move(result);
        }
      }
    });
    std::printf("%4d", n);
    for (int x = 0; x < 6; ++x) {
      double sum = 0.0;
      for (int w = 0; w < workloads; ++w) {
        sum += results[w].util[x];
      }
      std::printf(" %7.1f", 100.0 * sum / workloads);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\nexpected shape: big gain RM->CSD-2->CSD-3, then diminishing returns\n");
  return 0;
}
