// Golden equivalence: the optimized CSD partition-search engine
// (CsdEvaluator: prefix-sum tables, memoized scale intervals, lower-bound and
// exact-stage pruning, the backward processor-demand walk) must be
// indistinguishable from the retained naive reference (a fresh CsdFeasible
// per query, scanning every demand point) — same winning partitions, same
// breakdown utilizations — while doing an order of magnitude fewer full
// schedulability tests.

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/breakdown.h"
#include "src/analysis/csd_evaluator.h"
#include "src/analysis/sched_test.h"
#include "src/base/rng.h"
#include "src/workload/workload.h"

namespace emeralds {
namespace {

TaskSet FigureWorkload(int n, int divide, int w) {
  // The breakdown harness's exact seeding, so these assertions cover the
  // workloads the benchmarks report on.
  Rng root(20260704);
  Rng rng = root.Fork(static_cast<uint64_t>(n) * 10000 + divide * 1000 + w);
  return GenerateWorkload(rng, n).PeriodsDividedBy(divide);
}

// Inflated per-task costs exactly as CsdFeasible builds them: execution time
// at `scale`, rounded, plus the partition's per-band scheduler overhead.
std::vector<int64_t> CsdCosts(const TaskSet& set, const std::vector<int>& sizes, double scale,
                              const OverheadModel& model) {
  std::vector<int> dp_lengths(sizes.begin(), sizes.end() - 1);
  int num_dp = static_cast<int>(dp_lengths.size());
  std::vector<int64_t> cost;
  for (int band = 0; band <= num_dp; ++band) {
    int64_t overhead =
        sizes[band] == 0
            ? 0
            : model.CsdTaskOverhead(dp_lengths, sizes.back(), band < num_dp ? band : -1).nanos();
    for (int k = 0; k < sizes[band]; ++k) {
      const PeriodicTask& task = set.tasks[cost.size()];
      double c = static_cast<double>(task.wcet.nanos()) * scale;
      cost.push_back(static_cast<int64_t>(c + 0.5) + overhead);
    }
  }
  return cost;
}

struct DemandTally {
  int compared = 0;
  int rejected = 0;
};

// Runs the demand walk against the point scan on every non-empty lower DP
// band of the partition.
void CompareDemandTests(const TaskSet& set, const std::vector<int>& sizes,
                        const std::vector<int64_t>& cost, DemandTally* tally) {
  int band_start = sizes[0];
  for (size_t band = 1; band + 1 < sizes.size(); ++band) {
    int band_end = band_start + sizes[band];
    if (band_start > 0 && band_end > band_start) {
      bool scan = CsdBandDemandScan(set, band_start, band_end, cost);
      ASSERT_EQ(CsdBandDemandWalk(set, band_start, band_end, cost), scan)
          << "band [" << band_start << ", " << band_end << ")";
      ++tally->compared;
      tally->rejected += scan ? 0 : 1;
    }
    band_start = band_end;
  }
}

TaskSet HandBuilt(const std::vector<PeriodicTask>& tasks) {
  TaskSet set;
  set.tasks = tasks;
  return set;
}

PeriodicTask Task(int64_t period_ns, int64_t wcet_ns) {
  return {Duration::FromNanos(period_ns), Duration::FromNanos(wcet_ns),
          Duration::FromNanos(period_ns)};
}

std::vector<int64_t> Wcets(const TaskSet& set) {
  std::vector<int64_t> cost;
  for (const PeriodicTask& task : set.tasks) {
    cost.push_back(task.wcet.nanos());
  }
  return cost;
}

// The demand walk must return the point scan's verdict on identical cost
// vectors: seeded figure workloads at n = 5..50 and divides 1 and 3, every
// CSD-3 and CSD-4 split tuple, and a ladder of scales up to just past the
// set's CSD-3 breakdown, where demand tests start to fail.
class DemandWalkTest : public testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DemandWalkTest, MatchesPointScan) {
  const auto [n, divide] = GetParam();
  const CostModel cost_model = CostModel::MC68040_25MHz();
  const OverheadModel model(cost_model);
  TaskSet set = FigureWorkload(n, divide, 0);
  BreakdownResult best = ComputeBreakdown(set, PolicySpec::Csd(3), cost_model, {});
  double breakdown_scale = best.utilization / set.Utilization();
  DemandTally tally;
  for (double fraction : {0.5, 0.9, 0.98, 1.0, 1.01, 1.05}) {
    double scale = fraction * breakdown_scale;
    SCOPED_TRACE(testing::Message() << "scale=" << scale);
    // Tuples whose top DP band is empty have no lower DP band to test.
    for (int q = 1; q <= n; ++q) {
      for (int r = q; r <= n; ++r) {
        std::vector<int> sizes = {q, r - q, n - r};
        CompareDemandTests(set, sizes, CsdCosts(set, sizes, scale, model), &tally);
        for (int v = r; v <= n; ++v) {
          std::vector<int> sizes4 = {q, r - q, v - r, n - v};
          CompareDemandTests(set, sizes4, CsdCosts(set, sizes4, scale, model), &tally);
        }
      }
    }
  }
  EXPECT_GT(tally.rejected, 0);
  EXPECT_LT(tally.rejected, tally.compared);
}

INSTANTIATE_TEST_SUITE_P(FigureWorkloads, DemandWalkTest,
                         testing::Values(std::pair{5, 1}, std::pair{20, 1}, std::pair{35, 1},
                                         std::pair{50, 1}, std::pair{5, 3}, std::pair{20, 3},
                                         std::pair{35, 3}, std::pair{50, 3}),
                         [](const testing::TestParamInfo<std::pair<int, int>>& param) {
                           return "n" + std::to_string(param.param.first) + "_divide" +
                                  std::to_string(param.param.second);
                         });

// A higher-band release can land between two band deadlines and push the
// demand above the supply just after it, at an instant that is not a test
// point. Both tests must accept: only deadline points count. An unsnapped
// walk that steps t <- t - 1 where h(t) == t (at 17 us here) judges 16.999 us
// and rejects.
TEST(GoldenEquivalence, DemandWalkIgnoresReleaseStepsBetweenDeadlines) {
  // Higher band: P = 4 us, C = 3 us. Band: (12 us, 2 us) and (26 us, 2 us).
  // Busy window 24 us, points 12 and 24 us.
  TaskSet set = HandBuilt({Task(4000, 3000), Task(12000, 2000), Task(26000, 2000)});
  std::vector<int64_t> cost = Wcets(set);
  // Just after the release at 12 us: 2 us of band demand plus four 3 us
  // interference jobs exceed the 13 us elapsed.
  int64_t t = 13000;
  int64_t demand = 2000 + ((t + 3999) / 4000) * 3000;
  ASSERT_GT(demand, t);
  EXPECT_TRUE(CsdBandDemandScan(set, 1, 3, cost));
  EXPECT_TRUE(CsdBandDemandWalk(set, 1, 3, cost));
}

// kMaxDemandPoints counts raw points, duplicates included. 20 identical
// band tasks with P = 100 us plus one 1 s task give 20 * 10000 + 1 = 200001
// raw points (one over the cap) but only 10000 distinct ones; with a
// 999.9 ms long task the count is 199981 and both tests accept.
TEST(GoldenEquivalence, DemandWalkCountsDuplicatePointsAgainstCap) {
  for (int64_t long_period : {999900000, 1000000000}) {
    std::vector<PeriodicTask> tasks = {Task(100000, 10000)};
    for (int k = 0; k < 20; ++k) {
      tasks.push_back(Task(100000, 2000));
    }
    tasks.push_back(Task(long_period, long_period / 2));  // total utilization 1
    TaskSet set = HandBuilt(tasks);
    std::vector<int64_t> cost = Wcets(set);
    bool expected = long_period < 1000000000;
    SCOPED_TRACE(testing::Message() << "long period " << long_period);
    EXPECT_EQ(CsdBandDemandScan(set, 1, set.size(), cost), expected);
    EXPECT_EQ(CsdBandDemandWalk(set, 1, set.size(), cost), expected);
  }
}

// The busy-window caps decide verdicts in both tests.
TEST(GoldenEquivalence, DemandWalkKeepsBusyWindowCaps) {
  // Utilization exactly 1: the busy window creeps toward its fixed point of
  // 1 ms (where demand equals supply) by a factor of 0.999 per iteration, so
  // it is still moving after kMaxBusyIterations.
  TaskSet creeping = HandBuilt({Task(1000, 999), Task(1000000, 1000)});
  EXPECT_FALSE(CsdBandDemandScan(creeping, 1, 2, Wcets(creeping)));
  EXPECT_FALSE(CsdBandDemandWalk(creeping, 1, 2, Wcets(creeping)));
  // Utilization 1.1: the window passes 50 band periods within 30 iterations.
  TaskSet overloaded = HandBuilt({Task(1000, 600), Task(100000, 50000)});
  EXPECT_FALSE(CsdBandDemandScan(overloaded, 1, 2, Wcets(overloaded)));
  EXPECT_FALSE(CsdBandDemandWalk(overloaded, 1, 2, Wcets(overloaded)));
  // The same shape at utilization 0.9 converges, and both accept.
  TaskSet light = HandBuilt({Task(1000, 400), Task(100000, 50000)});
  EXPECT_TRUE(CsdBandDemandScan(light, 1, 2, Wcets(light)));
  EXPECT_TRUE(CsdBandDemandWalk(light, 1, 2, Wcets(light)));
}

// Optimized and reference searches over 30 seeded workloads spanning
// n = 5..50, divides 1 and 3, and CSD-2/3/4 must agree on the result.
TEST(GoldenEquivalence, BreakdownMatchesReferenceAcrossWorkloads) {
  const CostModel cost = CostModel::MC68040_25MHz();
  const BreakdownOptions options;
  int checked = 0;
  for (int divide : {1, 3}) {
    for (int n = 5; n <= 50; n += 15) {  // 5, 20, 35, 50
      int workloads = n == 50 ? 1 : 3;
      for (int w = 0; w < workloads; ++w) {
        TaskSet set = FigureWorkload(n, divide, w);
        for (int queues : {2, 3, 4}) {
          SCOPED_TRACE(testing::Message() << "n=" << n << " divide=" << divide << " w=" << w
                                          << " queues=" << queues);
          BreakdownResult opt = ComputeBreakdown(set, PolicySpec::Csd(queues), cost, options);
          BreakdownResult ref =
              ComputeBreakdownReference(set, PolicySpec::Csd(queues), cost, options);
          EXPECT_NEAR(opt.utilization, ref.utilization, options.precision);
          EXPECT_EQ(opt.partition, ref.partition);
          ++checked;
        }
      }
    }
  }
  EXPECT_GE(checked, 20 * 3);
}

// The CSD-3-seeded CSD-4 search (as the harness runs it) must also match the
// unseeded reference: both derive the same seed partition, so the hill climbs
// walk the same path.
TEST(GoldenEquivalence, SeededCsd4MatchesUnseededReference) {
  const CostModel cost = CostModel::MC68040_25MHz();
  for (int w = 0; w < 3; ++w) {
    TaskSet set = FigureWorkload(25, 1, w);
    SCOPED_TRACE(testing::Message() << "w=" << w);
    BreakdownOptions options;
    BreakdownResult csd3 = ComputeBreakdown(set, PolicySpec::Csd(3), cost, options);
    options.csd_seed = &csd3;
    BreakdownResult opt = ComputeBreakdown(set, PolicySpec::Csd(4), cost, options);
    BreakdownResult ref = ComputeBreakdownReference(set, PolicySpec::Csd(4), cost, {});
    EXPECT_NEAR(opt.utilization, ref.utilization, 0.002);
    EXPECT_EQ(opt.partition, ref.partition);
  }
}

// Pointwise: every CsdEvaluator::Feasible answer equals a fresh CsdFeasible,
// across all CSD-3 partitions of a 12-task set and a ladder of scales —
// including repeat queries, which the memo must answer consistently.
TEST(GoldenEquivalence, EvaluatorFeasibleMatchesCsdFeasiblePointwise) {
  const CostModel cost = CostModel::MC68040_25MHz();
  const OverheadModel model(cost);
  const int n = 12;
  TaskSet set = FigureWorkload(n, 1, 0);
  CsdSearchStats stats;
  CsdEvaluator eval(set, 3, model, &stats);
  for (double scale : {0.4, 0.8, 1.0, 1.1, 0.8}) {
    for (int q = 0; q <= n; ++q) {
      for (int r = q; r <= n; ++r) {
        std::vector<int> splits = {q, r};
        bool got = eval.Feasible(splits, scale);
        bool want = CsdFeasible(set, CsdSizesFromSplits(splits, n), scale, model);
        ASSERT_EQ(got, want) << "q=" << q << " r=" << r << " scale=" << scale;
      }
    }
  }
  EXPECT_GT(stats.cache_hits, 0);  // the repeated 0.8 pass must hit the memo
}

// A partition the evaluator prunes must be one the full test rejects: pruning
// soundness, probed at the scales the breakdown search would use.
TEST(GoldenEquivalence, PrunedPartitionsAreInfeasible) {
  const CostModel cost = CostModel::MC68040_25MHz();
  const OverheadModel model(cost);
  const int n = 20;
  TaskSet set = FigureWorkload(n, 3, 0);
  CsdSearchStats stats;
  CsdEvaluator eval(set, 3, model, &stats);
  int pruned = 0;
  for (double scale : {0.9, 1.0, 1.05}) {
    for (int q = 0; q <= n; ++q) {
      for (int r = q; r <= n; ++r) {
        std::vector<int> splits = {q, r};
        if (eval.ProvablyInfeasible(splits, scale)) {
          ++pruned;
          EXPECT_FALSE(CsdFeasible(set, CsdSizesFromSplits(splits, n), scale, model))
              << "q=" << q << " r=" << r << " scale=" << scale;
        }
      }
    }
  }
  EXPECT_GT(pruned, 0);  // the bound must actually fire at these scales
}

// The tentpole criterion: on the Figure 3 sweep at n = 50, the optimized
// engine (CSD-4 seeded from CSD-3, as the harness runs it) does >= 10x fewer
// full schedulability tests than the naive baseline.
TEST(GoldenEquivalence, TenfoldFewerEvaluationsAtN50) {
  const CostModel cost = CostModel::MC68040_25MHz();
  TaskSet set = FigureWorkload(50, 1, 0);

  CsdSearchStats opt_stats;
  BreakdownOptions opt_options;
  opt_options.stats = &opt_stats;
  BreakdownResult csd3;
  for (int queues : {2, 3, 4}) {
    BreakdownOptions o = opt_options;
    if (queues == 4) {
      o.csd_seed = &csd3;
    }
    BreakdownResult result = ComputeBreakdown(set, PolicySpec::Csd(queues), cost, o);
    if (queues == 3) {
      csd3 = result;
    }
  }

  CsdSearchStats ref_stats;
  BreakdownOptions ref_options;
  ref_options.stats = &ref_stats;
  for (int queues : {2, 3, 4}) {
    ComputeBreakdownReference(set, PolicySpec::Csd(queues), cost, ref_options);
  }

  ASSERT_GT(opt_stats.full_evals, 0);
  EXPECT_GE(ref_stats.full_evals, 10 * opt_stats.full_evals)
      << "optimized=" << opt_stats.full_evals << " naive=" << ref_stats.full_evals;
}

// Regression for BestCsdPartition's once-ignored `exhaustive` parameter: with
// exhaustive == false and queues >= 4 the seeded hill climb must return a
// feasible allocation while evaluating far fewer tuples than the
// enumeration.
TEST(GoldenEquivalence, BestCsdPartitionHillClimbHonorsExhaustiveFlag) {
  const CostModel cost = CostModel::MC68040_25MHz();
  const OverheadModel model(cost);
  const int n = 12;
  TaskSet set = FigureWorkload(n, 1, 1);
  const double scale = 0.5;  // comfortably feasible

  CsdSearchStats exhaustive_stats;
  std::vector<int> full =
      BestCsdPartition(set, 4, scale, cost, /*exhaustive=*/true, &exhaustive_stats);
  ASSERT_FALSE(full.empty());
  EXPECT_TRUE(CsdFeasible(set, full, scale, model));

  CsdSearchStats climb_stats;
  std::vector<int> climbed =
      BestCsdPartition(set, 4, scale, cost, /*exhaustive=*/false, &climb_stats);
  ASSERT_FALSE(climbed.empty());
  EXPECT_TRUE(CsdFeasible(set, climbed, scale, model));

  // The climb (including its internal CSD-3 seeding search) must consider
  // well under half of what the full enumeration visits.
  EXPECT_LT(climb_stats.considered * 2, exhaustive_stats.considered)
      << "climb=" << climb_stats.considered << " exhaustive=" << exhaustive_stats.considered;
}

}  // namespace
}  // namespace emeralds
