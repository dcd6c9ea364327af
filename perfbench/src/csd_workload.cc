// csd_search: ComputeBreakdown for RM, EDF, CSD-2, CSD-3 and CSD-4 over
// GenerateWorkload task sets, CSD-4 warm-started from CSD-3 as the figure
// harnesses do. No kernel is simulated.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/analysis/breakdown.h"
#include "src/analysis/overhead.h"
#include "src/base/rng.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

using emeralds::BreakdownOptions;
using emeralds::BreakdownResult;
using emeralds::CostModel;
using emeralds::CsdSearchStats;
using emeralds::PolicySpec;
using emeralds::TaskSet;

constexpr int kNumPolicies = 5;
const PolicySpec kPolicies[kNumPolicies] = {PolicySpec::Rm(), PolicySpec::Edf(),
                                            PolicySpec::Csd(2), PolicySpec::Csd(3),
                                            PolicySpec::Csd(4)};
const char* const kSpanNames[kNumPolicies] = {
    "analysis.ComputeBreakdown.RM", "analysis.ComputeBreakdown.EDF",
    "analysis.ComputeBreakdown.CSD-2", "analysis.ComputeBreakdown.CSD-3",
    "analysis.ComputeBreakdown.CSD-4"};
const char* const kMetricNames[kNumPolicies] = {
    "analysis.rm_ms_per_taskset", "analysis.edf_ms_per_taskset", "analysis.csd2_ms_per_taskset",
    "analysis.csd3_ms_per_taskset", "analysis.csd4_ms_per_taskset"};
constexpr int kCsd3 = 3;
constexpr int kCsd4 = 4;

// Task-set sizes; each gets `sets_per_size` sets.
constexpr int kSizes[] = {10, 20, 30, 40, 50};
// Sets checked against ComputeBreakdownReference (outside the timed region):
// the first set of each of the three smallest sizes, where the naive engine
// stays affordable.
constexpr int kReferenceSizes = 3;

using SetResult = std::vector<BreakdownResult>;  // one per policy

bool SameResult(const BreakdownResult& a, const BreakdownResult& b) {
  return a.utilization == b.utilization && a.partition == b.partition;
}

class CsdWorkload : public Workload {
 public:
  explicit CsdWorkload(int sets_per_size) : sets_per_size_(sets_per_size) {}

  void Setup(uint64_t seed) override {
    seed_ = seed;
    sets_ = Generate(nullptr);
  }

  void Measure(const RunArgs& args, Outcome* out) override {
    ItemTimes set_s(sets_.size());
    std::vector<double> walls = TimedReps(args, 3, [&](int rep) {
      RunOnce(nullptr, rep >= 0 ? &set_s : nullptr, nullptr, out);
    });
    CheckReference(out);
    std::printf("# csd sets=%zu seed=%llu result_digest=%s\n", sets_.size(),
                static_cast<unsigned long long>(seed_), Hex(ResultDigest()).c_str());
    PrintReps(walls);
    std::vector<double> set_ms = AllMs(set_s);
    std::printf("# taskset_ms p50=%.4f p95=%.4f over %zu searches; sum of per-set medians %.4f s\n",
                Median(set_ms), Quantile(set_ms, 0.95), set_ms.size(), SumOfMedians(set_s));
    out->Set("work_per_s", static_cast<double>(sets_.size()) / SumOfMedians(set_s), "1/s");
    out->Set("vcpu_overhead_pct", AnalyticOverheadPct(), "%");
  }

  void MeasureLayers(const RunArgs& args, bool focus, SpanLog* log, Outcome* out) override {
    ItemTimes set_s(sets_.size());
    CsdSearchStats stats;
    if (focus) {
      std::vector<double> walls = TimedReps(args, 4, [&](int rep) {
        bool traced = rep % 2 == 1;
        // Search counters are deterministic: keep one traced sweep's worth.
        RunOnce(traced ? log : nullptr, traced ? &set_s : nullptr, rep == 1 ? &stats : nullptr,
                out);
      });
      out->Set("bench.tracing_overhead_pct", TracingOverheadPct(walls), "%");
    } else {
      RunOnce(nullptr, nullptr, nullptr, out);  // warm-up and reference results
      RunOnce(log, &set_s, &stats, out);
    }
    CheckReference(out);
    std::vector<double> set_ms = AllMs(set_s);
    double sets = static_cast<double>(sets_.size());
    double sweeps = static_cast<double>(set_ms.size()) / sets;
    for (int p = 0; p < kNumPolicies; ++p) {
      out->Set(kMetricNames[p], 1e3 * log->Total(kSpanNames[p]) / (sweeps * sets), "ms");
    }
    out->Set("analysis.taskset_ms_p50", Median(set_ms), "ms");
    out->Set("analysis.taskset_ms_p95", Quantile(set_ms, 0.95), "ms");
    out->Set("analysis.full_evals_per_taskset", static_cast<double>(stats.full_evals) / sets,
             "count");
    out->Set("analysis.memo_hit_ratio",
             static_cast<double>(stats.cache_hits) /
                 static_cast<double>(stats.cache_hits + stats.full_evals),
             "ratio");
    out->Set("analysis.prune_ratio",
             static_cast<double>(stats.pruned) / static_cast<double>(stats.considered), "ratio");

    std::vector<TaskSet> again = Generate(log);
    double generate_s = log->Total("workload.GenerateWorkload");
    bool same = again.size() == sets_.size();
    for (size_t i = 0; same && i < again.size(); ++i) {
      same = again[i].tasks.size() == sets_[i].tasks.size();
      for (size_t t = 0; same && t < again[i].tasks.size(); ++t) {
        same = again[i].tasks[t].period == sets_[i].tasks[t].period &&
               again[i].tasks[t].wcet == sets_[i].tasks[t].wcet;
      }
    }
    out->Check(same, "GenerateWorkload repeats its task sets for the seed");
    out->Set("workload.generate_us_per_taskset", 1e6 * generate_s / sets, "us");
  }

 private:
  std::vector<TaskSet> Generate(SpanLog* log) const {
    emeralds::Rng root(seed_);
    std::vector<TaskSet> sets;
    for (int n : kSizes) {
      for (int w = 0; w < sets_per_size_; ++w) {
        ScopedSpan s(log, "workload.GenerateWorkload", static_cast<int64_t>(sets.size()));
        emeralds::Rng rng = root.Fork(static_cast<uint64_t>(n) * 10000 + static_cast<uint64_t>(w));
        sets.push_back(emeralds::GenerateWorkload(rng, n));
      }
    }
    return sets;
  }

  SetResult Search(size_t index, SpanLog* log, CsdSearchStats* stats) const {
    SetResult results(kNumPolicies);
    for (int p = 0; p < kNumPolicies; ++p) {
      BreakdownOptions options;
      options.stats = stats;
      if (p == kCsd4) {
        options.csd_seed = &results[kCsd3];
      }
      ScopedSpan s(log, kSpanNames[p], static_cast<int64_t>(index));
      results[static_cast<size_t>(p)] =
          emeralds::ComputeBreakdown(sets_[index], kPolicies[p], cost_, options);
    }
    return results;
  }

  // One sweep over every set, checked against the first sweep.
  void RunOnce(SpanLog* log, ItemTimes* set_s, CsdSearchStats* stats, Outcome* out) {
    bool first = results_.empty();
    for (size_t i = 0; i < sets_.size(); ++i) {
      double t0 = NowSeconds();
      SetResult r;
      {
        ScopedSpan s(log, "analysis.taskset", static_cast<int64_t>(i));
        r = Search(i, log, stats);
      }
      if (set_s != nullptr) {
        (*set_s)[i].push_back(NowSeconds() - t0);
      }
      if (first) {
        results_.push_back(r);
      }
      bool same = true;
      for (int p = 0; p < kNumPolicies; ++p) {
        same = same && SameResult(r[static_cast<size_t>(p)], results_[i][static_cast<size_t>(p)]);
      }
      out->Check(same,
                 "task set " + std::to_string(i) + " breakdown changed between repetitions");
    }
  }

  // The optimized engine must agree with the naive reference engine (CSD-4
  // unseeded there, as in the figure harnesses' reference sample).
  void CheckReference(Outcome* out) const {
    for (int s = 0; s < kReferenceSizes; ++s) {
      size_t index = static_cast<size_t>(s * sets_per_size_);
      for (int p = 0; p < kNumPolicies; ++p) {
        BreakdownResult ref =
            emeralds::ComputeBreakdownReference(sets_[index], kPolicies[p], cost_);
        out->Check(SameResult(ref, results_[index][static_cast<size_t>(p)]),
                   "task set " + std::to_string(index) + " " + kPolicies[p].Name() +
                       " differs from ComputeBreakdownReference");
      }
    }
  }

  // Scheduler overhead as a share of busy virtual CPU at each policy's
  // breakdown point, from the same overhead model the search charges:
  // sum(overhead_i / P_i) over sum(scaled C_i / P_i + overhead_i / P_i).
  double AnalyticOverheadPct() const {
    emeralds::OverheadModel model(cost_);
    double overhead = 0.0;
    double busy = 0.0;
    for (size_t i = 0; i < sets_.size(); ++i) {
      const TaskSet& set = sets_[i];
      int n = set.size();
      for (int p = 0; p < kNumPolicies; ++p) {
        const BreakdownResult& r = results_[i][static_cast<size_t>(p)];
        std::vector<int> dp;
        int fp = 0;
        std::vector<int> band(static_cast<size_t>(n), -1);  // -1: FP queue, or not CSD
        if (kPolicies[p].kind == PolicySpec::Kind::kCsd) {
          if (r.partition.empty()) {
            continue;  // no feasible partition at any scale: no busy time
          }
          dp.assign(r.partition.begin(), r.partition.end() - 1);
          fp = r.partition.back();
          size_t t = 0;
          for (size_t b = 0; b < dp.size(); ++b) {
            for (int k = 0; k < dp[b]; ++k) {
              band[t++] = static_cast<int>(b);
            }
          }
        }
        double u = 0.0;
        for (int t = 0; t < n; ++t) {
          emeralds::Duration cost;
          switch (kPolicies[p].kind) {
            case PolicySpec::Kind::kEdf:
              cost = model.EdfTaskOverhead(n);
              break;
            case PolicySpec::Kind::kCsd:
              cost = model.CsdTaskOverhead(dp, fp, band[static_cast<size_t>(t)]);
              break;
            default:
              cost = model.RmTaskOverhead(n);
              break;
          }
          u += static_cast<double>(cost.nanos()) /
               static_cast<double>(set.tasks[static_cast<size_t>(t)].period.nanos());
        }
        overhead += u;
        busy += u + r.utilization;
      }
    }
    return 100.0 * overhead / busy;
  }

  uint64_t ResultDigest() const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const SetResult& set : results_) {
      for (const BreakdownResult& r : set) {
        h = (h ^ static_cast<uint64_t>(std::llround(r.utilization * 1e12))) * 0x100000001b3ULL;
        for (int size : r.partition) {
          h = (h ^ static_cast<uint64_t>(size)) * 0x100000001b3ULL;
        }
      }
    }
    return h;
  }

  int sets_per_size_;
  uint64_t seed_ = 1;
  CostModel cost_ = CostModel::MC68040_25MHz();
  std::vector<TaskSet> sets_;
  std::vector<SetResult> results_;  // from the first sweep
};

}  // namespace

std::unique_ptr<Workload> MakeCsdWorkload(int sets_per_size) {
  return std::make_unique<CsdWorkload>(sets_per_size);
}

}  // namespace perfbench
