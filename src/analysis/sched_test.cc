#include "src/analysis/sched_test.h"

#include <algorithm>
#include <cmath>

#include "src/base/assert.h"
#include "src/base/math.h"

namespace emeralds {
namespace {

int64_t ScaledCost(const PeriodicTask& task, double scale, Duration overhead) {
  double c = static_cast<double>(task.wcet.nanos()) * scale;
  return static_cast<int64_t>(c + 0.5) + overhead.nanos();
}

}  // namespace

bool ResponseTimeWithin(int64_t own_cost_ns, int64_t deadline_ns,
                        const std::vector<std::pair<int64_t, int64_t>>& interferers) {
  int64_t response = own_cost_ns;
  for (int iter = 0; iter < kMaxBusyIterations; ++iter) {
    int64_t next = own_cost_ns;
    for (const auto& [cost, period] : interferers) {
      next += CeilDiv(response, period) * cost;
    }
    if (next > deadline_ns) {
      return false;
    }
    if (next == response) {
      return true;
    }
    response = next;
  }
  return false;  // no convergence within budget: treat as infeasible
}

bool EdfFeasible(const TaskSet& tasks, double scale, const OverheadModel& model) {
  int n = tasks.size();
  if (n == 0) {
    return true;
  }
  Duration overhead = model.EdfTaskOverhead(n);
  double u = 0.0;
  for (const PeriodicTask& task : tasks.tasks) {
    u += static_cast<double>(ScaledCost(task, scale, overhead)) /
         static_cast<double>(task.period.nanos());
  }
  return u <= 1.0;
}

bool RmFeasible(const TaskSet& sorted_tasks, double scale, const OverheadModel& model,
                bool heap) {
  EM_ASSERT(sorted_tasks.IsSortedByPeriod());
  int n = sorted_tasks.size();
  if (n == 0) {
    return true;
  }
  Duration overhead = model.RmTaskOverhead(n, heap);
  std::vector<std::pair<int64_t, int64_t>> higher;
  higher.reserve(n);
  for (int i = 0; i < n; ++i) {
    const PeriodicTask& task = sorted_tasks.tasks[i];
    int64_t cost = ScaledCost(task, scale, overhead);
    if (!ResponseTimeWithin(cost, task.deadline.nanos(), higher)) {
      return false;
    }
    higher.emplace_back(cost, task.period.nanos());
  }
  return true;
}

bool CsdFeasible(const TaskSet& sorted_tasks, const std::vector<int>& band_sizes, double scale,
                 const OverheadModel& model) {
  EM_ASSERT(sorted_tasks.IsSortedByPeriod());
  EM_ASSERT(!band_sizes.empty());
  int n = sorted_tasks.size();
  int total = 0;
  for (int s : band_sizes) {
    EM_ASSERT(s >= 0);
    total += s;
  }
  EM_ASSERT_MSG(total == n, "partition covers %d of %d tasks", total, n);

  int num_dp = static_cast<int>(band_sizes.size()) - 1;
  std::vector<int> dp_lengths(band_sizes.begin(), band_sizes.end() - 1);
  int fp_length = band_sizes.back();

  // Inflated cost per task, by band.
  std::vector<int64_t> cost_ns(n);
  {
    int index = 0;
    for (int band = 0; band < num_dp; ++band) {
      Duration overhead = band_sizes[band] > 0
                              ? model.CsdTaskOverhead(dp_lengths, fp_length, band)
                              : Duration();
      for (int k = 0; k < band_sizes[band]; ++k, ++index) {
        cost_ns[index] = ScaledCost(sorted_tasks.tasks[index], scale, overhead);
      }
    }
    Duration fp_overhead =
        fp_length > 0 ? model.CsdTaskOverhead(dp_lengths, fp_length, -1) : Duration();
    for (int k = 0; k < fp_length; ++k, ++index) {
      cost_ns[index] = ScaledCost(sorted_tasks.tasks[index], scale, fp_overhead);
    }
  }

  // --- DP bands: cumulative-utilization checks (the naive O(n) rescans the
  // CsdEvaluator replaces with prefix sums), then each lower band's
  // processor-demand scan ---
  int band_start = 0;
  for (int band = 0; band < num_dp; ++band) {
    int band_end = band_start + band_sizes[band];
    if (band_sizes[band] == 0) {
      continue;
    }
    // Utilization of bands 0..band must stay below 1 (necessary, and
    // sufficient for the top band which is plain EDF at highest priority).
    double u = 0.0;
    for (int i = 0; i < band_end; ++i) {
      u += static_cast<double>(cost_ns[i]) /
           static_cast<double>(sorted_tasks.tasks[i].period.nanos());
    }
    if (u > 1.0) {
      return false;
    }
    if (band_start > 0 && !CsdBandDemandScan(sorted_tasks, band_start, band_end, cost_ns)) {
      return false;
    }
    band_start = band_end;
  }

  // --- FP band: response-time analysis ---
  return CsdFpRtaFeasible(sorted_tasks, band_start, cost_ns);
}

namespace {

// Busy window of tasks 0..band_end-1: the least fixed point of
// W = sum ceil(W / P_i) * C_i, iterated from W = sum C_i. Returns false
// (conservatively infeasible) when an iterate exceeds 50 times the band's
// longest period or no fixed point is reached within kMaxBusyIterations.
bool BusyWindow(const TaskSet& sorted_tasks, int band_start, int band_end,
                const std::vector<int64_t>& cost_ns, int64_t* window) {
  int64_t w = 0;
  for (int i = 0; i < band_end; ++i) {
    w += cost_ns[i];
  }
  int64_t max_period = 0;
  for (int i = band_start; i < band_end; ++i) {
    max_period = std::max(max_period, sorted_tasks.tasks[i].period.nanos());
  }
  int64_t window_cap = 50 * max_period;
  for (int iter = 0; iter < kMaxBusyIterations; ++iter) {
    int64_t next = 0;
    for (int i = 0; i < band_end; ++i) {
      next += CeilDiv(w, sorted_tasks.tasks[i].period.nanos()) * cost_ns[i];
    }
    if (next > window_cap) {
      return false;  // conservative: window exploded
    }
    if (next == w) {
      *window = w;
      return true;
    }
    w = next;
  }
  return false;
}

// h(t): the band's jobs with absolute deadline <= t plus request-bound
// interference from every task above the band. Non-decreasing in t.
int64_t Demand(const TaskSet& sorted_tasks, int band_start, int band_end,
               const std::vector<int64_t>& cost_ns, int64_t t) {
  int64_t demand = 0;
  for (int i = band_start; i < band_end; ++i) {
    const PeriodicTask& task = sorted_tasks.tasks[i];
    int64_t deadline = task.deadline.nanos();
    if (t >= deadline) {
      demand += (FloorDiv(t - deadline, task.period.nanos()) + 1) * cost_ns[i];
    }
  }
  for (int i = 0; i < band_start; ++i) {
    demand += CeilDiv(t, sorted_tasks.tasks[i].period.nanos()) * cost_ns[i];
  }
  return demand;
}

// The largest test point D_i + k * P_i (k >= 0) of the band that is <= limit,
// or -1 when there is none.
int64_t LastPointAtOrBefore(const TaskSet& sorted_tasks, int band_start, int band_end,
                            int64_t limit) {
  int64_t last = -1;
  for (int i = band_start; i < band_end; ++i) {
    const PeriodicTask& task = sorted_tasks.tasks[i];
    int64_t deadline = task.deadline.nanos();
    if (deadline <= limit) {
      int64_t period = task.period.nanos();
      last = std::max(last, deadline + FloorDiv(limit - deadline, period) * period);
    }
  }
  return last;
}

}  // namespace

bool CsdBandDemandScan(const TaskSet& sorted_tasks, int band_start, int band_end,
                       const std::vector<int64_t>& cost_ns) {
  int64_t window = 0;
  if (!BusyWindow(sorted_tasks, band_start, band_end, cost_ns, &window)) {
    return false;
  }
  // Test points: absolute deadlines of this band's tasks within the window.
  std::vector<int64_t> points;
  for (int i = band_start; i < band_end; ++i) {
    int64_t period = sorted_tasks.tasks[i].period.nanos();
    int64_t deadline = sorted_tasks.tasks[i].deadline.nanos();
    for (int64_t d = deadline; d <= window; d += period) {
      points.push_back(d);
      if (points.size() > kMaxDemandPoints) {
        return false;  // conservative
      }
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  for (int64_t t : points) {
    if (Demand(sorted_tasks, band_start, band_end, cost_ns, t) > t) {
      return false;
    }
  }
  return true;
}

bool CsdBandDemandWalk(const TaskSet& sorted_tasks, int band_start, int band_end,
                       const std::vector<int64_t>& cost_ns) {
  int64_t window = 0;
  if (!BusyWindow(sorted_tasks, band_start, band_end, cost_ns, &window)) {
    return false;
  }
  // The scan's point cap, counted in closed form (duplicates included).
  int64_t raw_points = 0;
  for (int i = band_start; i < band_end; ++i) {
    int64_t deadline = sorted_tasks.tasks[i].deadline.nanos();
    if (deadline <= window) {
      raw_points += FloorDiv(window - deadline, sorted_tasks.tasks[i].period.nanos()) + 1;
    }
  }
  if (raw_points > static_cast<int64_t>(kMaxDemandPoints)) {
    return false;  // conservative
  }
  // Every point above t is already known safe. A safe t with h = h(t) <= t
  // clears every point p in [h, t] too, since h(p) <= h(t) <= p, so the walk
  // moves to the last point below h. It snaps to a real deadline point: the
  // higher bands' interference steps between deadlines, so h itself is
  // usually not a point the scan tests.
  for (int64_t t = LastPointAtOrBefore(sorted_tasks, band_start, band_end, window); t >= 0;) {
    int64_t h = Demand(sorted_tasks, band_start, band_end, cost_ns, t);
    if (h > t) {
      return false;
    }
    t = LastPointAtOrBefore(sorted_tasks, band_start, band_end, h - 1);
  }
  return true;
}

bool CsdDemandAndRtaFeasible(const TaskSet& sorted_tasks, const std::vector<int>& band_sizes,
                             const std::vector<int64_t>& cost_ns) {
  int num_dp = static_cast<int>(band_sizes.size()) - 1;
  int band_start = 0;
  for (int band = 0; band < num_dp; ++band) {
    int band_end = band_start + band_sizes[band];
    // Lower DP bands only: the top band is plain EDF, settled by the
    // utilization check.
    if (band_start > 0 && band_end > band_start &&
        !CsdBandDemandWalk(sorted_tasks, band_start, band_end, cost_ns)) {
      return false;
    }
    band_start = band_end;
  }
  return CsdFpRtaFeasible(sorted_tasks, band_start, cost_ns);
}

bool CsdFpRtaFeasible(const TaskSet& sorted_tasks, int fp_start,
                      const std::vector<int64_t>& cost_ns) {
  int n = sorted_tasks.size();
  std::vector<std::pair<int64_t, int64_t>> interferers;
  interferers.reserve(n);
  for (int i = 0; i < fp_start; ++i) {
    interferers.emplace_back(cost_ns[i], sorted_tasks.tasks[i].period.nanos());
  }
  for (int i = fp_start; i < n; ++i) {
    if (!ResponseTimeWithin(cost_ns[i], sorted_tasks.tasks[i].deadline.nanos(), interferers)) {
      return false;
    }
    interferers.emplace_back(cost_ns[i], sorted_tasks.tasks[i].period.nanos());
  }
  return true;
}

}  // namespace emeralds
