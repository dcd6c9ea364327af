// Overhead-aware schedulability tests (the paper's reference [36] machinery,
// reconstructed with standard analyses).
//
//  * EDF:   utilization test (exact for deadline == period) on costs inflated
//           by the per-period scheduler overhead.
//  * RM:    response-time analysis with inflated costs.
//  * CSD-x: hierarchical test. The top DP queue is plain EDF (utilization
//           test). Lower DP queues use a processor-demand test with
//           request-bound interference from the higher queues (sufficient):
//           the reference scans every deadline point, the optimized engine
//           walks them backward (CsdBandDemandScan / CsdBandDemandWalk).
//           The FP queue uses response-time analysis with every DP task as
//           higher-priority interference.
//
// Tasks must be sorted shortest-period-first; a CSD partition assigns the
// first band_sizes[0] tasks to DP1, the next band_sizes[1] to DP2, ..., and
// the final band_sizes.back() tasks to the FP queue (the paper's allocation:
// the troublesome short-period tasks go to the dynamic queues).

#ifndef SRC_ANALYSIS_SCHED_TEST_H_
#define SRC_ANALYSIS_SCHED_TEST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/analysis/overhead.h"
#include "src/workload/workload.h"

namespace emeralds {

// Scale factor applied to execution times (the breakdown search's knob).
bool EdfFeasible(const TaskSet& tasks, double scale, const OverheadModel& model);

bool RmFeasible(const TaskSet& sorted_tasks, double scale, const OverheadModel& model,
                bool heap = false);

// band_sizes.size() == number of CSD queues (>= 1); the last entry is the FP
// queue. Entries may be zero. Sum must equal the task count.
bool CsdFeasible(const TaskSet& sorted_tasks, const std::vector<int>& band_sizes, double scale,
                 const OverheadModel& model);

// Conservative caps for the iterative analyses: when the busy window (or the
// number of processor-demand test points) explodes, the set is declared
// infeasible. This only triggers with total utilization very close to 1,
// where the breakdown search is within its precision anyway. Both demand
// tests below apply them identically; kMaxDemandPoints counts raw test
// points, duplicates included.
inline constexpr int kMaxBusyIterations = 256;
inline constexpr size_t kMaxDemandPoints = 200000;

// Processor-demand test of the lower DP band [band_start, band_end) with
// request-bound interference from tasks 0..band_start-1, given the final
// per-task inflated costs. Both functions compute the busy window of tasks
// 0..band_end-1 and the same demand h(t) at the band's absolute deadlines
// t <= window, in int64 nanoseconds, and return the same verdict:
//  * CsdBandDemandScan, the reference CsdFeasible runs, builds, sorts and
//    tests every deadline point;
//  * CsdBandDemandWalk, the optimized engine's, walks backward from the last
//    point and jumps from a safe t to the last point below h(t) (Zhang &
//    Burns' Quick Processor-demand Analysis, snapped to deadline points).
// The golden-equivalence tests run one against the other.
bool CsdBandDemandScan(const TaskSet& sorted_tasks, int band_start, int band_end,
                       const std::vector<int64_t>& cost_ns);
bool CsdBandDemandWalk(const TaskSet& sorted_tasks, int band_start, int band_end,
                       const std::vector<int64_t>& cost_ns);

// The demand and response-time stages of CsdFeasible as the optimized
// CsdEvaluator runs them: CsdBandDemandWalk for every non-empty lower DP band,
// then CsdFpRtaFeasible. The per-band cumulative-utilization checks are NOT
// included (the evaluator runs them on prefix sums).
bool CsdDemandAndRtaFeasible(const TaskSet& sorted_tasks, const std::vector<int>& band_sizes,
                             const std::vector<int64_t>& cost_ns);

// The FP band's response-time stage alone (the final stage of
// CsdFeasible and of CsdDemandAndRtaFeasible): tasks fp_start..n-1 against
// interference from every task above them. All-int64, so any caller with
// identical costs gets the identical verdict; the optimized engine runs it as
// an exact prefilter before paying the processor-demand stage.
bool CsdFpRtaFeasible(const TaskSet& sorted_tasks, int fp_start,
                      const std::vector<int64_t>& cost_ns);

// Shared helper: response-time analysis for one task given higher-priority
// interferers (costs in nanoseconds). Returns false on divergence past the
// deadline.
bool ResponseTimeWithin(int64_t own_cost_ns, int64_t deadline_ns,
                        const std::vector<std::pair<int64_t, int64_t>>& interferers);

}  // namespace emeralds

#endif  // SRC_ANALYSIS_SCHED_TEST_H_
