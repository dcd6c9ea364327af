// Shared harness for the breakdown-utilization figures (Figures 3-5).

#ifndef BENCH_BREAKDOWN_HARNESS_H_
#define BENCH_BREAKDOWN_HARNESS_H_

namespace emeralds {

// Regenerates one of Figures 3-5: average breakdown utilization versus task
// count for RM, EDF, CSD-2, CSD-3 and CSD-4, with task periods divided by
// `divide` (1, 2 or 3). Workload count defaults to the environment variable
// EMERALDS_WORKLOADS (paper: 500; default here: 60 to keep the harness quick
// on small machines). Prints the series to stdout and writes the perf
// trajectory report; false when the report cannot be written completely.
bool RunBreakdownFigure(const char* figure_name, int divide);

}  // namespace emeralds

#endif  // BENCH_BREAKDOWN_HARNESS_H_
