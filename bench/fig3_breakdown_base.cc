// Figure 3: average breakdown utilizations for CSD, EDF, and RM on base
// workloads (periods 5 ms - 999 ms).
//
// Expected shape (paper): with long periods run-time overheads are low, so
// EDF runs near its theoretical limit, yet CSD still edges it out at larger
// n; RM trails throughout; CSD-3 clearly improves on CSD-2 at large n while
// CSD-4 adds only a minimal further gain.

#include "bench/breakdown_harness.h"

int main() {
  return emeralds::RunBreakdownFigure("Figure 3", /*divide=*/1) ? 0 : 1;
}
