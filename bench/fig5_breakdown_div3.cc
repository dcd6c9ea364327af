// Figure 5: average breakdown utilizations with task periods divided by 3.
//
// Expected shape (paper): the short periods make the scheduler run often, so
// "RM quickly overtakes EDF"; CSD continues to be superior to both, with
// CSD-3 / CSD-4 well ahead at large n.

#include "bench/breakdown_harness.h"

int main() {
  return emeralds::RunBreakdownFigure("Figure 5", /*divide=*/3) ? 0 : 1;
}
