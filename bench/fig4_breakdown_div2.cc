// Figure 4: average breakdown utilizations with task periods divided by 2
// (10-500 ms range in the paper's terms).
//
// Expected shape (paper): for moderate periods EDF starts above RM but its
// O(n) selection overhead grows until RM overtakes it at large n; CSD stays
// above both throughout ("for n = 40, CSD-4 has 50% lower overhead than RM").

#include "bench/breakdown_harness.h"

int main() {
  return emeralds::RunBreakdownFigure("Figure 4", /*divide=*/2) ? 0 : 1;
}
