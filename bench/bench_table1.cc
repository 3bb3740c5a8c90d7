// Table 1: Chernoff-bound confidence for the sample size (Section 4.3,
// "Sample Size"). Reports the bound e^{-N d^2/(2p)} + e^{-N d^2/(3p)}
// maximized over p <= 0.1 for N d^2 in {1..5}, plus the paper's printed
// values for comparison. (The analytic maximum at p = 0.1 is ~10x the
// paper's table entries; both are reported.)

#include <cmath>
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  proteus::bench::ParseArgs(argc, argv);
  std::printf("Table 1: sample-size confidence bounds (p <= 0.1)\n\n");
  std::printf("%-8s %-14s %-14s %-12s\n", "N*d^2", "computed", "paper",
              "2e^{-2Nd^2}");
  const double paper[] = {0.00425, 0.00132, 0.00005, 0.000002, 0.0000001};
  for (int nd2 = 1; nd2 <= 5; ++nd2) {
    double p = 0.1;  // the bound is maximized at the largest admissible p
    double computed = std::exp(-nd2 / (2 * p)) + std::exp(-nd2 / (3 * p));
    double simple = 2 * std::exp(-2.0 * nd2);
    std::printf("%-8d %-14.7f %-14.7f %-12.7f\n", nd2, computed,
                paper[nd2 - 1], simple);
  }
  std::printf(
      "\nExample: N=10000 samples, d=0.01  => N*d^2 = 1;"
      " N=50000 => N*d^2 = 5.\n");
  return 0;
}
