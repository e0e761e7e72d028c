// Reproduces Table 4: the sparse time predictor (Equation 5) vs measured
// times of the served sparse layer (mm::SdmmLayer) on first-layer shapes at N in {16, 32, 64}, including pairs of
// matrices with the same shape but different sparsity. Expected shape:
// predictions track reality closely and resolve same-shape /
// different-sparsity pairs in the right order.

#include <cstdio>

#include "bench_common.h"
#include "mm/csr.h"
#include "mm/sdmm.h"

int main() {
  using namespace dnlr;
  benchx::PrintBanner("Table 4",
                      "sparse time predictor: real vs predicted SDMM time, "
                      "N in {16, 32, 64}");

  const predict::SparseTimePredictor& predictor = benchx::SparsePredictor();
  std::printf("coefficients: L_a=%.3e L_b=%.3e L_c=%.3e us/column\n\n",
              predictor.la(), predictor.lb(), predictor.lc());

  struct Case {
    uint32_t m;
    double sparsity;
  };
  const Case cases[] = {{400, 0.995}, {400, 0.986}, {300, 0.985},
                        {200, 0.982}, {200, 0.971}, {100, 0.989},
                        {100, 0.967}, {50, 0.987}};
  const uint32_t k = 136;

  std::printf("%-12s %9s |", "Shape", "Sparsity");
  for (const uint32_t n : {16u, 32u, 64u}) {
    std::printf("  N=%-2u real   pred |", n);
  }
  std::printf("\n");
  for (const Case& c : cases) {
    const mm::CsrMatrix a = benchx::RandomSparse(
        c.m, k, c.sparsity,
        2000 + c.m + static_cast<uint64_t>(c.sparsity * 1e4));
    std::printf("%4ux%-7u %9.3f |", c.m, k, a.Sparsity());
    for (const uint32_t n : {16u, 32u, 64u}) {
      const double real = mm::MeasureSdmmMicros(a, n, 9);
      const double predicted = predictor.PredictMicros(a, n);
      std::printf(" %8.2f %6.2f |", real, predicted);
    }
    std::printf("\n");
  }
  std::printf("\npaper shape: small absolute errors; the predictor separates "
              "equal-shape matrices with ~1%% sparsity differences.\n");
  return 0;
}
