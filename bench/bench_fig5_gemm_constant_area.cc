// Reproduces Figure 5: GEMM throughput with the product m*k held constant
// (the A matrix has a fixed footprint) while the aspect ratio varies.
// Expected shape: small k with large m degrades badly; small m with large k
// stays fast — the asymmetry that defines the predictor's k-zones.

#include <cstdio>

#include "bench_common.h"
#include "mm/gemm.h"

int main() {
  using namespace dnlr;
  benchx::PrintBanner("Figure 5",
                      "GEMM GFLOPS with m*k constant (= 2^16), n = 1000");

  const uint32_t area = 1u << 16;
  std::printf("%8s %8s %10s\n", "m", "k", "GFLOPS");
  for (uint32_t k = 1024; k >= 16; k /= 2) {
    const uint32_t m = area / k;
    // The raw-A GEMM, packing included, as the paper times its sgemm.
    const double gflops =
        mm::MeasureGemmGflopsWithParams(mm::GemmParams(), m, k, 1000, 3);
    std::printf("%8u %8u %10.1f\n", m, k, gflops);
  }
  std::printf("\npaper shape: left side (small m, large k) near peak; right "
              "side (large m, small k) degrades severely.\n");
  return 0;
}
