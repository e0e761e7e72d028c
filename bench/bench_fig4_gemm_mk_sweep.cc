// Reproduces Figure 4: GEMM throughput (GFLOPS) as m = k grows, for several
// batch sizes n. Expected shape: throughput grows with the matrix size and
// with n; small shapes run far below peak.

#include <cstdio>

#include "bench_common.h"
#include "mm/gemm.h"

int main() {
  using namespace dnlr;
  benchx::PrintBanner("Figure 4", "GEMM GFLOPS as m = k grows, per batch n");

  const uint32_t sizes[] = {32, 64, 128, 256, 512, 1024};
  const uint32_t batches[] = {64, 256, 1000};

  std::printf("%8s |", "m=k");
  for (const uint32_t n : batches) std::printf("   n=%-5u", n);
  std::printf("   (GFLOPS)\n");
  for (const uint32_t size : sizes) {
    std::printf("%8u |", size);
    for (const uint32_t n : batches) {
      // The raw-A GEMM, packing included, as the paper times its sgemm.
      std::printf(" %9.1f", mm::MeasureGemmGflopsWithParams(
                                mm::GemmParams(), size, size, n, 3));
    }
    std::printf("\n");
  }
  std::printf("\npaper shape: monotone growth with m=k; larger n helps; the "
              "curve saturates at the machine's GEMM peak.\n");
  return 0;
}
