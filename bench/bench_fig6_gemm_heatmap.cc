// Reproduces Figure 6: the GFLOPS heat map over (m, k) at n = 1000, plus the
// k-zone summary the paper derives from it (horizontal performance stripes
// induced by partitioning the k axis). Expected shape: throughput varies
// primarily with k, defining low / medium / high zones.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "mm/gemm.h"

int main() {
  using namespace dnlr;
  benchx::PrintBanner("Figure 6", "GEMM GFLOPS heat map over (m, k), n = 1000");

  const std::vector<uint32_t> ms{32, 64, 128, 256, 512, 1024};
  const std::vector<uint32_t> ks{32, 64, 128, 256, 512, 1024};

  std::printf("%8s |", "m \\ k");
  for (const uint32_t k : ks) std::printf(" %6u", k);
  std::printf("\n");
  std::vector<double> zone_sum(ks.size(), 0.0);
  for (const uint32_t m : ms) {
    std::printf("%8u |", m);
    for (size_t i = 0; i < ks.size(); ++i) {
      // The raw-A GEMM, packing included, as the paper times its sgemm.
      const double gflops =
          mm::MeasureGemmGflopsWithParams(mm::GemmParams(), m, ks[i], 1000, 2);
      zone_sum[i] += gflops;
      std::printf(" %6.1f", gflops);
    }
    std::printf("\n");
  }

  std::printf("\ncolumn (k-zone) means:\n");
  for (size_t i = 0; i < ks.size(); ++i) {
    std::printf("  k = %4u : %6.1f GFLOPS\n", ks[i],
                zone_sum[i] / static_cast<double>(ms.size()));
  }
  std::printf("\npaper shape: three horizontal stripes — k >= 512 high, "
              "128 <= k < 512 medium, k < 128 low.\n");
  return 0;
}
