// Reproduces Figure 11: predicted sparse-over-dense multiplication speedup
// as a function of sparsity, for several first-layer shapes, assuming every
// row/column stays active (worst case). Also cross-checks one point against
// the served kernels (GemmLayer vs SdmmLayer). Expected shape: speedup
// grows super-linearly in the pruned fraction, ~10x at 95 % on the 400x136
// layer.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/timer.h"
#include "mm/csr.h"
#include "mm/gemm.h"
#include "mm/sdmm.h"
#include "predict/network_time.h"

int main() {
  using namespace dnlr;
  benchx::PrintBanner("Figure 11",
                      "predicted SDMM speedup vs sparsity (worst-case active "
                      "rows/cols), batch 64");

  const predict::DenseTimePredictor& dense = benchx::DensePredictor();
  const predict::SparseTimePredictor& sparse = benchx::SparsePredictor();
  const uint32_t n = 64;

  const double sparsities[] = {0.80, 0.85, 0.90, 0.95, 0.97, 0.99};
  std::printf("%-12s |", "shape");
  for (const double s : sparsities) std::printf("  s=%.2f", s);
  std::printf("   (predicted speedup)\n");
  for (const uint32_t m : {400u, 200u, 100u}) {
    std::printf("%4ux%-7u |", m, 136);
    for (const double s : sparsities) {
      std::printf(" %7.1fx", predict::PredictSparsitySpeedup(m, 136, s, n,
                                                             dense, sparse));
    }
    std::printf("\n");
  }

  // Spot-check against the served kernels at 0.95 on the 400x136 shape:
  // the same ReLU6 layer through GemmLayer (weights packed once) and
  // SdmmLayer, over panel-resident activations.
  const mm::CsrMatrix csr = benchx::RandomSparse(400, 136, 0.95, 77);
  const mm::PackedMatrix packed = mm::PackWeights(csr.ToDense());
  Rng rng(78);
  mm::PanelMatrix x;
  x.Reshape(136, n, packed.params().nr);
  for (uint32_t j = 0; j < x.padded_cols(); ++j) {
    for (uint32_t r = 0; r < 136; ++r) {
      x.At(r, j) = static_cast<float>(rng.Normal());
    }
  }
  const std::vector<float> bias(400, 0.5f);
  const mm::LayerEpilogue epilogue{bias.data(), /*relu6=*/true};
  mm::PanelMatrix y_dense;
  mm::PanelMatrix y_sparse;
  const double dense_us = TimeMicros(
      [&] { mm::GemmLayer(packed, x, epilogue, &y_dense); }, 9);
  const double sparse_us = TimeMicros(
      [&] { mm::SdmmLayer(csr, x, epilogue, &y_sparse); }, 9);
  std::printf("\nmeasured 400x136 @ 95%% sparsity: dense %.2f us, sparse "
              "%.2f us -> %.1fx real speedup\n",
              dense_us, sparse_us, dense_us / sparse_us);
  std::printf("\npaper shape: quadratic-looking growth over this range; ~10x "
              "at 95%% for the 400x136 layer.\n");
  return 0;
}
