#ifndef DNLR_BENCH_BENCH_COMMON_H_
#define DNLR_BENCH_BENCH_COMMON_H_

// Shared infrastructure for the paper-reproduction benchmarks: standard
// dataset instances, standard training configurations, and an on-disk model
// cache so that forests / students shared by several tables are trained
// exactly once per machine.
//
// Environment knobs:
//   DNLR_BENCH_SCALE  dataset scale multiplier (default 0.5; the paper's
//                     full datasets would be scale ~30 and take hours/model
//                     on one core).
//   DNLR_BENCH_CACHE  cache directory (default ./bench_cache).

#include <cstdint>
#include <string>

#include "data/dataset.h"
#include "data/normalize.h"
#include "gbdt/booster.h"
#include "mm/csr.h"
#include "nn/mlp.h"
#include "nn/trainer.h"
#include "predict/architecture.h"
#include "predict/dense_predictor.h"
#include "predict/sparse_predictor.h"

namespace dnlr::benchx {

/// Dataset scale from DNLR_BENCH_SCALE (default 0.5).
double BenchScale();

/// Cache directory from DNLR_BENCH_CACHE (default "bench_cache"); created
/// on first use.
const std::string& CacheDir();

/// The two benchmark datasets (process-wide singletons, deterministic).
const data::DatasetSplits& MsnSplits();
const data::DatasetSplits& IstellaSplits();

/// Fitted Z-normalizer of a split's training set (process-wide cache).
const data::ZNormalizer& NormalizerFor(const data::DatasetSplits& splits);

/// Standard LambdaMART configuration used across benches: lr 0.06, 40 docs
/// per leaf, L2 5, early stopping on validation NDCG@10 every 25 trees.
gbdt::BoosterConfig StandardBooster(uint32_t max_trees, uint32_t leaves);

/// Standard distillation configuration: 40 epochs, batch 256, Adam 2e-3,
/// gamma 0.1 at epochs {28, 36}, midpoint augmentation on.
nn::TrainConfig StandardDistill(uint64_t seed = 7);

/// Trains (or loads from cache) a LambdaMART ensemble. `tag` must uniquely
/// identify dataset + configuration, e.g. "msn_f400x64".
gbdt::Ensemble GetForest(const std::string& tag,
                         const data::DatasetSplits& splits,
                         const gbdt::BoosterConfig& config);

/// Distills (or loads from cache) a student network from `teacher`. When
/// `first_layer_sparsity` > 0, the first layer is iteratively pruned to that
/// sparsity with fine-tuning, the paper's recipe.
nn::Mlp GetStudent(const std::string& tag, const data::DatasetSplits& splits,
                   const gbdt::Ensemble& teacher,
                   const predict::Architecture& arch,
                   double first_layer_sparsity,
                   const nn::TrainConfig& train_config);

/// Calibrated time predictors (cached on disk; calibration takes seconds).
const predict::DenseTimePredictor& DensePredictor();
const predict::SparseTimePredictor& SparsePredictor();

/// An m x k CSR matrix whose entries are each zero with probability
/// `sparsity`, else N(0, 1): the random first-layer weights of Tables 3-4
/// and Figure 11.
mm::CsrMatrix RandomSparse(uint32_t m, uint32_t k, double sparsity,
                           uint64_t seed);

/// Prints a bench banner with the paper artifact being reproduced.
void PrintBanner(const std::string& artifact, const std::string& description);

/// Marks significance for a paper-style table cell: returns "*" when the
/// Fisher randomization p-value is below 0.05, "" otherwise.
const char* SignificanceMark(double p_value);

}  // namespace dnlr::benchx

#endif  // DNLR_BENCH_BENCH_COMMON_H_
