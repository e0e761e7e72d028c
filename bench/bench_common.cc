#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/rng.h"
#include "common/timer.h"
#include "data/synthetic.h"
#include "prune/schedule.h"

namespace dnlr::benchx {
namespace fs = std::filesystem;

double BenchScale() {
  static const double scale = [] {
    const char* env = std::getenv("DNLR_BENCH_SCALE");
    const double value = env != nullptr ? std::atof(env) : 0.0;
    return value > 0.0 ? value : 0.5;
  }();
  return scale;
}

const std::string& CacheDir() {
  static const std::string dir = [] {
    const char* env = std::getenv("DNLR_BENCH_CACHE");
    std::string path = env != nullptr ? env : "bench_cache";
    fs::create_directories(path);
    return path;
  }();
  return dir;
}

const data::DatasetSplits& MsnSplits() {
  static const data::DatasetSplits splits = data::GenerateSyntheticSplits(
      data::SyntheticConfig::MsnLike(BenchScale()));
  return splits;
}

const data::DatasetSplits& IstellaSplits() {
  static const data::DatasetSplits splits = data::GenerateSyntheticSplits(
      data::SyntheticConfig::IstellaLike(BenchScale()));
  return splits;
}

const data::ZNormalizer& NormalizerFor(const data::DatasetSplits& splits) {
  static std::map<const data::DatasetSplits*, data::ZNormalizer> cache;
  auto it = cache.find(&splits);
  if (it == cache.end()) {
    data::ZNormalizer normalizer;
    normalizer.Fit(splits.train);
    it = cache.emplace(&splits, std::move(normalizer)).first;
  }
  return it->second;
}

gbdt::BoosterConfig StandardBooster(uint32_t max_trees, uint32_t leaves) {
  gbdt::BoosterConfig config;
  config.num_trees = max_trees;
  config.num_leaves = leaves;
  config.learning_rate = 0.06;
  config.min_docs_per_leaf = 40;
  config.lambda_l2 = 5.0;
  config.early_stopping_rounds = 5;
  config.eval_period = 25;
  return config;
}

nn::TrainConfig StandardDistill(uint64_t seed) {
  nn::TrainConfig config;
  config.epochs = 30;
  config.batch_size = 256;
  config.adam.learning_rate = 3e-3;
  config.lr_gamma = 0.1;
  config.gamma_epochs = {22, 27};
  config.augment = true;
  config.seed = seed;
  return config;
}

namespace {

std::string CachePath(const std::string& tag, const std::string& extension) {
  std::ostringstream out;
  out << CacheDir() << '/' << tag << "_s" << BenchScale() << extension;
  return out.str();
}

}  // namespace

gbdt::Ensemble GetForest(const std::string& tag,
                         const data::DatasetSplits& splits,
                         const gbdt::BoosterConfig& config) {
  const std::string path = CachePath(tag, ".ensemble");
  if (fs::exists(path)) {
    auto loaded = gbdt::Ensemble::LoadFromFile(path);
    if (loaded.ok()) return std::move(loaded).value();
    std::fprintf(stderr, "[bench] stale cache %s: %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
  }
  std::fprintf(stderr, "[bench] training forest %s ...\n", tag.c_str());
  Timer timer;
  gbdt::Booster booster(config);
  gbdt::Ensemble model = booster.TrainLambdaMart(splits.train, &splits.valid);
  std::fprintf(stderr, "[bench] trained %s (%u trees) in %.1fs\n", tag.c_str(),
               model.num_trees(), timer.ElapsedSeconds());
  const Status status = model.SaveToFile(path);
  if (!status.ok()) {
    std::fprintf(stderr, "[bench] cache write failed: %s\n",
                 status.ToString().c_str());
  }
  return model;
}

nn::Mlp GetStudent(const std::string& tag, const data::DatasetSplits& splits,
                   const gbdt::Ensemble& teacher,
                   const predict::Architecture& arch,
                   double first_layer_sparsity,
                   const nn::TrainConfig& train_config) {
  const std::string path = CachePath(tag, ".mlp");
  if (fs::exists(path)) {
    auto loaded = nn::Mlp::LoadFromFile(path);
    if (loaded.ok()) return std::move(loaded).value();
    std::fprintf(stderr, "[bench] stale cache %s: %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
  }
  std::fprintf(stderr, "[bench] distilling student %s (%s) ...\n", tag.c_str(),
               arch.ToString().c_str());
  Timer timer;
  const data::ZNormalizer& normalizer = NormalizerFor(splits);
  nn::Mlp student(arch, train_config.seed);
  nn::Trainer trainer(train_config);
  trainer.TrainDistillation(&student, splits.train, teacher, normalizer);
  if (first_layer_sparsity > 0.0) {
    prune::PruneScheduleConfig prune_config;
    prune_config.layer = 0;
    prune_config.target_sparsity = first_layer_sparsity;
    prune_config.prune_rounds = 5;
    prune_config.finetune_epochs = 4;
    prune_config.train = train_config;
    prune_config.train.adam.learning_rate = train_config.adam.learning_rate;
    prune_config.train.gamma_epochs.clear();
    prune::IterativePrune(&student, splits.train, teacher, normalizer,
                          prune_config);
  }
  std::fprintf(stderr, "[bench] distilled %s in %.1fs (L1 sparsity %.3f)\n",
               tag.c_str(), timer.ElapsedSeconds(),
               student.layer(0).weight.Sparsity());
  const Status status = student.SaveToFile(path);
  if (!status.ok()) {
    std::fprintf(stderr, "[bench] cache write failed: %s\n",
                 status.ToString().c_str());
  }
  return student;
}

namespace {

/// Loads a calibrated time predictor from the cache file `name`, or runs
/// `calibrate` and saves its result there.
template <typename Predictor, typename Calibrate>
Predictor LoadOrCalibrate(const std::string& name, Calibrate&& calibrate) {
  const std::string path = CachePath(name, ".txt");
  if (fs::exists(path)) {
    std::ifstream file(path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    auto loaded = Predictor::Deserialize(buffer.str());
    if (loaded.ok()) return std::move(loaded).value();
  }
  std::fprintf(stderr, "[bench] calibrating %s ...\n", name.c_str());
  Predictor predictor = calibrate();
  std::ofstream file(path);
  file << predictor.Serialize();
  return predictor;
}

}  // namespace

const predict::DenseTimePredictor& DensePredictor() {
  static const predict::DenseTimePredictor predictor =
      LoadOrCalibrate<predict::DenseTimePredictor>("dense_predictor", [] {
        predict::DenseCalibrationConfig config;
        config.m_values = {1, 2, 4, 8, 16, 25, 50, 100, 200, 400, 800};
        config.k_values = {16, 32, 64, 136, 220, 400, 800};
        config.n_values = {16, 64, 256, 1000};
        config.repeats = 3;
        return predict::DenseTimePredictor::Calibrate(config);
      });
  return predictor;
}

const predict::SparseTimePredictor& SparsePredictor() {
  static const predict::SparseTimePredictor predictor =
      LoadOrCalibrate<predict::SparseTimePredictor>("sparse_predictor", [] {
        return predict::SparseTimePredictor::Calibrate();
      });
  return predictor;
}

mm::CsrMatrix RandomSparse(uint32_t m, uint32_t k, double sparsity,
                           uint64_t seed) {
  Rng rng(seed);
  mm::Matrix dense(m, k);
  for (uint32_t r = 0; r < m; ++r) {
    for (uint32_t c = 0; c < k; ++c) {
      if (rng.Uniform() >= sparsity) {
        dense.At(r, c) = static_cast<float>(rng.Normal());
      }
    }
  }
  return mm::CsrMatrix::FromDense(dense);
}

void PrintBanner(const std::string& artifact, const std::string& description) {
  std::printf("\n================================================================\n");
  std::printf("%s  (paper: %s)\n", artifact.c_str(), description.c_str());
  std::printf("dataset scale %.2f | cache %s\n", BenchScale(),
              CacheDir().c_str());
  std::printf("================================================================\n");
}

const char* SignificanceMark(double p_value) {
  return p_value < 0.05 ? "*" : "";
}

}  // namespace dnlr::benchx
