// dnlr command-line tool: train, distill, prune, score and evaluate ranking
// models on LETOR-format data, pack them into model bundles, and load-test
// the serving engine, without writing any C++. `dnlr_cli` with no
// arguments prints every subcommand and its flags (Usage below); README.md
// walks through each one.
//
// Flags are strict "--name value" pairs: a malformed number, a flag with
// no value, or a flag the subcommand does not read exits 2 before any work
// starts. The serve modes (serve-bench, serve-bench --reload-every N,
// serve-bench --shards N, soak-bench) are thin configurations of the one
// traffic driver in src/replay/driver.h, and each gated mode exits 1 when
// a gate in its table fails.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bundle/bundle.h"
#include "bundle/mapped_bundle.h"
#include "common/check.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "core/timing.h"
#include "data/letor_io.h"
#include "data/letor_stream.h"
#include "data/synthetic.h"
#include "data/validate.h"
#include "forest/validate.h"
#include "gbdt/validate.h"
#include "nn/validate.h"
#include "forest/quickscorer.h"
#include "forest/vectorized_quickscorer.h"
#include "forest/wide_quickscorer.h"
#include "gbdt/booster.h"
#include "gbdt/tuner.h"
#include "metrics/metrics.h"
#include "nn/scorer.h"
#include "obs/metrics.h"
#include "predict/dense_predictor.h"
#include "predict/drift.h"
#include "predict/network_time.h"
#include "predict/sparse_predictor.h"
#include "prune/magnitude.h"
#include "replay/driver.h"
#include "replay/workload.h"
#include "replay/zipf.h"
#include "serve/engine.h"
#include "serve/fault_injection.h"
#include "serve/router.h"
#include "serve/score_cache.h"
#include "serve/scorer.h"
#include "serve/servable.h"

namespace dnlr::cli {
namespace {

using replay::EnsureParentDir;
using replay::WriteReport;

/// Prints a usage error and exits 2. Bad flags fail before any work starts.
[[noreturn]] __attribute__((format(printf, 1, 2))) void UsageError(
    const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::exit(2);
}

/// strtol (`integer`) or strtod over the whole of `text`, or exit 2:
/// "0,95" or "1e999" must never reach a gate bound as 0 or infinity.
double ParseNumber(const std::string& text, const std::string& flag,
                   bool integer = false) {
  errno = 0;
  char* end = nullptr;
  const double value =
      integer ? static_cast<double>(std::strtol(text.c_str(), &end, 10))
              : std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value) ||
      (integer && (value < std::numeric_limits<int>::min() ||
                   value > std::numeric_limits<int>::max()))) {
    UsageError("%s: '%s' is not %s", flag.c_str(), text.c_str(),
               integer ? "an integer" : "a number");
  }
  return value;
}

/// The smallest positive double: Args::GetDouble's lower bound for a rate.
constexpr double kPositive = std::numeric_limits<double>::min();

/// Strict "--name value" parser. A flag without a value, a malformed
/// number, and (after RejectUnread) a flag the command never read all exit
/// 2, so a misspelled or garbled gate bound cannot pass silently.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        UsageError("expected --flag, got '%s'", argv[i]);
      }
      if (i + 1 == argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        UsageError("%s needs a value", argv[i]);
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    const std::string* value = Find(key);
    return value != nullptr ? *value : fallback;
  }
  std::string Require(const std::string& key) const {
    const std::string* value = Find(key);
    if (value == nullptr) UsageError("missing required --%s", key.c_str());
    return *value;
  }
  double GetDouble(const std::string& key, double fallback) const {
    const std::string* value = Find(key);
    return value != nullptr ? ParseNumber(*value, "--" + key) : fallback;
  }
  /// GetDouble bounded to [min, max], or exit 2: a probability outside
  /// [0, 1] or a rate at or below 0 would abort the run part-way, and a
  /// gate bound out of its range would void the gate. A `min` of kPositive
  /// reads as "> 0".
  double GetDouble(const std::string& key, double fallback, double min,
                   double max = std::numeric_limits<double>::infinity()) const {
    const double value = GetDouble(key, fallback);
    if (min == kPositive && value < min) {
      UsageError("--%s must be > 0, got %g", key.c_str(), value);
    }
    if (value < min || value > max) {
      UsageError("--%s must be in [%g, %g], got %g", key.c_str(), min, max,
                 value);
    }
    return value;
  }
  int GetInt(const std::string& key, int fallback) const {
    const std::string* value = Find(key);
    return value != nullptr
               ? static_cast<int>(ParseNumber(*value, "--" + key, true))
               : fallback;
  }
  /// GetInt bounded to [min, max], or exit 2: a negative count or
  /// duration would wrap when cast to an unsigned size.
  int GetInRange(const std::string& key, int fallback, int min,
                 int max = std::numeric_limits<int>::max()) const {
    const int value = GetInt(key, fallback);
    if (value < min) {
      UsageError("--%s must be >= %d, got %d", key.c_str(), min, value);
    }
    if (value > max) {
      UsageError("--%s must be <= %d, got %d", key.c_str(), max, value);
    }
    return value;
  }
  /// GetInRange for a count: at least 1 (zero queries or requests would
  /// crash the request loop) and at most `max`.
  int GetCount(const std::string& key, int fallback,
               int max = std::numeric_limits<int>::max()) const {
    return GetInRange(key, fallback, 1, max);
  }
  bool Has(const std::string& key) const { return Find(key) != nullptr; }

  /// Call once the command has read its flags: exits 2 on any it did not.
  void RejectUnread() const {
    for (const auto& entry : values_) {
      if (read_.count(entry.first) == 0) {
        UsageError("unknown flag --%s", entry.first.c_str());
      }
    }
  }

 private:
  const std::string* Find(const std::string& key) const {
    read_.insert(key);
    const auto it = values_.find(key);
    return it != values_.end() ? &it->second : nullptr;
  }

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

/// Prints a failed status and returns the command's exit code for it.
int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

/// Upper bound on every count that starts OS threads or sizes a fleet or a
/// per-tenant table from user input: --threads entries, --workers, --shards
/// and --tenants.
constexpr int kMaxThreadCount = 256;

/// Parses a comma-separated thread-count list like "1,2,4". Exits 2 on junk,
/// a count outside [1, kMaxThreadCount] or an empty list.
std::vector<uint32_t> ParseThreadList(const std::string& csv) {
  std::vector<uint32_t> threads;
  for (const std::string_view item : SplitAndSkipEmpty(csv, ',')) {
    const auto value =
        static_cast<int>(ParseNumber(std::string(item), "--threads", true));
    if (value < 1 || value > kMaxThreadCount) {
      UsageError("--threads: bad thread count %d (1..%d)", value,
                 kMaxThreadCount);
    }
    threads.push_back(static_cast<uint32_t>(value));
  }
  if (threads.empty()) UsageError("--threads list is empty");
  return threads;
}

data::Dataset LoadLetorOrDie(const std::string& path) {
  auto result = data::ReadLetorFile(path);
  if (!result.ok()) {
    std::fprintf(stderr, "failed to read %s: %s\n", path.c_str(),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

int CmdGen(const Args& args) {
  data::SyntheticConfig config =
      args.Get("style", "msn") == "istella"
          ? data::SyntheticConfig::IstellaLike(1.0)
          : data::SyntheticConfig::MsnLike(1.0);
  config.num_queries = args.GetCount("queries", 300);
  if (args.Has("features")) {
    config.num_features = args.GetCount("features", 136);
  }
  config.seed = args.GetInt("seed", 42);
  const std::string out = args.Require("out");
  args.RejectUnread();
  const data::Dataset dataset = data::GenerateSynthetic(config);
  const Status status = data::WriteLetorFile(dataset, out);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %u docs / %u queries / %u features to %s\n",
              dataset.num_docs(), dataset.num_queries(),
              dataset.num_features(), out.c_str());
  return 0;
}

int CmdTrainForest(const Args& args) {
  const std::string train_path = args.Require("train");
  const bool has_valid = args.Has("valid");
  const std::string valid_path = args.Get("valid", "");
  const bool tune = args.Has("tune");
  gbdt::TunerConfig tuner;
  tuner.trials = args.GetInt("tune", 8);
  gbdt::BoosterConfig config;
  config.num_trees = args.GetInt("trees", 300);
  config.num_leaves = args.GetInt("leaves", 64);
  config.learning_rate = args.GetDouble("lr", 0.06);
  config.min_docs_per_leaf = args.GetInt("min-docs", 40);
  config.lambda_l2 = args.GetDouble("l2", 5.0);
  const std::string out = args.Require("out");
  args.RejectUnread();
  if (tune && !has_valid) {
    std::fprintf(stderr, "--tune requires --valid\n");
    return 2;
  }
  const data::Dataset train = LoadLetorOrDie(train_path);
  data::Dataset valid;
  if (has_valid) valid = LoadLetorOrDie(valid_path);

  gbdt::Ensemble model;
  if (tune) {
    tuner.num_trees = config.num_trees;
    tuner.num_leaves = config.num_leaves;
    tuner.verbose = true;
    const gbdt::TunerResult result =
        gbdt::TuneLambdaMart(train, valid, tuner);
    std::printf("best trial: lr %.3f min_docs %u l2 %.2f -> NDCG@10 %.4f\n",
                result.best().config.learning_rate,
                result.best().config.min_docs_per_leaf,
                result.best().config.lambda_l2, result.best().valid_ndcg);
    gbdt::Booster booster(result.best().config);
    model = booster.TrainLambdaMart(train, &valid);
  } else {
    if (has_valid) {
      config.early_stopping_rounds = 5;
      config.eval_period = 25;
    }
    gbdt::Booster booster(config);
    model = booster.TrainLambdaMart(train, has_valid ? &valid : nullptr);
  }

  const Status status = model.SaveToFile(out);
  if (!status.ok()) return Fail(status);
  std::printf("saved %u trees (max %u leaves) to %s\n", model.num_trees(),
              model.MaxLeaves(), out.c_str());
  return 0;
}

int CmdDistill(const Args& args) {
  const std::string train_path = args.Require("train");
  const std::string teacher_path = args.Require("teacher");
  const std::string arch_spec = args.Require("arch");
  const std::string out = args.Require("out");
  core::PipelineConfig config;
  config.distill.epochs = args.GetInt("epochs", 40);
  config.distill.batch_size = args.GetInt("batch", 256);
  config.distill.adam.learning_rate = args.GetDouble("lr", 2e-3);
  config.distill.gamma_epochs = {
      static_cast<uint32_t>(config.distill.epochs * 7 / 10),
      static_cast<uint32_t>(config.distill.epochs * 9 / 10)};
  config.prune.target_sparsity = args.GetDouble("prune", 0.0);
  args.RejectUnread();
  const data::Dataset train = LoadLetorOrDie(train_path);
  auto teacher = gbdt::Ensemble::LoadFromFile(teacher_path);
  if (!teacher.ok()) return Fail(teacher.status());
  auto arch = predict::Architecture::Parse(arch_spec, train.num_features());
  if (!arch.ok()) return Fail(arch.status());
  config.prune.train = config.distill;
  config.prune.train.gamma_epochs.clear();
  core::Pipeline pipeline(config);

  const core::DistilledModel model =
      config.prune.target_sparsity > 0.0
          ? pipeline.DistillAndPrune(*arch, train, *teacher)
          : pipeline.DistillDense(*arch, train, *teacher);

  const Status status = model.mlp.SaveToFile(out);
  if (!status.ok()) return Fail(status);
  std::printf("saved %s student to %s (first layer %.1f%% sparse)\n",
              arch->ToString().c_str(), out.c_str(),
              100.0 * model.first_layer_sparsity);
  return 0;
}

/// --engine for `score` and `evaluate`; exits 2 on a name they do not know.
std::string GetEngine(const Args& args) {
  static const std::set<std::string> kEngines = {
      "auto", "qs", "vqs", "wide", "naive", "dense", "hybrid"};
  std::string engine = args.Get("engine", "auto");
  if (kEngines.count(engine) == 0) {
    UsageError("--engine: unknown engine '%s'", engine.c_str());
  }
  return engine;
}

/// The model a CLI scorer is built over, kept beside it: the naive
/// traversal borrows `ensemble`, the neural engines borrow `normalizer`.
struct LoadedModel {
  gbdt::Ensemble ensemble;
  data::ZNormalizer normalizer;
};

/// Loads an ensemble or an MLP into `model` and builds the scorer `engine`
/// names; "auto" is the engine the server picks (forest::MakeForestScorer,
/// nn::MakeStudentScorer). An MLP's normalizer is fitted on `dataset`
/// (matching how students normalize at deploy time when the training
/// statistics travel with the index). Returns nullptr (reason on stderr)
/// when the model does not load or reads features `dataset` lacks; exits 2
/// when `engine` does not fit the model.
std::unique_ptr<forest::DocumentScorer> LoadScorer(
    const std::string& model_path, const std::string& engine,
    const data::Dataset& dataset, LoadedModel* model) {
  std::ifstream probe(model_path);
  std::string first_word;
  probe >> first_word;
  if (first_word != "ensemble" && first_word != "mlp") {
    std::fprintf(stderr, "%s is not a readable model file\n",
                 model_path.c_str());
    return nullptr;
  }
  const bool is_forest = first_word == "ensemble";
  const bool neural_engine = engine == "dense" || engine == "hybrid";
  if (engine != "auto" && neural_engine == is_forest) {
    UsageError("--engine %s cannot score %s", engine.c_str(),
               model_path.c_str());
  }
  const uint32_t features = dataset.num_features();

  if (!is_forest) {
    auto mlp = nn::Mlp::LoadFromFile(model_path);
    if (!mlp.ok()) {
      Fail(mlp.status());
      return nullptr;
    }
    if (mlp->arch().input_dim != features) {
      std::fprintf(stderr, "%s takes %u features, the data has %u\n",
                   model_path.c_str(), mlp->arch().input_dim, features);
      return nullptr;
    }
    model->normalizer.Fit(dataset);
    if (engine == "dense") {
      return std::make_unique<nn::NeuralScorer>(*mlp, &model->normalizer);
    }
    if (engine == "hybrid") {
      return std::make_unique<nn::HybridNeuralScorer>(*mlp,
                                                      &model->normalizer);
    }
    return nn::MakeStudentScorer(*mlp, &model->normalizer);
  }

  auto ensemble = gbdt::Ensemble::LoadFromFile(model_path);
  if (!ensemble.ok()) {
    Fail(ensemble.status());
    return nullptr;
  }
  // Every engine reads the features the trees split on from each row.
  if (const Status valid = gbdt::ValidateEnsemble(*ensemble, features);
      !valid.ok()) {
    Fail(valid);
    return nullptr;
  }
  model->ensemble = std::move(ensemble).value();
  const gbdt::Ensemble& forest = model->ensemble;
  if (engine == "auto") return forest::MakeForestScorer(forest, features);
  if (engine == "wide") {
    return std::make_unique<forest::WideQuickScorer>(forest, features);
  }
  if (engine == "naive") {
    return std::make_unique<forest::NaiveTraversalScorer>(forest);
  }
  // qs and vqs need one-word leaf bitvectors.
  if (const Status fits = forest::ValidateForQuickScorer(forest, features);
      !fits.ok()) {
    UsageError("--engine %s cannot score %s: %s", engine.c_str(),
               model_path.c_str(), fits.ToString().c_str());
  }
  if (engine == "vqs") {
    return std::make_unique<forest::VectorizedQuickScorer>(forest, features);
  }
  return std::make_unique<forest::QuickScorer>(forest, features);
}

int CmdScore(const Args& args) {
  const std::string data_path = args.Require("data");
  const std::string model_path = args.Require("model");
  const std::string engine = GetEngine(args);
  const std::string out = args.Get("out", "-");
  const bool time = args.Has("time");
  args.RejectUnread();
  const data::Dataset dataset = LoadLetorOrDie(data_path);
  LoadedModel model;
  const auto scorer = LoadScorer(model_path, engine, dataset, &model);
  if (scorer == nullptr) return 1;

  const std::vector<float> scores = scorer->ScoreDataset(dataset);
  if (out == "-") {
    for (const float s : scores) std::printf("%.6f\n", s);
  } else {
    std::ofstream file(out);
    for (const float s : scores) file << s << '\n';
    if (!file) {
      std::fprintf(stderr, "failed to write scores to %s\n", out.c_str());
      return 1;
    }
    std::printf("wrote %zu scores to %s with %s\n", scores.size(), out.c_str(),
                std::string(scorer->name()).c_str());
  }
  if (time) {
    std::printf("scoring time: %.3f us/doc (%s)\n",
                core::MeasureScorerMicrosPerDoc(*scorer, dataset),
                std::string(scorer->name()).c_str());
  }
  return 0;
}

int CmdEvaluate(const Args& args) {
  const std::string data_path = args.Require("data");
  const std::string model_path = args.Require("model");
  const std::string engine = GetEngine(args);
  args.RejectUnread();
  const data::Dataset dataset = LoadLetorOrDie(data_path);
  LoadedModel model;
  const auto scorer = LoadScorer(model_path, engine, dataset, &model);
  if (scorer == nullptr) return 1;
  const std::vector<float> scores = scorer->ScoreDataset(dataset);
  std::printf("engine   %s\n", std::string(scorer->name()).c_str());
  std::printf("NDCG@10  %.4f\n", metrics::MeanNdcg(dataset, scores, 10));
  std::printf("NDCG     %.4f\n", metrics::MeanNdcg(dataset, scores, 0));
  std::printf("MAP      %.4f\n", metrics::MeanAp(dataset, scores));
  std::printf("us/doc   %.3f\n",
              core::MeasureScorerMicrosPerDoc(*scorer, dataset));
  return 0;
}

int CmdPredictTime(const Args& args) {
  const uint32_t features = args.GetInt("features", 136);
  const std::string arch_spec = args.Require("arch");
  const uint32_t batch = args.GetInt("batch", 64);
  const double sparsity = args.GetDouble("sparsity", 0.95, 0, 1);
  args.RejectUnread();
  auto arch = predict::Architecture::Parse(arch_spec, features);
  if (!arch.ok()) return Fail(arch.status());

  std::fprintf(stderr, "calibrating predictors (seconds)...\n");
  predict::DenseCalibrationConfig dense_config;
  dense_config.k_values = {16, 32, 64, features, 256, 512};
  dense_config.n_values = {16, batch, 256};
  const auto dense = predict::DenseTimePredictor::Calibrate(dense_config);
  const auto sparse = predict::SparseTimePredictor::Calibrate();

  const auto estimate =
      predict::EstimateHybridTime(*arch, batch, sparsity, dense, sparse);
  std::printf("architecture        %s (input %u)\n", arch->ToString().c_str(),
              features);
  std::printf("dense               %.3f us/doc\n", estimate.dense_us_per_doc);
  std::printf("first layer share   %.0f%%\n",
              estimate.first_layer_impact_percent);
  std::printf("pruned (no L1)      %.3f us/doc\n", estimate.pruned_us_per_doc);
  std::printf("hybrid @ %.0f%% L1    %.3f us/doc\n", 100.0 * sparsity,
              estimate.hybrid_us_per_doc);
  return 0;
}

/// Reads the knobs every serve mode shares over the mode's `defaults`.
replay::ServeConfig ParseServeConfig(const Args& args,
                                     replay::ServeConfig config) {
  config.queries = args.GetCount("queries", config.queries);
  config.features = args.GetCount("features", config.features);
  config.workers = args.GetCount("workers", config.workers, kMaxThreadCount);
  config.deadline_us = args.GetCount("deadline-us", config.deadline_us);
  config.seed = args.GetInt("seed", config.seed);
  config.queue_capacity = args.GetCount("queue", config.queue_capacity);
  return config;
}

/// The engine counters every serve report carries, as `"key": n` fields.
std::string EngineCountersJson(const serve::ServeCountersSnapshot& c) {
  std::ostringstream json;
  json << "\"ok\": " << c.ok << ", \"failed\": " << c.failed
       << ", \"shed_queue_full\": " << c.shed_queue_full
       << ", \"shed_deadline\": " << c.shed_deadline
       << ", \"deadline_exceeded\": " << c.deadline_exceeded
       << ", \"degraded\": " << c.degraded << ", \"retries\": " << c.retries
       << ", \"transient_faults\": " << c.transient_faults
       << ", \"timeouts\": " << c.timeouts
       << ", \"non_finite_batches\": " << c.non_finite_batches
       << ", \"circuit_opens\": " << c.circuit_opens
       << ", \"circuit_closes\": " << c.circuit_closes;
  return json.str();
}

/// Hot-reload load test (serve-bench --reload-every N), gated by
/// replay::ReloadGates: round-robin traffic on the fixture bundle, reloaded
/// through the golden gate every N requests. Every swap loads the same
/// bundle, so scores must stay bitwise identical and no request may fail.
/// With --binary 1 the reloads come from the binary twin (mmap load path)
/// while the golden scores stay text-loaded.
int CmdServeBenchReload(const Args& args) {
  const replay::ServeConfig config = ParseServeConfig(args, {});
  const int requests = args.GetCount("requests", 200);
  const auto reload_every =
      static_cast<uint64_t>(args.GetInt("reload-every", 25));
  const replay::FixtureConfig fc{
      .trees = args.GetCount("trees", 20),
      .bundle_path = args.Get("bundle", "out/serve_reload.bundle"),
      .binary_twin = args.GetInt("binary", 0) != 0};
  const std::string out = args.Get("out", "out/serve_reload.json");
  args.RejectUnread();
  auto created = replay::BundleFixture::Create(config, fc);
  if (!created.ok()) return Fail(created.status());
  const replay::BundleFixture& fixture = **created;

  serve::ServingEngine engine(fixture.initial_ladder(), config.Engine());
  std::fprintf(stderr, "serving %d requests, reloading every %llu...\n",
               requests, static_cast<unsigned long long>(reload_every));
  uint64_t reload_failures = 0;
  const auto reload = [&](uint64_t submitted) {
    if (submitted % reload_every != 0) return;
    const Status status = fixture.Reload(engine, fixture.reload_path());
    if (!status.ok()) {
      std::fprintf(stderr, "reload: %s\n", status.ToString().c_str());
      ++reload_failures;
    }
  };
  replay::RoundRobinSource source(fixture.dataset(),
                                  static_cast<uint64_t>(requests));
  const replay::ResponseSummary summary = replay::SummarizeResponses(
      replay::DriveTraffic(engine, source, config, reload),
      engine.ladder().num_rungs(), config.deadline_us);
  engine.Stop();

  const serve::ServeCountersSnapshot counters = engine.counters().Snapshot();
  const replay::GateVerdict verdict = replay::EvaluateGates(
      replay::ReloadGates(counters, reload_failures, summary.failed));
  std::ostringstream json;
  json << "{\n  \"benchmark\": \"serve-bench-reload\",\n";
  json << "  \"config\": {\"requests\": " << requests
       << ", \"reload_every\": " << reload_every
       << ", \"deadline_us\": " << config.deadline_us
       << ", \"workers\": " << config.workers << ", \"seed\": " << config.seed
       << ", \"bundle\": \"" << fixture.bundle_path()
       << "\", \"binary\": " << (fc.binary_twin ? 1 : 0) << "},\n";
  json << "  \"swaps\": {\"attempted\": " << counters.swaps_attempted
       << ", \"completed\": " << counters.swaps_completed
       << ", \"rejected\": " << counters.swaps_rejected
       << ", \"reload_failures\": " << reload_failures
       << ", \"final_model_version\": " << engine.model_version()
       << ", \"min_response_version\": " << summary.min_version
       << ", \"max_response_version\": " << summary.max_version << "},\n";
  json << "  \"overall\": {" << EngineCountersJson(counters)
       << ", \"failed_requests\": " << summary.failed
       << ", \"p50_us\": " << FormatFixed(summary.overall.p50_us, 1)
       << ", \"p99_us\": " << FormatFixed(summary.overall.p99_us, 1) << "},\n";
  json << "  \"gates\": " << verdict.json << "\n}\n";
  return replay::FinishGatedReport(out, json.str(), verdict, "reload");
}

/// One soak phase of the sharded mode's traffic source: every tenant
/// replays Zipf-skewed traffic from its own thread until the phase
/// deadline; the abusive tenant (if any) ignores pacing and hammers as fast
/// as the router answers it — subject only to a tiny bounded backoff when
/// the router sheds it, so "abusive" means saturating its quota, not
/// busy-burning a CPU core generating rejections.
void RunTenantTraffic(serve::ShardedRouter& router, const data::Dataset& data,
                      const replay::ZipfSampler& zipf, uint64_t tenants,
                      int64_t abusive_tenant, uint64_t pace_us,
                      uint64_t deadline_us, uint64_t duration_ms,
                      uint64_t seed) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (uint64_t tenant = 0; tenant < tenants; ++tenant) {
    threads.emplace_back([&, tenant] {
      dnlr::Rng rng(seed ^ (tenant * 0x9E3779B97F4A7C15ull));
      const bool paced = static_cast<int64_t>(tenant) != abusive_tenant;
      // Exponential 25 -> 200 us backoff on shed responses, reset by any
      // non-shed answer. The cap stays far under 1/quota-rate (2 ms at the
      // default 500/s), so a quota-limited tenant still attempts thousands
      // of requests per second and the quota-rejection gates keep firing —
      // it just stops spinning a core when every answer is "go away".
      constexpr uint64_t kShedBackoffStartUs = 25;
      constexpr uint64_t kShedBackoffCapUs = 200;
      uint64_t shed_backoff_us = 0;
      // Relaxed stop flag: plain shutdown signal; the join below orders
      // everything the threads wrote.
      while (!stop.load(std::memory_order_relaxed)) {
        const uint32_t q = zipf.Sample(rng);
        const serve::ShardedRouter::Response resp = router.ScoreSync(
            tenant, data.Row(data.QueryBegin(q)), data.QuerySize(q),
            data.num_features(), deadline_us);
        if (resp.serve.status.code() == StatusCode::kResourceExhausted) {
          shed_backoff_us =
              shed_backoff_us == 0
                  ? kShedBackoffStartUs
                  : std::min(shed_backoff_us * 2, kShedBackoffCapUs);
          std::this_thread::sleep_for(
              std::chrono::microseconds(shed_backoff_us));
        } else {
          shed_backoff_us = 0;
        }
        if (paced && pace_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(pace_us));
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();
}

/// Multi-tenant isolation soak (`serve-bench --shards N`): a ShardedRouter
/// whose N shards serve the fixture bundle, M tenant threads replaying
/// Zipfian traffic, one abusive tenant hammering its quota, and a
/// correlated-burst outage on one shard mid-soak (a fault-injected
/// generation shipped ungated via SwapModelOnShard, later rolled back to a
/// fresh load through the golden gate). Gated by replay::ShardedGates; a
/// tenant's p99 budget is --p99-ratio x its no-abuse baseline (at least
/// --p99-floor-us), the abusive tenant's admission budget --admit-slack x
/// (rate x duration + burst).
int CmdServeBenchSharded(const Args& args) {
  const replay::ServeConfig config = ParseServeConfig(
      args, {.workers = 2, .deadline_us = 50'000, .queue_capacity = 64});
  const uint64_t seed = config.seed;
  const auto shards = static_cast<size_t>(
      args.GetInRange("shards", 4, 2, kMaxThreadCount));
  const int tenant_count = args.GetInRange("tenants", 8, 2, kMaxThreadCount);
  const auto tenants = static_cast<uint64_t>(tenant_count);
  const int64_t abusive_tenant =
      args.GetInRange("abusive-tenant", 0, 0, tenant_count - 1);
  const auto soak_ms = static_cast<uint64_t>(args.GetCount("soak-ms", 2000));
  const auto baseline_ms = static_cast<uint64_t>(
      args.GetCount("baseline-ms", static_cast<int>(std::max<uint64_t>(
                                       500, soak_ms / 4))));
  const auto pace_us =
      static_cast<uint64_t>(args.GetInRange("pace-us", 1000, 0));
  const double quota_rate = args.GetDouble("quota-rate", 500.0, kPositive);
  const double quota_burst = args.GetDouble("quota-burst", 50.0, 1.0);
  // Defaults chosen so the outage dominates the faulted window: at trigger
  // 0.05 and length 300 most of the shard's batches during the faulty
  // generation land inside a burst, which is what forces quarantine; the
  // rollback swap then lets the half-open probes readmit the shard.
  const serve::FaultInjectionConfig faults{
      .transient_fault_probability = args.GetDouble("fault-rate", 0.2, 0, 1),
      .burst_trigger_probability = args.GetDouble("burst-trigger", 0.05, 0, 1),
      .burst_length = static_cast<uint32_t>(args.GetCount("burst-len", 300)),
      .seed = seed + 7777};
  const double p99_ratio = args.GetDouble("p99-ratio", 1.5, kPositive);
  const double p99_floor_us = args.GetDouble("p99-floor-us", 5000.0, 0);
  const double zipf_exponent = args.GetDouble("zipf-exponent", 1.1);
  replay::ShardedOutcome outcome;
  outcome.max_error_rate = args.GetDouble("max-error-rate", 0.01, 0, 1);
  const double admit_slack = args.GetDouble("admit-slack", 2.0, kPositive);
  const std::string out = args.Get("out", "out/serve_shard_ci.json");
  // The bundle lands beside the report.
  const replay::FixtureConfig fc{
      .bundle_path =
          std::filesystem::path(out).replace_extension(".bundle").string()};
  args.RejectUnread();
  auto created = replay::BundleFixture::Create(config, fc);
  if (!created.ok()) return Fail(created.status());
  const replay::BundleFixture& fixture = **created;
  const data::Dataset& dataset = fixture.dataset();
  const replay::ZipfSampler zipf(dataset.num_queries(), zipf_exponent);
  // Every shard of both routers starts on the bundle's first generation.
  const std::vector<std::shared_ptr<const serve::DegradationLadder>> initial(
      shards, fixture.initial_ladder());

  serve::RouterConfig rc;
  rc.health_window_micros = 100'000;
  rc.min_window_requests = 8;
  rc.drain_micros = 5'000;
  rc.quarantine_micros = 10'000;
  rc.probe_successes_to_readmit = 3;
  const serve::ServingConfig sc = config.Engine();

  // ---- Phase 1: no-abuse baseline. A separate router instance (its own
  // registry namespace) with clean shards and fully paced traffic gives
  // each tenant the p99 its soak numbers are judged against.
  std::fprintf(stderr,
               "baseline: %zu shards / %llu tenants, %llu ms paced...\n",
               shards, static_cast<unsigned long long>(tenants),
               static_cast<unsigned long long>(baseline_ms));
  std::vector<double> baseline_p99(tenants, 0.0);
  {
    serve::ShardedRouter baseline(initial, sc, rc);
    RunTenantTraffic(baseline, dataset, zipf, tenants, /*abusive_tenant=*/-1,
                     pace_us, config.deadline_us, baseline_ms, seed);
    baseline.Stop();
    for (uint64_t t = 0; t < tenants; ++t) {
      baseline_p99[t] = baseline.TenantSloSnapshot(t).p99_us;
    }
  }

  // ---- Phase 2: the soak. The abusive tenant gets a tight quota and
  // ignores pacing; one shard (the primary of a well-behaved tenant, so
  // failover is exercised) is swapped to a burst-faulty model generation
  // at 20% of the soak and rolled back at 70%.
  serve::ShardedRouter router(initial, sc, rc);
  router.SetTenantQuota(static_cast<uint64_t>(abusive_tenant),
                        serve::TenantQuota{quota_rate, quota_burst});
  const uint64_t victim_tenant = abusive_tenant == 0 ? 1 : 0;
  const uint32_t faulted = router.PrimaryShardFor(victim_tenant);
  auto faulty = fixture.FaultInjectedLadder(faults);
  if (!faulty.ok()) return Fail(faulty.status());

  std::fprintf(stderr,
               "soak: %llu ms, abusive tenant %lld (quota %.0f/s burst %.0f),"
               " faulting shard %u at 20%%, rolling back at 70%%...\n",
               static_cast<unsigned long long>(soak_ms),
               static_cast<long long>(abusive_tenant), quota_rate, quota_burst,
               faulted);
  uint64_t failed_swaps = 0;
  std::thread orchestrator([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(soak_ms / 5));
    // Ungated: the fault-injected generation could never pass the gate.
    if (!router.SwapModelOnShard(faulted, *faulty).ok()) ++failed_swaps;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(soak_ms / 2));  // 20% + 50% = 70%
    auto rollback = fixture.LoadLadder(fixture.bundle_path());
    const Status rolled_back =
        rollback.ok() ? router.SwapModelOnShard(faulted,
                                                std::move(rollback).value(),
                                                fixture.GoldenGate())
                      : rollback.status();
    if (!rolled_back.ok()) {
      std::fprintf(stderr, "rollback: %s\n", rolled_back.ToString().c_str());
      ++failed_swaps;
    }
  });
  RunTenantTraffic(router, dataset, zipf, tenants, abusive_tenant, pace_us,
                   config.deadline_us, soak_ms, seed + 1);
  orchestrator.join();
  router.Stop();

  // ---- Gates and report.
  const serve::RouterCountersSnapshot counters = router.counters().Snapshot();
  const serve::TenantSlo abusive =
      router.TenantSloSnapshot(static_cast<uint64_t>(abusive_tenant));
  outcome.admit_budget =
      admit_slack *
      (quota_rate * static_cast<double>(soak_ms) * 1e-3 + quota_burst);
  outcome.abusive_quota_rejected = abusive.quota_rejected;
  outcome.abusive_admitted = abusive.ok + abusive.errors;
  outcome.quarantines = counters.quarantines;
  outcome.readmissions = counters.readmissions;
  outcome.failed_swaps = failed_swaps;
  std::ostringstream json;
  json << "{\n  \"benchmark\": \"serve-bench-sharded\",\n";
  json << "  \"config\": {\"shards\": " << shards
       << ", \"tenants\": " << tenants
       << ", \"abusive_tenant\": " << abusive_tenant
       << ", \"soak_ms\": " << soak_ms << ", \"baseline_ms\": " << baseline_ms
       << ", \"deadline_us\": " << config.deadline_us
       << ", \"quota_rate\": " << FormatFixed(quota_rate, 1)
       << ", \"quota_burst\": " << FormatFixed(quota_burst, 1)
       << ", \"fault_rate\": "
       << FormatFixed(faults.transient_fault_probability, 3)
       << ", \"burst_trigger\": "
       << FormatFixed(faults.burst_trigger_probability, 4)
       << ", \"burst_len\": " << faults.burst_length
       << ", \"faulted_shard\": " << faulted
       << ", \"workers\": " << config.workers << ", \"seed\": " << seed
       << ", \"bundle\": \"" << fixture.bundle_path() << "\"},\n";
  json << "  \"shards\": [\n";
  for (size_t s = 0; s < shards; ++s) {
    const serve::ServeCountersSnapshot engine =
        router.shard_engine(s).counters().Snapshot();
    json << "    {\"shard\": " << s << ", \"state\": \""
         << serve::ShardStateName(router.shard_state(s))
         << "\", \"model_version\": "
         << router.shard_engine(s).model_version()
         << ", " << EngineCountersJson(engine)
         << ", \"shed_stopped\": " << engine.shed_stopped
         << ", \"swaps_attempted\": " << engine.swaps_attempted
         << ", \"swaps_completed\": " << engine.swaps_completed
         << ", \"swaps_rejected\": " << engine.swaps_rejected << "}"
         << (s + 1 < shards ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"router\": {\"requests\": " << counters.requests
       << ", \"admitted\": " << counters.admitted
       << ", \"quota_rejected\": " << counters.quota_rejected
       << ", \"failover_picks\": " << counters.failover_picks
       << ", \"failover_retries\": " << counters.failover_retries
       << ", \"forced_primary\": " << counters.forced_primary
       << ", \"no_shard_available\": " << counters.no_shard_available
       << ", \"drains\": " << counters.drains
       << ", \"quarantines\": " << counters.quarantines
       << ", \"probes\": " << counters.probes
       << ", \"readmissions\": " << counters.readmissions << "},\n";
  json << "  \"tenants\": [\n";
  for (uint64_t t = 0; t < tenants; ++t) {
    const serve::TenantSlo slo = router.TenantSloSnapshot(t);
    const replay::TenantOutcome tenant{
        static_cast<int64_t>(t) == abusive_tenant, slo.p99_us,
        std::max(p99_ratio * baseline_p99[t], p99_floor_us), slo.error_rate};
    outcome.tenants.push_back(tenant);
    const bool p99_ok = tenant.abusive || tenant.p99_us <= tenant.p99_budget_us;
    const bool errors_ok =
        tenant.abusive || tenant.error_rate <= outcome.max_error_rate;
    json << "    {\"tenant\": " << t << ", \"abusive\": "
         << (tenant.abusive ? "true" : "false")
         << ", \"requests\": " << slo.requests << ", \"ok\": " << slo.ok
         << ", \"errors\": " << slo.errors
         << ", \"quota_rejected\": " << slo.quota_rejected
         << ", \"error_rate\": " << FormatFixed(slo.error_rate, 4)
         << ", \"quota_reject_rate\": " << FormatFixed(slo.quota_reject_rate, 4)
         << ", \"p99_us\": " << FormatFixed(slo.p99_us, 1)
         << ", \"baseline_p99_us\": " << FormatFixed(baseline_p99[t], 1)
         << ", \"p99_budget_us\": " << FormatFixed(tenant.p99_budget_us, 1)
         << ", \"p99_ok\": " << (p99_ok ? "true" : "false")
         << ", \"errors_ok\": " << (errors_ok ? "true" : "false") << "}"
         << (t + 1 < tenants ? "," : "") << "\n";
  }
  const replay::GateVerdict verdict =
      replay::EvaluateGates(replay::ShardedGates(outcome));
  // The admission budget rides in the gates block next to its verdict.
  json << "  ],\n  \"gates\": {\"admit_budget\": "
       << FormatFixed(outcome.admit_budget, 1) << ", "
       << verdict.json.substr(1) << "\n}\n";
  return replay::FinishGatedReport(out, json.str(), verdict, "isolation SLO");
}

/// Traffic-replay soak (`soak-bench`), gated by replay::SoakGates; the
/// phases are described in DESIGN.md "Traffic replay & soak". Phase A
/// replays paced Zipfian traffic (ReplaySource) against the fixture bundle
/// on one engine with a hot score cache while an orchestrator hot-reloads
/// it every --reload-every-ms (the poisoned twin every --poison-every
/// attempts, which the golden gate must reject) and runs an ungated fault
/// episode from 45% to 60% of the soak. Phase B streams a LETOR file
/// through the serve path; phase C checks cache-on/off bitwise parity.
int CmdSoakBench(const Args& args) {
  const replay::ServeConfig config = ParseServeConfig(
      args, {.queries = 48, .features = 32, .queue_capacity = 256});
  const auto duration_ms =
      static_cast<uint64_t>(args.GetInRange("duration-ms", 10'000, 1000));
  const auto reload_every_ms =
      static_cast<uint64_t>(args.GetCount("reload-every-ms", 700));
  const int poison_every = args.GetInt("poison-every", 2);
  replay::SoakOutcome outcome;
  outcome.min_hit_rate = args.GetDouble("min-hit-rate", 0.5, 0, 1);
  outcome.max_shed_rate = args.GetDouble("max-shed-rate", 0.05, 0, 1);
  outcome.max_p99_us = args.GetDouble(
      "max-p99-us", static_cast<double>(config.deadline_us), kPositive);
  const serve::ScoreCacheConfig cache_config{
      .capacity = static_cast<size_t>(args.GetCount("cache-capacity", 4096)),
      .num_shards = static_cast<size_t>(args.GetCount("cache-shards", 8))};
  const serve::FaultInjectionConfig fault_config{
      .transient_fault_probability = args.GetDouble("fault-rate", 0.3, 0, 1),
      .latency_spike_probability = 0.2, .spike_micros = 1000,
      .non_finite_probability = 0.05,
      .seed = static_cast<uint64_t>(config.seed) + 777};
  replay::WorkloadConfig wc;
  wc.zipf_exponent = args.GetDouble("zipf-exponent", 1.1);
  wc.base_qps = args.GetDouble("qps", 600.0, kPositive);
  wc.diurnal_amplitude = args.GetDouble("diurnal-amplitude", 0.5, 0, 1);
  // At 1 the trough's arrival rate would be 0 qps.
  if (wc.diurnal_amplitude == 1.0) {
    UsageError("--diurnal-amplitude must be < 1, got 1");
  }
  // Default period: the soak covers 1.5 compressed "days", so both the
  // peak and the trough are exercised.
  wc.diurnal_period_micros =
      static_cast<uint64_t>(args.GetCount(
          "diurnal-period-ms", static_cast<int>(duration_ms * 2 / 3))) *
      1000;
  wc.burst_probability = args.GetDouble("burst-probability", 0.003, 0, 1);
  wc.burst_multiplier = 3.0;
  wc.burst_duration_micros = 150'000;
  wc.seed = config.seed;
  std::string letor_path = args.Get("letor", "");
  const std::string out = args.Get("out", "out/soak.json");
  const replay::FixtureConfig fc{
      .trees = args.GetCount("trees", 20),
      .bundle_path = args.Get("bundle", "out/soak.bundle"),
      .poisoned_twin = true};
  args.RejectUnread();
  auto created = replay::BundleFixture::Create(config, fc);
  if (!created.ok()) return Fail(created.status());
  const replay::BundleFixture& fixture = **created;
  const data::Dataset& dataset = fixture.dataset();
  const auto features = static_cast<uint32_t>(config.features);
  wc.num_queries = dataset.num_queries();

  serve::ScoreCache cache(cache_config);
  serve::ServingConfig sc = config.Engine();
  sc.score_cache = &cache;
  serve::ServingEngine engine(fixture.initial_ladder(), sc);

  // The fault episode's generation: the bundle's rungs, top rung
  // fault-injected. Installed WITHOUT the gate (it could never pass),
  // rolled back through it.
  auto faulty = fixture.FaultInjectedLadder(fault_config);
  if (!faulty.ok()) return Fail(faulty.status());

  // ---- Phase A: the replay soak. The driver paces arrivals from the
  // workload model; the orchestrator reloads / poisons / faults
  // concurrently.
  replay::ReplaySource source(dataset, wc, engine.clock(), duration_ms * 1000);
  const uint64_t start_micros = source.start_micros();
  std::atomic<bool> soak_done{false};
  uint64_t good_reloads = 0;
  std::thread orchestrator([&] {
    const uint64_t fault_start = start_micros + duration_ms * 1000 * 45 / 100;
    const uint64_t fault_end = start_micros + duration_ms * 1000 * 60 / 100;
    enum { kPending, kActive, kDone } fault = kPending;
    uint64_t reload_count = 0;
    uint64_t last_reload = start_micros;
    const auto good_reload = [&] {
      const Status swapped = fixture.Reload(engine, fixture.bundle_path());
      if (swapped.ok()) {
        ++good_reloads;
      } else {
        std::fprintf(stderr, "swap: %s\n", swapped.ToString().c_str());
        ++outcome.good_reload_failures;
      }
    };
    // Relaxed: a plain shutdown signal; the join orders everything else.
    while (!soak_done.load(std::memory_order_relaxed)) {
      const uint64_t now = engine.clock().NowMicros();
      if (fault == kPending && now >= fault_start && now < fault_end) {
        std::fprintf(stderr, "fault episode: injecting faulty ladder\n");
        fault = engine.SwapModel(*faulty, nullptr).ok() ? kActive : kDone;
        if (fault == kDone) ++outcome.fault_swap_failures;
      } else if (fault == kActive && now >= fault_end) {
        std::fprintf(stderr, "fault episode: rolling back (golden-gated)\n");
        good_reload();
        fault = kDone;
        last_reload = now;
      } else if (fault != kActive &&
                 now - last_reload >= reload_every_ms * 1000) {
        ++reload_count;
        if (poison_every > 0 &&
            reload_count % static_cast<uint64_t>(poison_every) == 0) {
          ++outcome.poison_attempts;
          if (fixture.PoisonRejected(engine)) ++outcome.poison_rejected;
        } else {
          good_reload();
        }
        last_reload = now;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::fprintf(stderr,
               "soak: %llu ms @ ~%.0f qps, reload every %llu ms "
               "(poison every %d), fault episode at 45%%-60%%...\n",
               static_cast<unsigned long long>(duration_ms), wc.base_qps,
               static_cast<unsigned long long>(reload_every_ms),
               poison_every);
  const replay::ResponseSummary summary = replay::SummarizeResponses(
      replay::DriveTraffic(engine, source, config),
      engine.ladder().num_rungs(), config.deadline_us);
  soak_done.store(true, std::memory_order_relaxed);
  orchestrator.join();

  // One final golden-gated reload so phases B and C run on a generation
  // proven equivalent to the initial one even if the soak ended mid-fault.
  if (!fixture.Reload(engine, fixture.bundle_path()).ok()) {
    ++outcome.good_reload_failures;
  }

  // Snapshots for the gates, taken before the later phases add traffic.
  const serve::ScoreCacheStats soak_cache = cache.Stats();
  const serve::ServeCountersSnapshot counters = engine.counters().Snapshot();
  const uint64_t lookups = soak_cache.hits + soak_cache.misses;
  const uint64_t shed = counters.shed_queue_full + counters.shed_deadline;
  outcome.hit_rate =
      lookups > 0 ? static_cast<double>(soak_cache.hits) / lookups : 0.0;
  outcome.shed_rate = summary.submitted > 0
                          ? static_cast<double>(shed) / summary.submitted
                          : 0.0;
  outcome.failed = counters.failed;
  outcome.rungs = summary.rungs;
  outcome.swaps_completed = counters.swaps_completed;
  outcome.stale_rejects = soak_cache.stale_rejects;

  // ---- Phase B: stream a LETOR file through the serve path.
  if (letor_path.empty()) {
    letor_path = "out/soak_corpus.letor";
    if (!EnsureParentDir(letor_path)) return 1;
    const Status written = data::WriteLetorFile(dataset, letor_path);
    if (!written.ok()) return Fail(written);
  }
  uint64_t letor_docs = 0;
  {
    auto stream = data::LetorQueryStream::Open(letor_path, features);
    if (!stream.ok()) return Fail(stream.status());
    data::QueryBatch batch;
    while (true) {
      auto more = stream->Next(&batch);
      if (!more.ok()) {
        std::fprintf(stderr, "letor: %s\n",
                     more.status().ToString().c_str());
        ++outcome.letor_failures;
        break;
      }
      if (!more.value()) break;
      if (batch.num_docs == 0) continue;
      const serve::ServeResponse resp = engine.ScoreSync(
          batch.features.data(), batch.num_docs, features, 100'000);
      if (!resp.status.ok()) ++outcome.letor_failures;
      ++outcome.letor_queries;
      letor_docs += batch.num_docs;
    }
  }
  std::fprintf(stderr, "letor stream: %llu queries / %llu docs from %s\n",
               static_cast<unsigned long long>(outcome.letor_queries),
               static_cast<unsigned long long>(letor_docs),
               letor_path.c_str());

  // ---- Phase C: bitwise cache parity. Clear first — soak-era entries may
  // legitimately carry degraded-rung scores; parity is defined against
  // what the current generation computes at full strength.
  cache.Clear();
  {
    auto twin_ladder = fixture.LoadLadder(fixture.bundle_path());
    if (!twin_ladder.ok()) return Fail(twin_ladder.status());
    serve::ServingEngine twin(std::move(twin_ladder).value(),
                              config.Engine());
    constexpr uint64_t kParityBudgetUs = 200'000;
    for (uint32_t q = 0; q < dataset.num_queries(); ++q) {
      const float* docs = dataset.Row(dataset.QueryBegin(q));
      const uint32_t count = dataset.QuerySize(q);
      const serve::ServeResponse first =
          engine.ScoreSync(docs, count, features, kParityBudgetUs);
      const serve::ServeResponse second =
          engine.ScoreSync(docs, count, features, kParityBudgetUs);
      const serve::ServeResponse uncached =
          twin.ScoreSync(docs, count, features, kParityBudgetUs);
      ++outcome.parity_queries;
      if (!first.status.ok() || !second.status.ok() ||
          !uncached.status.ok()) {
        ++outcome.parity_mismatches;
        continue;
      }
      if (!second.cache_hit) ++outcome.parity_missed_hits;
      if (first.scores != second.scores || first.scores != uncached.scores) {
        ++outcome.parity_mismatches;
      }
    }
    twin.Stop();
  }
  engine.Stop();

  // ---- Gates and report.
  const replay::GateVerdict verdict =
      replay::EvaluateGates(replay::SoakGates(outcome));
  std::ostringstream json;
  json << "{\n  \"benchmark\": \"soak-bench\",\n";
  json << "  \"config\": {\"duration_ms\": " << duration_ms
       << ", \"qps\": " << FormatFixed(wc.base_qps, 1)
       << ", \"queries\": " << config.queries
       << ", \"features\": " << features
       << ", \"workers\": " << config.workers
       << ", \"deadline_us\": " << config.deadline_us
       << ", \"reload_every_ms\": " << reload_every_ms
       << ", \"poison_every\": " << poison_every
       << ", \"zipf_exponent\": " << FormatFixed(wc.zipf_exponent, 2)
       << ", \"diurnal_amplitude\": "
       << FormatFixed(wc.diurnal_amplitude, 2)
       << ", \"burst_probability\": "
       << FormatFixed(wc.burst_probability, 4)
       << ", \"cache_capacity\": " << cache_config.capacity
       << ", \"seed\": " << config.seed << "},\n";
  json << "  \"soak\": {\"submitted\": " << summary.submitted << ", "
       << EngineCountersJson(counters)
       << ", \"shed_rate\": " << FormatFixed(outcome.shed_rate, 4)
       << ", \"cache_hit_responses\": " << summary.cache_hits
       << ", \"bursts_started\": " << source.bursts_started()
       << ", \"arrivals_in_burst\": " << source.arrivals_in_burst() << "},\n";
  json << "  \"cache\": {\"hits\": " << soak_cache.hits
       << ", \"misses\": " << soak_cache.misses
       << ", \"evictions\": " << soak_cache.evictions
       << ", \"stale_rejects\": " << soak_cache.stale_rejects
       << ", \"entries\": " << soak_cache.entries
       << ", \"hit_rate\": " << FormatFixed(outcome.hit_rate, 4) << "},\n";
  json << "  \"rungs\": [\n";
  for (size_t r = 0; r < summary.rungs.size(); ++r) {
    const replay::LatencySummary& rung = summary.rungs[r];
    json << "    {\"rung\": " << r << ", \"name\": \""
         << engine.ladder().rung(r).name << "\", \"served\": " << rung.count
         << ", \"p50_us\": " << FormatFixed(rung.p50_us, 1)
         << ", \"p99_us\": " << FormatFixed(rung.p99_us, 1) << ", \"gated\": "
         << (rung.count >= replay::kMinGatedRungSamples ? "true" : "false")
         << "}" << (r + 1 < summary.rungs.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"swaps\": {\"attempted\": " << counters.swaps_attempted
       << ", \"completed\": " << counters.swaps_completed
       << ", \"rejected\": " << counters.swaps_rejected
       << ", \"good_reloads\": " << good_reloads
       << ", \"good_reload_failures\": " << outcome.good_reload_failures
       << ", \"poison_attempts\": " << outcome.poison_attempts
       << ", \"poison_rejected\": " << outcome.poison_rejected
       << ", \"fault_swap_failures\": " << outcome.fault_swap_failures
       << ", \"final_model_version\": " << engine.model_version() << "},\n";
  json << "  \"letor\": {\"path\": \"" << letor_path
       << "\", \"queries\": " << outcome.letor_queries
       << ", \"docs\": " << letor_docs
       << ", \"failures\": " << outcome.letor_failures << "},\n";
  json << "  \"parity\": {\"queries\": " << outcome.parity_queries
       << ", \"mismatches\": " << outcome.parity_mismatches
       << ", \"missed_hits\": " << outcome.parity_missed_hits << "},\n";
  json << "  \"gates\": " << verdict.json << "\n}\n";
  return replay::FinishGatedReport(out, json.str(), verdict, "soak SLO");
}

/// Load-tests the deadline-aware serving engine on the fixture bundle
/// (student on the hybrid engine > cascade > teacher subset, measured rung
/// costs) with faults injected into the top rung, and writes a
/// latency-percentile + rung-distribution JSON report. With --reload-every
/// N it instead runs the bundle hot-reload load test (see
/// CmdServeBenchReload); with --shards N (2 to 256) it runs the sharded
/// multi-tenant isolation soak (see CmdServeBenchSharded).
int CmdServeBench(const Args& args) {
  if (args.Has("shards")) return CmdServeBenchSharded(args);
  if (args.GetInt("reload-every", 0) > 0) return CmdServeBenchReload(args);
  const replay::ServeConfig config = ParseServeConfig(
      args, {.queries = 80, .features = 136, .deadline_us = 6000});
  const int requests = args.GetCount("requests", 300);
  serve::FaultInjectionConfig fic;
  fic.transient_fault_probability = args.GetDouble("fault-rate", 0.2, 0, 1);
  fic.latency_spike_probability = args.GetDouble("spike-rate", 0.1, 0, 1);
  fic.spike_micros =
      static_cast<uint64_t>(args.GetInRange("spike-us", 2000, 0));
  fic.non_finite_probability = args.GetDouble("nan-rate", 0.05, 0, 1);
  fic.seed = config.seed;
  const std::string out = args.Get("out", "out/serve_latency.json");
  // The bundle lands beside the report.
  const replay::FixtureConfig fc{
      .trees = args.GetCount("trees", 40),
      .bundle_path =
          std::filesystem::path(out).replace_extension(".bundle").string()};
  const bool obs_spans = args.GetInt("obs", 0) != 0;
  const std::string obs_out = args.Get("obs-out", "out/obs_stats.json");
  args.RejectUnread();
  auto created = replay::BundleFixture::Create(config, fc);
  if (!created.ok()) return Fail(created.status());
  const replay::BundleFixture& fixture = **created;
  auto faulty = fixture.FaultInjectedLadder(fic);
  if (!faulty.ok()) return Fail(faulty.status());
  const serve::DegradationLadder& ladder = **faulty;
  for (size_t i = 0; i < ladder.num_rungs(); ++i) {
    std::fprintf(stderr, "rung %zu %-14s %8.3f us/doc (%s)\n", i,
                 ladder.rung(i).name.c_str(),
                 ladder.rung(i).predicted_us_per_doc,
                 std::string(ladder.rung(i).scorer->name()).c_str());
  }
  serve::ServingEngine engine(*faulty, config.Engine());

  // With --obs 1 the scoring hot-path spans (mm / nn / forest) record too,
  // breaking request latency down by stage; the engine-level histograms
  // (rung totals, queue wait, backoff) always record.
  obs::MetricsRegistry::Global().SetEnabled(obs_spans);

  std::fprintf(stderr, "serving %d requests (deadline %d us)...\n", requests,
               config.deadline_us);
  const data::Dataset& dataset = fixture.dataset();
  replay::RoundRobinSource source(dataset, static_cast<uint64_t>(requests));
  const replay::ResponseSummary summary = replay::SummarizeResponses(
      replay::DriveTraffic(engine, source, config), ladder.num_rungs(),
      config.deadline_us);
  engine.Stop();
  obs::MetricsRegistry::Global().SetEnabled(false);

  const serve::ServeCountersSnapshot counters = engine.counters().Snapshot();
  std::ostringstream json;
  json << "{\n  \"benchmark\": \"serve-bench\",\n";
  json << "  \"config\": {\"requests\": " << requests
       << ", \"deadline_us\": " << config.deadline_us
       << ", \"workers\": " << config.workers
       << ", \"queue_capacity\": " << config.queue_capacity
       << ", \"fault_rate\": " << fic.transient_fault_probability
       << ", \"spike_rate\": " << fic.latency_spike_probability
       << ", \"spike_us\": " << fic.spike_micros
       << ", \"nan_rate\": " << fic.non_finite_probability
       << ", \"seed\": " << config.seed << ", \"bundle\": \""
       << fixture.bundle_path() << "\"},\n";
  // Mean batch size of the round-robined corpus: the request count the
  // predictor drift comparison is evaluated at.
  const uint32_t mean_docs = std::max(
      1u, dataset.num_docs() / std::max(1u, dataset.num_queries()));
  json << "  \"rungs\": [\n";
  for (size_t i = 0; i < ladder.num_rungs(); ++i) {
    // Per-rung latency comes from the engine's bounded log2 histograms,
    // which also feed the predictor drift gauges; percentile estimates are
    // within 2x of exact.
    const serve::Rung& rung = ladder.rung(i);
    const obs::Histogram& rung_hist = engine.rung_latency(i);
    const predict::DriftSample drift = predict::RecordPredictorDrift(
        rung.name,
        ladder.PredictedBatchMicros(i, mean_docs, /*safety_factor=*/1.0),
        rung_hist);
    json << "    {\"index\": " << i << ", \"name\": \"" << rung.name
         << "\", \"engine\": \"" << rung.scorer->name()
         << "\", \"predicted_us_per_doc\": "
         << FormatFixed(rung.predicted_us_per_doc, 3)
         << ", \"served\": " << counters.served_by_rung[i]
         << ", \"p50_us\": "
         << FormatFixed(rung_hist.ApproxPercentileMicros(50), 1)
         << ", \"p95_us\": "
         << FormatFixed(rung_hist.ApproxPercentileMicros(95), 1)
         << ", \"p99_us\": "
         << FormatFixed(rung_hist.ApproxPercentileMicros(99), 1)
         << ", \"mean_us\": " << FormatFixed(rung_hist.MeanMicros(), 1)
         << ", \"predicted_batch_us\": " << FormatFixed(drift.predicted_us, 1)
         << ", \"drift_ratio\": " << FormatFixed(drift.ratio, 3) << "}"
         << (i + 1 < ladder.num_rungs() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"queue\": {\"wait_p50_us\": "
       << FormatFixed(engine.queue_wait().ApproxPercentileMicros(50), 1)
       << ", \"wait_p95_us\": "
       << FormatFixed(engine.queue_wait().ApproxPercentileMicros(95), 1)
       << ", \"wait_max_us\": "
       << FormatFixed(engine.queue_wait().MaxMicros(), 1)
       << ", \"backoff_sleeps\": " << engine.retry_backoff().Count()
       << ", \"backoff_total_us\": "
       << FormatFixed(engine.retry_backoff().SumMicros(), 1) << "},\n";
  json << "  \"obs\": {\"spans_enabled\": " << (obs_spans ? "true" : "false")
       << ", \"stats_file\": \"" << obs_out << "\"},\n";
  json << "  \"overall\": {" << EngineCountersJson(counters)
       << ", \"within_deadline\": " << summary.within_deadline
       << ", \"p50_us\": " << FormatFixed(summary.overall.p50_us, 1)
       << ", \"p95_us\": " << FormatFixed(summary.overall.p95_us, 1)
       << ", \"p99_us\": " << FormatFixed(summary.overall.p99_us, 1)
       << "}\n}\n";
  if (!WriteReport(out, json.str())) return 1;
  // Full registry export: engine histograms, drift gauges and (with --obs)
  // the per-stage scoring spans.
  return WriteReport(obs_out, obs::MetricsRegistry::Global().ToJson(),
                     /*echo=*/false)
             ? 0
             : 1;
}

/// Measures end-to-end docs/s of the dense-NN and hybrid-NN engines at each
/// requested thread count and writes a scaling JSON report. Each engine is
/// built the way serve::Servable builds a pooled neural rung: at T > 1 a
/// T-thread pool under the default min_parallel_docs, except on a host
/// with one hardware thread, where no split can pay and the engines score
/// without the pool. With --min-t2-ratio R > 0 the command fails (exit 1)
/// when the dense engine's T=2 throughput drops below R times its T=1
/// throughput, which is the CI smoke gate against threading regressions.
int CmdBenchScaling(const Args& args) {
  const auto features = static_cast<uint32_t>(args.GetCount("features", 136));
  const auto queries = static_cast<uint32_t>(args.GetCount("queries", 60));
  const double sparsity = args.GetDouble("sparsity", 0.98, 0, 1);
  const int repeats = args.GetCount("repeats", 3);
  const auto seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::vector<uint32_t> thread_counts =
      ParseThreadList(args.Get("threads", "1,2,4"));
  const double min_t2_ratio = args.GetDouble("min-t2-ratio", 0.0, 0);
  const double min_t2_ratio_small = args.GetDouble("min-t2-ratio-small", 0.0, 0);
  const std::string out = args.Get("out", "out/bench_scaling.json");
  const bool obs_spans = args.GetInt("obs", 0) != 0;
  const std::string obs_out = args.Get("obs-out", "out/bench_scaling_obs.json");
  const std::string configs_flag = args.Get("configs", "large");
  const std::string large_arch = args.Get("arch", "256x128x64");
  args.RejectUnread();

  // Named workload presets. "large" is the tuned throughput config (the
  // --queries/--arch flags apply to it); "small" is a fixed tiny smoke
  // workload whose per-call batches sit near the parallel threshold — its
  // gate checks that threading never taxes small batches.
  struct Preset {
    std::string name;
    uint32_t queries = 0;
    std::string arch;
  };
  std::vector<Preset> presets;
  for (const std::string_view piece : SplitAndSkipEmpty(configs_flag, ',')) {
    if (piece == "large") {
      presets.push_back(Preset{"large", queries, large_arch});
    } else if (piece == "small") {
      presets.push_back(Preset{"small", 8, "32x16"});
    } else {
      std::fprintf(stderr, "unknown --configs entry '%.*s' (small|large)\n",
                   static_cast<int>(piece.size()), piece.data());
      return 2;
    }
  }

  struct Row {
    uint32_t threads = 1;
    double dense_docs_per_s = 0.0;
    double hybrid_docs_per_s = 0.0;
  };
  struct ConfigReport {
    Preset preset;
    uint32_t docs = 0;
    std::vector<Row> rows;
    double t2_ratio = 0.0;    // dense T=2 / T=1 docs/s; 0 when not measured
    double gate_ratio = 0.0;  // required minimum; 0 when no gate applies
  };
  std::vector<ConfigReport> reports;

  // With --obs 1 the GEMM / scorer spans record during the measurement
  // loop, so the report can say where scoring time went, not only how fast
  // it was. Off by default: the gate numbers stay uninstrumented unless
  // asked.
  obs::MetricsRegistry::Global().SetEnabled(obs_spans);
  const bool can_split = common::ThreadPool::HardwareThreads() > 1;

  for (const Preset& preset : presets) {
    auto arch = predict::Architecture::Parse(preset.arch, features);
    if (!arch.ok()) return Fail(arch.status());

    // Synthetic corpus: throughput, not ranking quality, is what this bench
    // measures, so the neural engines keep their random initial weights.
    std::fprintf(stderr, "[%s]\n", preset.name.c_str());
    const data::Dataset dataset =
        replay::SyntheticCorpus(preset.queries, features, seed);
    nn::Mlp dense_mlp(*arch, seed);
    nn::Mlp hybrid_mlp(*arch, seed + 1);
    nn::WeightMasks masks = prune::MakeDenseMasks(hybrid_mlp);
    prune::LevelPruneLayer(&hybrid_mlp, 0, sparsity, &masks);
    data::ZNormalizer normalizer;
    normalizer.Fit(dataset);

    ConfigReport report;
    report.preset = preset;
    report.docs = dataset.num_docs();
    for (const uint32_t t : thread_counts) {
      common::ThreadPool pool(t);
      nn::NeuralScorerConfig nn_config;
      if (t > 1 && can_split) nn_config.pool = &pool;
      const nn::NeuralScorer dense(dense_mlp, &normalizer, nn_config);
      const nn::HybridNeuralScorer hybrid(hybrid_mlp, &normalizer, nn_config);

      Row row;
      row.threads = t;
      row.dense_docs_per_s =
          1e6 / core::MeasureScorerMicrosPerDoc(dense, dataset, repeats);
      row.hybrid_docs_per_s =
          1e6 / core::MeasureScorerMicrosPerDoc(hybrid, dataset, repeats);
      report.rows.push_back(row);
      std::fprintf(stderr, "[%s] T=%u  dense %9.0f  hybrid %9.0f docs/s\n",
                   preset.name.c_str(), t, row.dense_docs_per_s,
                   row.hybrid_docs_per_s);
    }
    reports.push_back(std::move(report));
  }

  // Per-config T=2 / T=1 ratios and gates. "small" answers to
  // --min-t2-ratio-small (the no-regression bound); every other config
  // answers to --min-t2-ratio (the must-scale bound). Without both 1 and 2
  // in --threads the ratio stays 0, so the gate fails.
  std::vector<replay::Gate> gates;
  for (ConfigReport& report : reports) {
    const Row* t1 = nullptr;
    const Row* t2 = nullptr;
    for (const Row& row : report.rows) {
      if (row.threads == 1 && t1 == nullptr) t1 = &row;
      if (row.threads == 2 && t2 == nullptr) t2 = &row;
    }
    if (t1 != nullptr && t2 != nullptr && t1->dense_docs_per_s > 0.0) {
      report.t2_ratio = t2->dense_docs_per_s / t1->dense_docs_per_s;
    }
    report.gate_ratio =
        report.preset.name == "small" ? min_t2_ratio_small : min_t2_ratio;
    if (report.gate_ratio <= 0.0) continue;
    if (t1 == nullptr || t2 == nullptr) {
      std::fprintf(stderr,
                   "[%s] gate needs both 1 and 2 in --threads\n",
                   report.preset.name.c_str());
    }
    gates.push_back({report.preset.name + "_t2_ratio", report.t2_ratio,
                     replay::GateOp::kAtLeast, report.gate_ratio});
  }

  std::ostringstream json;
  json << "{\n";
  json << "  \"benchmark\": \"bench-scaling\",\n";
  json << "  \"hardware_threads\": " << common::ThreadPool::HardwareThreads()
       << ",\n";
  json << "  \"configs\": [\n";
  for (size_t c = 0; c < reports.size(); ++c) {
    const ConfigReport& report = reports[c];
    const Row* t1 = nullptr;
    for (const Row& row : report.rows) {
      if (row.threads == 1) {
        t1 = &row;
        break;
      }
    }
    const Row& base = t1 != nullptr ? *t1 : report.rows.front();
    json << "    {\"name\": \"" << report.preset.name << "\",\n";
    json << "     \"config\": {\"features\": " << features
         << ", \"queries\": " << report.preset.queries
         << ", \"docs\": " << report.docs << ", \"arch\": \""
         << report.preset.arch << "\", \"sparsity\": "
         << FormatFixed(sparsity, 3) << ", \"repeats\": " << repeats
         << ", \"seed\": " << seed << "},\n";
    json << "     \"results\": [\n";
    for (size_t i = 0; i < report.rows.size(); ++i) {
      const Row& row = report.rows[i];
      json << "       {\"threads\": " << row.threads
           << ", \"dense_docs_per_s\": "
           << FormatFixed(row.dense_docs_per_s, 1)
           << ", \"dense_speedup\": "
           << FormatFixed(row.dense_docs_per_s / base.dense_docs_per_s, 3)
           << ", \"hybrid_docs_per_s\": "
           << FormatFixed(row.hybrid_docs_per_s, 1)
           << ", \"hybrid_speedup\": "
           << FormatFixed(row.hybrid_docs_per_s / base.hybrid_docs_per_s, 3)
           << "}" << (i + 1 < report.rows.size() ? "," : "") << "\n";
    }
    json << "     ]";
    if (report.gate_ratio > 0.0) {
      json << ",\n     \"gate\": {\"min_t2_ratio\": "
           << FormatFixed(report.gate_ratio, 3)
           << ", \"t2_ratio\": " << FormatFixed(report.t2_ratio, 3)
           << ", \"pass\": "
           << (report.t2_ratio >= report.gate_ratio ? "true" : "false") << "}";
    }
    json << "}" << (c + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ]";
  if (obs_spans) {
    obs::MetricsRegistry::Global().SetEnabled(false);
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    json << ",\n  \"obs\": {\"gemm_calls\": "
         << registry.GetCounter("mm.gemm.calls").Value()
         << ", \"gemm_total_us\": "
         << FormatFixed(
                registry.GetHistogram("mm.gemm.total_us").SumMicros(), 1)
         << ", \"gemm_kernel_us\": "
         << FormatFixed(
                registry.GetHistogram("mm.gemm.kernel_us").SumMicros(), 1)
         << ", \"stats_file\": \"" << obs_out << "\"}";
  }
  json << "\n}\n";

  if (obs_spans && !WriteReport(obs_out,
                                obs::MetricsRegistry::Global().ToJson(),
                                /*echo=*/false)) {
    return 1;
  }
  return replay::FinishGatedReport(out, json.str(),
                                   replay::EvaluateGates(gates), "scaling");
}

/// Exercises the instrumented scoring stack (dense NN, hybrid NN, tree
/// ensemble over a synthetic corpus) with spans enabled and exports the
/// metrics registry as JSON. Doubles as the CI entry point for the layer's
/// two guarantees:
///   --check 1              scores with spans on must be bitwise identical
///                          to scores with spans off (exit 1 otherwise);
///   --max-overhead-pct X   enabled spans may slow the GEMM microbench by
///                          at most X percent (best-of-trials on both
///                          sides, so scheduler noise cannot fail the gate
///                          spuriously).
/// With --in F it instead validates an exported report file and prints it.
int CmdStats(const Args& args) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();

  if (args.Has("in")) {
    const std::string path = args.Get("in", "");
    args.RejectUnread();
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    const std::string error = obs::CheckJsonSyntax(buffer.str());
    if (!error.empty()) {
      std::fprintf(stderr, "%s: invalid JSON: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    std::printf("%s", buffer.str().c_str());
    std::fprintf(stderr, "%s: valid JSON\n", path.c_str());
    return 0;
  }

  const auto features = static_cast<uint32_t>(args.GetCount("features", 64));
  const auto queries = static_cast<uint32_t>(args.GetCount("queries", 24));
  const auto seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  const bool check = args.GetInt("check", 0) != 0;
  const double max_overhead_pct = args.GetDouble("max-overhead-pct", 0.0, 0);
  const int trials = args.GetInt("trials", 3);
  const std::string out = args.Get("out", "-");
  args.RejectUnread();

  const data::Dataset dataset =
      replay::SyntheticCorpus(queries, features, seed);

  // One scorer per instrumented subsystem: the dense MLP drives the GEMM
  // spans, the hybrid MLP the sparse first-layer split, the QuickScorer
  // pair the forest traversal spans. Random weights: this command measures
  // plumbing, not ranking quality.
  const gbdt::Ensemble forest_model = replay::TrainForest(dataset, 10, 16);
  const forest::QuickScorer qs(forest_model, dataset.num_features());
  const forest::BlockwiseQuickScorer bwqs(forest_model, dataset.num_features());
  const predict::Architecture arch(dataset.num_features(), {128, 64});
  nn::Mlp dense_mlp(arch, seed);
  nn::Mlp hybrid_mlp(arch, seed + 1);
  nn::WeightMasks masks = prune::MakeDenseMasks(hybrid_mlp);
  prune::LevelPruneLayer(&hybrid_mlp, 0, 0.95, &masks);
  data::ZNormalizer normalizer;
  normalizer.Fit(dataset);
  const nn::NeuralScorer dense(dense_mlp, &normalizer);
  const nn::HybridNeuralScorer hybrid(hybrid_mlp, &normalizer);

  const forest::DocumentScorer* scorers[] = {&dense, &hybrid, &qs, &bwqs};
  std::vector<replay::Gate> gates;

  if (check) {
    for (const forest::DocumentScorer* scorer : scorers) {
      registry.SetEnabled(false);
      const std::vector<float> off = scorer->ScoreDataset(dataset);
      registry.SetEnabled(true);
      const std::vector<float> on = scorer->ScoreDataset(dataset);
      registry.SetEnabled(false);
      const bool identical =
          off.size() == on.size() &&
          std::memcmp(off.data(), on.data(), off.size() * sizeof(float)) == 0;
      const std::string name(scorer->name());
      std::printf("check %-24s %s\n", name.c_str(),
                  identical ? "bitwise identical" : "MISMATCH");
      gates.push_back({"bitwise_" + name, identical ? 0.0 : 1.0,
                       replay::GateOp::kAtMost, 0.0});
    }
  }

  if (max_overhead_pct > 0.0) {
    // GFLOPS is best-of-repeats, i.e. min time; taking the best across
    // trials on both sides compares two near-noise-free minima. The probe
    // is the raw-A Gemm, the GEMM entry point with the most spans per call
    // (pack_a and pack_b on top of the kernel spans the served layers
    // record).
    const auto measure = [] {
      return mm::MeasureGemmGflopsWithParams(mm::GemmParams(), 256, 256, 64,
                                             5);
    };
    double off_gflops = 0.0;
    double on_gflops = 0.0;
    for (int trial = 0; trial < std::max(1, trials); ++trial) {
      registry.SetEnabled(false);
      off_gflops = std::max(off_gflops, measure());
      registry.SetEnabled(true);
      on_gflops = std::max(on_gflops, measure());
    }
    registry.SetEnabled(false);
    const double overhead_pct = (off_gflops / on_gflops - 1.0) * 100.0;
    registry.GetGauge("obs.gemm_overhead_pct").Set(overhead_pct);
    std::printf("gemm span overhead %.2f%% (gate %.2f%%)\n", overhead_pct,
                max_overhead_pct);
    gates.push_back({"gemm_span_overhead_pct", overhead_pct,
                     replay::GateOp::kAtMost, max_overhead_pct});
  }

  // The exported workload: a few instrumented passes so every per-stage
  // histogram has samples.
  registry.SetEnabled(true);
  for (int pass = 0; pass < 3; ++pass) {
    for (const forest::DocumentScorer* scorer : scorers) {
      scorer->ScoreDataset(dataset);
    }
  }
  registry.SetEnabled(false);

  const std::string json = registry.ToJson();
  if (out != "-") {
    if (!WriteReport(out, json, /*echo=*/false)) return 1;
  } else if (const std::string error = obs::CheckJsonSyntax(json);
             !error.empty()) {
    std::fprintf(stderr, "exported stats are not valid JSON: %s\n",
                 error.c_str());
    return 1;
  } else {
    std::printf("%s", json.c_str());
  }
  return replay::ReportGates(replay::EvaluateGates(gates), "stats");
}

/// Prints a validation report with a `what: ` prefix; returns true when the
/// report has no errors (warnings are printed but do not fail).
bool PrintReport(const char* what, const dnlr::validate::Report& report) {
  std::printf("%s: %s\n", what, report.ToString().c_str());
  return report.ok();
}

int CmdValidate(const Args& args) {
  if (!args.Has("model") && !args.Has("data")) {
    std::fprintf(stderr, "validate needs --model and/or --data\n");
    return 2;
  }
  const uint32_t features =
      static_cast<uint32_t>(args.GetInt("features", 0));
  const auto max_label = static_cast<float>(args.GetDouble("max-label", 4.0));
  args.RejectUnread();
  bool ok = true;

  if (args.Has("model")) {
    const std::string path = args.Get("model", "");
    std::ifstream probe(path);
    std::string first_word;
    if (!probe || !(probe >> first_word)) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    if (first_word == "ensemble") {
      auto model = gbdt::Ensemble::LoadFromFile(path);
      if (!model.ok()) return Fail(model.status());
      validate::Report report;
      gbdt::ValidateEnsemble(*model, features,
                             validate::Checker(&report, "ensemble"));
      ok = PrintReport("ensemble", report) && ok;
      // QuickScorer eligibility is informational: wide/naive engines accept
      // ensembles the single-word QuickScorer cannot handle.
      validate::Report qs_report;
      forest::ValidateForQuickScorer(*model, features, /*max_leaves=*/64,
                                     validate::Checker(&qs_report, "ensemble"));
      std::printf("quickscorer-eligible: %s\n",
                  qs_report.ok() ? "yes" : qs_report.ToString().c_str());
    } else if (first_word == "mlp") {
      auto model = nn::Mlp::LoadFromFile(path);
      if (!model.ok()) return Fail(model.status());
      validate::Report report;
      nn::ValidateMlp(*model, validate::Checker(&report, "mlp"));
      ok = PrintReport("mlp", report) && ok;
    } else {
      std::fprintf(stderr, "unrecognized model file %s (starts with '%s')\n",
                   path.c_str(), first_word.c_str());
      return 1;
    }
  }

  if (args.Has("data")) {
    auto dataset = data::ReadLetorFile(args.Get("data", ""));
    if (!dataset.ok()) return Fail(dataset.status());
    validate::Report report;
    data::ValidateDataset(*dataset, validate::Checker(&report, "dataset"),
                          max_label);
    ok = PrintReport("dataset", report) && ok;
  }

  return ok ? 0 : 1;
}

/// Parses a --rungs spec "name:kind:us_per_doc,..." (kinds: student,
/// teacher, cascade, teacher-subset; costs non-increasing). Exits 2 on junk
/// shape; semantic validation happens in RungConfig::Serialize.
bundle::RungConfig ParseRungSpec(const std::string& csv) {
  bundle::RungConfig config;
  for (const std::string_view item : SplitAndSkipEmpty(csv, ',')) {
    const std::vector<std::string_view> fields = SplitAndSkipEmpty(item, ':');
    if (fields.size() != 3) {
      UsageError("bad rung '%.*s' in --rungs (want name:kind:us)",
                 static_cast<int>(item.size()), item.data());
    }
    config.rungs.push_back({std::string(fields[0]), std::string(fields[1]),
                            ParseNumber(std::string(fields[2]), "--rungs")});
  }
  if (config.rungs.empty()) UsageError("--rungs spec is empty");
  return config;
}

/// bundle pack: collects a teacher ensemble, a student MLP, normalizer
/// statistics (fitted on --norm-data) and a rung configuration into one
/// checksummed bundle file, written crash-safely. --binary 1 writes the v2
/// binary (mmap-able) container instead of v1 text; --in seeds the pack
/// from an existing bundle of either format, so
/// `bundle pack --in text.bundle --out fast.bundle --binary 1` converts.
int CmdBundlePack(const Args& args) {
  const std::string out = args.Require("out");
  const bool binary = args.GetInt("binary", 0) != 0;
  const std::string in = args.Get("in", "");
  const std::string teacher_path = args.Get("teacher", "");
  const std::string student_path = args.Get("student", "");
  const std::string norm_data = args.Get("norm-data", "");
  const std::string rung_spec = args.Get("rungs", "");
  args.RejectUnread();
  const std::optional<bundle::RungConfig> rungs =
      rung_spec.empty() ? std::nullopt
                        : std::optional(ParseRungSpec(rung_spec));
  bundle::ModelBundle pack;

  if (!in.empty()) {
    auto loaded = bundle::MappedBundle::Map(in);
    if (!loaded.ok()) return Fail(loaded.status());
    const Status status = bundle::RepackSections(*loaded, &pack);
    if (!status.ok()) return Fail(status);
  }
  if (!teacher_path.empty()) {
    auto teacher = gbdt::Ensemble::LoadFromFile(teacher_path);
    if (!teacher.ok()) return Fail(teacher.status());
    const Status status = pack.SetTeacher(*teacher);
    if (!status.ok()) return Fail(status);
  }
  if (!student_path.empty()) {
    auto student = nn::Mlp::LoadFromFile(student_path);
    if (!student.ok()) return Fail(student.status());
    const Status status = pack.SetStudent(*student);
    if (!status.ok()) return Fail(status);
  }
  if (!norm_data.empty()) {
    const data::Dataset dataset = LoadLetorOrDie(norm_data);
    data::ZNormalizer normalizer;
    normalizer.Fit(dataset);
    const Status status = pack.SetNormalizer(normalizer);
    if (!status.ok()) return Fail(status);
  }
  if (rungs.has_value()) {
    const Status status = pack.SetRungs(*rungs);
    if (!status.ok()) return Fail(status);
  }
  if (pack.sections().empty()) {
    std::fprintf(stderr,
                 "nothing to pack: give --in / --teacher / --student / "
                 "--norm-data / --rungs\n");
    return 2;
  }

  if (!EnsureParentDir(out)) return 1;
  const Status status = pack.SaveToFile(
      out, binary ? bundle::BundleFormat::kBinary : bundle::BundleFormat::kText);
  if (!status.ok()) return Fail(status);
  std::printf("packed %zu section(s) into %s (%s)\n", pack.sections().size(),
              out.c_str(), binary ? "binary" : "text");
  for (const bundle::Section& section : pack.sections()) {
    std::printf("  %-10s %zu bytes\n", section.name.c_str(),
                section.payload.size());
  }
  return 0;
}

/// bundle unpack: verifies a bundle and writes each section back out as the
/// standalone per-model text file it was packed from (crash-safely, so an
/// interrupted unpack never leaves torn model files either). Sections of a
/// binary bundle are decoded and re-set as text, which is bitwise
/// score-lossless.
int CmdBundleUnpack(const Args& args) {
  const std::string in = args.Require("in");
  const std::string dir = args.Get("out-dir", ".");
  args.RejectUnread();
  auto loaded = bundle::MappedBundle::Map(in);
  if (!loaded.ok()) return Fail(loaded.status());
  if (loaded->layout().empty()) {
    std::fprintf(stderr, "%s: bundle has no sections\n", in.c_str());
    return 1;
  }
  bundle::ModelBundle text;
  const Status repacked = bundle::RepackSections(*loaded, &text);
  if (!repacked.ok()) return Fail(repacked);
  for (const bundle::Section& section : text.sections()) {
    const std::string path =
        (std::filesystem::path(dir) / (section.name + ".txt")).string();
    if (!EnsureParentDir(path)) return 1;
    const Status status = AtomicWriteFile(path, section.payload);
    if (!status.ok()) return Fail(status);
    std::printf("wrote %s (%zu bytes)\n", path.c_str(),
                section.payload.size());
  }
  return 0;
}

/// Decodes and deep-validates one section of an opened bundle: "ok", or
/// what is wrong with it.
std::string VerifySection(const bundle::MappedBundle& loaded,
                          const std::string& name, uint32_t features) {
  if (name == bundle::kTeacherSection) {
    auto teacher = loaded.Teacher();
    if (!teacher.ok()) return teacher.status().ToString();
    validate::Report report;
    gbdt::ValidateEnsemble(*teacher, features,
                           validate::Checker(&report, "teacher"));
    return report.ok() ? "ok" : report.ToString();
  }
  if (name == bundle::kStudentSection) {
    auto student = loaded.Student();
    if (!student.ok()) return student.status().ToString();
    validate::Report report;
    nn::ValidateMlp(*student, validate::Checker(&report, "student"));
    return report.ok() ? "ok" : report.ToString();
  }
  if (name == bundle::kNormalizerSection) {
    auto normalizer = loaded.Normalizer();
    return normalizer.ok() ? "ok" : normalizer.status().ToString();
  }
  auto rungs = loaded.Rungs();  // the layout parsers admit no other name
  return rungs.ok() ? "ok" : rungs.status().ToString();
}

/// bundle verify: one pass over either container format. Opening checks
/// the structure (magic, version, section order, lengths; header and table
/// CRCs of a binary bundle), VerifyPayloadCrcs checks every payload, and
/// then each section is decoded and run through its invariant suite: the
/// CI gate proving a packed artifact is servable.
int CmdBundleVerify(const Args& args) {
  const std::string in = args.Require("in");
  const auto features = static_cast<uint32_t>(args.GetInt("features", 0));
  args.RejectUnread();
  auto loaded = bundle::MappedBundle::Map(in);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s: %s\n", in.c_str(),
                 loaded.status().ToString().c_str());
    return 1;
  }
  const Status crcs = loaded->VerifyPayloadCrcs();
  if (!crcs.ok()) {
    std::fprintf(stderr, "%s: %s\n", in.c_str(), crcs.ToString().c_str());
    return 1;
  }
  const bool binary = loaded->format() == bundle::BundleFormat::kBinary;
  std::printf("%s: %s, %zu bytes, payload crcs ok\n",
              binary ? "binary" : "text",
              loaded->is_mapped() ? "mapped" : "read fallback",
              loaded->file_bytes());
  bool ok = true;
  for (const bundle::SectionRange& range : loaded->layout()) {
    const std::string verdict = VerifySection(*loaded, range.name, features);
    std::printf("%-10s %8ju bytes  %s\n", range.name.c_str(),
                static_cast<uintmax_t>(range.size), verdict.c_str());
    if (verdict != "ok") ok = false;
  }
  std::printf("%s: %s (%s, %zu section(s))\n", in.c_str(),
              ok ? "bundle ok" : "bundle INVALID", binary ? "binary" : "text",
              loaded->layout().size());
  return ok ? 0 : 1;
}

/// Random tree for `bundle bench` (same construction as the bundle tests:
/// structure training rarely makes, but valid by the ensemble invariants).
gbdt::RegressionTree BenchRandomTree(Rng& rng, uint32_t leaves,
                                     uint32_t num_features) {
  if (leaves == 1) {
    return gbdt::RegressionTree({}, {rng.Normal()});
  }
  std::vector<gbdt::TreeNode> nodes;
  std::vector<double> values;
  std::function<int32_t(uint32_t)> build = [&](uint32_t budget) -> int32_t {
    if (budget == 1) {
      values.push_back(rng.Normal());
      return gbdt::TreeNode::EncodeLeaf(
          static_cast<uint32_t>(values.size() - 1));
    }
    const uint32_t left_budget =
        1 + static_cast<uint32_t>(rng.Below(budget - 1));
    const auto index = static_cast<int32_t>(nodes.size());
    nodes.push_back({});
    nodes[index].feature = static_cast<uint32_t>(rng.Below(num_features));
    nodes[index].threshold = static_cast<float>(rng.Normal(0.0, 2.0));
    const int32_t left = build(left_budget);
    nodes[index].left = left;
    const int32_t right = build(budget - left_budget);
    nodes[index].right = right;
    return index;
  };
  build(leaves);
  gbdt::RegressionTree tree(std::move(nodes), std::move(values));
  tree.NormalizeLeafOrder();
  return tree;
}

/// bundle bench: packs one randomly initialized model family as both a v1
/// text bundle and a v2 binary bundle, measures cold bundle-load +
/// model-materialization time for each through the one reader (text: map +
/// payload CRCs + parse; binary: map + bounds-checked memcpy decode; best
/// of --iters), and proves the two
/// loads materialize bitwise-identical models by comparing their canonical
/// text serializations. --min-speedup gates the binary/text load-time
/// ratio — the CI evidence for the binary format's load-time claim.
int CmdBundleBench(const Args& args) {
  const auto features = static_cast<uint32_t>(args.GetInt("features", 136));
  const auto trees = static_cast<uint32_t>(args.GetInt("trees", 300));
  const auto leaves = static_cast<uint32_t>(args.GetInt("leaves", 64));
  const std::string arch_spec = args.Get("arch", "512x256x128");
  const int iters = std::max(1, args.GetInt("iters", 7));
  const double min_speedup = args.GetDouble("min-speedup", 0.0, 0);
  const std::string dir = args.Get("dir", "out");
  const auto seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  args.RejectUnread();

  Rng rng(seed);
  gbdt::Ensemble teacher(rng.Normal());
  for (uint32_t t = 0; t < trees; ++t) {
    const auto tree_leaves = 1 + static_cast<uint32_t>(rng.Below(leaves));
    teacher.AddTree(BenchRandomTree(rng, tree_leaves, features));
  }
  auto arch = predict::Architecture::Parse(arch_spec, features);
  if (!arch.ok()) return Fail(arch.status());
  const nn::Mlp student(*arch, seed + 1);
  std::vector<float> mean(features);
  std::vector<float> stddev(features);
  for (uint32_t f = 0; f < features; ++f) {
    mean[f] = static_cast<float>(rng.Normal());
    stddev[f] = static_cast<float>(0.5 + rng.Uniform());
  }
  const data::ZNormalizer normalizer(std::move(mean), std::move(stddev));
  bundle::RungConfig rungs;
  rungs.rungs = {{"student", "student", 3.0},
                 {"cascade", "cascade", 2.0},
                 {"forest-subset", "teacher-subset", 1.0}};

  bundle::ModelBundle pack;
  Status status = pack.SetTeacher(teacher);
  if (status.ok()) status = pack.SetStudent(student);
  if (status.ok()) status = pack.SetNormalizer(normalizer);
  if (status.ok()) status = pack.SetRungs(rungs);
  const std::string text_path =
      (std::filesystem::path(dir) / "bundle_bench_text.dnlr").string();
  const std::string binary_path =
      (std::filesystem::path(dir) / "bundle_bench_binary.dnlr").string();
  if (status.ok() && !EnsureParentDir(text_path)) return 1;
  if (status.ok()) {
    status = pack.SaveToFile(text_path, bundle::BundleFormat::kText);
  }
  if (status.ok()) {
    status = pack.SaveToFile(binary_path, bundle::BundleFormat::kBinary);
  }
  if (!status.ok()) return Fail(status);

  // Canonical text serialization of every model materialized on the first
  // iteration of each leg; equal strings = bitwise-equal parameters (the
  // text codecs print max_digits10).
  const auto fingerprint =
      [](const gbdt::Ensemble& t, const nn::Mlp& s,
         const data::ZNormalizer& n,
         const bundle::RungConfig& r) -> Result<std::string> {
    auto ts = t.Serialize();
    if (!ts.ok()) return ts.status();
    auto ss = s.Serialize();
    if (!ss.ok()) return ss.status();
    auto ns = bundle::SerializeNormalizer(n);
    if (!ns.ok()) return ns.status();
    auto rs = r.Serialize();
    if (!rs.ok()) return rs.status();
    return *ts + *ss + *ns + *rs;
  };

  struct Leg {
    const char* label;
    std::string path;
    double best_us;
    bool mapped;
    std::string fingerprint;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Leg legs[] = {{"text", text_path, kInf, false, ""},
                {"binary", binary_path, kInf, false, ""}};
  using Clock = std::chrono::steady_clock;
  // The legs alternate within each iteration, so both are timed against
  // the same allocator history rather than the second leg inheriting
  // whatever heap state the first leg's loads left behind.
  for (int i = 0; i < iters; ++i) {
    for (Leg& leg : legs) {
      const auto start = Clock::now();
      auto loaded = bundle::MappedBundle::Map(leg.path);
      if (!loaded.ok()) return Fail(loaded.status());
      auto lt = loaded->Teacher();
      auto ls = loaded->Student();
      auto ln = loaded->Normalizer();
      auto lr = loaded->Rungs();
      if (!lt.ok() || !ls.ok() || !ln.ok() || !lr.ok()) {
        std::fprintf(stderr, "%s load failed to materialize a model\n",
                     leg.label);
        return 1;
      }
      const auto elapsed = std::chrono::duration<double, std::micro>(
                               Clock::now() - start)
                               .count();
      leg.best_us = std::min(leg.best_us, elapsed);
      leg.mapped = loaded->is_mapped();
      if (i == 0) {
        auto fp = fingerprint(*lt, *ls, *ln, *lr);
        if (!fp.ok()) return Fail(fp.status());
        leg.fingerprint = std::move(*fp);
      }
    }
  }
  for (const Leg& leg : legs) {
    std::printf("%-7s %10ju bytes  load %10.1f us  (%s, %s)\n", leg.label,
                static_cast<uintmax_t>(std::filesystem::file_size(leg.path)),
                leg.best_us, leg.path.c_str(),
                leg.mapped ? "mmap" : "read fallback");
  }
  const double speedup = legs[0].best_us / legs[1].best_us;
  const bool identical = legs[0].fingerprint == legs[1].fingerprint;
  std::printf("speedup %.1fx, models %s\n", speedup,
              identical ? "bitwise identical" : "DIFFER");
  return replay::ReportGates(
      replay::EvaluateGates(
          {{"bitwise_identical", identical ? 0.0 : 1.0,
            replay::GateOp::kAtMost, 0.0},
           {"min_speedup", speedup, replay::GateOp::kAtLeast, min_speedup}}),
      "bundle bench");
}

int CmdBundle(const std::string& sub, const Args& args) {
  if (sub == "pack") return CmdBundlePack(args);
  if (sub == "unpack") return CmdBundleUnpack(args);
  if (sub == "verify") return CmdBundleVerify(args);
  if (sub == "bench") return CmdBundleBench(args);
  std::fprintf(stderr, "unknown bundle subcommand '%s' "
                       "(want pack|unpack|verify|bench)\n", sub.c_str());
  return 2;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: dnlr_cli <command> [--flag value ...]\n"
      "  gen           --out F [--queries N] [--features K] [--style "
      "msn|istella] [--seed S]\n"
      "  train-forest  --train F --out M [--valid F] [--trees N] [--leaves L]"
      " [--lr R] [--min-docs N] [--l2 X] [--tune T]\n"
      "  distill       --train F --teacher M --arch AxBxC --out M [--prune "
      "0.97] [--epochs E] [--batch B] [--lr R]\n"
      "  score         --model M --data F [--out F|-] [--engine "
      "auto|qs|vqs|wide|naive|dense|hybrid] [--time 1]\n"
      "  evaluate      --model M --data F [--engine ...]\n"
      "  predict-time  --arch AxBxC [--features K] [--batch N] [--sparsity "
      "S]\n"
      "  validate      [--model M] [--data F] [--features K] [--max-label "
      "L]\n"
      "  serve flags   [--queries N] [--features K] [--workers W] "
      "[--deadline-us U] [--queue Q] [--seed S] [--out F]: every serve-bench"
      " mode and soak-bench\n"
      "  serve-bench   [--requests N] [--trees N] "
      "[--fault-rate P] [--spike-rate P] [--spike-us U] [--nan-rate P] "
      "[--obs 1] [--obs-out F]\n"
      "  serve-bench   --reload-every N [--requests N] [--trees N] "
      "[--bundle F] [--binary 1]\n"
      "  serve-bench   --shards N [--tenants M] [--abusive-tenant T] "
      "[--soak-ms D] [--baseline-ms D] [--pace-us U] [--quota-rate R] "
      "[--quota-burst B] [--fault-rate P] [--burst-trigger P] [--burst-len N]"
      " [--zipf-exponent S] [--p99-ratio X] [--p99-floor-us U] "
      "[--max-error-rate P] [--admit-slack X]: every shard serves the "
      "fixture bundle, written beside --out\n"
      "  soak-bench    [--duration-ms D] [--qps R] [--reload-every-ms D] "
      "[--poison-every N] [--trees N] [--bundle F] [--fault-rate P] "
      "[--zipf-exponent S] [--diurnal-amplitude A] [--diurnal-period-ms D] "
      "[--burst-probability P] [--cache-capacity N] [--cache-shards N] "
      "[--min-hit-rate R] [--max-shed-rate R] [--max-p99-us U] [--letor F]\n"
      "  bundle pack   --out B [--in B] [--binary 1] [--teacher M] "
      "[--student M] [--norm-data F] [--rungs name:kind:us,...]\n"
      "  bundle unpack --in B [--out-dir D]\n"
      "  bundle verify --in B [--features K]\n"
      "  bundle bench  [--trees N] [--leaves L] [--arch AxBxC] [--features K] "
      "[--iters I] [--min-speedup X] [--dir D] [--seed S]\n"
      "  bench-scaling [--configs small,large] [--threads 1,2,4] "
      "[--arch AxBxC] [--features K] [--queries N] [--sparsity S] "
      "[--repeats R] [--seed S] [--min-t2-ratio R] "
      "[--min-t2-ratio-small R] [--obs 1] [--obs-out F] [--out F]\n"
      "  stats         [--in F] [--check 1] [--max-overhead-pct X] "
      "[--trials T] [--features K] [--queries N] [--seed S] [--out F|-]\n");
  return 2;
}

}  // namespace
}  // namespace dnlr::cli

int main(int argc, char** argv) {
  using namespace dnlr::cli;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "bundle") {
    if (argc < 3) return Usage();
    return CmdBundle(argv[2], Args(argc, argv, 3));
  }
  const Args args(argc, argv, 2);
  if (command == "gen") return CmdGen(args);
  if (command == "train-forest") return CmdTrainForest(args);
  if (command == "distill") return CmdDistill(args);
  if (command == "score") return CmdScore(args);
  if (command == "evaluate") return CmdEvaluate(args);
  if (command == "predict-time") return CmdPredictTime(args);
  if (command == "validate") return CmdValidate(args);
  if (command == "serve-bench") return CmdServeBench(args);
  if (command == "soak-bench") return CmdSoakBench(args);
  if (command == "bench-scaling") return CmdBenchScaling(args);
  if (command == "stats") return CmdStats(args);
  return Usage();
}
