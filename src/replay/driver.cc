#include "replay/driver.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <sstream>
#include <string_view>

#include "bundle/bundle.h"
#include "core/timing.h"
#include "data/synthetic.h"
#include "forest/quickscorer.h"
#include "gbdt/booster.h"
#include "nn/scorer.h"
#include "obs/metrics.h"
#include "predict/architecture.h"
#include "prune/magnitude.h"
#include "serve/latency.h"

namespace dnlr::replay {
namespace {

data::ZNormalizer FitNormalizer(const data::Dataset& dataset) {
  data::ZNormalizer normalizer;
  normalizer.Fit(dataset);
  return normalizer;
}

LatencySummary SummarizeLatencies(const std::vector<double>& micros) {
  return {micros.size(), serve::Percentile(micros, 50),
          serve::Percentile(micros, 95), serve::Percentile(micros, 99)};
}

Gate AtLeast(const char* name, double value, double bound) {
  return {name, value, GateOp::kAtLeast, bound};
}
Gate AtMost(const char* name, double value, double bound) {
  return {name, value, GateOp::kAtMost, bound};
}
double Count(uint64_t n) { return static_cast<double>(n); }

/// A random {64, 32} student with layer 0 level-pruned to 98% zeros, so
/// nn::MakeStudentScorer serves it on the hybrid sparse/dense engine.
nn::Mlp PrunedStudent(uint32_t features, uint64_t seed) {
  nn::Mlp student(predict::Architecture(features, {64, 32}), seed);
  nn::WeightMasks masks = prune::MakeDenseMasks(student);
  prune::LevelPruneLayer(&student, 0, 0.98, &masks);
  return student;
}

/// A serving rung seen as a DocumentScorer, so a FaultInjectingScorer can
/// wrap it. Only for rungs that never fail (Servable's adapters).
class RungScorer final : public forest::DocumentScorer {
 public:
  explicit RungScorer(const serve::FallibleScorer* rung) : rung_(rung) {}
  std::string_view name() const override { return rung_->name(); }
  void Score(const float* docs, uint32_t count, uint32_t stride,
             float* out) const override {
    DNLR_CHECK(rung_->TryScore(docs, count, stride, out).ok());
  }

 private:
  const serve::FallibleScorer* rung_;
};

/// What a fault-injected generation owns: the clean generation whose
/// scorers it serves, the injectors over its faulted rungs, and the ladder.
struct FaultInjectedGeneration {
  explicit FaultInjectedGeneration(
      std::shared_ptr<const serve::DegradationLadder> loaded)
      : clean(std::move(loaded)) {}

  std::shared_ptr<const serve::DegradationLadder> clean;
  // Deques: each injector borrows a stable RungScorer element.
  std::deque<RungScorer> rungs;
  std::deque<serve::FaultInjectingScorer> injectors;
  serve::DegradationLadder ladder;
};

}  // namespace

serve::ServingConfig ServeConfig::Engine() const {
  serve::ServingConfig engine;
  engine.num_workers = static_cast<uint32_t>(workers);
  engine.queue_capacity = static_cast<uint32_t>(queue_capacity);
  return engine;
}

data::Dataset SyntheticCorpus(uint32_t queries, uint32_t features,
                              uint64_t seed) {
  data::SyntheticConfig synth = data::SyntheticConfig::MsnLike(1.0);
  synth.num_queries = queries;
  synth.num_features = features;
  synth.seed = seed;
  data::Dataset dataset = data::GenerateSynthetic(synth);
  std::fprintf(stderr, "corpus: %u docs / %u queries / %u features\n",
               dataset.num_docs(), dataset.num_queries(),
               dataset.num_features());
  return dataset;
}

gbdt::Ensemble TrainForest(const data::Dataset& dataset, uint32_t trees,
                           uint32_t leaves) {
  gbdt::BoosterConfig bc;
  bc.num_trees = trees;
  bc.num_leaves = leaves;
  std::fprintf(stderr, "training %u-tree forest...\n", trees);
  return gbdt::Booster(bc).TrainLambdaMart(dataset, nullptr);
}

// ---- Bundle fixture ------------------------------------------------------

BundleFixture::BundleFixture(const ServeConfig& serve,
                             const FixtureConfig& config)
    : config_(config),
      features_(static_cast<uint32_t>(serve.features)),
      seed_(serve.seed),
      dataset_(SyntheticCorpus(static_cast<uint32_t>(serve.queries),
                               features_, seed_)),
      teacher_(TrainForest(dataset_, static_cast<uint32_t>(config.trees), 16)),
      student_(PrunedStudent(features_, seed_ + 1)),
      normalizer_(FitNormalizer(dataset_)) {
  options_.num_features = features_;
}

Result<std::unique_ptr<BundleFixture>> BundleFixture::Create(
    const ServeConfig& serve, const FixtureConfig& config) {
  // NOLINTNEXTLINE(dnlr-raw-alloc): private constructor, owned at once
  std::unique_ptr<BundleFixture> fixture(new BundleFixture(serve, config));
  DNLR_RETURN_IF_ERROR(fixture->Pack());
  auto ladder = fixture->LoadLadder(config.bundle_path);
  if (!ladder.ok()) return ladder.status();
  fixture->initial_ = std::move(ladder).value();
  const data::Dataset& data = fixture->dataset_;
  auto golden = serve::CaptureGoldenScores(
      *fixture->initial_, data.Row(data.QueryBegin(0)),
      std::min(data.QuerySize(0), 64u), fixture->features_);
  if (!golden.ok()) return golden.status();
  fixture->golden_ = std::move(golden).value();
  return fixture;
}

Status BundleFixture::Pack() {
  // Rung costs are measured on the engines Servable will build.
  const double student_cost = core::MeasureScorerMicrosPerDocSynthetic(
      *nn::MakeStudentScorer(student_, &normalizer_), 2048, features_);
  const double subset_cost = core::MeasureScorerMicrosPerDocSynthetic(
      *forest::MakeForestScorer(gbdt::TeacherSubset(teacher_), features_),
      2048, features_);
  double costs[3] = {student_cost,
                     serve::PredictCascadeMicrosPerDoc(
                         subset_cost, student_cost,
                         serve::kServedCascadeRescoreFraction),
                     subset_cost};
  // The ladder (and the bundle's rung grammar) require non-increasing costs.
  // Clamping upward from the floor budgets no rung below what it measured;
  // the cascade (subset + a share of the student) stays dearer than the
  // floor, so a budget can always tell the two apart.
  for (int i = 1; i >= 0; --i) costs[i] = std::max(costs[i], costs[i + 1]);
  bundle::RungConfig rungs;
  rungs.rungs = {{"student", "student", costs[0]},
                 {"cascade", "cascade", costs[1]},
                 {"forest-subset", "teacher-subset", costs[2]}};
  bundle::ModelBundle pack;
  DNLR_RETURN_IF_ERROR(pack.SetTeacher(teacher_));
  DNLR_RETURN_IF_ERROR(pack.SetStudent(student_));
  DNLR_RETURN_IF_ERROR(pack.SetNormalizer(normalizer_));
  DNLR_RETURN_IF_ERROR(pack.SetRungs(rungs));
  if (!EnsureParentDir(config_.bundle_path)) {
    return Status::IoError("no directory for " + config_.bundle_path);
  }
  DNLR_RETURN_IF_ERROR(pack.SaveToFile(config_.bundle_path));
  reload_path_ = config_.bundle_path;
  if (config_.binary_twin) {
    reload_path_ = config_.bundle_path + ".bin";
    DNLR_RETURN_IF_ERROR(
        pack.SaveToFile(reload_path_, bundle::BundleFormat::kBinary));
  }
  if (config_.poisoned_twin) {
    DNLR_RETURN_IF_ERROR(
        pack.SetStudent(PrunedStudent(features_, seed_ + 999)));
    DNLR_RETURN_IF_ERROR(pack.SaveToFile(poison_path()));
  }
  std::fprintf(stderr, "packed bundle %s%s%s\n", config_.bundle_path.c_str(),
               config_.binary_twin ? " (+ binary twin)" : "",
               config_.poisoned_twin ? " (+ poisoned twin)" : "");
  return Status::Ok();
}

Result<std::shared_ptr<const serve::DegradationLadder>>
BundleFixture::LoadLadder(const std::string& path) const {
  auto servable = serve::Servable::LoadFromFile(path, options_);
  if (!servable.ok()) return servable.status();
  return serve::Servable::LadderHandle(std::move(servable).value());
}

Result<std::shared_ptr<const serve::DegradationLadder>>
BundleFixture::FaultInjectedLadder(
    const serve::FaultInjectionConfig& faults) const {
  auto clean = LoadLadder(config_.bundle_path);
  if (!clean.ok()) return clean.status();
  auto generation =
      std::make_shared<FaultInjectedGeneration>(std::move(clean).value());
  for (size_t i = 0; i < generation->clean->num_rungs(); ++i) {
    const serve::Rung& rung = generation->clean->rung(i);
    const serve::FallibleScorer* scorer = rung.scorer;
    if (i == 0) {
      generation->injectors.emplace_back(
          &generation->rungs.emplace_back(rung.scorer), faults);
      scorer = &generation->injectors.back();
    } else if (generation->injectors.front().burst_state() != nullptr) {
      // Bursts only: the lower rungs share rung 0's schedule and spike.
      generation->injectors.emplace_back(
          &generation->rungs.emplace_back(rung.scorer),
          serve::FaultInjectionConfig{.spike_micros = faults.spike_micros},
          generation->injectors.front().burst_state());
      scorer = &generation->injectors.back();
    }
    DNLR_RETURN_IF_ERROR(generation->ladder.AddRung(
        rung.name, scorer, rung.predicted_us_per_doc));
  }
  const serve::DegradationLadder* ladder = &generation->ladder;
  return std::shared_ptr<const serve::DegradationLadder>(std::move(generation),
                                                         ladder);
}

serve::ServingEngine::SwapValidator BundleFixture::GoldenGate() const {
  return [this](const serve::DegradationLadder& ladder) {
    return serve::RunGoldenSmoke(ladder, dataset_.Row(dataset_.QueryBegin(0)),
                                 std::min(dataset_.QuerySize(0), 64u),
                                 features_, &golden_);
  };
}

Status BundleFixture::Reload(serve::ServingEngine& engine,
                             const std::string& path) const {
  auto candidate = LoadLadder(path);
  if (!candidate.ok()) return candidate.status();
  return engine.SwapModel(std::move(candidate).value(), GoldenGate());
}

bool BundleFixture::PoisonRejected(serve::ServingEngine& engine) const {
  auto candidate = LoadLadder(poison_path());
  if (!candidate.ok()) {
    std::fprintf(stderr, "poison: %s\n", candidate.status().ToString().c_str());
    return false;
  }
  return !engine.SwapModel(std::move(candidate).value(), GoldenGate()).ok();
}

// ---- Request loop --------------------------------------------------------

bool RoundRobinSource::Next(serve::ServeRequest* request) {
  if (next_ >= requests_) return false;
  const auto q = static_cast<uint32_t>(next_++ % dataset_.num_queries());
  request->docs = dataset_.Row(dataset_.QueryBegin(q));
  request->count = dataset_.QuerySize(q);
  request->stride = dataset_.num_features();
  return true;
}

ReplaySource::ReplaySource(const data::Dataset& dataset,
                           const WorkloadConfig& config, Clock& clock,
                           uint64_t duration_micros)
    : dataset_(dataset),
      workload_(config),
      clock_(clock),
      start_micros_(clock.NowMicros()),
      end_micros_(start_micros_ + duration_micros) {}

bool ReplaySource::Next(serve::ServeRequest* request) {
  if (clock_.NowMicros() >= end_micros_) return false;
  const Arrival arrival = workload_.Next();
  SleepUntilDue(clock_, start_micros_, arrival);
  if (clock_.NowMicros() >= end_micros_) return false;
  arrivals_in_burst_ += arrival.in_burst ? 1 : 0;
  const uint32_t features = dataset_.num_features();
  std::vector<float>& buf =
      buffers_[std::make_pair(arrival.query, arrival.candidate_docs)];
  if (buf.empty()) {
    buf.resize(static_cast<size_t>(arrival.candidate_docs) * features);
    const uint32_t base = dataset_.QueryBegin(arrival.query);
    const uint32_t size = dataset_.QuerySize(arrival.query);
    for (uint32_t i = 0; i < arrival.candidate_docs; ++i) {
      const float* row = dataset_.Row(base + (i % size));
      std::copy(row, row + features,
                buf.begin() + static_cast<ptrdiff_t>(i) * features);
    }
  }
  request->docs = buf.data();
  request->count = arrival.candidate_docs;
  request->stride = features;
  return true;
}

std::vector<serve::ServeResponse> DriveTraffic(
    serve::ServingEngine& engine, ArrivalSource& source,
    const ServeConfig& config,
    const std::function<void(uint64_t submitted)>& after_submit) {
  const auto window = static_cast<size_t>(config.workers) * 4;
  std::deque<std::future<serve::ServeResponse>> inflight;
  std::vector<serve::ServeResponse> responses;
  serve::ServeRequest request;
  uint64_t submitted = 0;
  while (source.Next(&request)) {
    request.deadline =
        serve::Deadline::AfterMicros(engine.clock(), config.deadline_us);
    inflight.push_back(engine.Submit(request));
    if (inflight.size() >= window) {
      responses.push_back(inflight.front().get());
      inflight.pop_front();
    }
    if (after_submit) after_submit(++submitted);
  }
  for (auto& future : inflight) responses.push_back(future.get());
  return responses;
}

// ---- Response summary ----------------------------------------------------

ResponseSummary SummarizeResponses(
    const std::vector<serve::ServeResponse>& responses, size_t num_rungs,
    uint64_t deadline_us) {
  ResponseSummary summary;
  summary.submitted = responses.size();
  uint64_t min_version = std::numeric_limits<uint64_t>::max();
  std::vector<double> overall;
  std::vector<std::vector<double>> rungs(num_rungs);
  for (const serve::ServeResponse& resp : responses) {
    if (!resp.status.ok()) {
      ++summary.failed;
      continue;
    }
    ++summary.ok;
    const auto micros = static_cast<double>(resp.total_micros);
    overall.push_back(micros);
    if (resp.total_micros <= deadline_us) ++summary.within_deadline;
    min_version = std::min(min_version, resp.model_version);
    summary.max_version = std::max(summary.max_version, resp.model_version);
    if (resp.cache_hit) {
      ++summary.cache_hits;
    } else if (resp.rung >= 0 && static_cast<size_t>(resp.rung) < num_rungs) {
      rungs[static_cast<size_t>(resp.rung)].push_back(micros);
    }
  }
  if (summary.ok > 0) summary.min_version = min_version;
  summary.overall = SummarizeLatencies(overall);
  for (const std::vector<double>& rung : rungs) {
    summary.rungs.push_back(SummarizeLatencies(rung));
  }
  return summary;
}

// ---- Gate table ----------------------------------------------------------

GateVerdict EvaluateGates(const std::vector<Gate>& gates) {
  // Verdict per name in first-appearance order.
  std::vector<std::pair<std::string, bool>> fields;
  GateVerdict verdict;
  for (const Gate& gate : gates) {
    const bool holds = gate.Holds();
    auto it = std::find_if(fields.begin(), fields.end(),
                           [&](const auto& f) { return f.first == gate.name; });
    if (it == fields.end()) {
      fields.emplace_back(gate.name, holds);
    } else {
      it->second = it->second && holds;
    }
    if (!holds) verdict.failed.push_back(gate);
  }
  verdict.pass = verdict.failed.empty();
  std::ostringstream json;
  json << "{";
  for (const auto& [name, holds] : fields) {
    json << "\"" << name << "\": " << (holds ? "true" : "false") << ", ";
  }
  json << "\"pass\": " << (verdict.pass ? "true" : "false") << "}";
  verdict.json = json.str();
  return verdict;
}

std::vector<Gate> ReloadGates(const serve::ServeCountersSnapshot& counters,
                              uint64_t reload_failures,
                              uint64_t failed_requests) {
  return {AtLeast("swaps_completed", Count(counters.swaps_completed), 1),
          AtMost("zero_rejected_swaps", Count(counters.swaps_rejected), 0),
          AtMost("zero_reload_failures", Count(reload_failures), 0),
          AtMost("zero_failed_requests", Count(failed_requests), 0)};
}

std::vector<Gate> ShardedGates(const ShardedOutcome& outcome) {
  std::vector<Gate> gates = {
      AtLeast("abusive_quota_rejected", Count(outcome.abusive_quota_rejected),
              1),
      AtMost("abusive_admission_bounded", Count(outcome.abusive_admitted),
             outcome.admit_budget)};
  for (const TenantOutcome& tenant : outcome.tenants) {
    if (tenant.abusive) continue;  // judged by the quota rows above
    gates.push_back(AtMost("tenant_p99_within_budget", tenant.p99_us,
                           tenant.p99_budget_us));
    gates.push_back(AtMost("tenant_errors_within_budget", tenant.error_rate,
                           outcome.max_error_rate));
  }
  gates.push_back(AtLeast("shard_quarantined", Count(outcome.quarantines), 1));
  gates.push_back(AtLeast("shard_readmitted", Count(outcome.readmissions), 1));
  gates.push_back(AtMost("zero_failed_swaps", Count(outcome.failed_swaps), 0));
  return gates;
}

std::vector<Gate> SoakGates(const SoakOutcome& outcome) {
  double worst_gated_p99 = 0.0;
  for (const LatencySummary& rung : outcome.rungs) {
    if (rung.count >= kMinGatedRungSamples) {
      worst_gated_p99 = std::max(worst_gated_p99, rung.p99_us);
    }
  }
  return {
      AtLeast("cache_hit_rate", outcome.hit_rate, outcome.min_hit_rate),
      AtMost("shed_rate", outcome.shed_rate, outcome.max_shed_rate),
      AtMost("zero_failures", Count(outcome.failed), 0),
      AtMost("rung_p99", worst_gated_p99, outcome.max_p99_us),
      AtMost("reloads_lossless", Count(outcome.good_reload_failures), 0),
      AtLeast("reloads_lossless", Count(outcome.swaps_completed), 2),
      AtLeast("poison_rejected", Count(outcome.poison_attempts), 1),
      AtMost("poison_rejected",
             Count(outcome.poison_attempts) - Count(outcome.poison_rejected),
             0),
      AtMost("fault_swaps", Count(outcome.fault_swap_failures), 0),
      AtLeast("stale_rejected", Count(outcome.stale_rejects), 1),
      AtLeast("cache_parity", Count(outcome.parity_queries), 1),
      AtMost("cache_parity", Count(outcome.parity_mismatches), 0),
      AtMost("cache_parity", Count(outcome.parity_missed_hits), 0),
      AtLeast("letor_stream", Count(outcome.letor_queries), 1),
      AtMost("letor_stream", Count(outcome.letor_failures), 0)};
}

// ---- Report writer -------------------------------------------------------

bool EnsureParentDir(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (parent.empty()) return true;
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create directory %s: %s\n",
                 parent.string().c_str(), ec.message().c_str());
    return false;
  }
  return true;
}

bool WriteReport(const std::string& path, const std::string& json,
                 bool echo) {
  const std::string error = obs::CheckJsonSyntax(json);
  if (!error.empty()) {
    std::fprintf(stderr, "report %s is not valid JSON: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  if (!EnsureParentDir(path)) return false;
  std::ofstream file(path);
  file << json;
  if (!file) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  if (echo) std::printf("%s", json.c_str());
  std::printf("wrote %s\n", path.c_str());
  return true;
}

int ReportGates(const GateVerdict& verdict, const char* what) {
  for (const Gate& gate : verdict.failed) {
    std::fprintf(stderr, "FAIL [%s] %s: %.6g, bound %s %.6g\n", what,
                 gate.name.c_str(), gate.value,
                 gate.op == GateOp::kAtLeast ? ">=" : "<=", gate.bound);
  }
  std::fprintf(stderr, "%s gate %s\n", what,
               verdict.pass ? "passed" : "FAILED");
  return verdict.pass ? 0 : 1;
}

int FinishGatedReport(const std::string& path, const std::string& json,
                      const GateVerdict& verdict, const char* what) {
  if (!WriteReport(path, json)) return 1;
  return ReportGates(verdict, what);
}

}  // namespace dnlr::replay
