#include "serve/servable.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/cascade.h"
#include "forest/quickscorer.h"
#include "forest/wide_quickscorer.h"
#include "gbdt/validate.h"
#include "nn/scorer.h"
#include "nn/validate.h"

namespace dnlr::serve {

Result<std::unique_ptr<Servable>> Servable::FromBundle(
    const bundle::MappedBundle& bundle, const ServableOptions& options) {
  // NOLINTNEXTLINE(dnlr-raw-alloc): private ctor blocks make_unique; unique_ptr takes ownership immediately
  std::unique_ptr<Servable> servable(new Servable());
  Status status = servable->Build(bundle, options);
  if (!status.ok()) return status;
  return servable;
}

Result<std::unique_ptr<Servable>> Servable::LoadFromFile(
    const std::string& path, const ServableOptions& options) {
  Result<bundle::MappedBundle> bundle =
      bundle::MappedBundle::Map(path, options.prefer_mmap);
  if (!bundle.ok()) return bundle.status();
  return FromBundle(*bundle, options);
}

Status Servable::Build(const bundle::MappedBundle& bundle,
                       const ServableOptions& options) {
  if (options.cascade_rescore_fraction <= 0.0 ||
      options.cascade_rescore_fraction > 1.0) {
    return Status::InvalidArgument(
        "servable: cascade_rescore_fraction must be in (0, 1]");
  }
  if (options.subset_tree_divisor == 0) {
    return Status::InvalidArgument(
        "servable: subset_tree_divisor must be >= 1");
  }

  Result<bundle::RungConfig> rungs = bundle.Rungs();
  if (!rungs.ok()) return rungs.status();
  rung_config_ = std::move(rungs).value();
  if (rung_config_.rungs.empty()) {
    return Status::InvalidArgument(
        "servable: bundle rung config declares no rungs");
  }

  bool needs_student = false;
  bool needs_teacher = false;
  bool needs_subset = false;
  for (const bundle::RungSpec& spec : rung_config_.rungs) {
    if (spec.kind == "student") {
      needs_student = true;
    } else if (spec.kind == "teacher") {
      needs_teacher = true;
    } else if (spec.kind == "cascade") {
      needs_student = needs_subset = true;
    } else if (spec.kind == "teacher-subset") {
      needs_subset = true;
    } else {
      return Status::InvalidArgument("servable: unknown rung kind '" +
                                     spec.kind + "' in rung '" + spec.name +
                                     "'");
    }
  }

  if (bundle.HasSection(bundle::kNormalizerSection)) {
    Result<data::ZNormalizer> normalizer = bundle.Normalizer();
    if (!normalizer.ok()) return normalizer.status();
    normalizer_ = std::move(normalizer).value();
  }

  num_features_ = options.num_features;
  if (num_features_ == 0) {
    if (!normalizer_.has_value()) {
      return Status::InvalidArgument(
          "servable: num_features not given and the bundle carries no "
          "normalizer to derive it from");
    }
    num_features_ = static_cast<uint32_t>(normalizer_->mean().size());
  }
  if (normalizer_.has_value() &&
      normalizer_->mean().size() != num_features_) {
    return Status::InvalidArgument(
        "servable: normalizer covers " +
        std::to_string(normalizer_->mean().size()) +
        " features, rungs score " + std::to_string(num_features_));
  }

  // Models are validated explicitly: parse-time validation is debug-only,
  // and a hot swap must never promote a model that breaks the invariant
  // suite into the serving path.
  std::optional<nn::Mlp> student_model;
  if (needs_student) {
    Result<nn::Mlp> student = bundle.Student();
    if (!student.ok()) return student.status();
    DNLR_RETURN_IF_ERROR(nn::ValidateMlp(*student));
    if (student->arch().input_dim != num_features_) {
      return Status::InvalidArgument(
          "servable: student expects " +
          std::to_string(student->arch().input_dim) + " features, rungs score " +
          std::to_string(num_features_));
    }
    student_model.emplace(std::move(student).value());
  }
  if (needs_teacher || needs_subset) {
    Result<gbdt::Ensemble> teacher = bundle.Teacher();
    if (!teacher.ok()) return teacher.status();
    DNLR_RETURN_IF_ERROR(gbdt::ValidateEnsemble(*teacher, num_features_));
    teacher_ = std::move(teacher).value();
  }
  if (needs_subset) {
    subset_.emplace(teacher_->base_score());
    const uint32_t keep = std::max(
        1u, teacher_->num_trees() / options.subset_tree_divisor);
    for (uint32_t t = 0; t < keep && t < teacher_->num_trees(); ++t) {
      subset_->AddTree(teacher_->tree(t));
    }
  }

  // Scorers shared across rungs are built once; heap storage keeps their
  // addresses stable for the ladder's and the cascade's borrows.
  nn::NeuralScorerConfig nn_config;
  nn_config.pool = options.pool;
  // The crossover threshold rides along so a caller that measured
  // "parallelism never wins here" gets serial rungs, not taxed ones.
  nn_config.min_parallel_docs =
      std::max(nn_config.min_parallel_docs, options.min_parallel_docs);
  const data::ZNormalizer* normalizer =
      normalizer_.has_value() ? &*normalizer_ : nullptr;

  const auto make_forest_scorer =
      [&](const gbdt::Ensemble& model) -> const forest::DocumentScorer* {
    if (model.MaxLeaves() > 64) {
      doc_scorers_.push_back(
          std::make_unique<forest::WideQuickScorer>(model, num_features_));
    } else {
      doc_scorers_.push_back(
          std::make_unique<forest::QuickScorer>(model, num_features_));
    }
    return doc_scorers_.back().get();
  };

  const forest::DocumentScorer* student_scorer = nullptr;
  if (needs_student) {
    // The paper's deployment split: a heavily pruned first layer runs on
    // the sparse engine, an unpruned student on the dense one.
    if (student_model->layer(0).weight.Sparsity() >= 0.5) {
      doc_scorers_.push_back(std::make_unique<nn::HybridNeuralScorer>(
          *student_model, normalizer, nn_config));
    } else {
      doc_scorers_.push_back(std::make_unique<nn::NeuralScorer>(
          *student_model, normalizer, nn_config));
    }
    student_scorer = doc_scorers_.back().get();
  }
  const forest::DocumentScorer* teacher_scorer =
      needs_teacher ? make_forest_scorer(*teacher_) : nullptr;
  const forest::DocumentScorer* subset_scorer =
      needs_subset ? make_forest_scorer(*subset_) : nullptr;
  const forest::DocumentScorer* cascade_scorer = nullptr;

  for (const bundle::RungSpec& spec : rung_config_.rungs) {
    const forest::DocumentScorer* scorer = nullptr;
    if (spec.kind == "student") {
      scorer = student_scorer;
    } else if (spec.kind == "teacher") {
      scorer = teacher_scorer;
    } else if (spec.kind == "teacher-subset") {
      scorer = subset_scorer;
    } else {  // "cascade", the only kind left after the scan above
      if (cascade_scorer == nullptr) {
        doc_scorers_.push_back(std::make_unique<core::CascadeScorer>(
            subset_scorer, student_scorer,
            options.cascade_rescore_fraction));
        cascade_scorer = doc_scorers_.back().get();
      }
      scorer = cascade_scorer;
    }
    fallible_scorers_.push_back(
        std::make_unique<InfallibleScorerAdapter>(scorer));
    DNLR_RETURN_IF_ERROR(ladder_.AddRung(
        spec.name, fallible_scorers_.back().get(), spec.us_per_doc));
  }
  return Status::Ok();
}

}  // namespace dnlr::serve
