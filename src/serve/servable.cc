#include "serve/servable.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/cascade.h"
#include "forest/quickscorer.h"
#include "gbdt/ensemble.h"
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
  std::optional<gbdt::Ensemble> teacher;
  if (needs_teacher || needs_subset) {
    Result<gbdt::Ensemble> decoded = bundle.Teacher();
    if (!decoded.ok()) return decoded.status();
    DNLR_RETURN_IF_ERROR(gbdt::ValidateEnsemble(*decoded, num_features_));
    teacher.emplace(std::move(decoded).value());
  }

  // Scorers shared across rungs are built once; heap storage keeps their
  // addresses stable for the ladder's and the cascade's borrows.
  nn::NeuralScorerConfig nn_config;
  nn_config.pool = options.pool;
  // The caller's threshold can only raise the scorer's two-batch floor.
  nn_config.min_parallel_docs =
      std::max(nn_config.min_parallel_docs, options.min_parallel_docs);
  const auto keep = [&](std::unique_ptr<forest::DocumentScorer> scorer) {
    doc_scorers_.push_back(std::move(scorer));
    return doc_scorers_.back().get();
  };
  const forest::DocumentScorer* student_scorer =
      needs_student
          ? keep(nn::MakeStudentScorer(
                *student_model,
                normalizer_.has_value() ? &*normalizer_ : nullptr, nn_config))
          : nullptr;
  const forest::DocumentScorer* teacher_scorer =
      needs_teacher ? keep(forest::MakeForestScorer(*teacher, num_features_))
                    : nullptr;
  const forest::DocumentScorer* subset_scorer =
      needs_subset ? keep(forest::MakeForestScorer(
                         gbdt::TeacherSubset(*teacher), num_features_))
                   : nullptr;
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
        cascade_scorer = keep(std::make_unique<core::CascadeScorer>(
            subset_scorer, student_scorer, kServedCascadeRescoreFraction));
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
