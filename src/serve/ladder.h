#ifndef DNLR_SERVE_LADDER_H_
#define DNLR_SERVE_LADDER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "predict/network_time.h"
#include "serve/scorer.h"

namespace dnlr::serve {

/// One rung of the degradation ladder: a scorer plus the per-document cost
/// the engine budgets with (a bundle's rung cost, measured or predicted
/// offline). Rung selection is the online counterpart of the paper's
/// design-by-prediction methodology (Section 6.1): pick the strongest model
/// whose predicted time fits the budget.
struct Rung {
  std::string name;
  const FallibleScorer* scorer = nullptr;
  double predicted_us_per_doc = 0.0;
};

/// An ordered list of scoring configurations, strongest (most expensive,
/// highest quality) first — e.g. the distilled student, an early-exit
/// cascade, a first-stage-only tree subset. The engine walks down the ladder
/// when budget runs short or a rung faults; the last rung is the
/// always-answer floor.
class DegradationLadder {
 public:
  /// Appends a rung. Rungs must be appended strongest-first: a rung more
  /// expensive than its predecessor can never be chosen as a fallback and is
  /// rejected as InvalidArgument, as are null scorers and non-finite or
  /// negative costs. Scorers are not owned and must outlive the ladder.
  Status AddRung(std::string name, const FallibleScorer* scorer,
                 double predicted_us_per_doc);

  size_t num_rungs() const { return rungs_.size(); }
  const Rung& rung(size_t i) const { return rungs_[i]; }

  /// Index of the strongest rung whose predicted cost for `count` documents,
  /// scaled by `safety_factor`, fits in `budget_micros` and whose index
  /// passes `available` (the engine's circuit-breaker veto; pass nullptr to
  /// consider every rung). Returns -1 when nothing fits.
  int PickRung(double budget_micros, uint32_t count, double safety_factor,
               const std::function<bool(size_t)>& available = nullptr) const;

  /// Predicted cost of serving `count` documents with rung `i`, scaled by
  /// `safety_factor` (the budgeting quantity PickRung compares).
  double PredictedBatchMicros(size_t i, uint32_t count,
                              double safety_factor) const {
    return rungs_[i].predicted_us_per_doc * count * safety_factor;
  }

 private:
  std::vector<Rung> rungs_;
};

/// Predicted per-document scoring time of a neural rung via the paper's
/// analytic predictors: the dense model (Section 4.2) when
/// `first_layer_sparsity` is 0, the hybrid sparse-first-layer estimate
/// (Section 4.4 / Tables 10-11) otherwise.
double PredictNeuralRungMicrosPerDoc(const predict::Architecture& arch,
                                     uint32_t batch,
                                     double first_layer_sparsity,
                                     const predict::DenseTimePredictor& dense,
                                     const predict::SparseTimePredictor& sparse);

/// Predicted per-document cost of a two-stage cascade rung: every document
/// pays the first stage, the rescored fraction also pays the second.
double PredictCascadeMicrosPerDoc(double first_stage_us_per_doc,
                                  double second_stage_us_per_doc,
                                  double rescore_fraction);

}  // namespace dnlr::serve

#endif  // DNLR_SERVE_LADDER_H_
