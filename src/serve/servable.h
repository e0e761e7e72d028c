#ifndef DNLR_SERVE_SERVABLE_H_
#define DNLR_SERVE_SERVABLE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bundle/mapped_bundle.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/normalize.h"
#include "forest/scorer.h"
#include "gbdt/ensemble.h"
#include "serve/ladder.h"
#include "serve/scorer.h"

namespace dnlr::serve {

struct ServableOptions {
  /// Input stride of the feature rows the rungs will score. 0 derives it
  /// from the bundle's normalizer statistics; a bundle with no normalizer
  /// section then fails to load with InvalidArgument.
  uint32_t num_features = 0;
  /// Fraction of first-stage survivors the cascade rung rescores.
  double cascade_rescore_fraction = 0.25;
  /// The teacher-subset rung keeps the first num_trees / divisor trees of
  /// the teacher (at least one).
  uint32_t subset_tree_divisor = 4;
  /// Optional intra-request parallelism for the neural rungs. Not owned;
  /// must outlive the Servable.
  common::ThreadPool* pool = nullptr;
  /// Parallel crossover for the neural rungs (see
  /// nn::NeuralScorerConfig::min_parallel_docs): Score calls below this
  /// many documents stay serial. Callers with a measured
  /// predict::ParallelScaling should pass
  /// scaling.CrossoverDocs(serial_us_per_doc); UINT32_MAX pins the rungs
  /// serial on machines where parallelism never wins. 0 keeps the
  /// structural default.
  uint32_t min_parallel_docs = 0;
  /// LoadFromFile maps the bundle file with mmap when possible; false
  /// forces the heap-read fallback (test knob, see common::MappedFile::Open).
  bool prefer_mmap = true;
};

/// Everything a hot-swappable model generation needs to serve, owned in one
/// place. The scorer classes all borrow their inputs (NeuralScorer keeps
/// the normalizer by pointer, CascadeScorer borrows both stages, QuickScorer
/// retains its ensemble, the ladder borrows every FallibleScorer), so
/// reloading a model from disk means rebuilding this whole object graph with
/// one owner and publishing it atomically. Servable is that owner: it
/// decodes a bundle::MappedBundle, validates every model with the
/// dnlr::validate invariant suites (explicitly — release builds skip the
/// debug-only parse-time validation), builds one rung per bundle RungSpec,
/// and exposes the resulting DegradationLadder.
///
/// Rung kinds map to the study's serving configurations:
///   "student"        the distilled MLP (hybrid sparse engine when the first
///                    layer is >= 50% sparse, dense otherwise)
///   "teacher"        the full LambdaMART ensemble under QuickScorer
///                    (WideQuickScorer above 64 leaves)
///   "cascade"        teacher-subset first stage + student rescoring
///   "teacher-subset" the first num_trees / subset_tree_divisor trees
///
/// Immutable after construction; scoring through the ladder is thread-safe.
class Servable {
 public:
  /// Builds a Servable from an opened bundle of either container format.
  /// Model arrays decode straight out of the bundle's buffer; it only needs
  /// to outlive this call, since the Servable owns its model objects. Fails
  /// (leaving nothing half-built) when the bundle lacks a rungs section, a
  /// rung kind is unknown, a rung's model section is missing, or any model
  /// fails validation.
  static Result<std::unique_ptr<Servable>> FromBundle(
      const bundle::MappedBundle& bundle, const ServableOptions& options = {});

  /// bundle::MappedBundle::Map followed by FromBundle. A binary bundle is
  /// mmapped (zero-copy); a text bundle has every payload CRC checked at
  /// open.
  static Result<std::unique_ptr<Servable>> LoadFromFile(
      const std::string& path, const ServableOptions& options = {});

  const DegradationLadder& ladder() const { return ladder_; }
  const bundle::RungConfig& rung_config() const { return rung_config_; }
  uint32_t num_features() const { return num_features_; }

  /// The ladder as a shared_ptr whose lifetime pins the whole Servable
  /// (aliasing constructor): the handle ServingEngine's owning constructor
  /// and SwapModel want, so an old generation's scorers stay alive until
  /// the last in-flight request using them completes.
  static std::shared_ptr<const DegradationLadder> LadderHandle(
      std::shared_ptr<const Servable> servable) {
    const DegradationLadder* ladder = &servable->ladder_;
    return std::shared_ptr<const DegradationLadder>(std::move(servable),
                                                    ladder);
  }

  Servable(const Servable&) = delete;
  Servable& operator=(const Servable&) = delete;

 private:
  Servable() = default;
  Status Build(const bundle::MappedBundle& bundle,
               const ServableOptions& options);

  bundle::RungConfig rung_config_;
  uint32_t num_features_ = 0;

  // Owned model objects and scorers, declared in dependency order: the
  // ensembles and normalizer outlive the document scorers built over them,
  // which outlive the fallible adapters, which outlive the ladder that
  // borrows them. Heap-held scorers keep stable addresses for the borrows.
  std::optional<gbdt::Ensemble> teacher_;
  std::optional<gbdt::Ensemble> subset_;
  std::optional<data::ZNormalizer> normalizer_;
  std::vector<std::unique_ptr<forest::DocumentScorer>> doc_scorers_;
  std::vector<std::unique_ptr<FallibleScorer>> fallible_scorers_;
  DegradationLadder ladder_;
};

}  // namespace dnlr::serve

#endif  // DNLR_SERVE_SERVABLE_H_
