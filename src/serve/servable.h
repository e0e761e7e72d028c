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
#include "serve/ladder.h"
#include "serve/scorer.h"

namespace dnlr::serve {

/// Share of first-stage survivors the student rescores in the served cascade.
inline constexpr double kServedCascadeRescoreFraction = 0.25;

/// How a Servable runs its rungs. Engines are not options: they follow from
/// the models (see the rung kinds below).
struct ServableOptions {
  /// Input stride of the feature rows the rungs will score. 0 derives it
  /// from the bundle's normalizer statistics; a bundle with no normalizer
  /// section then fails to load with InvalidArgument.
  uint32_t num_features = 0;
  /// Optional intra-request parallelism for the neural rungs. Not owned;
  /// must outlive the Servable.
  common::ThreadPool* pool = nullptr;
  /// Parallel threshold for the neural rungs (see
  /// nn::NeuralScorerConfig::min_parallel_docs): Score calls below this
  /// many documents stay serial. Values under the scorer's default are
  /// raised to it (0 keeps it); UINT32_MAX pins the rungs serial.
  uint32_t min_parallel_docs = 0;
  /// LoadFromFile maps the bundle file with mmap when possible; false
  /// forces the heap-read fallback (test knob, see common::MappedFile::Open).
  bool prefer_mmap = true;
};

/// Everything a hot-swappable model generation needs to serve, owned in one
/// place. The scorers borrow some of their inputs (NeuralScorer keeps the
/// normalizer by pointer, CascadeScorer borrows both stages, the ladder
/// borrows every FallibleScorer), so reloading a model from disk means
/// rebuilding this whole object graph with one owner and publishing it
/// atomically. Servable is that owner: it decodes a bundle::MappedBundle,
/// validates every model with the dnlr::validate invariant suites
/// (explicitly — release builds skip the debug-only parse-time
/// validation), builds one rung per bundle RungSpec, and exposes the
/// resulting DegradationLadder. The engines copy the models they score, so
/// the decoded models are dropped once the ladder is built.
///
/// Rung kinds map to the study's serving configurations:
///   "student"        the distilled MLP under nn::MakeStudentScorer
///   "teacher"        the LambdaMART ensemble under forest::MakeForestScorer
///   "cascade"        teacher-subset first stage + student rescoring of
///                    kServedCascadeRescoreFraction of the survivors
///   "teacher-subset" gbdt::TeacherSubset under forest::MakeForestScorer
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

  /// bundle::MappedBundle::Map followed by FromBundle. The file is mapped
  /// (read into the heap where mmap fails) only for the load: each model is
  /// decoded out of it into a heap object (a memcpy per array from a binary
  /// bundle, a float parse from a text one), and the scorers then build
  /// their own layouts from those (NeuralScorer packs a second copy of the
  /// weights). A text bundle has every payload CRC checked at open; a
  /// binary one only its layout.
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

  // Declared in dependency order: the normalizer outlives the document
  // scorers, which outlive the fallible adapters, which outlive the ladder
  // that borrows them. Heap-held scorers keep stable addresses.
  std::optional<data::ZNormalizer> normalizer_;
  std::vector<std::unique_ptr<forest::DocumentScorer>> doc_scorers_;
  std::vector<std::unique_ptr<FallibleScorer>> fallible_scorers_;
  DegradationLadder ladder_;
};

}  // namespace dnlr::serve

#endif  // DNLR_SERVE_SERVABLE_H_
