#ifndef DNLR_REPLAY_DRIVER_H_
#define DNLR_REPLAY_DRIVER_H_

// The one traffic driver behind every dnlr_cli serve mode: a bundle
// fixture, one windowed request loop over an ArrivalSource, one response
// summary, one gate table evaluator fed by pure per-mode builders, and one
// JSON-validated report writer.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/normalize.h"
#include "gbdt/ensemble.h"
#include "nn/mlp.h"
#include "replay/workload.h"
#include "serve/engine.h"
#include "serve/fault_injection.h"
#include "serve/servable.h"

namespace dnlr::replay {

/// The knobs every serve mode shares; the CLI fills it with per-mode
/// defaults and exits before any work starts on a count below 1.
struct ServeConfig {
  int queries = 60;
  int features = 64;
  int workers = 4;
  int deadline_us = 20'000;
  int seed = 42;
  int queue_capacity = 128;

  serve::ServingConfig Engine() const;
};

/// Synthetic MSN-like corpus, logged to stderr.
data::Dataset SyntheticCorpus(uint32_t queries, uint32_t features,
                              uint64_t seed);
/// LambdaMART over `dataset` (no validation set), logged to stderr.
gbdt::Ensemble TrainForest(const data::Dataset& dataset, uint32_t trees,
                           uint32_t leaves);

// ---- Bundle fixture ------------------------------------------------------

/// The fixture's own knobs; corpus shape and seed come from ServeConfig.
struct FixtureConfig {
  int trees = 20;
  std::string bundle_path;
  /// Also write bundle_path + ".bin" (v2 binary) and reload from it; the
  /// golden scores stay text-loaded.
  bool binary_twin = false;
  /// Also write bundle_path + ".poison", whose student comes from another
  /// seed, so the golden gate must reject it.
  bool poisoned_twin = false;
};

/// The bundle every serve mode serves and hot-swaps: a
/// LambdaMART teacher and a random {64, 32} student whose layer 0 is
/// magnitude-pruned to 98% zeros (so it serves on the hybrid sparse/dense
/// engine) over a synthetic corpus, with measured rung costs (student /
/// cascade / teacher-subset, clamped non-increasing), packed to disk and
/// loaded as the first generation. The golden scores of that generation on
/// query 0 gate every later swap (GoldenGate): a candidate must reproduce
/// them bitwise.
class BundleFixture {
 public:
  static Result<std::unique_ptr<BundleFixture>> Create(
      const ServeConfig& serve, const FixtureConfig& config);
  BundleFixture(const BundleFixture&) = delete;
  BundleFixture& operator=(const BundleFixture&) = delete;

  const data::Dataset& dataset() const { return dataset_; }
  std::shared_ptr<const serve::DegradationLadder> initial_ladder() const {
    return initial_;
  }
  const std::string& bundle_path() const { return config_.bundle_path; }
  /// The binary twin when one was written, else the bundle.
  const std::string& reload_path() const { return reload_path_; }
  std::string poison_path() const { return config_.bundle_path + ".poison"; }

  /// A fresh, ungated generation loaded from `path`.
  Result<std::shared_ptr<const serve::DegradationLadder>> LoadLadder(
      const std::string& path) const;
  /// A fresh generation of the bundle that draws faults from `faults`,
  /// with the bundle's rung names and costs. Rung 0 is wrapped in a
  /// serve::FaultInjectingScorer. Without bursts the other rungs serve as
  /// loaded. With burst_trigger_probability > 0 every rung is wrapped over
  /// rung 0's FaultBurstState: one outage domain, so a burst takes the
  /// whole generation down. The i.i.d. faults stay on rung 0. The handle
  /// owns everything it scores with. It could never pass the golden gate,
  /// so it is installed with an ungated swap or a new engine.
  Result<std::shared_ptr<const serve::DegradationLadder>> FaultInjectedLadder(
      const serve::FaultInjectionConfig& faults) const;
  /// The swap validator every swap of this bundle passes, on an engine or
  /// on a router shard: the candidate must reproduce the initial
  /// generation's golden scores bitwise. Valid while the fixture lives.
  serve::ServingEngine::SwapValidator GoldenGate() const;
  /// LoadLadder(path), then SwapModel through GoldenGate.
  Status Reload(serve::ServingEngine& engine, const std::string& path) const;
  /// Offers the poisoned twin to `engine`: true only when it loaded and the
  /// swap refused it. A twin that cannot be loaded never reached the golden
  /// gate, so it proves nothing and does not count as rejected.
  bool PoisonRejected(serve::ServingEngine& engine) const;

 private:
  BundleFixture(const ServeConfig& serve, const FixtureConfig& config);
  Status Pack();

  FixtureConfig config_;
  uint32_t features_;
  uint64_t seed_;
  serve::ServableOptions options_;
  data::Dataset dataset_;
  gbdt::Ensemble teacher_;
  nn::Mlp student_;
  data::ZNormalizer normalizer_;
  std::string reload_path_;
  std::shared_ptr<const serve::DegradationLadder> initial_;
  std::vector<std::vector<float>> golden_;
};

// ---- Request loop --------------------------------------------------------

/// Where DriveTraffic's requests come from. Next fills the candidate rows
/// (docs / count / stride), may block to pace arrivals, and returns false
/// once the traffic is over.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;
  virtual bool Next(serve::ServeRequest* request) = 0;
};

/// `requests` requests cycling through the dataset's queries in order.
class RoundRobinSource final : public ArrivalSource {
 public:
  RoundRobinSource(const data::Dataset& dataset, uint64_t requests)
      : dataset_(dataset), requests_(requests) {}
  bool Next(serve::ServeRequest* request) override;

 private:
  const data::Dataset& dataset_;
  uint64_t requests_;
  uint64_t next_ = 0;
};

/// Paced WorkloadGenerator replay for `duration_micros` of `clock` time
/// from construction. A candidate set is the query's rows tiled to the
/// arrival's size, memoized per (query, size) so a repeat is byte-identical
/// and can hit the score cache.
class ReplaySource final : public ArrivalSource {
 public:
  ReplaySource(const data::Dataset& dataset, const WorkloadConfig& config,
               Clock& clock, uint64_t duration_micros);
  bool Next(serve::ServeRequest* request) override;

  uint64_t start_micros() const { return start_micros_; }
  uint64_t arrivals_in_burst() const { return arrivals_in_burst_; }
  uint64_t bursts_started() const { return workload_.bursts_started(); }

 private:
  const data::Dataset& dataset_;
  WorkloadGenerator workload_;
  Clock& clock_;
  uint64_t start_micros_;
  uint64_t end_micros_;
  uint64_t arrivals_in_burst_ = 0;
  std::map<std::pair<uint32_t, uint32_t>, std::vector<float>> buffers_;
};

/// Submits every request `source` yields with a fresh `deadline_us`
/// deadline, blocking on the oldest response once four per worker are in
/// flight (sustained queue pressure without unbounded shedding), and calls
/// `after_submit` (if set) with the running count after each Submit — e.g.
/// a hot reload every N requests. Responses return in submission order.
std::vector<serve::ServeResponse> DriveTraffic(
    serve::ServingEngine& engine, ArrivalSource& source,
    const ServeConfig& config,
    const std::function<void(uint64_t submitted)>& after_submit = nullptr);

// ---- Response summary ----------------------------------------------------

/// Exact nearest-rank percentiles (serve::Percentile) of a sample set.
struct LatencySummary {
  uint64_t count = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

struct ResponseSummary {
  uint64_t submitted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  /// Ok responses replayed from the score cache.
  uint64_t cache_hits = 0;
  /// Ok responses that finished within the deadline.
  uint64_t within_deadline = 0;
  /// Model-version span over ok responses; both 0 when none succeeded.
  uint64_t min_version = 0;
  uint64_t max_version = 0;
  /// Every ok response.
  LatencySummary overall;
  /// Per serving rung; cache hits excluded so rung gates measure scoring.
  std::vector<LatencySummary> rungs;
};
ResponseSummary SummarizeResponses(
    const std::vector<serve::ServeResponse>& responses, size_t num_rungs,
    uint64_t deadline_us);

// ---- Gate table ----------------------------------------------------------

enum class GateOp { kAtLeast, kAtMost };

/// One inclusive gate condition, `value op bound`. Rows sharing a name AND
/// into one verdict under that report key.
struct Gate {
  std::string name;
  double value = 0.0;
  GateOp op = GateOp::kAtMost;
  double bound = 0.0;

  bool Holds() const {
    return op == GateOp::kAtLeast ? value >= bound : value <= bound;
  }
};

struct GateVerdict {
  bool pass = true;
  /// The report's "gates" object: {"<name>": bool, ..., "pass": bool}.
  std::string json;
  /// The rows that did not hold, in table order.
  std::vector<Gate> failed;
};
GateVerdict EvaluateGates(const std::vector<Gate>& gates);

/// serve-bench --reload-every: swaps complete, none is rejected or fails
/// to load, and no request fails across them.
std::vector<Gate> ReloadGates(const serve::ServeCountersSnapshot& counters,
                              uint64_t reload_failures,
                              uint64_t failed_requests);

/// serve-bench --shards: the abusive tenant is quota-rejected and admitted
/// within budget, every other tenant keeps its p99 and error budgets (one
/// row per tenant under each key), the faulted shard quarantines and
/// readmits, and no swap fails.
struct TenantOutcome {
  bool abusive = false;
  double p99_us = 0.0;
  double p99_budget_us = 0.0;
  double error_rate = 0.0;
};
struct ShardedOutcome {
  uint64_t abusive_quota_rejected = 0;
  uint64_t abusive_admitted = 0;  // ok + errors
  std::vector<TenantOutcome> tenants;
  uint64_t quarantines = 0;
  uint64_t readmissions = 0;
  uint64_t failed_swaps = 0;
  // The bounds, from the mode's flags.
  double admit_budget = 0.0;
  double max_error_rate = 0.01;
};
std::vector<Gate> ShardedGates(const ShardedOutcome& outcome);

/// soak-bench SLOs. Rungs with fewer than kMinGatedRungSamples requests are
/// reported but not gated: a p99 over so few is noise.
constexpr uint64_t kMinGatedRungSamples = 20;
struct SoakOutcome {
  double hit_rate = 0.0;
  double shed_rate = 0.0;
  uint64_t failed = 0;
  std::vector<LatencySummary> rungs;
  uint64_t swaps_completed = 0;
  uint64_t good_reload_failures = 0;
  uint64_t poison_attempts = 0;
  uint64_t poison_rejected = 0;
  uint64_t fault_swap_failures = 0;
  uint64_t stale_rejects = 0;
  uint64_t parity_queries = 0;
  uint64_t parity_mismatches = 0;
  uint64_t parity_missed_hits = 0;
  uint64_t letor_queries = 0;
  uint64_t letor_failures = 0;
  // The bounds, from the mode's flags.
  double min_hit_rate = 0.5;
  double max_shed_rate = 0.05;
  double max_p99_us = 20'000.0;
};
std::vector<Gate> SoakGates(const SoakOutcome& outcome);

// ---- Report writer -------------------------------------------------------

/// Creates the directory `path` lands in; false (reason on stderr) on error.
bool EnsureParentDir(const std::string& path);

/// Checks `json` with obs::CheckJsonSyntax, then writes it to `path` and,
/// with `echo`, prints it; always prints "wrote <path>". False (reason on
/// stderr) on any failure: a malformed report never lands on disk.
bool WriteReport(const std::string& path, const std::string& json,
                 bool echo = true);

/// A gated command's verdict on stderr: each failed row as "FAIL [<what>]
/// <name>: <value>, bound <op> <bound>", then "<what> gate passed|FAILED".
/// Returns the command's exit code: 0 when every gate held, 1 otherwise.
int ReportGates(const GateVerdict& verdict, const char* what);

/// WriteReport, then ReportGates: 1 when the report cannot be written.
int FinishGatedReport(const std::string& path, const std::string& json,
                      const GateVerdict& verdict, const char* what);

}  // namespace dnlr::replay

#endif  // DNLR_REPLAY_DRIVER_H_
