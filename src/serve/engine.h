#ifndef DNLR_SERVE_ENGINE_H_
#define DNLR_SERVE_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "serve/counters.h"
#include "serve/deadline.h"
#include "serve/ladder.h"

namespace dnlr::serve {

class ScoreCache;

/// One scoring request: a query's candidate documents plus the deadline by
/// which the caller needs scores. The feature memory is borrowed and must
/// stay valid until the response future resolves.
struct ServeRequest {
  const float* docs = nullptr;
  uint32_t count = 0;
  uint32_t stride = 0;
  Deadline deadline;
};

/// The engine's answer. `rung` stamps which ladder rung actually served the
/// request (-1 when none did); `degraded` marks responses served below the
/// strongest rung that fit the original budget — the signal a production
/// system alerts on when the degradation rate climbs. `model_version`
/// stamps which published model generation scored the request: every
/// response is served end-to-end by exactly one coherent model, even while
/// SwapModel is publishing a new one.
struct ServeResponse {
  Status status;
  std::vector<float> scores;
  int rung = -1;
  std::string rung_name;
  bool degraded = false;
  /// True when the scores were replayed from the score cache instead of
  /// running a rung; `rung`/`degraded` then stamp the original computation.
  /// Hits are answered in Submit and never queue.
  bool cache_hit = false;
  uint32_t retries = 0;
  /// Time spent queued for a worker (0 for answers given in Submit).
  uint64_t queue_micros = 0;
  /// Engine-side time apart from the queue wait: for a queued request the
  /// Submit-side fingerprint and lookup (with a cache) plus the worker's
  /// processing; for a hit, everything from Submit's entry to the answer.
  uint64_t total_micros = 0;
  uint64_t model_version = 0;
};

struct ServingConfig {
  uint32_t num_workers = 4;
  /// Requests beyond this many waiting are shed with ResourceExhausted
  /// rather than queued into certain deadline misses (load shedding).
  /// Score-cache hits are answered in Submit and never take a slot, so a
  /// full queue sheds only requests that would have to be scored.
  uint32_t queue_capacity = 64;
  /// Budget margin: a rung is considered to fit when predicted cost times
  /// this factor is within the remaining budget. >1 absorbs predictor error.
  double safety_factor = 1.5;
  /// Attempts per rung on transient faults (1 = no retry).
  uint32_t max_attempts_per_rung = 3;
  /// Backoff before retry r is retry_backoff_micros << (r-1), capped at
  /// max_backoff_micros, and always bounded by the remaining budget.
  uint64_t retry_backoff_micros = 100;
  uint64_t max_backoff_micros = 2000;
  /// Circuit breaker: this many consecutive faults quarantine a rung...
  uint32_t circuit_failure_threshold = 3;
  /// ...for this long, after which a single half-open probe may re-close it.
  uint64_t circuit_open_micros = 50000;
  /// Optional hot score cache, not owned (must outlive the engine; may be
  /// shared by several engines). When set, Submit fingerprints each request
  /// on the caller's thread and looks it up under the generation published
  /// at that moment; a hit replays the cached scores bitwise and resolves
  /// the future before Submit returns, with no queue slot, worker or
  /// cross-thread handoff. A miss is queued with its fingerprint, and the
  /// worker inserts the scores under the generation it pinned. Generation
  /// stamping makes SwapModel the invalidation: entries from the old
  /// version can never satisfy lookups from the new one (see
  /// serve/score_cache.h). nullptr disables caching; Submit then does no
  /// more than enqueue.
  ScoreCache* score_cache = nullptr;
};

/// Circuit-breaker state of one rung (exposed for tests and introspection).
enum class CircuitState { kClosed, kOpen, kHalfOpen };

/// Deadline-aware in-process scoring service: a worker pool draining a
/// bounded queue, serving each request with the strongest degradation-ladder
/// rung whose predicted cost fits the remaining budget. Transient rung
/// faults are retried with capped exponential backoff; repeated faults
/// quarantine the rung behind a circuit breaker (with half-open probing);
/// rungs that exceed the deadline or emit non-finite scores are abandoned in
/// favour of the next rung down. A response never carries a non-finite
/// score.
///
/// The last ladder rung is the always-answer floor: it is exempt from
/// quarantine, so the engine keeps answering as long as the floor fits the
/// budget and does not fault.
///
/// Hot reload: the serving ladder is published RCU-style through a
/// mutex-guarded shared_ptr. SwapModel validates a candidate ladder and, on
/// success, publishes it atomically: requests already in flight finish on
/// the model generation they started with (the old ladder stays alive until
/// its last reader drops it), new requests see the new generation, and no
/// request is ever failed or torn across generations.
class ServingEngine {
 public:
  /// Non-owning construction: the ladder and clock must outlive the engine
  /// (the original deployment-as-one-process mode). The ladder must have at
  /// least one rung.
  ServingEngine(const DegradationLadder* ladder, ServingConfig config,
                Clock* clock = Clock::Real());

  /// Owning construction: the engine shares ownership of the ladder, which
  /// is what hot reload needs — after a swap the previous ladder (and
  /// whatever model objects its shared_ptr keeps alive, e.g. a
  /// serve::Servable) is released only when the last in-flight request
  /// finishes with it.
  ServingEngine(std::shared_ptr<const DegradationLadder> ladder,
                ServingConfig config, Clock* clock = Clock::Real());
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Answers a request or enqueues it for a worker. Never blocks on
  /// scoring: the future resolves when a worker answers, or before Submit
  /// returns when the engine is stopped (ResourceExhausted, shed_stopped),
  /// the queue is at capacity (ResourceExhausted, shed_queue_full) or the
  /// request is a score-cache hit. With a cache configured Submit also
  /// sheds an already expired deadline (DeadlineExceeded, shed_deadline)
  /// before any lookup, and pays the fingerprint and lookup on the caller's
  /// thread (about 7 us for 120 documents x 136 features), counted in the
  /// response's total_micros. A hit never sheds on a full queue, because
  /// it never enters the queue.
  std::future<ServeResponse> Submit(const ServeRequest& request)
      DNLR_EXCLUDES(queue_mu_);

  /// Convenience: Submit with a relative budget and block for the answer.
  ServeResponse ScoreSync(const float* docs, uint32_t count, uint32_t stride,
                          uint64_t budget_micros);

  /// Validation gate run on a candidate ladder before promotion. Returning
  /// non-OK keeps the old model serving.
  using SwapValidator = std::function<Status(const DegradationLadder&)>;

  /// Atomically replaces the serving ladder (RCU-style hot swap).
  ///
  /// The candidate must be non-null and have the same number of rungs as
  /// the current ladder (the breaker array, per-rung counters and latency
  /// histograms are shaped by rung count); otherwise InvalidArgument and
  /// the old model keeps serving. When `validate` is provided it runs on
  /// the candidate first — typically the dnlr::validate invariant suite
  /// plus a golden-score smoke (see RunGoldenSmoke); a non-OK verdict
  /// rejects the swap, counts counters().swaps_rejected, and leaves the old
  /// model serving untouched.
  ///
  /// On success the new ladder is published atomically: in-flight requests
  /// complete on the generation they started with, new requests score on
  /// the new one, and every response stamps its model_version. Circuit
  /// breakers reset to closed (a fresh model starts with fresh health).
  /// Safe to call concurrently with scoring from any thread; concurrent
  /// SwapModel calls serialize.
  Status SwapModel(std::shared_ptr<const DegradationLadder> next,
                   const SwapValidator& validate = nullptr)
      DNLR_EXCLUDES(swap_mu_, breaker_mu_);

  /// Generation of the currently published model (1 for the construction
  /// ladder, +1 per completed swap).
  uint64_t model_version() const { return CurrentState()->version; }

  /// The currently published ladder. With hot reload in play prefer
  /// ladder_ptr(): the reference is only guaranteed alive while no swap
  /// retires the generation it came from.
  const DegradationLadder& ladder() const { return *CurrentState()->ladder; }
  std::shared_ptr<const DegradationLadder> ladder_ptr() const {
    return CurrentState()->ladder;
  }

  const ServeCounters& counters() const { return counters_; }
  Clock& clock() const { return *clock_; }

  /// Bounded latency histogram of requests served by rung `i`: the
  /// worker's time from pickup to answer, without the queue wait or
  /// Submit's score-cache lookup, so it stays the rung cost the predictor
  /// drift compares. Bounded: memory stays constant no matter how many
  /// requests flow, which is what lets the engine run under production
  /// load with recording always on. Drivers needing exact percentiles keep
  /// their own response samples (see replay::SummarizeResponses). Owned by
  /// this engine, one per rung index for its whole life (SwapModel keeps
  /// the rung count), so a hot swap keeps recording into the same series
  /// and no other engine ever adds to it.
  const obs::Histogram& rung_latency(size_t i) const {
    return rung_latency_[i];
  }
  /// Time requests spent queued before a worker picked them up. Cache hits,
  /// answered in Submit, record nothing here.
  const obs::Histogram& queue_wait() const { return queue_wait_; }
  /// Backoff sleeps taken before rung retries.
  const obs::Histogram& retry_backoff() const { return backoff_; }

  /// Current breaker state of rung `i`. An expired quarantine still reads
  /// kOpen until a request probes it.
  CircuitState rung_state(size_t i) const DNLR_EXCLUDES(breaker_mu_);

  /// Requests waiting for a worker right now — the saturation input of the
  /// router's shard health score (depth / queue_capacity). A point-in-time
  /// read: the queue may change before the caller acts on it.
  size_t queue_depth() const DNLR_EXCLUDES(queue_mu_);

  /// False once Stop() has begun: every further Submit sheds with
  /// shed_stopped. The router reads this to tell a dead shard (stop routing
  /// to it) from a merely saturated one (drain and probe it).
  bool accepting() const DNLR_EXCLUDES(queue_mu_);

  /// Stops accepting work, drains already-accepted requests, joins the
  /// workers. Idempotent; also run by the destructor.
  void Stop() DNLR_EXCLUDES(queue_mu_);

 private:
  /// One published model generation: the ladder and its version.
  /// Immutable after publication — workers share it by shared_ptr.
  struct LadderState {
    std::shared_ptr<const DegradationLadder> ladder;
    uint64_t version = 1;
  };

  struct QueueItem {
    ServeRequest request;
    std::promise<ServeResponse> promise;
    uint64_t enqueue_micros = 0;
    /// Score-cache fingerprint taken in Submit (0 without a cache): the
    /// worker inserts under it and never hashes the batch again.
    uint64_t fingerprint = 0;
    /// Time Submit spent on the fingerprint and the missed lookup, carried
    /// into total_micros so it covers all engine-side work.
    uint64_t lookup_micros = 0;
  };

  struct Breaker {
    CircuitState state = CircuitState::kClosed;
    uint32_t consecutive_failures = 0;
    uint64_t open_until_micros = 0;
    bool probe_in_flight = false;
  };

  std::shared_ptr<const LadderState> CurrentState() const
      DNLR_EXCLUDES(state_mu_) {
    // The lock orders this copy after the publishing store in SwapModel /
    // the constructor: everything built before publication is visible.
    common::MutexLock lock(state_mu_);
    return state_;
  }

  /// The cache-side half of Submit, run on the caller's thread: returns the
  /// finished response for a stopped engine, an expired deadline or a hit,
  /// and nullopt for a miss after storing its fingerprint and lookup time.
  std::optional<ServeResponse> AnswerFromCache(const ServeRequest& request,
                                               uint64_t* fingerprint,
                                               uint64_t* lookup_micros)
      DNLR_EXCLUDES(queue_mu_);
  void WorkerLoop() DNLR_EXCLUDES(queue_mu_);
  ServeResponse Process(const LadderState& state, const QueueItem& item);

  /// Breaker gate: may this worker try rung `i` right now? Acquiring a
  /// half-open rung claims its single probe slot; every successful acquire
  /// must be resolved by exactly one OnRungSuccess / OnRungFault.
  bool AcquireRung(const LadderState& state, size_t i, uint64_t now_micros)
      DNLR_EXCLUDES(breaker_mu_);
  void OnRungSuccess(const LadderState& state, size_t i)
      DNLR_EXCLUDES(breaker_mu_);
  void OnRungFault(const LadderState& state, size_t i, uint64_t now_micros)
      DNLR_EXCLUDES(breaker_mu_);

  ServingConfig config_;
  Clock* clock_;
  ServeCounters counters_;
  /// Indexed by rung; see rung_latency().
  std::vector<obs::Histogram> rung_latency_;
  obs::Histogram queue_wait_;
  obs::Histogram backoff_;

  /// RCU publication point: workers copy the current generation once per
  /// request under state_mu_ (one uncontended lock; held only for the
  /// reference-count bump); SwapModel replaces it under the same lock.
  mutable common::Mutex state_mu_;
  std::shared_ptr<const LadderState> state_ DNLR_GUARDED_BY(state_mu_);
  /// Serializes writers (SwapModel callers) only; readers never take it.
  common::Mutex swap_mu_;

  mutable common::Mutex queue_mu_;
  common::CondVar queue_cv_;
  std::deque<QueueItem> queue_ DNLR_GUARDED_BY(queue_mu_);
  bool stopping_ DNLR_GUARDED_BY(queue_mu_) = false;

  mutable common::Mutex breaker_mu_;
  std::vector<Breaker> breakers_ DNLR_GUARDED_BY(breaker_mu_);

  std::vector<std::thread> workers_;
};

/// Golden-score smoke test for a candidate ladder: scores `count` probe
/// documents through every rung, failing on any non-OK rung, any non-finite
/// score, or — when `golden` is non-null — any score that differs bitwise
/// from golden[rung][doc]. Pair with CaptureGoldenScores on a trusted
/// ladder to assert that a reloaded bundle reproduces the exact scores of
/// the model it replaces.
Status RunGoldenSmoke(const DegradationLadder& ladder, const float* docs,
                      uint32_t count, uint32_t stride,
                      const std::vector<std::vector<float>>* golden = nullptr);

/// Scores the probe batch on every rung of a trusted ladder, returning one
/// score vector per rung (the `golden` input of RunGoldenSmoke).
Result<std::vector<std::vector<float>>> CaptureGoldenScores(
    const DegradationLadder& ladder, const float* docs, uint32_t count,
    uint32_t stride);

}  // namespace dnlr::serve

#endif  // DNLR_SERVE_ENGINE_H_
