#include "serve/engine.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "common/check.h"
#include "serve/score_cache.h"

namespace dnlr::serve {
namespace {

bool AllFinite(const std::vector<float>& scores) {
  for (const float s : scores) {
    if (!std::isfinite(s)) return false;
  }
  return true;
}

}  // namespace

ServingEngine::ServingEngine(const DegradationLadder* ladder,
                             ServingConfig config, Clock* clock)
    : ServingEngine(
          // Non-owning alias: the caller keeps the ladder alive.
          std::shared_ptr<const DegradationLadder>(ladder,
                                                   [](const auto*) {}),
          config, clock) {}

ServingEngine::ServingEngine(std::shared_ptr<const DegradationLadder> ladder,
                             ServingConfig config, Clock* clock)
    : config_(config),
      clock_(clock),
      counters_(ladder == nullptr ? 0 : ladder->num_rungs()),
      rung_latency_(ladder == nullptr ? 0 : ladder->num_rungs()) {
  DNLR_CHECK(ladder != nullptr);
  DNLR_CHECK(clock_ != nullptr);
  DNLR_CHECK_GE(ladder->num_rungs(), 1u);
  DNLR_CHECK_GE(config_.num_workers, 1u);
  DNLR_CHECK_GE(config_.queue_capacity, 1u);
  DNLR_CHECK_GT(config_.safety_factor, 0.0);
  DNLR_CHECK_GE(config_.max_attempts_per_rung, 1u);
  const size_t num_rungs = ladder->num_rungs();
  {
    // No worker exists yet; the lock satisfies the thread-safety analysis.
    common::MutexLock lock(state_mu_);
    state_ = std::make_shared<const LadderState>(
        LadderState{std::move(ladder), /*version=*/1});
  }
  {
    // No worker thread exists yet; the lock satisfies the thread-safety
    // analysis (guarded members are only touched with their mutex held).
    common::MutexLock lock(breaker_mu_);
    breakers_.resize(num_rungs);
  }
  workers_.reserve(config_.num_workers);
  for (uint32_t w = 0; w < config_.num_workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ServingEngine::~ServingEngine() { Stop(); }

void ServingEngine::Stop() {
  {
    common::MutexLock lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

Status ServingEngine::SwapModel(std::shared_ptr<const DegradationLadder> next,
                                const SwapValidator& validate) {
  counters_.swaps_attempted.Add();
  if (next == nullptr) {
    counters_.swaps_rejected.Add();
    return Status::InvalidArgument("SwapModel: candidate ladder is null");
  }
  // Breakers, per-rung counters and the degraded semantics are all shaped
  // by rung count; a swap is a model replacement, not a topology change.
  const size_t current_rungs = CurrentState()->ladder->num_rungs();
  if (next->num_rungs() != current_rungs) {
    counters_.swaps_rejected.Add();
    return Status::InvalidArgument(
        "SwapModel: candidate has " + std::to_string(next->num_rungs()) +
        " rungs, engine is serving " + std::to_string(current_rungs));
  }
  if (validate) {
    // The gate runs outside swap_mu_ on the candidate only: serving and
    // concurrent swaps proceed while a (possibly slow) validation runs.
    Status verdict = validate(*next);
    if (!verdict.ok()) {
      counters_.swaps_rejected.Add();
      return Status::FailedPrecondition(
          "SwapModel: candidate rejected by validation: " +
          verdict.message());
    }
  }
  {
    common::MutexLock lock(swap_mu_);
    // swap_mu_ serializes concurrent swappers (read-modify-write of
    // version); state_mu_ is held only for the pointer exchange, so the
    // old generation is released (and possibly destroyed) outside it.
    auto state = std::make_shared<const LadderState>(
        LadderState{std::move(next), CurrentState()->version + 1});
    {
      common::MutexLock state_lock(state_mu_);
      state_.swap(state);
    }
  }
  {
    // A fresh model starts with fresh health: faults accumulated by the
    // old generation must not quarantine the new one.
    common::MutexLock lock(breaker_mu_);
    for (Breaker& breaker : breakers_) breaker = Breaker{};
  }
  counters_.swaps_completed.Add();
  return Status::Ok();
}

std::future<ServeResponse> ServingEngine::Submit(const ServeRequest& request) {
  counters_.submitted.Add();
  std::promise<ServeResponse> promise;
  std::future<ServeResponse> future = promise.get_future();

  if (request.docs == nullptr && request.count > 0) {
    ServeResponse resp;
    resp.status = Status::InvalidArgument("null docs with count > 0");
    promise.set_value(std::move(resp));
    return future;
  }

  uint64_t fingerprint = 0;
  uint64_t lookup_micros = 0;
  if (config_.score_cache != nullptr) {
    std::optional<ServeResponse> answer =
        AnswerFromCache(request, &fingerprint, &lookup_micros);
    if (answer.has_value()) {
      promise.set_value(std::move(*answer));
      return future;
    }
  }

  {
    common::MutexLock lock(queue_mu_);
    if (stopping_) {
      counters_.shed_stopped.Add();
      ServeResponse resp;
      resp.status = Status::ResourceExhausted("serving engine is stopped");
      promise.set_value(std::move(resp));
      return future;
    }
    if (queue_.size() >= config_.queue_capacity) {
      counters_.shed_queue_full.Add();
      ServeResponse resp;
      resp.status = Status::ResourceExhausted(
          "serving queue full (capacity " +
          std::to_string(config_.queue_capacity) + ")");
      promise.set_value(std::move(resp));
      return future;
    }
    queue_.push_back(QueueItem{request, std::move(promise),
                               clock_->NowMicros(), fingerprint,
                               lookup_micros});
  }
  queue_cv_.NotifyOne();
  return future;
}

std::optional<ServeResponse> ServingEngine::AnswerFromCache(
    const ServeRequest& request, uint64_t* fingerprint,
    uint64_t* lookup_micros) {
  const uint64_t start = clock_->NowMicros();
  ServeResponse resp;
  // The shed rules of the queued path, applied before paying for a lookup:
  // a stopped engine answers nothing, not even a hit, and an expired
  // deadline is shed exactly as a worker would shed it.
  if (!accepting()) {
    counters_.shed_stopped.Add();
    resp.status = Status::ResourceExhausted("serving engine is stopped");
    return resp;
  }
  if (request.deadline.RemainingMicros(*clock_) <= 0) {
    counters_.shed_deadline.Add();
    resp.status =
        Status::DeadlineExceeded("deadline expired before scoring started");
    resp.total_micros = clock_->NowMicros() - start;
    return resp;
  }

  // Looked up under the generation published now. A hit replays the cached
  // scores bitwise along with the rung/degraded stamp of the computation
  // that produced them, and is worth serving even when no rung would fit
  // the remaining budget. Stale entries (older model_version) can never
  // match because the version is part of the key check.
  *fingerprint =
      ScoreCache::Fingerprint(request.docs, request.count, request.stride);
  const std::shared_ptr<const LadderState> state = CurrentState();
  ScoreCache::Entry entry;
  if (!config_.score_cache->Lookup(*fingerprint, state->version,
                                   request.count, &entry)) {
    *lookup_micros = clock_->NowMicros() - start;
    return std::nullopt;
  }
  const DegradationLadder& ladder = *state->ladder;
  resp.status = Status::Ok();
  resp.scores = std::move(entry.scores);
  resp.rung = entry.rung;
  if (entry.rung >= 0 &&
      static_cast<size_t>(entry.rung) < ladder.num_rungs()) {
    resp.rung_name = ladder.rung(static_cast<size_t>(entry.rung)).name;
  }
  resp.degraded = entry.degraded;
  resp.cache_hit = true;
  resp.model_version = state->version;
  counters_.ok.Add();
  if (resp.degraded) counters_.degraded.Add();
  resp.total_micros = clock_->NowMicros() - start;
  return resp;
}

ServeResponse ServingEngine::ScoreSync(const float* docs, uint32_t count,
                                       uint32_t stride,
                                       uint64_t budget_micros) {
  ServeRequest request;
  request.docs = docs;
  request.count = count;
  request.stride = stride;
  request.deadline = Deadline::AfterMicros(*clock_, budget_micros);
  return Submit(request).get();
}

void ServingEngine::WorkerLoop() {
  for (;;) {
    QueueItem item;
    {
      common::MutexLock lock(queue_mu_);
      while (!stopping_ && queue_.empty()) queue_cv_.Wait(queue_mu_);
      if (queue_.empty()) return;  // stopping_ and fully drained
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    // The model generation is pinned once per request: a SwapModel landing
    // mid-request cannot change what this request scores with, and the
    // shared_ptr keeps the old generation alive until the last in-flight
    // holder releases it.
    std::shared_ptr<const LadderState> state = CurrentState();
    item.promise.set_value(Process(*state, item));
  }
}

ServeResponse ServingEngine::Process(const LadderState& state,
                                     const QueueItem& item) {
  const ServeRequest& request = item.request;
  const DegradationLadder& ladder = *state.ladder;
  ServeResponse resp;
  resp.model_version = state.version;
  const uint64_t start = clock_->NowMicros();
  resp.queue_micros = start - item.enqueue_micros;
  queue_wait_.Record(static_cast<double>(resp.queue_micros));
  // Engine-side time: this worker's plus what Submit spent on a missed
  // cache lookup (zero without a cache); the queue wait is reported apart.
  const auto elapsed = [&]() -> uint64_t {
    return item.lookup_micros + (clock_->NowMicros() - start);
  };

  const size_t num_rungs = ladder.num_rungs();
  const auto remaining = [&]() -> int64_t {
    return request.deadline.RemainingMicros(*clock_);
  };

  const int64_t initial_remaining = remaining();
  if (initial_remaining <= 0) {
    counters_.shed_deadline.Add();
    resp.status =
        Status::DeadlineExceeded("deadline expired before scoring started");
    resp.total_micros = elapsed();
    return resp;
  }

  // Strongest rung that fits the initial budget irrespective of breaker
  // state: the reference point for the degraded flag.
  const int strongest_feasible =
      ladder.PickRung(static_cast<double>(initial_remaining), request.count,
                      config_.safety_factor);
  if (strongest_feasible < 0) {
    // Even the cheapest rung cannot fit: shed instead of starting work that
    // is doomed to miss its deadline.
    counters_.shed_deadline.Add();
    resp.status = Status::DeadlineExceeded(
        "budget of " + std::to_string(initial_remaining) +
        " us cannot fit the cheapest rung");
    resp.total_micros = elapsed();
    return resp;
  }

  // Sized only once a rung is going to run: a shed response carries none.
  resp.scores.assign(request.count, 0.0f);
  bool attempted_any = false;
  for (size_t r = static_cast<size_t>(strongest_feasible); r < num_rungs;
       ++r) {
    const int64_t rung_budget = remaining();
    if (rung_budget <= 0) break;
    if (ladder.PredictedBatchMicros(r, request.count,
                                    config_.safety_factor) >
        static_cast<double>(rung_budget)) {
      continue;  // this rung no longer fits what is left
    }
    if (!AcquireRung(state, r, clock_->NowMicros())) continue;  // quarantined

    for (uint32_t attempt = 0;; ++attempt) {
      const Status status = ladder.rung(r).scorer->TryScore(
          request.docs, request.count, request.stride, resp.scores.data());
      const uint64_t now = clock_->NowMicros();
      const bool past_deadline = request.deadline.Expired(*clock_);
      attempted_any = true;

      if (!status.ok()) {
        counters_.transient_faults.Add();
        OnRungFault(state, r, now);
        if (past_deadline || attempt + 1 >= config_.max_attempts_per_rung) {
          break;  // next rung down
        }
        uint64_t backoff = config_.retry_backoff_micros
                           << std::min<uint32_t>(attempt, 20);
        backoff = std::min(backoff, config_.max_backoff_micros);
        const int64_t left = remaining();
        if (left <= 0 || backoff >= static_cast<uint64_t>(left)) {
          break;  // not enough budget to wait out a retry
        }
        clock_->SleepMicros(backoff);
        backoff_.Record(static_cast<double>(backoff));
        counters_.retries.Add();
        ++resp.retries;
        // Our own fault may just have opened this rung's breaker.
        if (!AcquireRung(state, r, clock_->NowMicros())) break;
        continue;
      }

      if (past_deadline) {
        // The rung finished, but too late to be useful: a slow rung is a
        // faulty rung as far as the breaker is concerned.
        counters_.timeouts.Add();
        OnRungFault(state, r, now);
        break;
      }
      if (!AllFinite(resp.scores)) {
        // Never propagate NaN/Inf; fall to the next rung instead.
        counters_.non_finite_batches.Add();
        OnRungFault(state, r, now);
        break;
      }

      OnRungSuccess(state, r);
      resp.status = Status::Ok();
      resp.rung = static_cast<int>(r);
      resp.rung_name = ladder.rung(r).name;
      resp.degraded = static_cast<int>(r) != strongest_feasible;
      counters_.ok.Add();
      counters_.served_by_rung[r].Add();
      if (resp.degraded) counters_.degraded.Add();
      const uint64_t worker_micros = clock_->NowMicros() - start;
      resp.total_micros = item.lookup_micros + worker_micros;
      // The rung histogram, and the predictor drift read from it, keep
      // measuring the worker's own time: Submit's lookup is not rung cost.
      rung_latency_[r].Record(static_cast<double>(worker_micros));
      if (config_.score_cache != nullptr) {
        // Stamped with the pinned generation, which may be newer than the
        // one Submit looked up under: the entry records who scored it, and
        // a swap published mid-request makes it stale for all future
        // lookups, by construction.
        config_.score_cache->Insert(item.fingerprint, state.version,
                                    resp.scores.data(), request.count,
                                    resp.rung, resp.degraded);
      }
      return resp;
    }
  }

  resp.scores.clear();  // partial output from a faulted rung must not leak
  resp.total_micros = elapsed();
  if (remaining() <= 0) {
    counters_.deadline_exceeded.Add();
    resp.status = Status::DeadlineExceeded(
        "budget exhausted after " + std::to_string(resp.total_micros) +
        " us without a successful rung");
  } else if (attempted_any) {
    counters_.failed.Add();
    resp.status = Status::Internal("every available rung faulted");
  } else {
    counters_.shed_deadline.Add();
    resp.status = Status::DeadlineExceeded(
        "no rung available within the remaining budget");
  }
  return resp;
}

size_t ServingEngine::queue_depth() const {
  common::MutexLock lock(queue_mu_);
  return queue_.size();
}

bool ServingEngine::accepting() const {
  common::MutexLock lock(queue_mu_);
  return !stopping_;
}

CircuitState ServingEngine::rung_state(size_t i) const {
  common::MutexLock lock(breaker_mu_);
  return breakers_[i].state;
}

bool ServingEngine::AcquireRung(const LadderState& state, size_t i,
                                uint64_t now_micros) {
  if (i + 1 == state.ladder->num_rungs()) return true;  // floor: always answers
  common::MutexLock lock(breaker_mu_);
  Breaker& breaker = breakers_[i];
  switch (breaker.state) {
    case CircuitState::kClosed:
      return true;
    case CircuitState::kOpen:
      if (now_micros >= breaker.open_until_micros) {
        breaker.state = CircuitState::kHalfOpen;
        breaker.probe_in_flight = true;
        counters_.circuit_probes.Add();
        return true;
      }
      return false;
    case CircuitState::kHalfOpen:
      if (!breaker.probe_in_flight) {
        breaker.probe_in_flight = true;
        counters_.circuit_probes.Add();
        return true;
      }
      return false;
  }
  return false;
}

void ServingEngine::OnRungSuccess(const LadderState& state, size_t i) {
  if (i + 1 == state.ladder->num_rungs()) return;
  common::MutexLock lock(breaker_mu_);
  Breaker& breaker = breakers_[i];
  breaker.consecutive_failures = 0;
  if (breaker.state == CircuitState::kHalfOpen) {
    breaker.state = CircuitState::kClosed;
    breaker.probe_in_flight = false;
    counters_.circuit_closes.Add();
  }
}

void ServingEngine::OnRungFault(const LadderState& state, size_t i,
                                uint64_t now_micros) {
  if (i + 1 == state.ladder->num_rungs()) return;
  common::MutexLock lock(breaker_mu_);
  Breaker& breaker = breakers_[i];
  ++breaker.consecutive_failures;
  if (breaker.state == CircuitState::kHalfOpen) {
    // Failed probe: back to quarantine for another full window.
    breaker.state = CircuitState::kOpen;
    breaker.open_until_micros = now_micros + config_.circuit_open_micros;
    breaker.probe_in_flight = false;
    counters_.circuit_opens.Add();
  } else if (breaker.state == CircuitState::kClosed &&
             breaker.consecutive_failures >= config_.circuit_failure_threshold) {
    breaker.state = CircuitState::kOpen;
    breaker.open_until_micros = now_micros + config_.circuit_open_micros;
    counters_.circuit_opens.Add();
  }
}

Status RunGoldenSmoke(const DegradationLadder& ladder, const float* docs,
                      uint32_t count, uint32_t stride,
                      const std::vector<std::vector<float>>* golden) {
  if (docs == nullptr && count > 0) {
    return Status::InvalidArgument("golden smoke: null docs with count > 0");
  }
  if (golden != nullptr) {
    if (golden->size() != ladder.num_rungs()) {
      return Status::InvalidArgument(
          "golden smoke: golden has " + std::to_string(golden->size()) +
          " rungs, ladder has " + std::to_string(ladder.num_rungs()));
    }
    for (const std::vector<float>& g : *golden) {
      if (g.size() != count) {
        return Status::InvalidArgument(
            "golden smoke: golden rung has " + std::to_string(g.size()) +
            " scores, probe batch has " + std::to_string(count));
      }
    }
  }
  std::vector<float> scores(count, 0.0f);
  for (size_t r = 0; r < ladder.num_rungs(); ++r) {
    const Rung& rung = ladder.rung(r);
    Status status = rung.scorer->TryScore(docs, count, stride, scores.data());
    if (!status.ok()) {
      return Status::FailedPrecondition("golden smoke: rung " +
                                        std::to_string(r) + " (" + rung.name +
                                        ") faulted: " + status.message());
    }
    for (uint32_t d = 0; d < count; ++d) {
      if (!std::isfinite(scores[d])) {
        return Status::FailedPrecondition(
            "golden smoke: rung " + std::to_string(r) + " (" + rung.name +
            ") produced a non-finite score for doc " + std::to_string(d));
      }
      // Bitwise comparison on purpose: two bundles of the same model must
      // reproduce scores exactly, not approximately.
      if (golden != nullptr && scores[d] != (*golden)[r][d]) {
        return Status::FailedPrecondition(
            "golden smoke: rung " + std::to_string(r) + " (" + rung.name +
            ") diverged from golden at doc " + std::to_string(d) + ": got " +
            std::to_string(scores[d]) + ", want " +
            std::to_string((*golden)[r][d]));
      }
    }
  }
  return Status::Ok();
}

Result<std::vector<std::vector<float>>> CaptureGoldenScores(
    const DegradationLadder& ladder, const float* docs, uint32_t count,
    uint32_t stride) {
  if (docs == nullptr && count > 0) {
    return Status::InvalidArgument("golden capture: null docs with count > 0");
  }
  std::vector<std::vector<float>> golden(ladder.num_rungs());
  for (size_t r = 0; r < ladder.num_rungs(); ++r) {
    golden[r].assign(count, 0.0f);
    Status status = ladder.rung(r).scorer->TryScore(docs, count, stride,
                                                    golden[r].data());
    if (!status.ok()) {
      return Status::FailedPrecondition(
          "golden capture: rung " + std::to_string(r) + " (" +
          ladder.rung(r).name + ") faulted: " + status.message());
    }
  }
  return golden;
}

}  // namespace dnlr::serve
