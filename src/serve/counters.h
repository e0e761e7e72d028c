#ifndef DNLR_SERVE_COUNTERS_H_
#define DNLR_SERVE_COUNTERS_H_

#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace dnlr::serve {

/// Point-in-time copy of the engine's counters, safe to read and serialize.
struct ServeCountersSnapshot {
  uint64_t submitted = 0;
  uint64_t ok = 0;
  uint64_t shed_queue_full = 0;      // rejected at Submit: queue at capacity
  uint64_t shed_stopped = 0;         // rejected at Submit: engine stopped
  uint64_t shed_deadline = 0;        // rejected unstarted: deadline hopeless
  uint64_t deadline_exceeded = 0;    // started but ran out of budget
  uint64_t failed = 0;               // every available rung faulted
  uint64_t degraded = 0;             // served below the strongest feasible rung
  uint64_t retries = 0;
  uint64_t transient_faults = 0;
  uint64_t timeouts = 0;             // a rung finished past the deadline
  uint64_t non_finite_batches = 0;   // rung output rejected for NaN/Inf
  uint64_t circuit_opens = 0;
  uint64_t circuit_closes = 0;
  uint64_t circuit_probes = 0;
  uint64_t swaps_attempted = 0;      // SwapModel calls
  uint64_t swaps_completed = 0;      // new model published
  uint64_t swaps_rejected = 0;       // validation gate kept the old model
  std::vector<uint64_t> served_by_rung;
};

/// The engine's own counters, updated by worker threads and read by anyone.
/// Each is an obs::Counter (one relaxed fetch_add): an independent
/// statistic, never a synchronization point, and never shared with another
/// engine.
class ServeCounters {
 public:
  explicit ServeCounters(size_t num_rungs) : served_by_rung(num_rungs) {}

  ServeCounters(const ServeCounters&) = delete;
  ServeCounters& operator=(const ServeCounters&) = delete;

  ServeCountersSnapshot Snapshot() const {
    // Per-counter (not cross-counter) consistent, which is what the stats
    // endpoints and tests expect.
    ServeCountersSnapshot snap;
    snap.submitted = submitted.Value();
    snap.ok = ok.Value();
    snap.shed_queue_full = shed_queue_full.Value();
    snap.shed_stopped = shed_stopped.Value();
    snap.shed_deadline = shed_deadline.Value();
    snap.deadline_exceeded = deadline_exceeded.Value();
    snap.failed = failed.Value();
    snap.degraded = degraded.Value();
    snap.retries = retries.Value();
    snap.transient_faults = transient_faults.Value();
    snap.timeouts = timeouts.Value();
    snap.non_finite_batches = non_finite_batches.Value();
    snap.circuit_opens = circuit_opens.Value();
    snap.circuit_closes = circuit_closes.Value();
    snap.circuit_probes = circuit_probes.Value();
    snap.swaps_attempted = swaps_attempted.Value();
    snap.swaps_completed = swaps_completed.Value();
    snap.swaps_rejected = swaps_rejected.Value();
    snap.served_by_rung.reserve(served_by_rung.size());
    for (const obs::Counter& c : served_by_rung) {
      snap.served_by_rung.push_back(c.Value());
    }
    return snap;
  }

  obs::Counter submitted;
  obs::Counter ok;
  /// Sheds are tagged by cause on purpose: a full queue is a saturation
  /// signal (back off, fail over, keep probing), a stopped engine is a
  /// shutdown signal (stop routing here entirely) — the router's shard
  /// health score must not confuse the two.
  obs::Counter shed_queue_full;
  obs::Counter shed_stopped;
  obs::Counter shed_deadline;
  obs::Counter deadline_exceeded;
  obs::Counter failed;
  obs::Counter degraded;
  obs::Counter retries;
  obs::Counter transient_faults;
  obs::Counter timeouts;
  obs::Counter non_finite_batches;
  obs::Counter circuit_opens;
  obs::Counter circuit_closes;
  obs::Counter circuit_probes;
  obs::Counter swaps_attempted;
  obs::Counter swaps_completed;
  obs::Counter swaps_rejected;
  std::vector<obs::Counter> served_by_rung;
};

}  // namespace dnlr::serve

#endif  // DNLR_SERVE_COUNTERS_H_
