#ifndef DNLR_OBS_METRICS_H_
#define DNLR_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dnlr::obs {

/// Monotonic event counter. Recording is one relaxed fetch_add; safe from
/// any thread.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-value gauge for doubles (stored as the double's bit pattern in a
/// 64-bit atomic, so Set/Value are single lock-free loads and stores).
class Gauge {
 public:
  // Relaxed ordering: last-writer-wins sample; readers need the latest-ish
  // value only and no other data is published through the gauge.
  void Set(double value) {
    bits_.store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
  }
  double Value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }
  void Reset() { Set(0.0); }

 private:
  std::atomic<uint64_t> bits_{std::bit_cast<uint64_t>(0.0)};
};

/// Fixed-footprint log2 latency histogram. Values are recorded in
/// microseconds but bucketed on integer nanoseconds: bucket 0 holds exact
/// zeros and bucket b >= 1 holds nanos in [2^(b-1), 2^b - 1], so the whole
/// uint64 range fits in 64 buckets and memory stays constant no matter how
/// many samples arrive, which is what lets it record under production
/// load (exact percentiles come from serve::Percentile over a finite
/// sample set, the oracle these estimates are tested against). Record is
/// wait-free: a handful of relaxed atomic ops, no mutex, no allocation.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one sample. Negative and NaN inputs clamp to zero (a latency
  /// can legitimately measure as 0 us with a coarse clock; it can never be
  /// negative).
  void Record(double micros);

  // Relaxed loads on every aggregate below: each is an independent
  // statistic; snapshots are per-field consistent, which is all the
  // exporters need.
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double SumMicros() const {
    return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) *
           1e-3;
  }
  double MeanMicros() const {
    const uint64_t n = Count();
    return n == 0 ? 0.0 : SumMicros() / static_cast<double>(n);
  }
  /// Smallest / largest recorded sample in microseconds; 0 when empty.
  double MinMicros() const;
  double MaxMicros() const;

  uint64_t BucketCount(size_t b) const {
    // Relaxed: independent per-bucket statistic, as above.
    return buckets_[b].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket `b`, in microseconds.
  static double BucketUpperMicros(size_t b);

  /// Nearest-rank percentile estimate (p in [0, 100]): the upper bound of
  /// the bucket holding the rank-th sample, so for any sample distribution
  /// exact <= estimate < 2 * exact (log2 bucket resolution). 0 when empty.
  double ApproxPercentileMicros(double p) const;

  /// Zeroes every bucket and aggregate. Not atomic with respect to
  /// concurrent Record calls; callers quiesce recorders first (tests and
  /// the stats CLI do this between measurement phases).
  void Reset();

 private:
  static size_t BucketOf(uint64_t nanos) {
    const auto width = static_cast<size_t>(std::bit_width(nanos));
    return width < kNumBuckets ? width : kNumBuckets - 1;
  }

  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_nanos_{0};
  std::atomic<uint64_t> min_nanos_{UINT64_MAX};
  std::atomic<uint64_t> max_nanos_{0};
};

/// Process-wide registry of named metrics. Registration (GetCounter /
/// GetGauge / GetHistogram) takes a mutex and is meant for cold paths —
/// constructors and function-local statics; the returned references stay
/// valid for the life of the process, so hot paths record through cached
/// pointers without ever touching the map again.
///
/// The `enabled` flag is the run-time switch for the scoring hot-path spans
/// (mm / nn / forest): off by default, one relaxed atomic load to test, and
/// instrumentation never changes any score either way (timing reads no model
/// data), so instrumented and uninstrumented scoring are bitwise identical.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name) DNLR_EXCLUDES(mu_);
  Gauge& GetGauge(std::string_view name) DNLR_EXCLUDES(mu_);
  Histogram& GetHistogram(std::string_view name) DNLR_EXCLUDES(mu_);

  /// Looks up an already-registered histogram; nullptr when absent.
  const Histogram* FindHistogram(std::string_view name) const
      DNLR_EXCLUDES(mu_);

  // Relaxed ordering on the flag: it only gates whether spans record; a
  // thread seeing the old value for a few more samples is harmless and the
  // flag publishes no other data.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Serializes every registered metric as one JSON object: {"enabled":
  /// ..., "counters": [...], "gauges": [...], "histograms": [...]}, entries
  /// sorted by name, histograms with only their nonzero buckets. Safe to
  /// call while recorders are live (values are read atomically; the
  /// snapshot is per-metric, not cross-metric consistent).
  std::string ToJson() const DNLR_EXCLUDES(mu_);

  /// Zeroes every registered metric's value (registrations persist, so
  /// cached pointers stay valid). Same quiescence caveat as
  /// Histogram::Reset.
  void ResetValues() DNLR_EXCLUDES(mu_);

 private:
  MetricsRegistry() = default;

  mutable common::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      DNLR_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      DNLR_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      DNLR_GUARDED_BY(mu_);
  std::atomic<bool> enabled_{false};
};

/// Hot-path test for whether scoring spans should measure anything. With
/// the layer compiled out (DNLR_OBS=OFF) this is constant false, so every
/// TraceSpan body dead-codes away even at call sites that do not use the
/// DNLR_OBS_SPAN macro.
inline bool Enabled() {
#ifdef DNLR_OBS_DISABLED
  return false;
#else
  return MetricsRegistry::Global().enabled();
#endif
}

/// Validates that `text` is one syntactically well-formed JSON value
/// (object, array, string, number, true/false/null) with nothing but
/// whitespace after it. Used by `dnlr_cli stats --in` and the CI gate to
/// guarantee every exported report parses. Returns an empty string on
/// success, else a short error with the byte offset.
std::string CheckJsonSyntax(std::string_view text);

}  // namespace dnlr::obs

#endif  // DNLR_OBS_METRICS_H_
