// Serving benchmark: drives serve::ServingEngine in-process over a
// serve::Servable loaded from a binary bundle, with one closed-loop client,
// checks every response bitwise against reference scores, and prints one
// JSON result line. perfbench/run.py builds and runs it; perfbench/README.md
// explains the workloads and metrics.
//
//   serve_bench --workload rerank|fullrank|hot-cache --seed N --seconds S
//               --trace 0|1 --models DIR --work-dir DIR
//
// --trace 0 reports the end-to-end metrics, each the median over the
// untraced windows of kPhases phases. --trace 1 alternates untraced and
// traced segments (obs registry on) and reports the per-layer metrics of the
// traced ones.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bundle/bundle.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/normalize.h"
#include "data/synthetic.h"
#include "gbdt/ensemble.h"
#include "metrics/metrics.h"
#include "mm/csr.h"
#include "nn/mlp.h"
#include "obs/metrics.h"
#include "predict/dense_predictor.h"
#include "predict/sparse_predictor.h"
#include "replay/zipf.h"
#include "serve/engine.h"
#include "serve/score_cache.h"
#include "serve/servable.h"

namespace dnlr {
namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr char kStudentFile[] = "msn_net_200x100x100x50_t256_p97_s0.5.mlp";
constexpr char kForestFile[] = "msn_f80x64_s0.5.ensemble";
constexpr char kDensePredictorFile[] = "dense_predictor_s0.5.txt";
constexpr char kSparsePredictorFile[] = "sparse_predictor_s0.5.txt";
constexpr double kDataScale = 0.5;

// Rung costs (us/doc) are fixed in the bundle, never calibrated at set-up, so
// rung choice cannot differ between runs. With kBudgetMicros every request
// fits the top rung many times over, even through a 10+ ms steal burst.
const bundle::RungConfig kRungs{{{"student", "student", 4.0},
                                 {"cascade", "cascade", 2.0},
                                 {"teacher-subset", "teacher-subset", 1.0}}};
constexpr uint64_t kBudgetMicros = 2'000'000;

// A run is kPhases phases, each with its own set-up (timed: setup_s),
// engine and pool threads, warm-up and share of --seconds, measured as
// kWindowsPerPhase windows. At --seconds 50 a window lasts about 1.4 s, so
// more than 30 requests lie beyond a window's p99 on rerank and hot-cache.
constexpr int kPhases = 9;
constexpr int kWindowsPerPhase = 4;
constexpr double kWarmupSeconds = 0.3;
// --trace 1: each phase alternates this many untraced/traced segment pairs,
// so drift over the run affects both sides of trace.overhead_pct alike.
constexpr int kTracePairsPerPhase = 2;

// fullrank and hot-cache: neural rungs on a ThreadPool of 2 (the engine
// worker plus one pool worker score), parallel from a fixed candidate count.
// On hot-cache that is 128, the nn::NeuralScorerConfig default and the
// lowest a Servable uses, so misses on sets of 128-160 docs fan out and
// smaller ones stay serial.
constexpr uint32_t kFullrankQueries = 16;
constexpr uint32_t kFullrankDocs = 1024;
constexpr uint32_t kPoolThreads = 2;
constexpr uint32_t kFullrankMinParallelDocs = 256;
constexpr uint32_t kHotCacheMinParallelDocs = 128;

// hot-cache: Zipfian popularity over the test queries, a cache smaller than
// the query set, and a golden-gated bundle reload every kReloadEvery
// requests (a count, not a time, so reload points do not depend on speed).
// Both follow `dnlr_cli soak-bench`: its default exponent is 1.1, and its
// default reload spacing of 700 ms is about 3500 requests at the ~5k
// requests/s this workload serves on a 4-vCPU KVM guest.
constexpr double kZipfExponent = 1.1;
constexpr size_t kCacheCapacity = 48;
constexpr size_t kCacheShards = 4;
constexpr uint32_t kReloadEvery = 3500;
// Extra generations held at once to measure bundle.rss_per_generation_mb.
constexpr int kExtraGenerations = 4;

enum class Workload { kRerank, kFullrank, kHotCache };

struct Args {
  Workload workload = Workload::kRerank;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string models;
  std::string work_dir;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "serve_bench: %s\n", message.c_str());
  std::exit(2);
}

void DieIfError(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

template <typename T>
T ValueOrDie(Result<T> result, const std::string& what) {
  DieIfError(result.status(), what);
  return std::move(result).value();
}

Args ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  if (argc % 2 != 1) Die("flags come in --name value pairs");
  const auto need = [&](const std::string& name) {
    const auto it = flags.find(name);
    if (it == flags.end()) Die("missing " + name);
    return it->second;
  };
  Args args;
  const std::string workload = need("--workload");
  if (workload == "rerank") {
    args.workload = Workload::kRerank;
  } else if (workload == "fullrank") {
    args.workload = Workload::kFullrank;
  } else if (workload == "hot-cache") {
    args.workload = Workload::kHotCache;
  } else {
    Die("unknown workload '" + workload + "'");
  }
  args.seed = std::strtoull(need("--seed").c_str(), nullptr, 10);
  args.seconds = std::strtod(need("--seconds").c_str(), nullptr);
  if (!(args.seconds > 0.0)) Die("--seconds must be positive");
  const std::string trace = need("--trace");
  if (trace != "0" && trace != "1") Die("--trace must be 0 or 1");
  args.trace = trace == "1";
  args.models = need("--models");
  args.work_dir = need("--work-dir");
  return args;
}

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

double MicrosBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank percentile of `values` (p in (0, 100]); 0 when empty.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- Host diagnostics: recorded, never gated on ------------------------------

struct HostSample {
  uint64_t steal_ticks = 0;
  uint64_t total_ticks = 0;
  uint64_t involuntary_switches = 0;
  double cpu_seconds = 0.0;  // process user + sys
};

HostSample SampleHost() {
  HostSample sample;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t field[8] = {};  // user nice system idle iowait irq softirq steal
  if (stat >> cpu && cpu == "cpu") {
    for (uint64_t& f : field) stat >> f;
    sample.steal_ticks = field[7];
    for (const uint64_t f : field) sample.total_ticks += f;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  sample.involuntary_switches = static_cast<uint64_t>(usage.ru_nivcsw);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  sample.cpu_seconds = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  return sample;
}

/// Current resident set of this process, in MiB.
double ResidentMiB() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// --- Inputs ------------------------------------------------------------------

/// Everything generated before set-up: the normalizer statistics the bundle
/// carries and the candidate sets (one dataset query per request).
struct Inputs {
  data::ZNormalizer normalizer;
  data::Dataset sets;
  /// NDCG@10 of the reference ranking of each set (kInvalidQuery when the
  /// set has no relevant document).
  std::vector<double> ndcg;
};

Inputs MakeInputs(Workload workload) {
  const data::SyntheticConfig config =
      data::SyntheticConfig::MsnLike(kDataScale);
  Inputs inputs;
  {
    data::DatasetSplits splits = data::GenerateSyntheticSplits(config);
    inputs.normalizer.Fit(splits.train);
    inputs.sets = std::move(splits.test);
  }
  if (workload == Workload::kFullrank) {
    data::SyntheticConfig full = config;
    full.num_queries = kFullrankQueries;
    full.min_docs_per_query = kFullrankDocs;
    full.max_docs_per_query = kFullrankDocs;
    inputs.sets = data::GenerateSynthetic(full);
  }
  // The training split is gone; hand its pages back so the serving phase's
  // resident set is not dominated by generator leftovers.
  malloc_trim(0);
  return inputs;
}

const float* SetDocs(const data::Dataset& sets, uint32_t q) {
  return sets.Row(sets.QueryBegin(q));
}

// --- Set-up ------------------------------------------------------------------

/// One serving stack. Members are declared so that destruction stops the
/// engine first (releasing the Servable it pins), then the cache and pool.
struct Stack {
  std::unique_ptr<common::ThreadPool> pool;
  std::unique_ptr<serve::ScoreCache> cache;
  serve::ServableOptions options;
  std::string bundle_path;
  std::unique_ptr<serve::ServingEngine> engine;
  /// reference[set][rung]: the scores of every candidate set on every rung,
  /// computed by calling the rungs' scorers directly. Every response is
  /// compared bitwise against the vector of the rung it reports.
  std::vector<std::vector<std::vector<float>>> reference;
};

std::unique_ptr<Stack> SetUp(const Args& args, const Inputs& inputs) {
  auto stack = std::make_unique<Stack>();
  const std::string models = args.models + "/";
  nn::Mlp student = ValueOrDie(nn::Mlp::LoadFromFile(models + kStudentFile),
                               "load student");
  gbdt::Ensemble forest = ValueOrDie(
      gbdt::Ensemble::LoadFromFile(models + kForestFile), "load forest");
  bundle::ModelBundle bundle;
  DieIfError(bundle.SetTeacher(forest), "pack teacher");
  DieIfError(bundle.SetStudent(student), "pack student");
  DieIfError(bundle.SetNormalizer(inputs.normalizer), "pack normalizer");
  DieIfError(bundle.SetRungs(kRungs), "pack rungs");
  stack->bundle_path = args.work_dir + "/serve.bundle";
  DieIfError(
      bundle.SaveToFile(stack->bundle_path, bundle::BundleFormat::kBinary),
      "save bundle");

  if (args.workload != Workload::kRerank) {
    stack->pool = std::make_unique<common::ThreadPool>(kPoolThreads);
    stack->options.pool = stack->pool.get();
    stack->options.min_parallel_docs = args.workload == Workload::kFullrank
                                           ? kFullrankMinParallelDocs
                                           : kHotCacheMinParallelDocs;
  }
  serve::ServingConfig config;
  config.num_workers = 1;
  config.queue_capacity = 4;
  if (args.workload == Workload::kHotCache) {
    serve::ScoreCacheConfig cache_config;
    cache_config.capacity = kCacheCapacity;
    cache_config.num_shards = kCacheShards;
    stack->cache = std::make_unique<serve::ScoreCache>(cache_config);
    config.score_cache = stack->cache.get();
  }
  std::shared_ptr<const serve::Servable> servable = ValueOrDie(
      serve::Servable::LoadFromFile(stack->bundle_path, stack->options),
      "load bundle");
  const serve::DegradationLadder& ladder = servable->ladder();
  if (ladder.rung(0).scorer->name() != "neural-hybrid-sparse") {
    Die("top rung is not the hybrid SDMM+GEMM engine");
  }

  const data::Dataset& sets = inputs.sets;
  for (uint32_t q = 0; q < sets.num_queries(); ++q) {
    stack->reference.push_back(ValueOrDie(
        serve::CaptureGoldenScores(ladder, SetDocs(sets, q), sets.QuerySize(q),
                                   sets.num_features()),
        "reference scores"));
  }
  stack->engine = std::make_unique<serve::ServingEngine>(
      serve::Servable::LadderHandle(std::move(servable)), config);
  return stack;
}

/// Top-rung scores of every set from a path that shares no code with the
/// served one: ZNormalizer::Apply and the scalar nn::Mlp::ForwardOne on the
/// student loaded from its text file. Computed once per run, outside set-up.
std::vector<std::vector<float>> ScalarStudentScores(const Args& args,
                                                    const Inputs& inputs) {
  const nn::Mlp student =
      ValueOrDie(nn::Mlp::LoadFromFile(args.models + "/" + kStudentFile),
                 "load student");
  const data::Dataset& sets = inputs.sets;
  std::vector<float> row(sets.num_features());
  std::vector<std::vector<float>> scores(sets.num_queries());
  for (uint32_t q = 0; q < sets.num_queries(); ++q) {
    const float* docs = SetDocs(sets, q);
    for (uint32_t d = 0; d < sets.QuerySize(q); ++d) {
      std::copy_n(docs + size_t{d} * row.size(), row.size(), row.data());
      inputs.normalizer.Apply(row.data());
      scores[q].push_back(student.ForwardOne(row.data()));
    }
  }
  return scores;
}

/// Counts the sets whose top-rung reference disagrees with the scalar path
/// beyond float-reordering noise (the SDMM/GEMM kernels sum in another
/// order), reporting the first disagreement on stderr.
uint64_t WrongReferences(const Stack& stack,
                         const std::vector<std::vector<float>>& scalar) {
  constexpr float kTolerance = 1e-3f;
  uint64_t wrong = 0;
  for (size_t q = 0; q < scalar.size(); ++q) {
    const std::vector<float>& served = stack.reference[q][0];
    for (size_t d = 0; d < scalar[q].size(); ++d) {
      const float want = scalar[q][d];
      if (std::fabs(served[d] - want) >
          kTolerance * std::max(1.0f, std::fabs(want))) {
        if (wrong == 0) {
          std::fprintf(stderr,
                       "serve_bench: top rung scores set %zu doc %zu as %.9g, "
                       "the scalar forward pass as %.9g\n",
                       q, d, static_cast<double>(served[d]),
                       static_cast<double>(want));
        }
        ++wrong;
        break;
      }
    }
  }
  return wrong;
}

// --- Serving loop ------------------------------------------------------------

/// Per-request samples. Their buffers are touched once up front and reused,
/// so the benchmark's own bookkeeping adds the same resident memory to
/// peak_rss_mb however many requests a phase serves.
struct Samples {
  static constexpr size_t kCapacity = 1 << 16;

  std::vector<double> latency_us;  // client side, Submit to resolved future
  std::vector<double> queue_us;
  std::vector<double> process_us;
  std::vector<double> handoff_us;
  std::vector<double> hit_us;
  std::vector<uint32_t> hit_sets;  // candidate sets served from the cache

  void Reserve() {
    for (std::vector<double>* v :
         {&latency_us, &queue_us, &process_us, &handoff_us, &hit_us}) {
      v->assign(kCapacity, 0.0);
    }
    hit_sets.assign(kCapacity, 0);
    Clear();
  }
  void Clear() {
    for (std::vector<double>* v :
         {&latency_us, &queue_us, &process_us, &handoff_us, &hit_us}) {
      v->clear();
    }
    hit_sets.clear();
  }
};

/// What one or more serving windows observed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;  // status OK and scores bitwise equal to the reference
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  uint64_t top_rung = 0;
  uint64_t docs = 0;  // documents of ok requests
  double ndcg_sum = 0.0;
  uint64_t ndcg_count = 0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  uint64_t steal_ticks = 0;
  uint64_t total_ticks = 0;
  uint64_t involuntary_switches = 0;
  double peak_rss_mib = 0.0;

  Samples samples;
  double miss_process_sum_us = 0.0;  // requests that ran a rung
  uint64_t miss_docs = 0;
  uint64_t miss_requests = 0;

  uint64_t swaps = 0;
  uint64_t swaps_rejected = 0;
  std::vector<double> load_us;
  std::vector<double> swap_us;
  double reload_seconds = 0.0;  // wall time inside Reload

  uint64_t retries = 0;
  uint64_t degraded = 0;
  uint64_t shed = 0;
  serve::ScoreCacheStats cache;
  common::ThreadPool::Stats pool;

  /// Zeroes the tally, keeping the sample buffers' capacity.
  void Reset() {
    Samples kept = std::move(samples);
    kept.Clear();
    *this = Tally();
    samples = std::move(kept);
  }
};

/// Operation counts of a whole run, for the result line. Requests and
/// bundle swaps are the operations.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  /// Candidate sets, summed over set-ups, whose top-rung reference
  /// disagreed with the scalar path.
  uint64_t wrong_references = 0;

  void Add(const Tally& tally) {
    attempted += tally.attempted + tally.swaps;
    failed += tally.failed + tally.swaps_rejected;
    mismatched += tally.mismatched;
  }
};

/// The closed-loop client: submits the next request only after the previous
/// response has resolved and been checked, so one request is in flight.
class Client {
 public:
  /// `rng` carries the seeded stream across phases; it is the only source of
  /// randomness in the requests.
  Client(Workload workload, const Inputs& inputs, Stack* stack, Rng* rng)
      : workload_(workload), inputs_(inputs), stack_(stack), rng_(*rng) {
    const uint32_t n = inputs.sets.num_queries();
    if (workload_ == Workload::kHotCache) {
      // Rank r is test query r; the seed only drives the draws.
      zipf_.emplace(n, kZipfExponent);
    } else {
      order_.resize(n);
      std::iota(order_.begin(), order_.end(), 0u);
    }
  }

  /// Serves requests back to back until `seconds` have passed, adding what
  /// happened to `tally`.
  void Serve(double seconds, Tally* tally) {
    serve::ServingEngine& engine = *stack_->engine;
    const serve::ServeCountersSnapshot counters_before =
        engine.counters().Snapshot();
    const serve::ScoreCacheStats cache_before =
        stack_->cache ? stack_->cache->Stats() : serve::ScoreCacheStats{};
    const common::ThreadPool::Stats pool_before =
        stack_->pool ? stack_->pool->GetStats() : common::ThreadPool::Stats{};
    const HostSample host_before = SampleHost();
    tally->peak_rss_mib = std::max(tally->peak_rss_mib, ResidentMiB());

    const data::Dataset& sets = inputs_.sets;
    const SteadyClock::time_point start = SteadyClock::now();
    while (SecondsSince(start) < seconds) {
      if (workload_ == Workload::kHotCache && served_ > 0 &&
          served_ % kReloadEvery == 0) {
        Reload(tally);
      }
      const uint32_t q = NextSet();
      serve::ServeRequest request;
      request.docs = SetDocs(sets, q);
      request.count = sets.QuerySize(q);
      request.stride = sets.num_features();
      const SteadyClock::time_point submitted = SteadyClock::now();
      request.deadline =
          serve::Deadline::AfterMicros(engine.clock(), kBudgetMicros);
      serve::ServeResponse response = engine.Submit(request).get();
      const double latency = MicrosBetween(submitted, SteadyClock::now());
      ++served_;
      Record(q, response, latency, tally);
      if (served_ % 64 == 0) {
        tally->peak_rss_mib = std::max(tally->peak_rss_mib, ResidentMiB());
      }
    }
    tally->seconds += SecondsSince(start);

    const HostSample host_after = SampleHost();
    tally->cpu_seconds += host_after.cpu_seconds - host_before.cpu_seconds;
    tally->steal_ticks += host_after.steal_ticks - host_before.steal_ticks;
    tally->total_ticks += host_after.total_ticks - host_before.total_ticks;
    tally->involuntary_switches +=
        host_after.involuntary_switches - host_before.involuntary_switches;
    const serve::ServeCountersSnapshot counters_after =
        engine.counters().Snapshot();
    tally->retries += counters_after.retries - counters_before.retries;
    tally->degraded += counters_after.degraded - counters_before.degraded;
    const auto shed = [](const serve::ServeCountersSnapshot& c) {
      return c.shed_queue_full + c.shed_stopped + c.shed_deadline;
    };
    tally->shed += shed(counters_after) - shed(counters_before);
    if (stack_->cache) {
      const serve::ScoreCacheStats cache_after = stack_->cache->Stats();
      tally->cache.hits += cache_after.hits - cache_before.hits;
      tally->cache.misses += cache_after.misses - cache_before.misses;
      tally->cache.evictions += cache_after.evictions - cache_before.evictions;
      tally->cache.stale_rejects +=
          cache_after.stale_rejects - cache_before.stale_rejects;
    }
    if (stack_->pool) {
      const common::ThreadPool::Stats pool_after = stack_->pool->GetStats();
      tally->pool.tasks_run += pool_after.tasks_run - pool_before.tasks_run;
      tally->pool.blocks += pool_after.blocks - pool_before.blocks;
      tally->pool.empty_wakeups +=
          pool_after.empty_wakeups - pool_before.empty_wakeups;
    }
  }

 private:
  uint32_t NextSet() {
    if (zipf_) return zipf_->Sample(rng_);
    if (cursor_ == order_.size()) cursor_ = 0;
    if (cursor_ == 0) {  // a fresh seeded permutation every pass
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.Below(i)]);
      }
    }
    return order_[cursor_++];
  }

  void Record(uint32_t q, const serve::ServeResponse& response, double latency,
              Tally* tally) {
    ++tally->attempted;
    const std::vector<std::vector<float>>& per_rung = stack_->reference[q];
    const double ndcg = inputs_.ndcg[q];
    if (ndcg != metrics::kInvalidQuery) ++tally->ndcg_count;
    tally->samples.latency_us.push_back(latency);
    if (!response.status.ok()) {
      ++tally->failed;
      return;
    }
    if (response.rung < 0 ||
        static_cast<size_t>(response.rung) >= per_rung.size()) {
      ++tally->failed;
      ++tally->mismatched;
      return;
    }
    // A degraded response is correct when it matches its own rung.
    const std::vector<float>& reference = per_rung[response.rung];
    if (response.scores.size() != reference.size() ||
        std::memcmp(response.scores.data(), reference.data(),
                    reference.size() * sizeof(float)) != 0) {
      ++tally->failed;
      ++tally->mismatched;
      return;
    }
    ++tally->ok;
    if (response.rung == 0) ++tally->top_rung;
    tally->docs += reference.size();
    if (ndcg != metrics::kInvalidQuery) tally->ndcg_sum += ndcg;
    const auto queue = static_cast<double>(response.queue_micros);
    const auto process = static_cast<double>(response.total_micros);
    tally->samples.queue_us.push_back(queue);
    tally->samples.process_us.push_back(process);
    tally->samples.handoff_us.push_back(latency - queue - process);
    if (response.cache_hit) {
      tally->samples.hit_us.push_back(process);
      tally->samples.hit_sets.push_back(q);
    } else {
      tally->miss_process_sum_us += process;
      tally->miss_docs += reference.size();
      ++tally->miss_requests;
    }
  }

  /// Reloads the bundle from disk and publishes it through SwapModel behind a
  /// golden-score validator. Spans stay off meanwhile, so the layer sums of a
  /// traced run cover request scoring only; both calls are timed here.
  void Reload(Tally* tally) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    const bool traced = registry.enabled();
    registry.SetEnabled(false);
    const data::Dataset& sets = inputs_.sets;
    const SteadyClock::time_point t0 = SteadyClock::now();
    Result<std::unique_ptr<serve::Servable>> next =
        serve::Servable::LoadFromFile(stack_->bundle_path, stack_->options);
    const SteadyClock::time_point t1 = SteadyClock::now();
    ++tally->swaps;
    if (!next.ok()) {
      ++tally->swaps_rejected;
      registry.SetEnabled(traced);
      return;
    }
    const auto validate = [&](const serve::DegradationLadder& ladder) {
      return serve::RunGoldenSmoke(ladder, SetDocs(sets, 0), sets.QuerySize(0),
                                   sets.num_features(), &stack_->reference[0]);
    };
    const Status swapped = stack_->engine->SwapModel(
        serve::Servable::LadderHandle(std::move(next).value()), validate);
    const SteadyClock::time_point t2 = SteadyClock::now();
    if (!swapped.ok()) ++tally->swaps_rejected;
    tally->load_us.push_back(MicrosBetween(t0, t1));
    tally->swap_us.push_back(MicrosBetween(t1, t2));
    tally->reload_seconds += MicrosBetween(t0, t2) * 1e-6;
    tally->peak_rss_mib = std::max(tally->peak_rss_mib, ResidentMiB());
    registry.SetEnabled(traced);
  }

  Workload workload_;
  const Inputs& inputs_;
  Stack* stack_;
  Rng& rng_;
  std::optional<replay::ZipfSampler> zipf_;
  std::vector<uint32_t> order_;
  size_t cursor_ = 0;
  uint64_t served_ = 0;
};

// --- Reporting ---------------------------------------------------------------

/// How a run combines a metric's per-window values. Host steal comes in
/// episodes of 10-30 s that can cover three quarters of a run, and any
/// window they touch reads slower; the timing metrics therefore report what
/// the least disturbed tenth of the windows reached. A slower program is
/// slower in every window, so it still shows.
enum class Across {
  kMedian,
  kLowDecile,   // timings where lower is better: the 10th percentile
  kHighDecile,  // rates where higher is better: the 90th percentile
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  Across across = Across::kMedian;
};

/// Prints the result line. The output is correct when every served score
/// matched its reference.
void PrintResult(const Outcome& outcome, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += outcome.mismatched == 0 && outcome.wrong_references == 0 &&
                  outcome.attempted > 0
              ? "true"
              : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double StealPct(const Tally& tally) {
  return 100.0 * Ratio(static_cast<double>(tally.steal_ticks),
                       static_cast<double>(tally.total_ticks));
}

double InvoluntarySwitchesPerSecond(const Tally& tally) {
  return Ratio(static_cast<double>(tally.involuntary_switches), tally.seconds);
}

std::vector<Metric> WindowMetrics(const Tally& tally) {
  const auto attempted = static_cast<double>(tally.attempted);
  const auto docs = static_cast<double>(tally.docs);
  return {
      {"latency_p50_us", Percentile(tally.samples.latency_us, 50.0), "us",
       Across::kLowDecile},
      {"latency_p99_us", Percentile(tally.samples.latency_us, 99.0), "us",
       Across::kLowDecile},
      {"docs_per_s", Ratio(docs, tally.seconds), "1/s",
       Across::kHighDecile},
      {"cpu_us_per_doc", Ratio(tally.cpu_seconds * 1e6, docs), "us",
       Across::kLowDecile},
      {"ok_rate", Ratio(static_cast<double>(tally.ok), attempted), "ratio"},
      {"top_rung_rate", Ratio(static_cast<double>(tally.top_rung), attempted),
       "ratio"},
      {"ndcg_at_10",
       Ratio(tally.ndcg_sum, static_cast<double>(tally.ndcg_count)), "ratio"},
      {"peak_rss_mb", tally.peak_rss_mib, "MiB"},
  };
}

/// Combines each end-to-end metric's per-window values as its `across`
/// says.
std::vector<Metric> EndToEndMetrics(
    const std::vector<std::vector<Metric>>& per_window, double setup_s) {
  std::vector<Metric> metrics = per_window.front();
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::vector<double> values;
    for (const std::vector<Metric>& window : per_window) {
      values.push_back(window[i].value);
    }
    switch (metrics[i].across) {
      case Across::kMedian:
        metrics[i].value = Median(std::move(values));
        break;
      case Across::kLowDecile:
        metrics[i].value = Percentile(std::move(values), 10.0);
        break;
      case Across::kHighDecile:
        metrics[i].value = Percentile(std::move(values), 90.0);
        break;
    }
  }
  metrics.push_back({"setup_s", setup_s, "s"});
  return metrics;
}

/// Predicted us/doc of each student layer from the committed predictor
/// files, at the scorers' batch size: the sparse predictor for the pruned
/// first layer (it runs SDMM), the dense one for the rest (GEMM).
std::vector<double> PredictLayerMicrosPerDoc(const Args& args) {
  constexpr uint32_t kBatch = 64;  // nn::NeuralScorerConfig default
  const std::string models = args.models + "/";
  const nn::Mlp student = ValueOrDie(
      nn::Mlp::LoadFromFile(models + kStudentFile), "load student");
  const predict::DenseTimePredictor dense = ValueOrDie(
      predict::DenseTimePredictor::Deserialize(ValueOrDie(
          ReadFileToString(models + kDensePredictorFile), "read predictor")),
      "parse dense predictor");
  const predict::SparseTimePredictor sparse = ValueOrDie(
      predict::SparseTimePredictor::Deserialize(ValueOrDie(
          ReadFileToString(models + kSparsePredictorFile), "read predictor")),
      "parse sparse predictor");
  std::vector<double> per_doc;
  for (uint32_t l = 0; l < student.num_layers(); ++l) {
    const mm::Matrix& weight = student.layer(l).weight;
    const double batch_us =
        l == 0 ? sparse.PredictMicros(mm::CsrMatrix::FromDense(weight), kBatch)
               : dense.PredictGemmMicros(weight.rows(), weight.cols(), kBatch);
    per_doc.push_back(batch_us / kBatch);
  }
  return per_doc;
}

/// Heap bytes in use, in MiB.
double HeapInUseMiB() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

/// MiB one more resident model generation costs. Measured as heap in use
/// rather than RSS: earlier phases leave freed heap behind that a new
/// generation reuses without growing RSS. Every byte the loaded models hold
/// is written, so it is resident.
double MiBPerGeneration(const Stack& stack) {
  const double before = HeapInUseMiB();
  std::vector<std::unique_ptr<serve::Servable>> held;
  for (int g = 0; g < kExtraGenerations; ++g) {
    held.push_back(ValueOrDie(
        serve::Servable::LoadFromFile(stack.bundle_path, stack.options),
        "load bundle"));
  }
  return (HeapInUseMiB() - before) / kExtraGenerations;
}

std::vector<Metric> PerLayerMetrics(const Args& args, const Stack& stack,
                                    const Inputs& inputs, const Tally& traced,
                                    const Tally& untraced) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto sum_us = [&](const std::string& name) {
    const obs::Histogram* h = registry.FindHistogram(name);
    return h == nullptr ? 0.0 : h->SumMicros();
  };
  const auto count = [&](const char* name) {
    return static_cast<double>(registry.GetCounter(name).Value());
  };
  const double nn_docs = count("nn.docs");
  const auto per_doc = [&](double us) { return Ratio(us, nn_docs); };
  const auto span_per_doc = [&](const std::string& name) {
    return per_doc(sum_us(name));
  };
  const auto requests = static_cast<double>(traced.attempted);
  const auto per_1k = [&](double n) { return 1000.0 * Ratio(n, requests); };
  const double miss_requests = static_cast<double>(traced.miss_requests);

  constexpr int kLayers = 5;  // 200x100x100x50 plus the scoring layer
  const std::string layer_names[kLayers] = {
      "nn.layer0.sparse_us", "nn.layer1.dense_us", "nn.layer2.dense_us",
      "nn.layer3.dense_us", "nn.layer4.dense_us"};
  double layer_sum = 0.0;
  for (const std::string& name : layer_names) layer_sum += sum_us(name);
  const double forward = sum_us("nn.forward_us");
  const double forest = sum_us("forest.quickscorer.batch_us") +
                        sum_us("forest.wide.batch_us") +
                        sum_us("forest.vqs.batch_us") +
                        sum_us("forest.blockwise.block_us");

  std::vector<Metric> m;
  const Samples& samples = traced.samples;
  m.push_back({"serve.queue_wait_us.p50", Median(samples.queue_us), "us"});
  m.push_back({"serve.process_us.p50", Median(samples.process_us), "us"});
  m.push_back({"serve.handoff_us.p50", Median(samples.handoff_us), "us"});
  m.push_back({"serve.retries", per_1k(static_cast<double>(traced.retries)),
               "per_1k_req"});
  m.push_back({"serve.degraded", per_1k(static_cast<double>(traced.degraded)),
               "per_1k_req"});
  m.push_back({"serve.shed", per_1k(static_cast<double>(traced.shed)),
               "per_1k_req"});

  const auto hits = static_cast<double>(traced.cache.hits);
  const auto lookups = hits + static_cast<double>(traced.cache.misses);
  m.push_back({"cache.hit_rate", Ratio(hits, lookups), "ratio"});
  m.push_back({"cache.stale_rejects",
               per_1k(static_cast<double>(traced.cache.stale_rejects)),
               "per_1k_req"});
  m.push_back({"cache.evictions",
               per_1k(static_cast<double>(traced.cache.evictions)),
               "per_1k_req"});
  m.push_back({"cache.hit_us.p50", Median(samples.hit_us), "us"});
  // The cache's whole key cost: ScoreCache::Fingerprint timed on the sets
  // that were served from the cache.
  std::vector<double> fingerprint_us;
  for (size_t i = 0; i < samples.hit_sets.size() && i < 2000; ++i) {
    const uint32_t q = samples.hit_sets[i];
    const SteadyClock::time_point t0 = SteadyClock::now();
    serve::ScoreCache::Fingerprint(SetDocs(inputs.sets, q),
                                   inputs.sets.QuerySize(q),
                                   inputs.sets.num_features());
    fingerprint_us.push_back(MicrosBetween(t0, SteadyClock::now()));
  }
  m.push_back({"cache.fingerprint_us.p50", Median(fingerprint_us), "us"});

  m.push_back({"bundle.load_us.p50", Median(traced.load_us), "us"});
  m.push_back({"serve.swap_us.p50", Median(traced.swap_us), "us"});
  m.push_back({"bundle.reload_wall_share",
               Ratio(traced.reload_seconds, traced.seconds), "ratio"});
  m.push_back({"bundle.rss_per_generation_mb",
               args.workload == Workload::kHotCache
                   ? MiBPerGeneration(stack)
                   : 0.0,
               "MiB"});

  m.push_back({"nn.forward_us.per_doc", per_doc(forward), "us"});
  m.push_back({"nn.self_us.per_doc", per_doc(forward - layer_sum), "us"});
  for (int l = 0; l < kLayers; ++l) {
    m.push_back({layer_names[l] + ".per_doc", span_per_doc(layer_names[l]),
                 "us"});
  }
  m.push_back({"nn.share_of_process",
               Ratio(forward, traced.miss_process_sum_us), "ratio"});

  m.push_back({"mm.sdmm.us_per_doc", span_per_doc("mm.sdmm.total_us"), "us"});
  for (const char* part : {"kernel_us", "pack_a_us", "pack_b_us"}) {
    const std::string name = std::string("mm.gemm.") + part;
    m.push_back({name + ".per_doc", span_per_doc(name), "us"});
  }
  m.push_back({"mm.gemm.calls_per_request",
               Ratio(count("mm.gemm.calls"), miss_requests), "count"});

  m.push_back({"pool.tasks_per_request",
               Ratio(static_cast<double>(traced.pool.tasks_run), miss_requests),
               "count"});
  m.push_back({"pool.blocks_per_request",
               Ratio(static_cast<double>(traced.pool.blocks), miss_requests),
               "count"});
  m.push_back({"pool.empty_wakeups_per_request",
               Ratio(static_cast<double>(traced.pool.empty_wakeups),
                     miss_requests),
               "count"});

  m.push_back({"forest.us_per_doc", per_doc(forest), "us"});

  const double process_per_doc =
      Ratio(traced.miss_process_sum_us, static_cast<double>(traced.miss_docs));
  m.push_back({"predict.rung0.drift_ratio",
               Ratio(process_per_doc, kRungs.rungs[0].us_per_doc), "ratio"});
  const std::vector<double> predicted = PredictLayerMicrosPerDoc(args);
  for (int l = 0; l < kLayers; ++l) {
    m.push_back({"predict.layer" + std::to_string(l) + ".drift_ratio",
                 Ratio(span_per_doc(layer_names[l]), predicted[l]),
                 "ratio"});
  }

  const double traced_rate =
      Ratio(static_cast<double>(traced.docs), traced.seconds);
  const double untraced_rate =
      Ratio(static_cast<double>(untraced.docs), untraced.seconds);
  m.push_back({"trace.overhead_pct",
               100.0 * (Ratio(untraced_rate, traced_rate) - 1.0), "%"});
  m.push_back({"host.steal_pct", StealPct(traced), "%"});
  m.push_back({"host.involuntary_switches_per_s",
               InvoluntarySwitchesPerSecond(traced), "1/s"});
  return m;
}

void PrintDiagnostics(const Tally& tally) {
  std::printf(
      "{\"diagnostics\": {\"steal_pct\": %.3f, "
      "\"involuntary_switches_per_s\": %.1f, \"requests\": %llu, "
      "\"latency_p50_us\": %.1f, \"latency_p99_us\": %.1f}}\n",
      StealPct(tally), InvoluntarySwitchesPerSecond(tally),
      static_cast<unsigned long long>(tally.attempted),
      Percentile(tally.samples.latency_us, 50.0),
      Percentile(tally.samples.latency_us, 99.0));
}

int Run(const Args& args) {
  // One malloc arena, so peak_rss_mb is a figure for this setting. Every
  // phase starts fresh engine and pool threads, and with glibc's default
  // arenas whether they get a used arena or a new one depends on thread
  // timing: peak_rss_mb on hot-cache then jumped between about 21 and
  // 23 MiB from run to run, even with the freed heap trimmed between phases.
  mallopt(M_ARENA_MAX, 1);
  Inputs inputs = MakeInputs(args.workload);
  const std::vector<std::vector<float>> scalar =
      ScalarStudentScores(args, inputs);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.ResetValues();
  Rng rng(args.seed);
  std::vector<double> setup_seconds;
  std::vector<std::vector<Metric>> window_metrics;
  Outcome outcome;
  Tally window;  // the current phase's untraced windows
  window.samples.Reserve();
  Tally untraced;  // --trace 1: docs and seconds of all untraced segments
  Tally traced;
  std::unique_ptr<Stack> stack;
  for (int phase = 0; phase < kPhases; ++phase) {
    stack.reset();
    const SteadyClock::time_point start = SteadyClock::now();
    stack = SetUp(args, inputs);
    setup_seconds.push_back(SecondsSince(start));
    outcome.wrong_references += WrongReferences(*stack, scalar);
    if (inputs.ndcg.empty()) {
      // NDCG@10 of each set's reference ranking: a correct response ranks
      // exactly like its reference, so this is the served ranking's quality.
      const data::Dataset& sets = inputs.sets;
      for (uint32_t q = 0; q < sets.num_queries(); ++q) {
        const std::span<const float> labels(
            &sets.labels()[sets.QueryBegin(q)], sets.QuerySize(q));
        inputs.ndcg.push_back(
            metrics::Ndcg(labels, stack->reference[q][0], 10));
      }
    }

    Client client(args.workload, inputs, stack.get(), &rng);
    client.Serve(kWarmupSeconds, &window);
    outcome.Add(window);
    window.Reset();
    const double share = args.seconds / kPhases;
    if (!args.trace) {
      for (int w = 0; w < kWindowsPerPhase; ++w) {
        client.Serve(share / kWindowsPerPhase, &window);
        window_metrics.push_back(WindowMetrics(window));
        PrintDiagnostics(window);
        outcome.Add(window);
        window.Reset();
      }
    } else {
      const double segment = share / (2.0 * kTracePairsPerPhase);
      for (int s = 0; s < kTracePairsPerPhase; ++s) {
        client.Serve(segment, &window);
        registry.SetEnabled(true);
        client.Serve(segment, &traced);
        registry.SetEnabled(false);
      }
      untraced.docs += window.docs;
      untraced.seconds += window.seconds;
      PrintDiagnostics(window);
      outcome.Add(window);
      window.Reset();
    }
  }

  if (args.trace) {
    PrintDiagnostics(traced);
    const std::vector<Metric> metrics =
        PerLayerMetrics(args, *stack, inputs, traced, untraced);
    outcome.Add(traced);
    PrintResult(outcome, metrics);
  } else {
    PrintResult(outcome, EndToEndMetrics(window_metrics, Median(setup_seconds)));
  }
  return 0;
}

}  // namespace
}  // namespace dnlr

int main(int argc, char** argv) {
  return dnlr::Run(dnlr::ParseArgs(argc, argv));
}
