#include "serve/score_cache.h"

#include <algorithm>

#include "common/check.h"
#include "common/hash.h"

namespace dnlr::serve {

ScoreCache::ScoreCache(const ScoreCacheConfig& config) {
  DNLR_CHECK_GE(config.capacity, 1u);
  const size_t num_shards =
      std::max<size_t>(1, std::min(config.num_shards, config.capacity));
  per_shard_capacity_ = (config.capacity + num_shards - 1) / num_shards;
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

uint64_t ScoreCache::Fingerprint(const float* docs, uint32_t count,
                                 uint32_t stride) {
  // One contiguous region: requests lay documents out row-major at `stride`
  // floats apart, so count * stride floats cover every row (padding lanes
  // included; identical batches have identical padding). The shape goes in
  // the seed, so the same bytes read as another count x stride differ.
  const size_t bytes =
      docs == nullptr ? 0 : static_cast<size_t>(count) * stride * sizeof(float);
  return common::Hash64(docs, bytes, (uint64_t{count} << 32) | stride);
}

bool ScoreCache::Lookup(uint64_t fingerprint, uint64_t version,
                        uint32_t count, Entry* out) {
  Shard& shard = ShardFor(fingerprint);
  common::MutexLock lock(shard.mu);
  const auto it = shard.index.find(fingerprint);
  if (it == shard.index.end()) {
    miss_count_.Add();
    return false;
  }
  Node& node = *it->second;
  if (node.version != version) {
    // Stale generation: never served, dropped on sight. This is the
    // bitwise no-stale-score guarantee — scores from generation N cannot
    // leak into generation N+1 responses.
    shard.lru.erase(it->second);
    shard.index.erase(it);
    stale_count_.Add();
    miss_count_.Add();
    return false;
  }
  if (node.count != count) {
    // 64-bit fingerprint collision between different batch shapes; drop
    // rather than ever return wrong-shaped scores.
    shard.lru.erase(it->second);
    shard.index.erase(it);
    miss_count_.Add();
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  out->scores = node.scores;
  out->rung = node.rung;
  out->degraded = node.degraded;
  hit_count_.Add();
  return true;
}

void ScoreCache::Insert(uint64_t fingerprint, uint64_t version,
                        const float* scores, uint32_t count, int rung,
                        bool degraded) {
  DNLR_DCHECK(scores != nullptr || count == 0);
  Shard& shard = ShardFor(fingerprint);
  common::MutexLock lock(shard.mu);
  const auto it = shard.index.find(fingerprint);
  if (it != shard.index.end()) {
    // Refresh in place: a re-score after a swap overwrites the stale
    // entry with the current generation's scores.
    Node& node = *it->second;
    node.version = version;
    node.count = count;
    node.rung = rung;
    node.degraded = degraded;
    node.scores.assign(scores, scores + count);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().fingerprint);
    shard.lru.pop_back();
    eviction_count_.Add();
  }
  Node node;
  node.fingerprint = fingerprint;
  node.version = version;
  node.count = count;
  node.rung = rung;
  node.degraded = degraded;
  node.scores.assign(scores, scores + count);
  shard.lru.push_front(std::move(node));
  shard.index[fingerprint] = shard.lru.begin();
}

void ScoreCache::Clear() {
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

ScoreCacheStats ScoreCache::Stats() const {
  ScoreCacheStats stats;
  stats.hits = hit_count_.Value();
  stats.misses = miss_count_.Value();
  stats.evictions = eviction_count_.Value();
  stats.stale_rejects = stale_count_.Value();
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    stats.entries += shard->lru.size();
  }
  return stats;
}

}  // namespace dnlr::serve
