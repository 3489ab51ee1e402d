// Affected-area-driven query cache for the serving layer. Memoizes top-k
// results per query node and invalidates them SELECTIVELY: at each publish
// the score store reports the rows the batch actually wrote (its
// touched-row delta, DynamicSimRank::TouchedScoreRows), and only cached
// entries whose query node is one of those rows can have changed —
// everything else survives the epoch bump untouched. This turns the
// paper's lossless pruning structure (Theorem 4: ΔS is supported on
// ∪_k A_k×B_k plus its transpose) into a serving-side win: on graphs where
// updates touch a small affected area, most of the cache stays warm across
// ingest.
//
// Thread-safety: every method takes an internal mutex; readers fill the
// cache while the applier thread invalidates. Entries are tagged with the
// epoch of the snapshot they were computed from, and an insert whose epoch
// is no longer current is dropped — a reader racing with a publish can
// never resurrect a stale result after its node was invalidated.
#ifndef INCSR_SERVICE_QUERY_CACHE_H_
#define INCSR_SERVICE_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/dynamic_simrank.h"
#include "graph/digraph.h"
#include "obs/stats_schema.h"

namespace incsr::service {

/// Counter snapshot of cache effectiveness (obs/stats_schema.h table).
#define INCSR_QUERY_CACHE_STATS(X)                                          \
  X(hits, std::uint64_t, kSum, "lookups", "lookups answered from the cache") \
  X(misses, std::uint64_t, kSum, "lookups",                                 \
    "lookups that computed their answer")                                  \
  X(invalidations, std::uint64_t, kSum, "entries",                          \
    "entries erased by touched-row invalidation")                          \
  X(evictions, std::uint64_t, kSum, "entries",                              \
    "entries erased by LRU capacity pressure")                             \
  X(stale_inserts, std::uint64_t, kSum, "entries",                          \
    "inserts dropped because a newer epoch was published mid-compute")

struct QueryCacheStats {
  INCSR_STATS_TABLE(QueryCacheStats, INCSR_QUERY_CACHE_STATS)
};

/// LRU cache of TopKFor results (plus a single memoized TopKPairs entry),
/// invalidated per-node from affected-area statistics.
class TopKQueryCache {
 public:
  /// `capacity` bounds the number of cached query nodes; 0 disables the
  /// cache entirely (every lookup misses, inserts are dropped).
  explicit TopKQueryCache(std::size_t capacity) : capacity_(capacity) {}

  /// Cache hit iff an entry for `node` exists that was computed with a
  /// request size >= k; the answer is then the first min(k, size) results.
  bool Lookup(graph::NodeId node, std::size_t k,
              std::vector<core::ScoredPair>* out);

  /// Memoizes `results` (the TopKFor(node, k) answer computed from the
  /// snapshot of `epoch`). Dropped when `epoch` is no longer current or
  /// when a larger-k entry is already cached.
  void Insert(graph::NodeId node, std::size_t k, std::uint64_t epoch,
              std::vector<core::ScoredPair> results);

  /// Same hit rule for the global TopKPairs memo.
  bool LookupPairs(std::size_t k, std::vector<core::ScoredPair>* out);
  void InsertPairs(std::size_t k, std::uint64_t epoch,
                   std::vector<core::ScoredPair> results);

  /// Epoch transition after the applier publishes a snapshot: erases the
  /// entries of every touched node (and the pairs memo when anything was
  /// touched), then makes `epoch` the insert-admission epoch.
  void OnPublish(std::uint64_t epoch, std::span<const std::int32_t> touched);

  /// Epoch transition that drops everything (used when per-node stats are
  /// unavailable: Inc-uSR mode or a failed batch's unit-update fallback).
  void InvalidateAll(std::uint64_t epoch);

  QueryCacheStats stats() const;

 private:
  struct Entry {
    std::size_t k;
    std::vector<core::ScoredPair> results;
    std::list<graph::NodeId>::iterator lru_pos;
  };

  void EraseLocked(graph::NodeId node);

  const std::size_t capacity_;

  mutable std::mutex mu_;
  std::uint64_t epoch_ = 0;
  std::list<graph::NodeId> lru_;  // front = most recently used
  std::unordered_map<graph::NodeId, Entry> entries_;
  bool pairs_valid_ = false;
  std::size_t pairs_k_ = 0;
  std::vector<core::ScoredPair> pairs_;
  QueryCacheStats stats_;
};

}  // namespace incsr::service

#endif  // INCSR_SERVICE_QUERY_CACHE_H_
