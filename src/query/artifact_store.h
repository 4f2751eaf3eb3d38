#pragma once

/// \file artifact_store.h
/// \brief Sharded cache of the shared artifacts the candidate-evaluation
/// planner reuses across candidates and batches.
///
/// Middle layer of the planner / store / kernel split. The store holds four
/// kind-shards, each with its own map and eviction policy:
///
///   - group shard:  GroupIndex + training-row map per group-key set
///                   (never evicted: one per key set, tiny, reused forever),
///   - mask shard:   word-packed selection Bitsets per WHERE predicate and
///                   per predicate conjunction (byte-capped),
///   - view shard:   numeric value views (NaN iff null) per agg attribute
///                   (never evicted: one per column),
///   - order shard:  value-sorted row permutations (ValueOrder) per
///                   (group keys, agg attribute) pair, read by every order
///                   statistic over the pair (never evicted: one per pair).
///
/// **Build-then-publish ownership.** The store itself never constructs an
/// artifact. The planner looks artifacts up (Find*), builds the missing ones
/// *off to the side* — on the ThreadPool, independent artifacts in parallel —
/// and then publishes the finished values (Publish*) from a single thread.
/// Because every map write happens inside a sequential publish step, the
/// shards need no locks, and the fan-out phase can read published artifacts
/// through raw const pointers: std::unordered_map never invalidates element
/// pointers on insert/rehash, and the epoch-pinned eviction below never
/// erases an entry the current batch referenced.
///
/// **Epoch pinning.** BeginEpoch() opens a batch; every Find hit and every
/// Publish stamps the entry with the current epoch. When the byte-capped
/// mask shard overflows, only entries from *older* epochs are evicted, so
/// pointers held by in-flight PlannedCandidates stay valid and a running
/// batch can never thrash its own working set (the shard may temporarily
/// exceed its cap instead).
///
/// Thread-compatibility: Find/Publish/BeginEpoch must be called from one
/// thread at a time (the planner's coordinator thread); published artifacts
/// may be read concurrently from any number of threads.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/bitset.h"
#include "query/group_index.h"
#include "query/kernels.h"

namespace featlib {

class ArtifactStore {
 public:
  /// A group-key-set artifact: the dense group-id index plus the (lazily
  /// attached) training-row map.
  struct GroupArtifact {
    GroupIndex index;
    bool has_train_map = false;
    std::vector<uint32_t> train_map;  // training row -> group id
    uint64_t train_fingerprint = 0;   // training keys the map was built for
  };

  ArtifactStore() = default;
  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;
  // Movable so owners (QueryPlanner, FeatureEvaluator) stay movable.
  ArtifactStore(ArtifactStore&&) = default;
  ArtifactStore& operator=(ArtifactStore&&) = default;

  /// Opens a new batch: entries stamped from here on are pinned against
  /// eviction until the next BeginEpoch.
  void BeginEpoch() { ++epoch_; }

  /// \name Lookup (coordinator thread). A hit stamps the entry with the
  /// current epoch; a miss returns nullptr.
  /// @{
  GroupArtifact* FindGroup(const std::string& key);
  const Bitset* FindMask(const std::string& key);
  const std::vector<double>* FindView(const std::string& attr);
  const ValueOrder* FindOrder(const std::string& key);
  /// @}

  /// \name Publish (coordinator thread, after the build completed).
  /// Returns the stable store-owned pointer. The byte-capped mask shard
  /// evicts unpinned entries first; `is_conjunction` separates the
  /// single-predicate and conjunction build counters.
  /// @{
  GroupArtifact* PublishGroup(const std::string& key, GroupIndex index);
  /// Attaches/overwrites the training-row map of a published group artifact,
  /// with the fingerprint of the training keys it maps.
  void PublishTrainMap(GroupArtifact* group, std::vector<uint32_t> train_map,
                       uint64_t train_fingerprint);
  const Bitset* PublishMask(const std::string& key, Bitset bits,
                            bool is_conjunction);
  const std::vector<double>* PublishView(const std::string& attr,
                                         std::vector<double> view);
  const ValueOrder* PublishOrder(const std::string& key, ValueOrder order);
  /// @}

  /// Mask shard cap (tests shrink it to force eviction).
  void set_mask_cache_cap_bytes(size_t cap) { mask_cap_bytes_ = cap; }

  /// \name Introspection (tests and benches).
  /// @{
  size_t num_group_builds() const { return group_builds_; }
  size_t num_train_map_builds() const { return train_map_builds_; }
  /// Single-predicate mask publishes (conjunctions counted separately).
  size_t num_mask_builds() const { return mask_builds_; }
  size_t num_conjunction_builds() const { return conjunction_builds_; }
  size_t num_view_builds() const { return view_builds_; }
  size_t num_order_builds() const { return order_builds_; }
  /// Mask-shard entries evicted so far. Entries referenced by the current
  /// batch are pinned and never evicted mid-batch.
  size_t num_evictions() const { return num_evictions_; }
  size_t mask_cache_bytes() const { return mask_bytes_; }
  uint64_t epoch() const { return epoch_; }
  /// @}

 private:
  struct MaskEntry {
    Bitset bits;
    uint64_t used_epoch = 0;  // == epoch_ => pinned by the current batch
  };

  /// Evict unpinned (not used this epoch) mask-shard entries until
  /// `incoming` more bytes fit under the cap, or only pinned entries remain
  /// (the shard may then temporarily exceed the cap rather than thrash the
  /// running batch).
  void EvictMasksFor(size_t incoming);

  std::unordered_map<std::string, GroupArtifact> group_shard_;
  std::unordered_map<std::string, MaskEntry> mask_shard_;
  size_t mask_bytes_ = 0;
  size_t mask_cap_bytes_ = 64u << 20;
  std::unordered_map<std::string, std::vector<double>> view_shard_;
  std::unordered_map<std::string, ValueOrder> order_shard_;

  /// Bumped at every BeginEpoch; hits and publishes stamp their entry, so
  /// "used_epoch == epoch_" marks entries the in-flight batch depends on.
  uint64_t epoch_ = 0;

  size_t group_builds_ = 0;
  size_t train_map_builds_ = 0;
  size_t mask_builds_ = 0;
  size_t conjunction_builds_ = 0;
  size_t view_builds_ = 0;
  size_t order_builds_ = 0;
  size_t num_evictions_ = 0;
};

}  // namespace featlib
