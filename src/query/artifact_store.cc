#include "query/artifact_store.h"

#include <utility>

namespace featlib {

ArtifactStore::GroupArtifact* ArtifactStore::FindGroup(const std::string& key) {
  auto it = group_shard_.find(key);
  return it == group_shard_.end() ? nullptr : &it->second;
}

const Bitset* ArtifactStore::FindMask(const std::string& key) {
  auto it = mask_shard_.find(key);
  if (it == mask_shard_.end()) return nullptr;
  it->second.used_epoch = epoch_;
  return &it->second.bits;
}

const std::vector<double>* ArtifactStore::FindView(const std::string& attr) {
  auto it = view_shard_.find(attr);
  return it == view_shard_.end() ? nullptr : &it->second;
}

const MaterializedValues* ArtifactStore::FindMaterialized(
    const std::string& key) {
  auto it = mat_shard_.find(key);
  if (it == mat_shard_.end()) return nullptr;
  it->second.used_epoch = epoch_;
  return &it->second.values;
}

ArtifactStore::GroupArtifact* ArtifactStore::PublishGroup(
    const std::string& key, GroupIndex index) {
  ++group_builds_;
  GroupArtifact artifact{std::move(index), false, {}};
  return &group_shard_.emplace(key, std::move(artifact)).first->second;
}

void ArtifactStore::PublishTrainMap(GroupArtifact* group,
                                    std::vector<uint32_t> train_map,
                                    uint64_t train_fingerprint) {
  ++train_map_builds_;
  group->train_map = std::move(train_map);
  group->train_fingerprint = train_fingerprint;
  group->has_train_map = true;
}

const Bitset* ArtifactStore::PublishMask(const std::string& key, Bitset bits,
                                         bool is_conjunction) {
  if (is_conjunction) {
    ++conjunction_builds_;
  } else {
    ++mask_builds_;
  }
  EvictMasksFor(bits.SizeBytes());
  mask_bytes_ += bits.SizeBytes();
  MaskEntry entry{std::move(bits), epoch_};
  return &mask_shard_.emplace(key, std::move(entry)).first->second.bits;
}

const std::vector<double>* ArtifactStore::PublishView(
    const std::string& attr, std::vector<double> view) {
  ++view_builds_;
  return &view_shard_.emplace(attr, std::move(view)).first->second;
}

const MaterializedValues* ArtifactStore::PublishMaterialized(
    const std::string& key, MaterializedValues values) {
  ++materializations_;
  const size_t bytes = values.SizeBytes();
  EvictMaterializedFor(bytes);
  mat_bytes_ += bytes;
  MatEntry entry{std::move(values), bytes, epoch_};
  return &mat_shard_.emplace(key, std::move(entry)).first->second.values;
}

void ArtifactStore::EvictMasksFor(size_t incoming) {
  if (mask_bytes_ + incoming <= mask_cap_bytes_) return;
  // Evict only entries no candidate of the current batch referenced: the
  // mask pointers held by in-flight PlannedCandidates must stay valid, and
  // mass-clearing mid-batch would rebuild masks the very next candidate
  // needs (cache thrash). Range-predicate operands from the continuous
  // search space rarely repeat, so unpinned entries are cheap to drop.
  for (auto it = mask_shard_.begin(); it != mask_shard_.end();) {
    if (mask_bytes_ + incoming <= mask_cap_bytes_) return;
    if (it->second.used_epoch == epoch_) {
      ++it;
      continue;
    }
    mask_bytes_ -= it->second.bits.SizeBytes();
    it = mask_shard_.erase(it);
    ++num_evictions_;
  }
}

void ArtifactStore::EvictMaterializedFor(size_t incoming) {
  if (mat_bytes_ + incoming <= mat_cap_bytes_) return;
  for (auto it = mat_shard_.begin(); it != mat_shard_.end();) {
    if (mat_bytes_ + incoming <= mat_cap_bytes_) return;
    if (it->second.used_epoch == epoch_) {
      ++it;
      continue;
    }
    mat_bytes_ -= it->second.bytes;
    it = mat_shard_.erase(it);
    ++num_evictions_;
  }
}

}  // namespace featlib
