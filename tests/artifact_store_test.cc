/// \file artifact_store_test.cc
/// \brief Pins the ArtifactStore contract: build-then-publish ownership
/// (publish-once, stable pointers), per-shard byte accounting, and
/// epoch-pinned eviction.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "query/artifact_store.h"
#include "table/table.h"

namespace featlib {
namespace {

Bitset MakeBits(size_t n, size_t stride) {
  Bitset bits(n);
  for (size_t i = 0; i < n; i += stride) bits.Set(i);
  return bits;
}

Table MakeRelevant() {
  Table t;
  EXPECT_TRUE(t.AddColumn("k", Column::FromDoubles({1.0, 1.0, 2.0})).ok());
  EXPECT_TRUE(t.AddColumn("v", Column::FromDoubles({3.0, 4.0, 5.0})).ok());
  return t;
}

TEST(ArtifactStoreTest, PublishThenFindReturnsTheSamePointer) {
  ArtifactStore store;
  store.BeginEpoch();
  EXPECT_EQ(store.FindMask("p1"), nullptr);
  const Bitset* published = store.PublishMask("p1", MakeBits(256, 3),
                                              /*is_conjunction=*/false);
  ASSERT_NE(published, nullptr);
  // The store owns the artifact; lookups return the same stable pointer
  // (the fan-out contract: raw pointers stay valid across later publishes).
  EXPECT_EQ(store.FindMask("p1"), published);
  for (int i = 0; i < 64; ++i) {
    store.PublishMask("filler" + std::to_string(i), MakeBits(256, 2), false);
  }
  EXPECT_EQ(store.FindMask("p1"), published);
  EXPECT_EQ(store.num_mask_builds(), 65u);
  EXPECT_EQ(store.num_conjunction_builds(), 0u);
}

TEST(ArtifactStoreTest, GroupArtifactCarriesTrainMap) {
  ArtifactStore store;
  store.BeginEpoch();
  const Table relevant = MakeRelevant();
  auto index = GroupIndex::Build(relevant, {"k"});
  ASSERT_TRUE(index.ok());
  ArtifactStore::GroupArtifact* g =
      store.PublishGroup("k", std::move(index).ValueOrDie());
  ASSERT_NE(g, nullptr);
  EXPECT_FALSE(g->has_train_map);
  store.PublishTrainMap(g, {0u, 1u}, /*train_fingerprint=*/7);
  EXPECT_TRUE(g->has_train_map);
  EXPECT_EQ(store.FindGroup("k"), g);
  EXPECT_EQ(store.FindGroup("k")->train_map.size(), 2u);
  EXPECT_EQ(store.num_group_builds(), 1u);
  EXPECT_EQ(store.num_train_map_builds(), 1u);
}

TEST(ArtifactStoreTest, MaskShardEvictsOnlyUnpinnedEntries) {
  ArtifactStore store;
  const size_t entry_bytes = MakeBits(1024, 2).SizeBytes();
  // Cap fits exactly two entries.
  store.set_mask_cache_cap_bytes(2 * entry_bytes);

  store.BeginEpoch();  // epoch 1
  store.PublishMask("old1", MakeBits(1024, 2), false);
  store.PublishMask("old2", MakeBits(1024, 3), false);
  EXPECT_EQ(store.num_evictions(), 0u);
  EXPECT_EQ(store.mask_cache_bytes(), 2 * entry_bytes);

  store.BeginEpoch();  // epoch 2: old1/old2 now unpinned
  // Re-finding old2 pins it for the new epoch.
  ASSERT_NE(store.FindMask("old2"), nullptr);
  const Bitset* fresh = store.PublishMask("new1", MakeBits(1024, 5), false);
  // Over cap: old1 (unpinned) is evicted; old2 (pinned) and new1 survive.
  EXPECT_EQ(store.num_evictions(), 1u);
  EXPECT_EQ(store.FindMask("old1"), nullptr);
  EXPECT_NE(store.FindMask("old2"), nullptr);
  EXPECT_EQ(store.FindMask("new1"), fresh);
  EXPECT_EQ(store.mask_cache_bytes(), 2 * entry_bytes);
}

TEST(ArtifactStoreTest, PinnedEntriesMayExceedTheCapMidBatch) {
  ArtifactStore store;
  store.set_mask_cache_cap_bytes(1);  // nothing fits
  store.BeginEpoch();
  for (int i = 0; i < 8; ++i) {
    ASSERT_NE(store.PublishMask("p" + std::to_string(i), MakeBits(512, 2),
                                false),
              nullptr);
  }
  // All entries belong to the current epoch: pinned, zero evictions, the
  // shard temporarily exceeds its cap rather than thrash the batch.
  EXPECT_EQ(store.num_evictions(), 0u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(store.FindMask("p" + std::to_string(i)), nullptr) << i;
  }

  store.BeginEpoch();
  // First publish of the new epoch evicts every now-unpinned entry.
  store.PublishMask("q", MakeBits(512, 2), false);
  EXPECT_EQ(store.num_evictions(), 8u);
}

TEST(ArtifactStoreTest, MatShardTracksBytesAndEpochs) {
  ArtifactStore store;
  store.BeginEpoch();
  MaterializedValues m;
  m.present = {2u, 1u};
  m.offsets = {0u, 2u, 3u};
  m.flat = {1.0, 2.0, 3.0};
  const size_t bytes = m.SizeBytes();
  const MaterializedValues* stored = store.PublishMaterialized("b1", std::move(m));
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(store.mat_cache_bytes(), bytes);
  EXPECT_EQ(store.FindMaterialized("b1"), stored);
  EXPECT_EQ(store.FindMaterialized("absent"), nullptr);
  EXPECT_EQ(store.num_materializations(), 1u);

  // A tiny cap evicts the unpinned entry on the next epoch's publish.
  store.set_mat_cache_cap_bytes(1);
  store.BeginEpoch();
  MaterializedValues m2;
  m2.present = {1u};
  m2.offsets = {0u, 1u};
  m2.flat = {9.0};
  store.PublishMaterialized("b2", std::move(m2));
  EXPECT_EQ(store.FindMaterialized("b1"), nullptr);
  EXPECT_EQ(store.num_evictions(), 1u);
}

TEST(ArtifactStoreTest, ViewShardIsNeverEvicted) {
  ArtifactStore store;
  store.BeginEpoch();
  const std::vector<double>* v = store.PublishView("attr", {1.0, 2.0});
  store.BeginEpoch();
  store.BeginEpoch();
  EXPECT_EQ(store.FindView("attr"), v);
  EXPECT_EQ(store.num_view_builds(), 1u);
}

}  // namespace
}  // namespace featlib
