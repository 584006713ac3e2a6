// BlockDirectory: the sharded, lock-free-read block directory (DESIGN.md
// §7.1). Covers the reader contract the data plane depends on: point
// lookups take zero locks, concurrent mutation (insert / erase / the
// compaction retarget batch) never makes a reader observe a torn or
// dangling entry, the epoch counter invalidates per-worker caches after
// every mutation, and shard growth keeps in-flight readers safe. Labeled
// `tsan`: the concurrent cases are the ones the thread sanitizer must see.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "core/block_directory.h"
#include "core/client.h"
#include "core/corm_node.h"

namespace corm::core {
namespace {

// The directory stores Block* opaquely (packed into an atomic word, low
// bit = alias flag) and never dereferences them; aligned fake pointers
// keep the unit tests free of allocator setup.
alloc::Block* FakeBlock(uintptr_t id) {
  return reinterpret_cast<alloc::Block*>(id << 4);
}

TEST(DirectoryTest, InsertLookupErase) {
  BlockDirectory dir(4);
  EXPECT_EQ(dir.Lookup(0x1000).block, nullptr);

  dir.Insert(0x1000, FakeBlock(1), /*is_alias=*/false);
  dir.Insert(0x2000, FakeBlock(2), /*is_alias=*/true);
  EXPECT_EQ(dir.Lookup(0x1000).block, FakeBlock(1));
  EXPECT_FALSE(dir.Lookup(0x1000).is_alias);
  EXPECT_EQ(dir.Lookup(0x2000).block, FakeBlock(2));
  EXPECT_TRUE(dir.Lookup(0x2000).is_alias);
  EXPECT_EQ(dir.ApproxSize(), 2u);

  dir.Erase(0x1000);
  EXPECT_EQ(dir.Lookup(0x1000).block, nullptr);
  EXPECT_EQ(dir.Lookup(0x2000).block, FakeBlock(2));
  EXPECT_EQ(dir.ApproxSize(), 1u);

  // Erased keys can be reused (same slot, new value).
  dir.Insert(0x1000, FakeBlock(3), /*is_alias=*/false);
  EXPECT_EQ(dir.Lookup(0x1000).block, FakeBlock(3));
}

TEST(DirectoryTest, RetargetToAliasBatch) {
  BlockDirectory dir(4);
  dir.Insert(0x1000, FakeBlock(1), /*is_alias=*/false);   // src
  dir.Insert(0x2000, FakeBlock(1), /*is_alias=*/true);    // ghost of src
  dir.Insert(0x3000, FakeBlock(1), /*is_alias=*/true);    // ghost of src
  dir.Insert(0x9000, FakeBlock(9), /*is_alias=*/false);   // bystander

  const uint64_t before = dir.epoch();
  dir.RetargetToAlias(0x1000, {0x2000, 0x3000}, FakeBlock(7));

  for (sim::VAddr base : {sim::VAddr{0x1000}, sim::VAddr{0x2000},
                          sim::VAddr{0x3000}}) {
    EXPECT_EQ(dir.Lookup(base).block, FakeBlock(7));
    EXPECT_TRUE(dir.Lookup(base).is_alias);
  }
  EXPECT_EQ(dir.Lookup(0x9000).block, FakeBlock(9));
  // The whole batch is one epoch bump: a worker cache revalidates once.
  EXPECT_EQ(dir.epoch(), before + 1);
}

TEST(DirectoryTest, EpochBumpsOnEveryMutation) {
  BlockDirectory dir(4);
  uint64_t e = dir.epoch();
  dir.Insert(0x1000, FakeBlock(1), false);
  EXPECT_GT(dir.epoch(), e);
  e = dir.epoch();
  dir.Erase(0x1000);
  EXPECT_GT(dir.epoch(), e);
}

// The data-plane contract: lookups acquire no locks. A read-heavy phase
// must leave the writer-lock acquisition counter untouched.
TEST(DirectoryTest, LookupsTakeZeroLocks) {
  BlockDirectory dir(4);
  for (uintptr_t i = 1; i <= 64; ++i) {
    dir.Insert(i * 0x1000, FakeBlock(i), false);
  }
  const uint64_t writer_locks = dir.writer_acquires_for_testing();

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&dir] {
      for (int rep = 0; rep < 10'000; ++rep) {
        const uintptr_t i = static_cast<uintptr_t>(rep % 64) + 1;
        ASSERT_EQ(dir.Lookup(i * 0x1000).block, FakeBlock(i));
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(dir.writer_acquires_for_testing(), writer_locks);
}

// Readers racing inserts, erases, retargets and shard growth (single shard
// so every mutation contends) may only ever observe: absent, or a value
// that was stored for that exact key — never a torn mix or a foreign block.
TEST(DirectoryTest, ConcurrentLookupVsMutation) {
  BlockDirectory dir(1);
  constexpr int kKeys = 256;  // enough inserts to force several growths
  constexpr uintptr_t kRetargeted = 0x7777;

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      uint64_t seed = 0x9e3779b9 + static_cast<uint64_t>(t);
      while (!stop.load(std::memory_order_acquire)) {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        const uintptr_t k = (seed >> 33) % kKeys + 1;
        const BlockDirectory::Entry e = dir.Lookup(k * 0x1000);
        if (e.block != nullptr) {
          // Valid values for key k: its own block, or the retarget dst.
          ASSERT_TRUE(e.block == FakeBlock(k) ||
                      e.block == FakeBlock(kRetargeted))
              << "key " << k << " resolved to a foreign block";
          if (e.block == FakeBlock(kRetargeted)) {
            ASSERT_TRUE(e.is_alias);
          }
        }
      }
    });
  }

  for (int round = 0; round < 50; ++round) {
    for (uintptr_t k = 1; k <= kKeys; ++k) {
      dir.Insert(k * 0x1000, FakeBlock(k), false);
    }
    for (uintptr_t k = 1; k <= kKeys; k += 3) {
      dir.Erase(k * 0x1000);
    }
    // Retarget a small batch, as a compaction merge would.
    dir.RetargetToAlias(2 * 0x1000, {4 * 0x1000, 6 * 0x1000},
                        FakeBlock(kRetargeted));
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
}

// End-to-end epoch invalidation: worker directory caches warmed by reads
// must refetch after a compaction merge retargets directory entries —
// reads keep succeeding (with corrected pointers), and the epoch the
// caches validate against has advanced.
TEST(DirectoryTest, WorkerCacheInvalidatedByCompaction) {
  CormConfig config;
  config.num_workers = 2;
  config.fragmentation_threshold = 1.01;
  config.collection_max_occupancy = 1.0;
  CormNode node(config);

  constexpr uint32_t kPayload = 48;
  auto addrs = node.BulkAlloc(512, kPayload);
  ASSERT_TRUE(addrs.ok());

  auto ctx = Context::Create(&node);
  std::vector<uint8_t> buf(kPayload);
  for (auto& a : *addrs) ASSERT_TRUE(ctx->Read(&a, buf.data(), kPayload).ok());

  // Fragment (free every other object), then merge blocks.
  std::vector<GlobalAddr> doomed;
  std::vector<GlobalAddr> live;
  for (size_t i = 0; i < addrs->size(); ++i) {
    ((i & 1) ? doomed : live).push_back((*addrs)[i]);
  }
  ASSERT_TRUE(node.BulkFree(doomed).ok());
  const uint64_t epoch_before = node.directory_for_testing().epoch();
  auto report = node.Compact(*node.ClassForPayload(kPayload));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_GT(report->blocks_freed, 0u);
  EXPECT_GT(node.directory_for_testing().epoch(), epoch_before);

  // Every cached entry a worker held for a merged-away base is now stale;
  // reads must still resolve (server-side correction) via refetch.
  for (auto& a : live) {
    ASSERT_TRUE(ctx->Read(&a, buf.data(), kPayload).ok());
  }
  const NodeStats stats = node.stats();
  EXPECT_GT(stats.dir_cache_hits, 0u);
  EXPECT_GT(stats.dir_cache_misses, 0u);
}

}  // namespace
}  // namespace corm::core
