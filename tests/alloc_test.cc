// Tests for src/alloc: size classes, blocks, the thread-local allocator and
// the process-wide block allocator (including the compaction remap).

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "alloc/block.h"
#include "alloc/block_allocator.h"
#include "alloc/fragmentation.h"
#include "alloc/size_classes.h"
#include "alloc/thread_allocator.h"
#include "rdma/queue_pair.h"
#include "rdma/rnic.h"
#include "sim/address_space.h"
#include "sim/mem_file.h"
#include "sim/physical_memory.h"

namespace corm::alloc {
namespace {

// --- SizeClassTable ---------------------------------------------------------

TEST(SizeClassTest, DefaultTableProperties) {
  auto table = SizeClassTable::Default();
  ASSERT_GE(table.num_classes(), 10u);
  EXPECT_EQ(table.ClassSize(0), 16u);
  for (uint32_t c = 0; c < table.num_classes(); ++c) {
    const uint32_t size = table.ClassSize(c);
    EXPECT_EQ(size % 8, 0u);
    // Runtime layout constraint: within a cacheline or a multiple of it.
    EXPECT_TRUE(size < 64 ? 64 % size == 0 : size % 64 == 0)
        << "class " << size;
  }
}

TEST(SizeClassTest, ClassForRoundsUp) {
  auto table = SizeClassTable::Default();
  auto c = table.ClassFor(33);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(table.ClassSize(*c), 64u);
  EXPECT_EQ(table.ClassSize(*table.ClassFor(64)), 64u);
  EXPECT_EQ(table.ClassSize(*table.ClassFor(65)), 128u);
  EXPECT_FALSE(table.ClassFor(1 << 30).ok());
}

TEST(SizeClassTest, InternalFragmentationBounded) {
  auto table = SizeClassTable::Default();
  for (uint32_t size = 16; size <= 16384; size += 7) {
    auto c = table.ClassFor(size);
    ASSERT_TRUE(c.ok());
    EXPECT_LE(static_cast<double>(table.ClassSize(*c)) / size, 2.0);
  }
}

TEST(SizeClassTest, PowersOfTwo) {
  auto table = SizeClassTable::PowersOfTwo(8, 2048);
  EXPECT_EQ(table.num_classes(), 9u);
  EXPECT_EQ(table.ClassSize(0), 8u);
  EXPECT_EQ(table.ClassSize(8), 2048u);
}

TEST(SizeClassTest, JemallocLikeCoversRedisSizes) {
  auto table = SizeClassTable::JemallocLike(256 * 1024);
  EXPECT_TRUE(table.ClassFor(8).ok());
  EXPECT_TRUE(table.ClassFor(150).ok());
  EXPECT_TRUE(table.ClassFor(160 * 1024).ok());
  // Spacing keeps rounding waste ~25%.
  for (uint32_t size = 64; size <= 160 * 1024; size = size * 2 + 13) {
    auto c = table.ClassFor(size);
    ASSERT_TRUE(c.ok());
    EXPECT_LE(static_cast<double>(table.ClassSize(*c)) / size, 1.3);
  }
}

// --- Block fixture ----------------------------------------------------------

class AllocTest : public ::testing::Test {
 protected:
  AllocTest()
      : space_(&phys_),
        files_(&phys_),
        rnic_(&space_, sim::LatencyModel{}),
        classes_(SizeClassTable::Default()) {}

  std::unique_ptr<BlockAllocator> MakeAllocator(size_t block_pages) {
    BlockAllocatorConfig config;
    config.block_pages = block_pages;
    return std::make_unique<BlockAllocator>(&space_, &files_, &rnic_,
                                            &classes_, config);
  }

  sim::PhysicalMemory phys_;
  sim::AddressSpace space_;
  sim::MemFileManager files_;
  rdma::Rnic rnic_;
  SizeClassTable classes_;
};

TEST_F(AllocTest, BlockSlotLifecycle) {
  auto ba = MakeAllocator(1);
  auto class_idx = classes_.ClassFor(64);
  ASSERT_TRUE(class_idx.ok());
  auto block = ba->AllocBlock(*class_idx);
  ASSERT_TRUE(block.ok());
  Block& b = **block;
  EXPECT_EQ(b.num_slots(), 4096u / 64);
  EXPECT_TRUE(b.Empty());

  std::set<uint32_t> slots;
  for (uint32_t i = 0; i < b.num_slots(); ++i) {
    auto slot = b.AllocSlot();
    ASSERT_TRUE(slot.has_value());
    EXPECT_TRUE(slots.insert(*slot).second) << "duplicate slot";
  }
  EXPECT_TRUE(b.Full());
  EXPECT_FALSE(b.AllocSlot().has_value());
  b.FreeSlot(17);
  EXPECT_FALSE(b.SlotAllocated(17));
  EXPECT_TRUE(b.AllocSlotAt(17));
  EXPECT_FALSE(b.AllocSlotAt(17));  // taken
  ba->DestroyBlock(std::move(*block));
}

TEST_F(AllocTest, BlockIdMap) {
  auto ba = MakeAllocator(1);
  auto block = ba->AllocBlock(0);
  ASSERT_TRUE(block.ok());
  Block& b = **block;
  EXPECT_TRUE(b.InsertId(42, 3));
  EXPECT_FALSE(b.InsertId(42, 9));  // ID conflict
  EXPECT_EQ(b.FindId(42).value(), 3u);
  EXPECT_FALSE(b.FindId(7).has_value());
  b.EraseId(42);
  EXPECT_FALSE(b.HasId(42));
  ba->DestroyBlock(std::move(*block));
}

TEST_F(AllocTest, SlotAddrGeometry) {
  auto ba = MakeAllocator(1);
  auto class_idx = classes_.ClassFor(128);
  auto block = ba->AllocBlock(*class_idx);
  ASSERT_TRUE(block.ok());
  Block& b = **block;
  EXPECT_EQ(b.SlotAddr(0), b.base());
  EXPECT_EQ(b.SlotAddr(3), b.base() + 3 * 128);
  EXPECT_EQ(b.SlotFor(b.base() + 3 * 128 + 5), 3u);
  ba->DestroyBlock(std::move(*block));
}

TEST_F(AllocTest, BlockAllocatorRegistersWithRnic) {
  auto ba = MakeAllocator(2);
  auto block = ba->AllocBlock(0);
  ASSERT_TRUE(block.ok());
  // The block is remotely readable through its r_key.
  rdma::QueuePair qp(&rnic_);
  char buf[16];
  EXPECT_TRUE(qp.Read((*block)->keys().r_key, (*block)->base() + 100, buf, 16)
                  .ok());
  ba->DestroyBlock(std::move(*block));
  EXPECT_EQ(phys_.live_frames(), 0u);  // fully released
}

TEST_F(AllocTest, DestroyReleasesEverything) {
  auto ba = MakeAllocator(4);
  const size_t pages_before = space_.reserved_pages();
  auto block = ba->AllocBlock(0);
  ASSERT_TRUE(block.ok());
  const sim::VAddr base = (*block)->base();
  ba->DestroyBlock(std::move(*block));
  EXPECT_EQ(space_.reserved_pages(), pages_before);
  // The virtual range is recycled for the next block.
  auto again = ba->AllocBlock(0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->base(), base);
  ba->DestroyBlock(std::move(*again));
}

TEST_F(AllocTest, MergeRemapAliasesSourceToDestination) {
  auto ba = MakeAllocator(1);
  auto src = ba->AllocBlock(0);
  auto dst = ba->AllocBlock(0);
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(dst.ok());
  const uint64_t marker = 0xA110C;
  ASSERT_TRUE(space_.WriteVirtual((*dst)->base(), &marker, 8).ok());

  const size_t frames_before = phys_.live_frames();
  sim::PhysBlock retired;
  auto ns = ba->MergeRemap(src->get(), dst->get(), &retired);
  ASSERT_TRUE(ns.ok());
  EXPECT_GT(*ns, 0u);
  // src's page is retired, not yet freed: a reader that translated src's
  // vaddr before the remap may still hold it.
  EXPECT_EQ(phys_.live_frames(), frames_before);
  ba->FreeRetired(retired);
  // src's vaddr now reads dst's bytes.
  uint64_t out = 0;
  ASSERT_TRUE(space_.ReadVirtual((*src)->base(), &out, 8).ok());
  EXPECT_EQ(out, marker);
  // One physical page was freed.
  EXPECT_EQ(phys_.live_frames(), frames_before - 1);
  // RDMA through src's preserved r_key also reads dst's bytes (ODP default).
  rdma::QueuePair qp(&rnic_);
  out = 0;
  ASSERT_TRUE(qp.Read((*src)->keys().r_key, (*src)->base(), &out, 8).ok());
  EXPECT_EQ(out, marker);
  // dst inherited the ghost.
  ASSERT_EQ((*dst)->aliases().size(), 1u);
  EXPECT_EQ((*dst)->aliases()[0].base, (*src)->base());

  ba->ReleaseGhost((*src)->base(), 1, (*src)->keys().r_key);
  src->reset();
  ba->DestroyBlock(std::move(*dst));
  EXPECT_EQ(phys_.live_frames(), 0u);
}

TEST_F(AllocTest, MergeRemapFollowsGhostChains) {
  auto ba = MakeAllocator(1);
  auto a = ba->AllocBlock(0);
  auto b = ba->AllocBlock(0);
  auto c = ba->AllocBlock(0);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  const uint64_t marker = 0xC0FFEE;
  ASSERT_TRUE(space_.WriteVirtual((*c)->base(), &marker, 8).ok());

  // a -> b, then b -> c: a's range must follow to c.
  sim::PhysBlock retired;
  ASSERT_TRUE(ba->MergeRemap(a->get(), b->get(), &retired).ok());
  ba->FreeRetired(retired);
  ASSERT_TRUE(ba->MergeRemap(b->get(), c->get(), &retired).ok());
  ba->FreeRetired(retired);
  uint64_t out = 0;
  ASSERT_TRUE(space_.ReadVirtual((*a)->base(), &out, 8).ok());
  EXPECT_EQ(out, marker);
  rdma::QueuePair qp(&rnic_);
  out = 0;
  ASSERT_TRUE(qp.Read((*a)->keys().r_key, (*a)->base(), &out, 8).ok());
  EXPECT_EQ(out, marker);
  EXPECT_EQ((*c)->aliases().size(), 2u);
}

// --- ThreadAllocator ---------------------------------------------------------

TEST_F(AllocTest, ThreadAllocatorAllocFree) {
  auto ba = MakeAllocator(1);
  ThreadAllocator ta(0, ba.get());
  auto a1 = ta.Alloc(0);
  ASSERT_TRUE(a1.ok());
  EXPECT_TRUE(a1->new_block);
  auto a2 = ta.Alloc(0);
  ASSERT_TRUE(a2.ok());
  EXPECT_FALSE(a2->new_block);
  EXPECT_EQ(a1->block, a2->block);
  EXPECT_EQ(ta.UsedBytes(0), 2u * classes_.ClassSize(0));
  EXPECT_FALSE(ta.Free(a1->block, a1->slot));
  EXPECT_TRUE(ta.Free(a2->block, a2->slot));  // became empty
}

TEST_F(AllocTest, ThreadAllocatorSpillsToNewBlocks) {
  auto ba = MakeAllocator(1);
  ThreadAllocator ta(0, ba.get());
  auto class_idx = classes_.ClassFor(2048);
  ASSERT_TRUE(class_idx.ok());
  const uint32_t per_block = 4096 / 2048;
  for (uint32_t i = 0; i < per_block * 3; ++i) {
    ASSERT_TRUE(ta.Alloc(*class_idx).ok());
  }
  EXPECT_EQ(ta.NumBlocks(*class_idx), 3u);
  EXPECT_EQ(ta.GrantedBytes(*class_idx), 3u * 4096);
}

TEST_F(AllocTest, CollectBlocksPrefersLeastUtilized) {
  auto ba = MakeAllocator(1);
  ThreadAllocator ta(0, ba.get());
  auto class_idx = classes_.ClassFor(1024);  // 4 slots per block
  ASSERT_TRUE(class_idx.ok());
  std::vector<ThreadAllocator::Allocation> allocs;
  for (int i = 0; i < 12; ++i) {
    auto a = ta.Alloc(*class_idx);
    ASSERT_TRUE(a.ok());
    allocs.push_back(*a);
  }
  // Block 0: free 3 of 4 (occupancy 0.25); block 1: free 2 (0.5); block 2
  // stays full.
  ta.Free(allocs[0].block, allocs[0].slot);
  ta.Free(allocs[1].block, allocs[1].slot);
  ta.Free(allocs[2].block, allocs[2].slot);
  ta.Free(allocs[4].block, allocs[4].slot);
  ta.Free(allocs[5].block, allocs[5].slot);

  auto collected = ta.CollectBlocks(*class_idx, 0.9, 100);
  ASSERT_EQ(collected.size(), 2u);
  EXPECT_LE(collected[0]->used_slots(), collected[1]->used_slots());
  EXPECT_EQ(ta.NumBlocks(*class_idx), 1u);
  // Detached blocks are unowned.
  EXPECT_EQ(collected[0]->owner_thread(), -1);
  // Adopt them back.
  ta.AdoptBlock(std::move(collected[0]));
  ta.AdoptBlock(std::move(collected[1]));
  EXPECT_EQ(ta.NumBlocks(*class_idx), 3u);
  // Allocation reuses an adopted non-full block instead of a fresh one.
  auto again = ta.Alloc(*class_idx);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->new_block);
}

TEST_F(AllocTest, FragmentationAccounting) {
  auto ba = MakeAllocator(1);
  ThreadAllocator t0(0, ba.get()), t1(1, ba.get());
  auto class_idx = classes_.ClassFor(1024);
  std::vector<ThreadAllocator::Allocation> a0;
  for (int i = 0; i < 4; ++i) a0.push_back(*t0.Alloc(*class_idx));
  (void)t1.Alloc(*class_idx);
  t0.Free(a0[0].block, a0[0].slot);
  t0.Free(a0[1].block, a0[1].slot);

  auto frag = ComputeFragmentation({&t0, &t1}, classes_.num_classes());
  const auto& cls = frag[*class_idx];
  EXPECT_EQ(cls.granted_bytes, 2u * 4096);
  EXPECT_EQ(cls.used_bytes, 3u * 1024);
  EXPECT_NEAR(cls.Ratio(), 8192.0 / 3072.0, 1e-9);
  EXPECT_EQ(cls.num_blocks, 2u);
}

}  // namespace
}  // namespace corm::alloc
