// Unit tests for src/sim: physical frames, address space, memfd pool,
// latency model.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "sim/address_space.h"
#include "sim/latency_model.h"
#include "sim/mem_file.h"
#include "sim/physical_memory.h"

namespace corm::sim {
namespace {

TEST(PhysicalMemoryTest, AllocRefUnref) {
  PhysicalMemory phys;
  auto f = phys.AllocFrame();
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(phys.RefCount(*f), 1u);
  EXPECT_EQ(phys.live_frames(), 1u);
  phys.Ref(*f);
  EXPECT_EQ(phys.RefCount(*f), 2u);
  phys.Unref(*f);
  phys.Unref(*f);
  EXPECT_EQ(phys.live_frames(), 0u);
}

TEST(PhysicalMemoryTest, FramesRecycledAndZeroed) {
  PhysicalMemory phys;
  auto f1 = phys.AllocFrame();
  ASSERT_TRUE(f1.ok());
  phys.FrameData(*f1)[0] = 0xAB;
  phys.Unref(*f1);
  auto f2 = phys.AllocFrame();
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(*f1, *f2);  // recycled
  EXPECT_EQ(phys.FrameData(*f2)[0], 0);  // zeroed
}

TEST(PhysicalMemoryTest, CapacityCap) {
  PhysicalMemory phys(/*max_frames=*/2);
  auto a = phys.AllocFrame();
  auto b = phys.AllocFrame();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = phys.AllocFrame();
  EXPECT_TRUE(c.status().IsOutOfMemory());
  phys.Unref(*a);
  EXPECT_TRUE(phys.AllocFrame().ok());  // freed capacity reusable
}

TEST(PhysicalMemoryTest, PeakTracking) {
  PhysicalMemory phys;
  auto a = phys.AllocFrame();
  auto b = phys.AllocFrame();
  phys.Unref(*a);
  EXPECT_EQ(phys.peak_frames(), 2u);
  EXPECT_EQ(phys.live_frames(), 1u);
  phys.Unref(*b);
}

// --- AddressSpace -----------------------------------------------------------

class AddressSpaceTest : public ::testing::Test {
 protected:
  PhysicalMemory phys_;
  AddressSpace space_{&phys_};
};

TEST_F(AddressSpaceTest, ReserveIsPageAlignedAndDisjoint) {
  VAddr a = space_.ReserveRange(4);
  VAddr b = space_.ReserveRange(2);
  EXPECT_EQ(PageOffset(a), 0u);
  EXPECT_EQ(PageOffset(b), 0u);
  EXPECT_GE(b, a + 4 * kVPageSize);
  EXPECT_EQ(space_.reserved_pages(), 6u);
}

TEST_F(AddressSpaceTest, ReleasedRangeIsReused) {
  VAddr a = space_.ReserveRange(4);
  space_.ReleaseRange(a, 4);
  VAddr b = space_.ReserveRange(4);
  EXPECT_EQ(a, b);  // virtual address reuse (paper §3.3)
}

TEST_F(AddressSpaceTest, MapTranslateReadWrite) {
  VAddr base = space_.ReserveRange(2);
  ASSERT_TRUE(space_.MapFresh(base, 2).ok());
  const char msg[] = "corm";
  ASSERT_TRUE(space_.WriteVirtual(base + 100, msg, sizeof(msg)).ok());
  char out[sizeof(msg)];
  ASSERT_TRUE(space_.ReadVirtual(base + 100, out, sizeof(msg)).ok());
  EXPECT_STREQ(out, "corm");
  EXPECT_EQ(space_.mapped_pages(), 2u);
}

TEST_F(AddressSpaceTest, CrossPageReadWrite) {
  VAddr base = space_.ReserveRange(2);
  ASSERT_TRUE(space_.MapFresh(base, 2).ok());
  std::vector<uint8_t> data(kVPageSize, 0x5C);
  // Straddle the page boundary.
  ASSERT_TRUE(
      space_.WriteVirtual(base + kVPageSize / 2, data.data(), data.size())
          .ok());
  std::vector<uint8_t> out(kVPageSize);
  ASSERT_TRUE(
      space_.ReadVirtual(base + kVPageSize / 2, out.data(), out.size()).ok());
  EXPECT_EQ(out, data);
}

TEST_F(AddressSpaceTest, RemapAliasesPhysicalPages) {
  VAddr a = space_.ReserveRange(1);
  VAddr b = space_.ReserveRange(1);
  ASSERT_TRUE(space_.MapFresh(a, 1).ok());
  ASSERT_TRUE(space_.MapFresh(b, 1).ok());
  const uint32_t marker = 0xfeedface;
  ASSERT_TRUE(space_.WriteVirtual(b, &marker, sizeof(marker)).ok());

  // The compaction remap: a's page now points at b's frame.
  ASSERT_TRUE(space_.Remap(a, b, 1).ok());
  uint32_t out = 0;
  ASSERT_TRUE(space_.ReadVirtual(a, &out, sizeof(out)).ok());
  EXPECT_EQ(out, marker);
  // Writes through either address are visible through the other.
  const uint32_t marker2 = 0xdeadbeef;
  ASSERT_TRUE(space_.WriteVirtual(a, &marker2, sizeof(marker2)).ok());
  ASSERT_TRUE(space_.ReadVirtual(b, &out, sizeof(out)).ok());
  EXPECT_EQ(out, marker2);
}

TEST_F(AddressSpaceTest, RemapDropsOldFrameReference) {
  VAddr a = space_.ReserveRange(1);
  VAddr b = space_.ReserveRange(1);
  ASSERT_TRUE(space_.MapFresh(a, 1).ok());
  ASSERT_TRUE(space_.MapFresh(b, 1).ok());
  auto frame_a = space_.TranslatePage(a);
  ASSERT_TRUE(frame_a.ok());
  EXPECT_EQ(phys_.live_frames(), 2u);
  ASSERT_TRUE(space_.Remap(a, b, 1).ok());
  // a's old frame lost its only reference and was recycled.
  EXPECT_EQ(phys_.live_frames(), 1u);
}

TEST_F(AddressSpaceTest, UnmapRejectsUnmapped) {
  VAddr a = space_.ReserveRange(1);
  EXPECT_FALSE(space_.Unmap(a, 1).ok());
}

TEST_F(AddressSpaceTest, TranslateUnmappedFails) {
  EXPECT_EQ(space_.TranslatePtr(0x1234), nullptr);
  EXPECT_FALSE(space_.TranslatePage(0x1234).ok());
  char c;
  EXPECT_TRUE(space_.ReadVirtual(0x1234, &c, 1).IsNotFound());
}

TEST_F(AddressSpaceTest, TranslateOutsideTheSpanFails) {
  const VAddr end = AddressSpace::kBase + AddressSpace::kSpanPages * kVPageSize;
  EXPECT_EQ(space_.TranslatePtr(AddressSpace::kBase - 1), nullptr);
  EXPECT_EQ(space_.TranslatePtr(end), nullptr);
  EXPECT_EQ(space_.TranslatePtr(~VAddr{0}), nullptr);
  EXPECT_FALSE(space_.TranslatePage(end).ok());
  // Reserved but never mapped: its leaf may exist, its entry is empty.
  const VAddr a = space_.ReserveRange(2);
  ASSERT_TRUE(space_.MapFresh(a, 1).ok());
  EXPECT_NE(space_.TranslatePtr(a), nullptr);
  EXPECT_EQ(space_.TranslatePtr(a + kVPageSize), nullptr);
}

TEST_F(AddressSpaceTest, MapsAcrossLeavesAndUnmapsToNothing) {
  // A range that straddles two radix leaves.
  const VAddr first = space_.ReserveRange(AddressSpace::kLeafPages - 1);
  const VAddr a = space_.ReserveRange(2);
  EXPECT_EQ(a, first + (AddressSpace::kLeafPages - 1) * kVPageSize);
  ASSERT_TRUE(space_.MapFresh(a, 2).ok());
  const uint32_t marker = 0x1eaf1eaf;
  ASSERT_TRUE(
      space_.WriteVirtual(a + kVPageSize - 2, &marker, sizeof(marker)).ok());
  uint32_t out = 0;
  ASSERT_TRUE(
      space_.ReadVirtual(a + kVPageSize - 2, &out, sizeof(out)).ok());
  EXPECT_EQ(out, marker);
  EXPECT_EQ(space_.mapped_pages(), 2u);
  ASSERT_TRUE(space_.Unmap(a, 2).ok());
  EXPECT_EQ(space_.mapped_pages(), 0u);
  EXPECT_EQ(space_.TranslatePtr(a), nullptr);
  EXPECT_EQ(space_.TranslatePtr(a + kVPageSize), nullptr);
  EXPECT_EQ(phys_.live_frames(), 0u);
}

// The MMU path takes no lock: translation, reads and writes leave the
// page-table lock's acquisition count where it was. Writers still take it,
// which shows the counter is live.
TEST_F(AddressSpaceTest, TranslationTakesNoLock) {
  const VAddr a = space_.ReserveRange(2);
  ASSERT_TRUE(space_.MapFresh(a, 2).ok());
  const uint64_t locks = space_.lock_acquires_for_testing();
  uint64_t word = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_NE(space_.TranslatePtr(a + i), nullptr);
    ASSERT_EQ(space_.TranslatePtr(a + 2 * kVPageSize + i), nullptr);
    ASSERT_TRUE(space_.WriteVirtual(a + kVPageSize - 4, &i, sizeof(i)).ok());
    ASSERT_TRUE(space_.ReadVirtual(a + kVPageSize - 4, &word, sizeof(word)).ok());
    ASSERT_EQ(word, i);
  }
  EXPECT_EQ(space_.lock_acquires_for_testing(), locks);
  ASSERT_TRUE(space_.Unmap(a, 2).ok());
  EXPECT_GT(space_.lock_acquires_for_testing(), locks);
}

// Lock-free readers racing Remap and Unmap of the page they read. The page
// flips between two frames with distinct fills (both stay pinned by their
// own mappings), then goes away: a reader may see either fill or nothing,
// never a mix and never other bytes.
TEST(AddressSpaceRaceTest, ReadersSeeOneOfTwoFramesOrNothing) {
  PhysicalMemory phys;
  AddressSpace space(&phys);
  const VAddr a = space.ReserveRange(1);
  const VAddr b = space.ReserveRange(1);
  const VAddr p = space.ReserveRange(1);
  ASSERT_TRUE(space.MapFresh(a, 1).ok());
  ASSERT_TRUE(space.MapFresh(b, 1).ok());
  std::memset(space.TranslatePtr(a), 0xA1, kVPageSize);
  std::memset(space.TranslatePtr(b), 0xB2, kVPageSize);
  auto frame_a = space.TranslatePage(a);
  ASSERT_TRUE(frame_a.ok());
  ASSERT_TRUE(space.MapFrames(p, {*frame_a}).ok());

  constexpr int kReaders = 3;
  std::atomic<bool> unmapped{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};
  std::atomic<uint64_t> fills{0};
  std::atomic<int> saw_unmap{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      bool counted = false;
      while (!stop.load(std::memory_order_acquire)) {
        const bool after = unmapped.load(std::memory_order_acquire);
        const uint8_t* ptr = space.TranslatePtr(p + 100);
        if (ptr != nullptr) {
          if (*ptr != 0xA1 && *ptr != 0xB2) ++bad;
          if (after) ++bad;  // the unmap had already been published
        }
        uint8_t buf[64];
        const Status st = space.ReadVirtual(p + 1000, buf, sizeof(buf));
        if (st.ok()) {
          for (uint8_t byte : buf) {
            if (byte != buf[0]) ++bad;
          }
          if (buf[0] != 0xA1 && buf[0] != 0xB2) ++bad;
          if (after) ++bad;
          ++fills;
        } else if (!st.IsNotFound()) {
          ++bad;
        } else if (after && !counted) {
          counted = true;
          ++saw_unmap;
        }
      }
    });
  }
  while (fills.load() == 0) std::this_thread::yield();
  // No ASSERT while readers run: an early return would leave them unjoined.
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(space.Remap(p, (i % 2) == 0 ? b : a, 1).ok());
  }
  EXPECT_TRUE(space.Unmap(p, 1).ok());
  unmapped.store(true, std::memory_order_release);
  while (saw_unmap.load() < kReaders) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(fills.load(), 0u);
  EXPECT_EQ(space.TranslatePtr(p), nullptr);
}

namespace {
class RecordingNotifier : public MmuNotifier {
 public:
  void OnMappingChange(VAddr page) override { pages.push_back(page); }
  std::vector<VAddr> pages;
};
}  // namespace

TEST_F(AddressSpaceTest, NotifierFiresOnRemapAndUnmap) {
  RecordingNotifier notifier;
  space_.AddNotifier(&notifier);
  VAddr a = space_.ReserveRange(2);
  VAddr b = space_.ReserveRange(2);
  ASSERT_TRUE(space_.MapFresh(a, 2).ok());
  ASSERT_TRUE(space_.MapFresh(b, 2).ok());
  ASSERT_TRUE(space_.Remap(a, b, 2).ok());
  ASSERT_EQ(notifier.pages.size(), 2u);
  EXPECT_EQ(notifier.pages[0], a);
  EXPECT_EQ(notifier.pages[1], a + kVPageSize);
  notifier.pages.clear();
  ASSERT_TRUE(space_.Unmap(b, 2).ok());
  EXPECT_EQ(notifier.pages.size(), 2u);
  space_.RemoveNotifier(&notifier);
  ASSERT_TRUE(space_.Unmap(a, 2).ok());
  EXPECT_TRUE(notifier.pages.size() == 2u);  // no further callbacks
}

// --- MemFileManager ----------------------------------------------------------

TEST(MemFileTest, AllocatesWithinSixteenMiBFiles) {
  PhysicalMemory phys;
  MemFileManager files(&phys);
  auto a = files.AllocBlock(1);
  auto b = files.AllocBlock(1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(files.open_files(), 1u);  // both fit in one 16 MiB file
  EXPECT_EQ(a->id.fd, b->id.fd);
  EXPECT_NE(a->id.page_offset, b->id.page_offset);
}

TEST(MemFileTest, OpensNewFileWhenFull) {
  PhysicalMemory phys;
  MemFileManager files(&phys);
  // Fill one file completely (4096 pages), then allocate once more.
  auto big = files.AllocBlock(MemFileManager::kFilePages);
  ASSERT_TRUE(big.ok());
  auto extra = files.AllocBlock(1);
  ASSERT_TRUE(extra.ok());
  EXPECT_EQ(files.open_files(), 2u);
  EXPECT_NE(big->id.fd, extra->id.fd);
}

TEST(MemFileTest, FreeCoalescesExtents) {
  PhysicalMemory phys;
  MemFileManager files(&phys);
  auto a = files.AllocBlock(8);
  auto b = files.AllocBlock(8);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  files.FreeBlock(*a);
  files.FreeBlock(*b);
  // After coalescing, a full-file allocation fits again in file 0.
  auto big = files.AllocBlock(MemFileManager::kFilePages);
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->id.fd, 0);
  EXPECT_EQ(files.open_files(), 1u);
}

TEST(MemFileTest, FramesPinnedByMappingsSurviveFree) {
  PhysicalMemory phys;
  AddressSpace space(&phys);
  MemFileManager files(&phys);
  auto block = files.AllocBlock(1);
  ASSERT_TRUE(block.ok());
  VAddr base = space.ReserveRange(1);
  ASSERT_TRUE(space.MapFrames(base, block->frames).ok());
  files.FreeBlock(*block);  // file drops its reference...
  EXPECT_EQ(phys.live_frames(), 1u);  // ...but the mapping still pins it
  ASSERT_TRUE(space.Unmap(base, 1).ok());
  EXPECT_EQ(phys.live_frames(), 0u);
}

// --- LatencyModel ------------------------------------------------------------

TEST(LatencyModelTest, PaperConstants) {
  LatencyModel cx5{RnicModel::kConnectX5, CpuModel::kIntelXeon};
  LatencyModel cx3{RnicModel::kConnectX3, CpuModel::kIntelXeon};
  // Fig. 8: mmap ~2 us, rereg 8.5-9.6 us (CX-5), ODP miss 62-65 us,
  // advise 4.5 us.
  EXPECT_NEAR(cx5.MmapNs(), 2100, 300);
  EXPECT_GE(cx5.ReregMrNs(), 8500u);
  EXPECT_LE(cx5.ReregMrNs(), 9600u);
  EXPECT_GE(cx5.OdpMissNs(), 62000u);
  EXPECT_LE(cx5.OdpMissNs(), 65000u);
  EXPECT_NEAR(cx5.AdviseMrNs(), 4550, 100);
  // Fig. 15: rereg on ConnectX-3 ~70 us.
  EXPECT_NEAR(cx3.ReregMrNs(), 70000, 5000);
  // §4.1: raw RDMA read RTT as low as 1.7 us; RPC baseline ~2.6 us; TCP 17.
  EXPECT_EQ(cx5.RdmaReadNs(0), 1700u);
  EXPECT_LT(cx5.RdmaReadNs(8), cx5.RpcNs(8));
  EXPECT_GT(cx5.TcpNs(8), 10 * cx5.RdmaReadNs(8) / 2);
}

TEST(LatencyModelTest, RemapStrategyOrdering) {
  LatencyModel m{RnicModel::kConnectX5, CpuModel::kIntelXeon};
  // Per-remap proactive cost: ODP < ODP+prefetch < rereg (the ODP fault
  // cost is deferred to the first reader instead).
  EXPECT_LT(m.RemapBlockNs(RemapStrategy::kOdp, 1),
            m.RemapBlockNs(RemapStrategy::kOdpPrefetch, 1));
  EXPECT_LT(m.RemapBlockNs(RemapStrategy::kOdpPrefetch, 1),
            m.RemapBlockNs(RemapStrategy::kReregMr, 1));
}

TEST(LatencyModelTest, CollectionScalesWithThreads) {
  LatencyModel intel{RnicModel::kConnectX5, CpuModel::kIntelXeon};
  LatencyModel amd{RnicModel::kConnectX5, CpuModel::kAmdEpyc};
  // Fig. 15 (left): ~10 us @2 threads, ~31 us @16 on Intel; AMD ~5x faster
  // at low thread counts.
  EXPECT_NEAR(intel.CollectionNs(2), 10000, 2000);
  EXPECT_NEAR(intel.CollectionNs(16), 31000, 4000);
  EXPECT_LT(amd.CollectionNs(2), intel.CollectionNs(2) / 2);
}

TEST(LatencyModelTest, PaceHonorsZeroScale) {
  // Test main sets scale 0: Pace must return immediately even for an hour.
  Pace(3'600'000'000'000ULL);
  SUCCEED();
}

}  // namespace
}  // namespace corm::sim
