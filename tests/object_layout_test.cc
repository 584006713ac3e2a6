// Tests for the object layout: header packing, FaRM-style per-cacheline
// version scatter/gather, and the lock-free consistency check.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/addr.h"
#include "core/object_layout.h"

namespace corm::core {
namespace {

TEST(ObjectHeaderTest, PackUnpackRoundTrip) {
  ObjectHeader h;
  h.version = 0xAB;
  h.lock = LockState::kCompacting;
  h.class_idx = 0x2F;
  h.obj_id = 0xBEEF;
  h.home_page = 0xDEAD1234;
  const ObjectHeader r = ObjectHeader::Unpack(h.Pack());
  EXPECT_EQ(r.version, h.version);
  EXPECT_EQ(r.lock, h.lock);
  EXPECT_EQ(r.class_idx, h.class_idx);
  EXPECT_EQ(r.obj_id, h.obj_id);
  EXPECT_EQ(r.home_page, h.home_page);
}

TEST(ObjectHeaderTest, FieldsDoNotOverlap) {
  ObjectHeader a;
  a.version = 0xFF;
  ObjectHeader b;
  b.obj_id = 0xFFFF;
  ObjectHeader c;
  c.home_page = 0xFFFFFFFF;
  EXPECT_EQ(ObjectHeader::Unpack(a.Pack()).obj_id, 0);
  EXPECT_EQ(ObjectHeader::Unpack(b.Pack()).version, 0);
  EXPECT_EQ(ObjectHeader::Unpack(c.Pack()).obj_id, 0);
}

TEST(ObjectHeaderTest, HomePageRoundTrip) {
  const sim::VAddr base = sim::AddressSpace::kBase + 42 * sim::kVPageSize;
  EXPECT_EQ(HomeVaddrOf(HomePageOf(base)), base);
}

TEST(LayoutTest, PayloadCapacities) {
  EXPECT_EQ(PayloadCapacity(16), 8u);
  EXPECT_EQ(PayloadCapacity(32), 24u);
  EXPECT_EQ(PayloadCapacity(64), 56u);
  // 128 B = 2 cachelines: 8 header + 1 version byte.
  EXPECT_EQ(PayloadCapacity(128), 128u - 8 - 1);
  EXPECT_EQ(PayloadCapacity(4096), 4096u - 8 - 63);
  EXPECT_EQ(PayloadCapacity(8), 0u);
}

TEST(LayoutTest, SlotCachelines) {
  EXPECT_EQ(SlotCachelines(16), 1u);
  EXPECT_EQ(SlotCachelines(64), 1u);
  EXPECT_EQ(SlotCachelines(128), 2u);
  EXPECT_EQ(SlotCachelines(2048), 32u);
}

class PayloadRoundTrip : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PayloadRoundTrip, ScatterGatherPreservesBytes) {
  const uint32_t slot_size = GetParam();
  const uint32_t capacity = PayloadCapacity(slot_size);
  std::vector<uint8_t> slot(slot_size, 0xEE);
  std::vector<uint8_t> in(capacity);
  PatternFill(7, in.data(), capacity);

  WritePayload(slot.data(), slot_size, /*version=*/9, in.data(), capacity);
  std::vector<uint8_t> out(capacity, 0);
  ReadPayload(slot.data(), slot_size, out.data(), capacity);
  EXPECT_EQ(in, out);

  // Version bytes stamped at each additional cacheline boundary.
  for (uint32_t line = 1; line < SlotCachelines(slot_size); ++line) {
    EXPECT_EQ(slot[line * kCacheLineSize], 9) << "line " << line;
  }
}

TEST_P(PayloadRoundTrip, PartialReadsAndWrites) {
  const uint32_t slot_size = GetParam();
  const uint32_t capacity = PayloadCapacity(slot_size);
  const uint32_t len = capacity / 2;
  if (len == 0) return;
  std::vector<uint8_t> slot(slot_size, 0);
  std::vector<uint8_t> in(len);
  PatternFill(3, in.data(), len);
  WritePayload(slot.data(), slot_size, 1, in.data(), len);
  std::vector<uint8_t> out(len);
  ReadPayload(slot.data(), slot_size, out.data(), len);
  EXPECT_EQ(in, out);

  // A partial rewrite under the next version stamps that version on every
  // line, including the lines past `len`, so the whole slot validates.
  WritePayload(slot.data(), slot_size, 2, in.data(), len);
  for (uint32_t line = 1; line < SlotCachelines(slot_size); ++line) {
    EXPECT_EQ(slot[line * kCacheLineSize], 2) << "line " << line;
  }
  ObjectHeader h;
  h.version = 2;
  const uint64_t packed = h.Pack();
  std::memcpy(slot.data(), &packed, 8);
  EXPECT_TRUE(SnapshotConsistent(slot.data(), slot_size));
}

INSTANTIATE_TEST_SUITE_P(AllClasses, PayloadRoundTrip,
                         ::testing::Values(16, 32, 64, 128, 192, 256, 512,
                                           1024, 2048, 4096, 8192, 12288));

TEST(ConsistencyTest, FreshObjectIsConsistent) {
  std::vector<uint8_t> slot(256, 0);
  ObjectHeader h;
  h.version = 5;
  WritePayload(slot.data(), 256, 5, nullptr, 0);
  std::memcpy(slot.data(), &(const uint64_t&)h.Pack(), 0);  // no-op
  const uint64_t packed = h.Pack();
  std::memcpy(slot.data(), &packed, 8);
  EXPECT_TRUE(SnapshotConsistent(slot.data(), 256));
}

TEST(ConsistencyTest, TornCachelineDetected) {
  std::vector<uint8_t> slot(256, 0);
  ObjectHeader h;
  h.version = 5;
  WritePayload(slot.data(), 256, 5, nullptr, 0);
  const uint64_t packed = h.Pack();
  std::memcpy(slot.data(), &packed, 8);
  // A concurrent writer updated cacheline 2 (version 6) but not the rest —
  // exactly the torn state a DirectRead snapshot can capture.
  slot[2 * kCacheLineSize] = 6;
  EXPECT_FALSE(SnapshotConsistent(slot.data(), 256));
}

TEST(ConsistencyTest, HeaderAheadOfLinesDetected) {
  // The header version moved on while every line still carries the old
  // version byte: a snapshot mixing a new header with the old payload.
  std::vector<uint8_t> slot(256, 0);
  std::vector<uint8_t> in(PayloadCapacity(256), 0xAA);
  WritePayload(slot.data(), 256, 1, in.data(),
               static_cast<uint32_t>(in.size()));
  ObjectHeader h;
  h.version = 2;
  const uint64_t packed = h.Pack();
  std::memcpy(slot.data(), &packed, 8);
  EXPECT_FALSE(SnapshotConsistent(slot.data(), 256));
}

TEST(ConsistencyTest, LockedObjectInconsistent) {
  std::vector<uint8_t> slot(64, 0);
  ObjectHeader h;
  h.version = 1;
  h.lock = LockState::kWriteLocked;
  const uint64_t packed = h.Pack();
  std::memcpy(slot.data(), &packed, 8);
  EXPECT_FALSE(SnapshotConsistent(slot.data(), 64));
}

TEST(ConsistencyTest, SingleCachelineOnlyChecksHeader) {
  std::vector<uint8_t> slot(32, 0xFF);
  ObjectHeader h;
  h.version = 3;
  const uint64_t packed = h.Pack();
  std::memcpy(slot.data(), &packed, 8);
  EXPECT_TRUE(SnapshotConsistent(slot.data(), 32));
}

TEST(GlobalAddrTest, SizeAndFlags) {
  EXPECT_EQ(sizeof(GlobalAddr), 16u);
  GlobalAddr addr;
  EXPECT_TRUE(addr.IsNull());
  EXPECT_FALSE(addr.ReferencesOldBlock());
  addr.flags = GlobalAddr::kFlagOldBlock;
  EXPECT_TRUE(addr.ReferencesOldBlock());
}

TEST(GlobalAddrTest, BlockBaseOf) {
  const size_t block = 4096;
  const sim::VAddr base = sim::AddressSpace::kBase;
  EXPECT_EQ(BlockBaseOf(base, block), base);
  EXPECT_EQ(BlockBaseOf(base + 100, block), base);
  EXPECT_EQ(BlockBaseOf(base + 4096 + 1, block), base + 4096);
  const size_t mib = 1 << 20;
  EXPECT_EQ(BlockBaseOf(base + mib + 77, mib), base + mib);
}

TEST(PatternTest, FillAndCheck) {
  std::vector<uint8_t> buf(128);
  PatternFill(5, buf.data(), 128);
  EXPECT_TRUE(PatternCheck(5, buf.data(), 128));
  EXPECT_FALSE(PatternCheck(6, buf.data(), 128));
  buf[100] ^= 1;
  EXPECT_FALSE(PatternCheck(5, buf.data(), 128));
}

}  // namespace
}  // namespace corm::core
