// Tests for the simulated RNIC: MTT snapshot semantics, the remap hazard,
// and the paper's three §3.5 repair strategies.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "rdma/queue_pair.h"
#include "rdma/rnic.h"
#include "rdma/rpc_transport.h"
#include "sim/address_space.h"
#include "sim/mem_file.h"
#include "sim/physical_memory.h"

namespace corm::rdma {
namespace {

using sim::AddressSpace;
using sim::kVPageSize;
using sim::LatencyModel;
using sim::MemFileManager;
using sim::PhysicalMemory;
using sim::VAddr;

class RnicTest : public ::testing::Test {
 protected:
  RnicTest() : space_(&phys_), rnic_(&space_, LatencyModel{}) {}

  // Maps `npages` fresh pages and returns the base.
  VAddr MapPages(size_t npages) {
    VAddr base = space_.ReserveRange(npages);
    EXPECT_TRUE(space_.MapFresh(base, npages).ok());
    return base;
  }

  PhysicalMemory phys_;
  AddressSpace space_;
  Rnic rnic_;
};

TEST_F(RnicTest, RegisterAndRead) {
  VAddr base = MapPages(1);
  const char data[] = "remote memory";
  ASSERT_TRUE(space_.WriteVirtual(base + 64, data, sizeof(data)).ok());
  auto keys = rnic_.RegisterMemory(base, 1, /*odp=*/false);
  ASSERT_TRUE(keys.ok());

  QueuePair qp(&rnic_);
  char out[sizeof(data)] = {};
  auto ns = qp.Read(keys->r_key, base + 64, out, sizeof(out));
  ASSERT_TRUE(ns.ok());
  EXPECT_STREQ(out, data);
  EXPECT_GE(*ns, 1700u);  // at least the modeled RTT
  EXPECT_EQ(qp.state(), QueuePair::State::kConnected);
}

TEST_F(RnicTest, ReadSpansPages) {
  VAddr base = MapPages(2);
  std::vector<uint8_t> data(kVPageSize, 0x7A);
  ASSERT_TRUE(
      space_.WriteVirtual(base + kVPageSize / 2, data.data(), data.size())
          .ok());
  auto keys = rnic_.RegisterMemory(base, 2, false);
  ASSERT_TRUE(keys.ok());
  QueuePair qp(&rnic_);
  std::vector<uint8_t> out(kVPageSize);
  ASSERT_TRUE(
      qp.Read(keys->r_key, base + kVPageSize / 2, out.data(), out.size())
          .ok());
  EXPECT_EQ(out, data);
}

TEST_F(RnicTest, InvalidKeyBreaksQp) {
  QueuePair qp(&rnic_);
  char buf[8];
  auto st = qp.Read(/*r_key=*/999, 0x1000, buf, 8);
  EXPECT_TRUE(st.status().IsQpBroken());
  EXPECT_EQ(qp.state(), QueuePair::State::kError);
  // Further ops fail until reconnect.
  EXPECT_TRUE(qp.Read(999, 0x1000, buf, 8).status().IsQpBroken());
  qp.Reconnect();
  EXPECT_EQ(qp.state(), QueuePair::State::kConnected);
  EXPECT_EQ(qp.reconnects(), 1u);
}

TEST_F(RnicTest, OutOfBoundsBreaksQp) {
  VAddr base = MapPages(1);
  auto keys = rnic_.RegisterMemory(base, 1, false);
  ASSERT_TRUE(keys.ok());
  QueuePair qp(&rnic_);
  char buf[64];
  auto st = qp.Read(keys->r_key, base + kVPageSize - 8, buf, 64);
  EXPECT_TRUE(st.status().IsQpBroken());
}

// The central hazard (paper §2.2.1): the OS remaps a page but the RNIC MTT
// still holds the old snapshot -> one-sided reads return the *old* frame's
// bytes while CPU reads see the new mapping.
TEST_F(RnicTest, StaleMttReadsOldFrameAfterRemap) {
  VAddr a = MapPages(1);
  VAddr b = MapPages(1);
  const uint32_t old_marker = 0x0DDF00D;
  const uint32_t new_marker = 0xB16B00B5;
  ASSERT_TRUE(space_.WriteVirtual(a, &old_marker, 4).ok());
  ASSERT_TRUE(space_.WriteVirtual(b, &new_marker, 4).ok());
  auto keys = rnic_.RegisterMemory(a, 1, /*odp=*/false);
  ASSERT_TRUE(keys.ok());

  ASSERT_TRUE(space_.Remap(a, b, 1).ok());
  // CPU sees the new mapping...
  uint32_t cpu = 0;
  ASSERT_TRUE(space_.ReadVirtual(a, &cpu, 4).ok());
  EXPECT_EQ(cpu, new_marker);
  // ...but RDMA through the stale MTT still reads the old frame.
  QueuePair qp(&rnic_);
  uint32_t rdma = 0;
  ASSERT_TRUE(qp.Read(keys->r_key, a, &rdma, 4).ok());
  EXPECT_EQ(rdma, old_marker);
}

// Strategy 1: ibv_rereg_mr refreshes the MTT, preserves keys, and breaks
// QPs that access the region mid-re-registration.
TEST_F(RnicTest, ReregRepairsTranslationAndPreservesKey) {
  VAddr a = MapPages(1);
  VAddr b = MapPages(1);
  const uint32_t marker = 0xCAFE;
  ASSERT_TRUE(space_.WriteVirtual(b, &marker, 4).ok());
  auto keys = rnic_.RegisterMemory(a, 1, false);
  ASSERT_TRUE(keys.ok());
  ASSERT_TRUE(space_.Remap(a, b, 1).ok());

  auto ns = rnic_.ReregMr(keys->r_key);
  ASSERT_TRUE(ns.ok());
  EXPECT_GE(*ns, 8000u);

  QueuePair qp(&rnic_);
  uint32_t out = 0;
  ASSERT_TRUE(qp.Read(keys->r_key, a, &out, 4).ok());  // same r_key!
  EXPECT_EQ(out, marker);
}

TEST_F(RnicTest, AccessDuringReregBreaksQp) {
  VAddr a = MapPages(1);
  auto keys = rnic_.RegisterMemory(a, 1, false);
  ASSERT_TRUE(keys.ok());
  ASSERT_TRUE(rnic_.BeginRereg(keys->r_key).ok());
  QueuePair qp(&rnic_);
  char buf[8];
  auto st = qp.Read(keys->r_key, a, buf, 8);
  EXPECT_TRUE(st.status().IsQpBroken());
  EXPECT_EQ(qp.state(), QueuePair::State::kError);
  ASSERT_TRUE(rnic_.EndRereg(keys->r_key).ok());
  qp.Reconnect();
  EXPECT_TRUE(qp.Read(keys->r_key, a, buf, 8).ok());
  EXPECT_GE(rnic_.stats().qp_breaks.load(), 1u);
}

// Strategy 2: ODP — the remap invalidates the MTT entry via the MMU
// notifier; the next read faults (~63 us) and then sees the new frame.
TEST_F(RnicTest, OdpInvalidatesAndFaults) {
  VAddr a = MapPages(1);
  VAddr b = MapPages(1);
  const uint32_t marker = 0xFACade;
  ASSERT_TRUE(space_.WriteVirtual(b, &marker, 4).ok());
  auto keys = rnic_.RegisterMemory(a, 1, /*odp=*/true);
  ASSERT_TRUE(keys.ok());
  ASSERT_TRUE(space_.Remap(a, b, 1).ok());

  QueuePair qp(&rnic_);
  uint32_t out = 0;
  auto first = qp.Read(keys->r_key, a, &out, 4);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(out, marker);                   // correct data immediately
  EXPECT_GE(*first, 63000u);                // paid the ODP miss
  EXPECT_EQ(rnic_.stats().odp_faults.load(), 1u);
  auto second = qp.Read(keys->r_key, a, &out, 4);
  ASSERT_TRUE(second.ok());
  EXPECT_LT(*second, 10000u);               // subsequent reads are fast
  EXPECT_EQ(rnic_.stats().odp_faults.load(), 1u);
}

// Strategy 3: ODP + ibv_advise_mr prefetch avoids the first-read fault.
TEST_F(RnicTest, AdvisePrefetchAvoidsFault) {
  VAddr a = MapPages(1);
  VAddr b = MapPages(1);
  auto keys = rnic_.RegisterMemory(a, 1, true);
  ASSERT_TRUE(keys.ok());
  ASSERT_TRUE(space_.Remap(a, b, 1).ok());

  auto advise = rnic_.AdviseMr(keys->r_key, a, kVPageSize);
  ASSERT_TRUE(advise.ok());
  EXPECT_NEAR(static_cast<double>(*advise), 4550, 200);

  QueuePair qp(&rnic_);
  uint32_t out;
  auto ns = qp.Read(keys->r_key, a, &out, 4);
  ASSERT_TRUE(ns.ok());
  EXPECT_LT(*ns, 10000u);  // no fault
  EXPECT_EQ(rnic_.stats().odp_faults.load(), 0u);
  EXPECT_EQ(rnic_.stats().prefetches.load(), 1u);
}

TEST_F(RnicTest, AdviseOnNonOdpRegionRejected) {
  VAddr a = MapPages(1);
  auto keys = rnic_.RegisterMemory(a, 1, false);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(rnic_.AdviseMr(keys->r_key, a, kVPageSize).status().code(),
            StatusCode::kNotSupported);
}

TEST_F(RnicTest, DeregisterInvalidatesKey) {
  VAddr a = MapPages(1);
  auto keys = rnic_.RegisterMemory(a, 1, false);
  ASSERT_TRUE(keys.ok());
  ASSERT_TRUE(rnic_.DeregisterMemory(keys->r_key).ok());
  QueuePair qp(&rnic_);
  char buf[4];
  EXPECT_TRUE(qp.Read(keys->r_key, a, buf, 4).status().IsQpBroken());
}

// A key names one registration for good: once deregistered it keeps
// breaking the QP however often its MPT slot is recycled — through every
// tag and past the slot's retirement — and never reads the bytes of the
// region that took the slot.
TEST_F(RnicTest, DeregisteredKeyStaysDeadAcrossSlotReuse) {
  VAddr a = MapPages(1);
  VAddr b = MapPages(1);
  const uint64_t a_bytes = 0xAAAAAAAAAAAAAAAAULL;
  const uint64_t b_bytes = 0xBBBBBBBBBBBBBBBBULL;
  ASSERT_TRUE(space_.WriteVirtual(a, &a_bytes, 8).ok());
  ASSERT_TRUE(space_.WriteVirtual(b, &b_bytes, 8).ok());
  auto dead = rnic_.RegisterMemory(a, 1, /*odp=*/false);
  ASSERT_TRUE(dead.ok());
  ASSERT_TRUE(rnic_.DeregisterMemory(dead->r_key).ok());

  QueuePair qp(&rnic_);
  std::set<RKey> issued = {dead->r_key};
  std::vector<RKey> dead_keys = {dead->r_key};
  for (int round = 0; round < 600; ++round) {
    auto live = rnic_.RegisterMemory(b, 1, /*odp=*/false);
    ASSERT_TRUE(live.ok());
    ASSERT_NE(live->r_key, 0u);
    ASSERT_TRUE(issued.insert(live->r_key).second) << "key issued twice";
    for (RKey key : {dead->r_key, dead_keys.back()}) {
      uint64_t out = 0;
      auto st = qp.Read(key, b, &out, 8);
      ASSERT_TRUE(st.status().IsQpBroken()) << "round " << round;
      EXPECT_EQ(out, 0u);
      EXPECT_EQ(qp.state(), QueuePair::State::kError);
      qp.Reconnect();
    }
    uint64_t out = 0;
    ASSERT_TRUE(qp.Read(live->r_key, b, &out, 8).ok());
    EXPECT_EQ(out, b_bytes);
    ASSERT_TRUE(rnic_.DeregisterMemory(live->r_key).ok());
    dead_keys.push_back(live->r_key);
  }
  // Every key ever issued stays dead; the control plane agrees.
  for (RKey key : dead_keys) {
    uint64_t out = 0;
    ASSERT_TRUE(qp.Read(key, b, &out, 8).status().IsQpBroken());
    qp.Reconnect();
    EXPECT_EQ(rnic_.DeregisterMemory(key).code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(phys_.RefCount(*space_.TranslatePage(b)), 1u);  // PT ref only
}

// Readers race DeregisterMemory on an ODP region whose entries were just
// invalidated, so a verb may be about to fault a frame back in when the
// key dies. The verb must fail instead: a read issued after Deregister
// returned never succeeds, and no pin outlives the region.
TEST_F(RnicTest, VerbsRacingDeregisterLeaveNoPins) {
  constexpr int kReaders = 3;
  for (int round = 0; round < 200; ++round) {
    VAddr a = MapPages(1);
    VAddr b = MapPages(1);
    auto keys = rnic_.RegisterMemory(a, 1, /*odp=*/true);
    ASSERT_TRUE(keys.ok());
    ASSERT_TRUE(space_.Remap(a, b, 1).ok());  // invalidates a's MTT entry
    const sim::FrameId frame = *space_.TranslatePage(b);

    std::atomic<int> started{0};
    std::atomic<bool> dead{false};
    std::atomic<bool> stop{false};
    std::atomic<int> late_successes{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        QueuePair qp(&rnic_);
        started.fetch_add(1);
        while (!stop.load()) {
          const bool after = dead.load();
          uint64_t out = 0;
          auto st = qp.Read(keys->r_key, a, &out, 8);
          if (st.ok()) {
            if (after) late_successes.fetch_add(1);
          } else {
            EXPECT_TRUE(st.status().IsQpBroken()) << st.status();
            qp.Reconnect();
          }
        }
      });
    }
    while (started.load() < kReaders) std::this_thread::yield();
    ASSERT_TRUE(rnic_.DeregisterMemory(keys->r_key).ok());
    dead.store(true);
    for (int spins = 0; spins < 50; ++spins) std::this_thread::yield();
    stop.store(true);
    for (auto& t : readers) t.join();

    EXPECT_EQ(late_successes.load(), 0) << "round " << round;
    // Both page-table entries (a remapped onto b, and b) and nothing else.
    EXPECT_EQ(phys_.RefCount(frame), 2u) << "round " << round;
    ASSERT_TRUE(space_.Unmap(a, 1).ok());
    ASSERT_TRUE(space_.Unmap(b, 1).ok());
    ASSERT_EQ(phys_.live_frames(), 0u) << "leaked pin in round " << round;
    space_.ReleaseRange(a, 1);
    space_.ReleaseRange(b, 1);
  }
}

TEST_F(RnicTest, MttPinsFrames) {
  VAddr a = MapPages(1);
  auto keys = rnic_.RegisterMemory(a, 1, false);
  ASSERT_TRUE(keys.ok());
  // Mapping ref + MTT ref.
  auto frame = space_.TranslatePage(a);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(phys_.RefCount(*frame), 2u);
  ASSERT_TRUE(space_.Unmap(a, 1).ok());
  EXPECT_EQ(phys_.live_frames(), 1u);  // still pinned by the RNIC
  ASSERT_TRUE(rnic_.DeregisterMemory(keys->r_key).ok());
  EXPECT_EQ(phys_.live_frames(), 0u);
}

TEST_F(RnicTest, RdmaWrite) {
  VAddr a = MapPages(1);
  auto keys = rnic_.RegisterMemory(a, 1, false);
  ASSERT_TRUE(keys.ok());
  QueuePair qp(&rnic_);
  const uint64_t value = 0x123456789abcdef0ULL;
  ASSERT_TRUE(qp.Write(keys->r_key, a + 8, &value, 8).ok());
  uint64_t cpu = 0;
  ASSERT_TRUE(space_.ReadVirtual(a + 8, &cpu, 8).ok());
  EXPECT_EQ(cpu, value);
}

// --- Doorbell/completion batching (DESIGN.md §12) ---------------------------

TEST_F(RnicTest, PostBatchChainsReadsForOneDoorbell) {
  constexpr size_t kWrs = 8;
  constexpr size_t kSlot = 64;
  VAddr base = MapPages(1);
  std::vector<uint8_t> data(kWrs * kSlot);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE(space_.WriteVirtual(base, data.data(), data.size()).ok());
  auto keys = rnic_.RegisterMemory(base, 1, false);
  ASSERT_TRUE(keys.ok());

  QueuePair qp(&rnic_);
  std::vector<uint8_t> out(kWrs * kSlot);
  // Warm the MTT cache so the chain's cost is pure verb overhead.
  ASSERT_TRUE(qp.Read(keys->r_key, base, out.data(), out.size()).ok());
  WorkRequest wrs[kWrs];
  for (size_t i = 0; i < kWrs; ++i) {
    wrs[i].op = WorkRequest::Op::kRead;
    wrs[i].r_key = keys->r_key;
    wrs[i].addr = base + i * kSlot;
    wrs[i].buf = out.data() + i * kSlot;
    wrs[i].len = kSlot;
  }
  auto total = qp.PostBatch(wrs, kWrs);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(out, data);
  for (const WorkRequest& wr : wrs) EXPECT_TRUE(wr.status.ok());

  // The chain pays exactly one doorbell + one completion (selective
  // signaling): the RdmaBatchNs shape, ≥1.5x cheaper than n round trips.
  // Per-WR integer rounding of the byte leg can undershoot the aggregate
  // formula by at most 1 ns per WR.
  const LatencyModel& model = qp.model();
  EXPECT_GE(*total, model.RdmaBatchNs(kWrs, kWrs * kSlot) - kWrs);
  EXPECT_LE(*total, model.RdmaBatchNs(kWrs, kWrs * kSlot));
  EXPECT_GE(kWrs * model.RdmaReadNs(kSlot), *total * 3 / 2);

  // A single verb is a one-WR chain: Read, Write and a one-WR PostBatch
  // all charge exactly RdmaReadNs(len) on a warm MTT.
  auto read = qp.Read(keys->r_key, base, out.data(), kSlot);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, model.RdmaReadNs(kSlot));
  auto write = qp.Write(keys->r_key, base, data.data(), kSlot);
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(*write, model.RdmaReadNs(kSlot));
  for (WorkRequest::Op op : {WorkRequest::Op::kRead, WorkRequest::Op::kWrite}) {
    WorkRequest one;
    one.op = op;
    one.r_key = keys->r_key;
    one.addr = base;
    one.buf = op == WorkRequest::Op::kRead ? out.data() : data.data();
    one.len = kSlot;
    auto posted = qp.PostBatch(&one, 1);
    ASSERT_TRUE(posted.ok());
    EXPECT_TRUE(one.status.ok());
    EXPECT_EQ(*posted, model.RdmaReadNs(kSlot));
  }
}

TEST_F(RnicTest, SingleVerbAndOneWrChainBreakTheQpAlike) {
  VAddr base = MapPages(1);
  auto keys = rnic_.RegisterMemory(base, 1, false);
  ASSERT_TRUE(keys.ok());
  ASSERT_TRUE(rnic_.DeregisterMemory(keys->r_key).ok());  // a dead key
  uint64_t word = 0;

  QueuePair read_qp(&rnic_);
  QueuePair write_qp(&rnic_);
  QueuePair chain_qp(&rnic_);
  EXPECT_TRUE(
      read_qp.Read(keys->r_key, base, &word, 8).status().IsQpBroken());
  EXPECT_TRUE(
      write_qp.Write(keys->r_key, base, &word, 8).status().IsQpBroken());
  WorkRequest wr;
  wr.r_key = keys->r_key;
  wr.addr = base;
  wr.buf = &word;
  wr.len = 8;
  ASSERT_TRUE(chain_qp.PostBatch(&wr, 1).ok());  // the post itself completes
  EXPECT_TRUE(wr.status.IsQpBroken());           // with an error CQE

  for (QueuePair* qp : {&read_qp, &write_qp, &chain_qp}) {
    EXPECT_EQ(qp->state(), QueuePair::State::kError);
    // Every later post on the broken QP fails outright, whichever verb.
    EXPECT_TRUE(qp->Read(keys->r_key, base, &word, 8).status().IsQpBroken());
    EXPECT_TRUE(qp->PostBatch(&wr, 1).status().IsQpBroken());
  }
  EXPECT_EQ(rnic_.stats().qp_breaks.load(), 3u);
}

TEST_F(RnicTest, PostBatchFlushesRemainingWrsOnBreak) {
  VAddr base = MapPages(1);
  auto keys = rnic_.RegisterMemory(base, 1, false);
  ASSERT_TRUE(keys.ok());
  QueuePair qp(&rnic_);

  uint64_t words[3] = {0, 0, 0};
  WorkRequest wrs[3];
  for (int i = 0; i < 3; ++i) {
    wrs[i].op = WorkRequest::Op::kRead;
    wrs[i].r_key = keys->r_key;
    wrs[i].addr = base + i * 8;
    wrs[i].buf = &words[i];
    wrs[i].len = 8;
  }
  wrs[1].r_key = 999;  // breaks the QP mid-chain

  // IB flush semantics: the bad WR errors, later WRs on the same QP flush
  // with kQpBroken, but the chain as a whole still completes.
  auto total = qp.PostBatch(wrs, 3);
  ASSERT_TRUE(total.ok());
  EXPECT_TRUE(wrs[0].status.ok());
  EXPECT_TRUE(wrs[1].status.IsQpBroken());
  EXPECT_TRUE(wrs[2].status.IsQpBroken());
  EXPECT_EQ(qp.state(), QueuePair::State::kError);

  // A chain against an already-broken QP fails outright.
  EXPECT_TRUE(qp.PostBatch(wrs, 3).status().IsQpBroken());
}

TEST_F(RnicTest, PostBatchSharedSurvivesOneBrokenQp) {
  VAddr base = MapPages(1);
  const uint64_t seeded = 0x5151515151515151ULL;
  ASSERT_TRUE(space_.WriteVirtual(base, &seeded, 8).ok());
  auto keys = rnic_.RegisterMemory(base, 1, false);
  ASSERT_TRUE(keys.ok());
  QueuePair good(&rnic_);
  QueuePair bad(&rnic_);

  uint64_t words[2] = {0, 0};
  QueuePair* qps[2] = {&bad, &good};
  WorkRequest wrs[2];
  for (int i = 0; i < 2; ++i) {
    wrs[i].op = WorkRequest::Op::kRead;
    wrs[i].r_key = keys->r_key;
    wrs[i].addr = base;
    wrs[i].buf = &words[i];
    wrs[i].len = 8;
  }
  wrs[0].r_key = 999;  // only the first QP breaks

  auto total = PostBatchShared(qps, wrs, 2);
  ASSERT_TRUE(total.ok());
  EXPECT_TRUE(wrs[0].status.IsQpBroken());
  EXPECT_TRUE(wrs[1].status.ok());
  EXPECT_EQ(words[1], seeded);
  EXPECT_EQ(bad.state(), QueuePair::State::kError);
  EXPECT_EQ(good.state(), QueuePair::State::kConnected);
  // The shared chain is one doorbell charge; the broken WR adds no wire
  // leg, the good one its wire leg and a cold MTT-cache miss.
  const LatencyModel& model = good.model();
  EXPECT_EQ(*total, model.RdmaBatchNs(1, 8) + model.MttCacheMissNs());
}

// --- RPC transport -----------------------------------------------------------

TEST(RpcTransportTest, RequestResponseRoundTrip) {
  RpcQueue queue;
  RpcClient client(&queue, LatencyModel{});

  std::thread server([&] {
    RpcMessage* msg = nullptr;
    while ((msg = queue.Poll()) == nullptr) {
    }
    msg->response = Buffer(msg->request.rbegin(), msg->request.rend());
    msg->status = Status::OK();
    msg->done.store(true, std::memory_order_release);
    msg->Unref();  // the server's reference
  });

  RpcMessage* msg = RpcMessagePool::Acquire();
  msg->request = Buffer{1, 2, 3};
  RpcWireStats wire;
  const Status st = client.CallPooled(&msg, /*ring_hint=*/-1, &wire);
  server.join();
  EXPECT_TRUE(st.ok());
  ASSERT_NE(msg, nullptr);  // still the caller's: decode in place, Unref
  EXPECT_EQ(msg->response, (Buffer{3, 2, 1}));
  EXPECT_GT(wire.network_ns, 0u);
  msg->Unref();
}

TEST(RpcTransportTest, CallTimesOutWhenNobodyServes) {
  RpcQueue queue;  // no server polls it
  RetryPolicy policy;
  policy.deadline_ns = 20'000'000;  // 20 ms
  RpcClient client(&queue, LatencyModel{}, policy);

  RpcMessage* msg = RpcMessagePool::Acquire();
  msg->request = Buffer{42};
  RpcWireStats wire;
  const Status st = client.CallPooled(&msg, /*ring_hint=*/-1, &wire);
  EXPECT_EQ(st.code(), StatusCode::kTimeout);
  EXPECT_EQ(msg, nullptr);  // the transport released the caller's reference

  // The abandoned message still sits in the queue; a late server completes
  // it without touching freed memory (the refcount keeps it alive).
  RpcMessage* late = queue.Poll();
  ASSERT_NE(late, nullptr);
  late->status = Status::OK();
  late->done.store(true, std::memory_order_release);
  late->Unref();
}

TEST(RpcTransportTest, RateLimiterDisabledAtZeroScale) {
  NicMessageRateLimiter limiter(1);  // 1 msg/s — would stall if active
  limiter.Acquire();                 // must return instantly at scale 0
  SUCCEED();
}

}  // namespace
}  // namespace corm::rdma
