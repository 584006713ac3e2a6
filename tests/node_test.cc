// End-to-end tests of the CoRM node through the client Context: the full
// Table 2 API, consistency checks, and bulk loaders.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/sanitizer.h"
#include "core/client.h"
#include "core/corm_node.h"
#include "core/object_layout.h"
#include "core/worker.h"

namespace corm::core {
namespace {

CormConfig SmallConfig() {
  CormConfig config;
  config.num_workers = 4;
  config.block_pages = 1;  // 4 KiB blocks (paper default)
  config.object_id_bits = 16;
  return config;
}

class NodeTest : public ::testing::Test {
 protected:
  NodeTest() : node_(SmallConfig()), ctx_(Context::Create(&node_)) {}

  CormNode node_;
  std::unique_ptr<Context> ctx_;
};

TEST_F(NodeTest, AllocWriteReadFree) {
  auto addr = ctx_->Alloc(100);
  ASSERT_TRUE(addr.ok());
  EXPECT_FALSE(addr->IsNull());
  EXPECT_NE(addr->r_key, 0u);

  std::vector<uint8_t> data(100);
  PatternFill(1, data.data(), 100);
  ASSERT_TRUE(ctx_->Write(&*addr, data.data(), 100).ok());

  std::vector<uint8_t> out(100, 0);
  ASSERT_TRUE(ctx_->Read(&*addr, out.data(), 100).ok());
  EXPECT_EQ(out, data);

  ASSERT_TRUE(ctx_->Free(&*addr).ok());
  EXPECT_TRUE(addr->IsNull());
}

TEST_F(NodeTest, DirectReadMatchesRpcRead) {
  auto addr = ctx_->Alloc(200);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> data(200);
  PatternFill(2, data.data(), 200);
  ASSERT_TRUE(ctx_->Write(&*addr, data.data(), 200).ok());

  std::vector<uint8_t> direct(200), rpc(200);
  ASSERT_TRUE(ctx_->DirectRead(*addr, direct.data(), 200).ok());
  ASSERT_TRUE(ctx_->Read(&*addr, rpc.data(), 200).ok());
  EXPECT_EQ(direct, rpc);
  EXPECT_EQ(direct, data);
}

TEST(SingleWorkerNodeTest, ReadAfterFreeFails) {
  CormConfig config = SmallConfig();
  config.num_workers = 1;  // deterministic placement: same block
  CormNode node(config);
  auto ctx = Context::Create(&node);
  // Keep a sibling object alive so the block itself is not released.
  auto keeper = ctx->Alloc(32);
  auto addr = ctx->Alloc(32);
  ASSERT_TRUE(keeper.ok());
  ASSERT_TRUE(addr.ok());
  ASSERT_EQ(BlockBaseOf(keeper->vaddr, node.block_bytes()),
            BlockBaseOf(addr->vaddr, node.block_bytes()));
  GlobalAddr stale = *addr;
  ASSERT_TRUE(ctx->Free(&*addr).ok());
  std::vector<uint8_t> buf(32);
  Status st = ctx->Read(&stale, buf.data(), 32);
  EXPECT_FALSE(st.ok());
  // A one-sided read sees the tombstone.
  EXPECT_TRUE(ctx->DirectRead(stale, buf.data(), 32).IsObjectMoved());
}

TEST(SingleWorkerNodeTest, FreedBlockAddressBecomesStale) {
  CormConfig config = SmallConfig();
  config.num_workers = 1;
  CormNode node(config);
  auto ctx = Context::Create(&node);
  // When the *last* object of a block dies, the whole block is released;
  // its virtual address is no longer resolvable.
  auto addr = ctx->Alloc(32);
  ASSERT_TRUE(addr.ok());
  GlobalAddr stale = *addr;
  ASSERT_TRUE(ctx->Free(&*addr).ok());
  std::vector<uint8_t> buf(32);
  EXPECT_TRUE(ctx->Read(&stale, buf.data(), 32).IsStalePointer());
}

TEST_F(NodeTest, DoubleFreeRejected) {
  auto addr = ctx_->Alloc(32);
  ASSERT_TRUE(addr.ok());
  GlobalAddr copy = *addr;
  ASSERT_TRUE(ctx_->Free(&*addr).ok());
  EXPECT_FALSE(ctx_->Free(&copy).ok());
}

TEST_F(NodeTest, AllocationsLandInMatchingClasses) {
  // 4 KiB blocks: the largest usable class is 4096 (capacity 4025).
  for (uint32_t size : {1u, 8u, 24u, 56u, 100u, 500u, 2000u, 4000u}) {
    auto addr = ctx_->Alloc(size);
    ASSERT_TRUE(addr.ok()) << size;
    const uint32_t slot = node_.classes().ClassSize(addr->class_idx);
    EXPECT_GE(PayloadCapacity(slot), size);
  }
}

TEST_F(NodeTest, ObjectTooLargeRejected) {
  EXPECT_FALSE(ctx_->Alloc(1 << 20).ok());  // over the 4 KiB block
}

TEST_F(NodeTest, WriteBumpsVersionVisibleToDirectRead) {
  auto addr = ctx_->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> a(64, 1), b(64, 2), out(64);
  ASSERT_TRUE(ctx_->Write(&*addr, a.data(), 64).ok());
  ASSERT_TRUE(ctx_->DirectRead(*addr, out.data(), 64).ok());
  EXPECT_EQ(out, a);
  ASSERT_TRUE(ctx_->Write(&*addr, b.data(), 64).ok());
  ASSERT_TRUE(ctx_->DirectRead(*addr, out.data(), 64).ok());
  EXPECT_EQ(out, b);
}

TEST_F(NodeTest, ManyObjectsDistinctAddresses) {
  std::vector<GlobalAddr> addrs;
  for (int i = 0; i < 500; ++i) {
    auto addr = ctx_->Alloc(24);
    ASSERT_TRUE(addr.ok());
    addrs.push_back(*addr);
  }
  for (size_t i = 0; i < addrs.size(); ++i) {
    for (size_t j = i + 1; j < addrs.size(); ++j) {
      ASSERT_NE(addrs[i].vaddr, addrs[j].vaddr);
    }
  }
}

TEST_F(NodeTest, BulkAllocPatternsReadable) {
  auto addrs = node_.BulkAlloc(1000, 48);
  ASSERT_TRUE(addrs.ok());
  ASSERT_EQ(addrs->size(), 1000u);
  std::vector<uint8_t> buf(48);
  // Bulk objects are pattern-filled by index.
  for (size_t i = 0; i < addrs->size(); i += 97) {
    ASSERT_TRUE(ctx_->DirectRead((*addrs)[i], buf.data(), 48).ok()) << i;
    EXPECT_TRUE(PatternCheck(i, buf.data(), 48)) << i;
  }
}

TEST_F(NodeTest, BulkFreeReleasesMemory) {
  const uint64_t before = node_.ActiveMemoryBytes();
  auto addrs = node_.BulkAlloc(2000, 48);
  ASSERT_TRUE(addrs.ok());
  EXPECT_GT(node_.ActiveMemoryBytes(), before);
  ASSERT_TRUE(node_.BulkFree(*addrs).ok());
  // Empty blocks are returned to the OS.
  EXPECT_EQ(node_.ActiveMemoryBytes(), before);
}

TEST_F(NodeTest, FragmentationReflectsFrees) {
  auto addrs = node_.BulkAlloc(1000, 48);
  ASSERT_TRUE(addrs.ok());
  auto frag0 = node_.Fragmentation();
  auto class_idx = node_.ClassForPayload(48);
  ASSERT_TRUE(class_idx.ok());
  EXPECT_NEAR(frag0[*class_idx].Ratio(), 1.0, 0.2);
  // Free every second object: ratio approaches 2.
  std::vector<GlobalAddr> half;
  for (size_t i = 0; i < addrs->size(); i += 2) half.push_back((*addrs)[i]);
  ASSERT_TRUE(node_.BulkFree(half).ok());
  auto frag1 = node_.Fragmentation();
  EXPECT_GT(frag1[*class_idx].Ratio(), 1.7);
}

TEST_F(NodeTest, StatsCountOperations) {
  auto addr = ctx_->Alloc(32);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> buf(16);
  ASSERT_TRUE(ctx_->Write(&*addr, buf.data(), 16).ok());
  ASSERT_TRUE(ctx_->Read(&*addr, buf.data(), 16).ok());
  ASSERT_TRUE(ctx_->Free(&*addr).ok());
  EXPECT_GE(node_.stats().rpc_allocs, 1u);
  EXPECT_GE(node_.stats().rpc_writes, 1u);
  EXPECT_GE(node_.stats().rpc_reads, 1u);
  EXPECT_GE(node_.stats().rpc_frees, 1u);
}

// stats() folds every counter of CORM_NODE_COUNTERS over every shard kind:
// one bump on the overflow shard and one on a client shard read back as 2.
// The worker never parks and serves no request, so it bumps nothing.
TEST(NodeStatsTest, StatsFoldEveryCounterFromOverflowAndClientShards) {
  CormConfig config = SmallConfig();
  config.num_workers = 1;
  config.idle_park = false;
  CormNode node(config);
  NodeStatShard& overflow = node.client_stat_shard();
  NodeStatShard& client = node.NextClientStatShard();
#define BUMP_BOTH(name) \
  ++overflow.name;      \
  ++client.name;
  CORM_NODE_COUNTERS(BUMP_BOTH)
#undef BUMP_BOTH
  const NodeStats s = node.stats();
#define EXPECT_TWO(name) EXPECT_EQ(s.name, 2u) << #name;
  CORM_NODE_COUNTERS(EXPECT_TWO)
#undef EXPECT_TWO
}

// --- Parked workers wake for every request (DESIGN.md §7.3). --------------
// Every RPC is issued only once its serving worker is parked on its futex,
// and every control-plane fan-out (Fragmentation sends each worker a kStats
// message) only once all workers are. A producer that failed to wake its
// worker shows up as a park that timed out with the work already queued.

bool WaitParked(CormNode* node, int ring) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!node->rpc_queue()->parker(ring)->parked()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(NodeWakeupTest, SequentialRequestsWakeTheParkedWorker) {
  CormConfig config = SmallConfig();
  // One worker: no sibling can steal a request that failed to wake it.
  config.num_workers = 1;
  ASSERT_TRUE(config.idle_park);
  CormNode node(config);
  auto ctx = Context::Create(&node);
  auto addr = ctx->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> buf(64), out(64);
  for (int i = 0; i < 200; ++i) {
    if (i % 50 == 0) {
      // Let the worker climb to the ~1 ms top of its timeout ladder.
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    ASSERT_TRUE(WaitParked(&node, ctx->home_ring())) << i;
    PatternFill(static_cast<uint64_t>(i), buf.data(), 64);
    ASSERT_TRUE(ctx->Write(&*addr, buf.data(), 64).ok()) << i;
    ASSERT_TRUE(WaitParked(&node, ctx->home_ring())) << i;
    ASSERT_TRUE(ctx->Read(&*addr, out.data(), 64).ok()) << i;
    EXPECT_EQ(out, buf) << i;
    if (i % 20 == 0) {
      for (int w = 0; w < config.num_workers; ++w) {
        ASSERT_TRUE(WaitParked(&node, w)) << i;
      }
      EXPECT_FALSE(node.Fragmentation().empty());
    }
  }
  EXPECT_EQ(node.stats().park_missed_wakeups, 0u);
}

// --- Idle workers spin for a budget before they park (DESIGN.md §7.3). ----
// Worker threads inherit the affinity mask of the thread that creates the
// node, so this process's mask decides the budget they run with.

void BusyWait(std::chrono::nanoseconds gap) {
  const auto until = std::chrono::steady_clock::now() + gap;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(NodeWakeupTest, SpinBudgetIsZeroOnOneCpu) {
  EXPECT_EQ(Worker::PausePolls(1, 1), 0u);
  EXPECT_EQ(Worker::PausePolls(4, 4), 0u);
  EXPECT_EQ(Worker::PausePolls(4, 2), Worker::kPausePolls);
  EXPECT_EQ(Worker::IdleSpinBudgetNs(1), 0u);
  EXPECT_EQ(Worker::IdleSpinBudgetNs(4), Worker::kIdleSpinNs);
  EXPECT_GT(Worker::kIdleSpinNs, 0u);
}

TEST(NodeWakeupTest, RequestsWithinTheSpinBudgetNeverPark) {
  if (Worker::AffinityCpus() < 2) {
    GTEST_SKIP() << "the spin budget is 0 on one CPU";
  }
#ifdef CORM_TSAN_ENABLED
  GTEST_SKIP() << "TSan stretches every round trip past the spin budget";
#endif
  using std::chrono::steady_clock;
  CormConfig config = SmallConfig();
  config.num_workers = 1;
  CormNode node(config);
  auto ctx = Context::Create(&node);
  auto addr = ctx->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> buf(64);
  const std::chrono::nanoseconds budget(Worker::kIdleSpinNs);
  // Requests go out one per busy gap of a quarter budget, so a dry spell —
  // the gap after a reply plus short stretches inside the Write calls —
  // ends well inside the budget unless the client stalls: loses its CPU to
  // the scheduler or the hypervisor, or sees a reply late, each of which
  // shows as a long gap or Write. A stall may let the worker
  // park, and the park shows at the parks read in that gap or the next
  // one; with no stall since the read two gaps back, no park may show.
  // (A wake-up only lengthens the Write it delays, by ~8 us, which stays
  // under the Write bound, so a worker that parks early is still seen.)
  // Returns how often a park showed, over 1000 requests.
  const auto parks_without_stalls = [&] {
    EXPECT_TRUE(ctx->Write(&*addr, buf.data(), 64).ok());
    uint64_t parks = node.stats().idle_parks;
    auto replied = steady_clock::now();
    steady_clock::duration write_time{};
    bool stalled_before = true;
    int checked = 0;
    int parked = 0;
    for (int i = 0; i < 1000; ++i) {
      BusyWait(budget / 4);
      const uint64_t parks_now = node.stats().idle_parks;
      const bool stalled = steady_clock::now() - replied >= budget / 2 ||
                           write_time >= budget * 3 / 4;
      if (!stalled && !stalled_before) {
        ++checked;
        if (parks_now != parks) ++parked;
      }
      parks = parks_now;
      stalled_before = stalled;
      PatternFill(static_cast<uint64_t>(i), buf.data(), 64);
      const auto sent = steady_clock::now();
      EXPECT_TRUE(ctx->Write(&*addr, buf.data(), 64).ok()) << i;
      replied = steady_clock::now();
      write_time = replied - sent;
    }
    EXPECT_GT(checked, 0);
    return parked;
  };
  // The worker can stall too, which the client does not see; so the rule
  // must hold in one of a few attempts. A worker that parks before its
  // budget runs out parks after nearly every gap of every attempt.
  int fewest = parks_without_stalls();
  for (int attempt = 1; attempt < 3 && fewest > 0; ++attempt) {
    fewest = std::min(fewest, parks_without_stalls());
  }
  EXPECT_EQ(fewest, 0);
  EXPECT_EQ(node.stats().park_missed_wakeups, 0u);
}

TEST(NodeWakeupTest, AnIdleNodeParksAfterTheBudgetAndSpinsNoMore) {
  if (Worker::AffinityCpus() < 2) {
    GTEST_SKIP() << "the spin budget is 0 on one CPU";
  }
  using std::chrono::steady_clock;
  CormConfig config = SmallConfig();
  config.num_workers = 1;
  CormNode node(config);
  auto ctx = Context::Create(&node);
  auto addr = ctx->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> buf(64);
  // The fastest of ten dry spells: scheduling noise only adds time (a
  // worker that yields to a busy thread mid-spell gets its CPU back up to
  // a timeslice later), and the slack still catches a budget a thousand
  // times too long.
  auto fastest = steady_clock::duration::max();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ctx->Write(&*addr, buf.data(), 64).ok());
    const auto idle_from = steady_clock::now();
    ASSERT_TRUE(WaitParked(&node, ctx->home_ring())) << i;
    fastest = std::min(fastest, steady_clock::now() - idle_from);
  }
  EXPECT_LT(fastest, std::chrono::nanoseconds(Worker::kIdleSpinNs) +
                         std::chrono::milliseconds(10));
  // Let the timeout ladder reach its ~1 ms top, then count passes: a
  // parked worker makes one per timeout, a spinning one hundreds of
  // thousands a second. The budget is not re-armed after a timeout.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const uint64_t passes0 = node.WorkerPasses(0);
  const auto t0 = steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const uint64_t passes = node.WorkerPasses(0) - passes0;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      steady_clock::now() - t0)
                      .count();
  EXPECT_LE(passes, static_cast<uint64_t>(ms) + 5) << ms << " ms";
  EXPECT_GT(passes, 0u);  // the timeout still bounds the ingress rings
}

TEST_F(NodeTest, LocalContextReads) {
  Context::Options local;
  local.local = true;
  auto lctx = Context::Create(&node_, local);
  auto addr = ctx_->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> data(64);
  PatternFill(9, data.data(), 64);
  ASSERT_TRUE(ctx_->Write(&*addr, data.data(), 64).ok());
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(lctx->DirectRead(*addr, out.data(), 64).ok());
  EXPECT_EQ(out, data);
}

// DirectReadBatch posts up to kBatchChain (16) reads behind one doorbell,
// so 20 objects take two chains. A colocated context has no doorbell to
// amortize and reads the same batch one object at a time. Either way a
// dangling pointer fails validation for its own entry only (the slot memory
// is still registered, so a chain stays intact).
TEST_F(NodeTest, DirectReadBatchCoalescesAndValidates) {
  constexpr size_t kObjects = 20;
  std::vector<GlobalAddr> addrs;
  for (size_t i = 0; i < kObjects; ++i) {
    auto addr = ctx_->Alloc(64);
    ASSERT_TRUE(addr.ok());
    std::vector<uint8_t> in(64);
    PatternFill(static_cast<int>(i), in.data(), in.size());
    ASSERT_TRUE(ctx_->Write(&*addr, in.data(), in.size()).ok());
    addrs.push_back(*addr);
  }
  Context::Options colocated;
  colocated.local = true;
  auto lctx = Context::Create(&node_, colocated);

  std::vector<uint8_t> bufs(kObjects * 64);
  std::vector<Status> statuses(kObjects);
  for (Context* ctx : {ctx_.get(), lctx.get()}) {
    std::fill(bufs.begin(), bufs.end(), 0);
    ASSERT_TRUE(ctx->DirectReadBatch(addrs.data(), kObjects, bufs.data(), 64,
                                     statuses.data())
                    .ok());
    for (size_t i = 0; i < kObjects; ++i) {
      EXPECT_TRUE(statuses[i].ok()) << i << ": " << statuses[i].ToString();
      EXPECT_TRUE(PatternCheck(static_cast<int>(i), bufs.data() + i * 64, 64))
          << i;
    }
  }
  EXPECT_EQ(ctx_->stats().direct_read_batches, 2u);
  EXPECT_EQ(lctx->stats().direct_read_batches, 0u);
  EXPECT_EQ(lctx->stats().direct_reads, kObjects);
  const uint64_t chains = node_.stats().doorbell_batches;
  EXPECT_EQ(chains, 2u);
  EXPECT_EQ(node_.stats().doorbell_batched_wrs, kObjects);

  const GlobalAddr freed = addrs[3];
  ASSERT_TRUE(ctx_->Free(&addrs[3]).ok());
  addrs[3] = freed;
  for (Context* ctx : {ctx_.get(), lctx.get()}) {
    Status st = ctx->DirectReadBatch(addrs.data(), kObjects, bufs.data(), 64,
                                     statuses.data());
    EXPECT_FALSE(st.ok());
    EXPECT_FALSE(statuses[3].ok());
    for (size_t i = 0; i < kObjects; ++i) {
      if (i == 3) continue;
      EXPECT_TRUE(statuses[i].ok()) << i << ": " << statuses[i].ToString();
      EXPECT_TRUE(PatternCheck(static_cast<int>(i), bufs.data() + i * 64, 64))
          << i;
    }
  }
  EXPECT_EQ(node_.stats().doorbell_batches, chains + 2);  // remote only
}

TEST_F(NodeTest, ScanReadFindsObjectWithWrongHint) {
  auto addr = ctx_->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> data(64);
  PatternFill(4, data.data(), 64);
  ASSERT_TRUE(ctx_->Write(&*addr, data.data(), 64).ok());

  // Corrupt the offset hint: DirectRead must fail, ScanRead must recover.
  GlobalAddr bogus = *addr;
  const size_t slot_size = node_.classes().ClassSize(bogus.class_idx);
  const sim::VAddr base = BlockBaseOf(bogus.vaddr, node_.block_bytes());
  bogus.vaddr = base + ((bogus.vaddr - base + slot_size) %
                        (node_.block_bytes() / slot_size * slot_size));
  std::vector<uint8_t> out(64);
  EXPECT_TRUE(ctx_->DirectRead(bogus, out.data(), 64).IsObjectMoved());
  ASSERT_TRUE(ctx_->ScanRead(&bogus, out.data(), 64).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(bogus.vaddr, addr->vaddr);  // pointer corrected
}

TEST_F(NodeTest, RpcReadCorrectsWrongHint) {
  auto addr = ctx_->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> data(64);
  PatternFill(5, data.data(), 64);
  ASSERT_TRUE(ctx_->Write(&*addr, data.data(), 64).ok());

  GlobalAddr bogus = *addr;
  const size_t slot_size = node_.classes().ClassSize(bogus.class_idx);
  const sim::VAddr base = BlockBaseOf(bogus.vaddr, node_.block_bytes());
  bogus.vaddr = base + ((bogus.vaddr - base + slot_size) %
                        (node_.block_bytes() / slot_size * slot_size));
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(ctx_->Read(&bogus, out.data(), 64).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(bogus.vaddr, addr->vaddr);
  EXPECT_GE(ctx_->stats().pointer_corrections, 1u);
}

TEST_F(NodeTest, ReadWithRecoveryHandlesWrongHint) {
  auto addr = ctx_->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> data(64);
  PatternFill(6, data.data(), 64);
  ASSERT_TRUE(ctx_->Write(&*addr, data.data(), 64).ok());

  GlobalAddr bogus = *addr;
  const size_t slot_size = node_.classes().ClassSize(bogus.class_idx);
  const sim::VAddr base = BlockBaseOf(bogus.vaddr, node_.block_bytes());
  bogus.vaddr = base + ((bogus.vaddr - base + slot_size) %
                        (node_.block_bytes() / slot_size * slot_size));
  std::vector<uint8_t> out(64, 0);
  ASSERT_TRUE(ctx_->ReadWithRecovery(&bogus, out.data(), 64,
                                     Context::MovedFallback::kRpcRead)
                  .ok());
  EXPECT_EQ(out, data);
}

TEST_F(NodeTest, VirtualMemoryTracked) {
  const uint64_t before = node_.VirtualMemoryBytes();
  auto addrs = node_.BulkAlloc(500, 48);
  ASSERT_TRUE(addrs.ok());
  EXPECT_GT(node_.VirtualMemoryBytes(), before);
  ASSERT_TRUE(node_.BulkFree(*addrs).ok());
  EXPECT_EQ(node_.VirtualMemoryBytes(), before);
}

// Paper Table 1 / §4 setup: FaRM emulation is the same node with IDs off.
TEST(FarmNodeTest, CompactionRefusedWithoutIds) {
  CormConfig config = SmallConfig();
  config.object_id_bits = 0;
  CormNode farm(config);
  auto ctx = Context::Create(&farm);
  auto addr = ctx->Alloc(32);
  ASSERT_TRUE(addr.ok());
  auto class_idx = farm.ClassForPayload(32);
  ASSERT_TRUE(class_idx.ok());
  auto report = farm.Compact(*class_idx);
  EXPECT_EQ(report.status().code(), StatusCode::kNotSupported);
  // Reads still work (same consistency protocol).
  std::vector<uint8_t> buf(32);
  EXPECT_TRUE(ctx->DirectRead(*addr, buf.data(), 32).ok());
}

}  // namespace
}  // namespace corm::core
