// Keyed access layer tests (DESIGN.md §13): the RDMA hash index spanning
// client → core → compaction → dsm.
//
// The invariant under test throughout: an index hint is never truth. A
// one-sided lookup may race compaction's IndexRepair sub-phase, an epoch
// seal, or a concurrent Del — every such race must resolve to either the
// correct bytes or a clean transient error, never to another object's
// bytes through a dangling hint.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/sanitizer.h"
#include "core/client.h"
#include "core/corm_node.h"
#include "core/object_layout.h"
#include "dsm/cluster.h"
#include "dsm/dsm_context.h"
#include "index/index_layout.h"
#include "index/index_table.h"
#include "sim/fault_injector.h"
#include "sim/latency_model.h"
#include "workload/keyed_driver.h"

namespace corm {
namespace {

using core::Context;
using core::CormConfig;
using core::CormNode;
using core::GlobalAddr;

constexpr size_t kValue = 48;

CormConfig BaseConfig() {
  CormConfig config;
  config.num_workers = 2;
  config.block_pages = 1;
  return config;
}

Context::Options ShortDeadlines() {
  Context::Options opts;
#ifdef CORM_TSAN_ENABLED
  opts.rpc_retry.deadline_ns = 60'000'000;
  opts.recovery_retry.deadline_ns = 120'000'000;
#else
  opts.rpc_retry.deadline_ns = 15'000'000;
  opts.recovery_retry.deadline_ns = 40'000'000;
#endif
  return opts;
}

// --- Both views name the same object. --------------------------------------

TEST(IndexTest, KeyedPutGetDelRoundTrip) {
  CormNode node(BaseConfig());
  auto ctx = Context::Create(&node);
  std::vector<uint8_t> buf(kValue), out(kValue);

  workload::FillValue(42, buf.data(), kValue);
  auto addr = ctx->Put(42, buf.data(), kValue);
  ASSERT_TRUE(addr.ok()) << addr.status();

  // The returned pointer carries the owning worker's ring hint (flags bits
  // 7..4), so keyed deletes can route their Free without the forward hop.
  EXPECT_GE(addr->OwnerHint(), 0);
  EXPECT_LT(addr->OwnerHint(), node.config().num_workers);

  // Keyed view and pointer view read the same bytes.
  ASSERT_TRUE(ctx->Get(42, out.data(), kValue).ok());
  EXPECT_TRUE(workload::CheckValue(42, out.data(), kValue));
  ASSERT_TRUE(ctx->DirectRead(*addr, out.data(), kValue).ok());
  EXPECT_TRUE(workload::CheckValue(42, out.data(), kValue));

  // Overwriting Put updates in place: same key, same object.
  workload::FillValue(43, buf.data(), kValue);
  auto again = ctx->Put(42, buf.data(), kValue);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(ctx->Get(42, out.data(), kValue).ok());
  EXPECT_TRUE(workload::CheckValue(43, out.data(), kValue));

  // Del unlinks before it frees: the key vanishes, repeat deletes miss.
  ASSERT_TRUE(ctx->Del(42).ok());
  EXPECT_EQ(ctx->Get(42, out.data(), kValue).code(), StatusCode::kNotFound);
  EXPECT_EQ(ctx->Del(42).code(), StatusCode::kNotFound);
  EXPECT_EQ(ctx->Get(7, out.data(), kValue).code(), StatusCode::kNotFound);

  EXPECT_GE(ctx->stats().index_lookups, 5u);
  EXPECT_TRUE(node.Audit().ok());
}

// --- A Put rides out another writer's lock. --------------------------------

TEST(IndexTest, PutWaitsOutAWriteLockHeldPastTheServerSpin) {
  CormNode node(BaseConfig());
  auto ctx = Context::Create(&node);
  std::vector<uint8_t> buf(kValue), out(kValue);
  workload::FillValue(42, buf.data(), kValue);
  auto addr = ctx->Put(42, buf.data(), kValue);
  ASSERT_TRUE(addr.ok()) << addr.status();

  // Hold the object's write lock the way a serving worker does while it
  // writes, as if that worker were descheduled mid-write far longer than
  // the other worker's bounded spin on a locked header (~1 ms).
  std::atomic_ref<uint64_t> header(*reinterpret_cast<uint64_t*>(
      node.rnic()->address_space()->TranslatePtr(addr->vaddr)));
  const uint64_t unlocked = header.load();
  core::ObjectHeader locked = core::ObjectHeader::Unpack(unlocked);
  locked.lock = core::LockState::kWriteLocked;
  header.store(locked.Pack());

  std::atomic<bool> put_done{false};
  Status put_status;
  const uint64_t writes_before = node.stats().rpc_writes;
  std::thread writer([&] {
    std::vector<uint8_t> value(kValue);
    workload::FillValue(43, value.data(), kValue);
    put_status = ctx->Put(42, value.data(), kValue).status();
    put_done.store(true);
  });
  // Hold the lock until the Put's second write RPC has reached a worker:
  // the first one gave up on the lock, and the Put backed off and retried
  // rather than failing.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (node.stats().rpc_writes < writes_before + 2 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(node.stats().rpc_writes, writes_before + 2);
  // The write is transient, not failed: the Put is still backing off.
  EXPECT_FALSE(put_done.load());
  header.store(unlocked);
  writer.join();

  ASSERT_TRUE(put_status.ok()) << put_status;
  ASSERT_TRUE(ctx->Get(42, out.data(), kValue).ok());
  EXPECT_TRUE(workload::CheckValue(43, out.data(), kValue));
  EXPECT_GE(ctx->stats().retries, 1u);
  EXPECT_TRUE(node.Audit().ok());
}

// --- One RPC per keyed write. ----------------------------------------------
// The serving worker runs a fresh Put's alloc-fill-publish and a Del's
// unlink-free itself; only an overwrite through an uncached pointer takes a
// second RPC, the kWrite.

// Bytes held by live objects of `class_idx`, summed over the workers.
uint64_t UsedBytes(CormNode* node, uint32_t class_idx) {
  return node->Fragmentation()[class_idx].used_bytes;
}

TEST(IndexTest, KeyedWritesCostOneRpcEach) {
  CormNode node(BaseConfig());
  auto ctx = Context::Create(&node);
  std::vector<uint8_t> buf(kValue), out(kValue);
  const auto rpcs_of = [](const Context& c, auto&& op) {
    const uint64_t before = c.stats().rpc_calls;
    op();
    return c.stats().rpc_calls - before;
  };

  workload::FillValue(1, buf.data(), kValue);
  EXPECT_EQ(rpcs_of(*ctx, [&] {
              ASSERT_TRUE(ctx->Put(1, buf.data(), kValue).ok());
            }),
            1u)
      << "fresh Put";
  workload::FillValue(2, buf.data(), kValue);
  EXPECT_EQ(rpcs_of(*ctx, [&] {
              ASSERT_TRUE(ctx->Put(1, buf.data(), kValue).ok());
            }),
            1u)
      << "hinted overwrite";
  auto cold = Context::Create(&node);
  workload::FillValue(3, buf.data(), kValue);
  EXPECT_EQ(rpcs_of(*cold, [&] {
              ASSERT_TRUE(cold->Put(1, buf.data(), kValue).ok());
            }),
            2u)
      << "unhinted overwrite";
  ASSERT_TRUE(ctx->Get(1, out.data(), kValue).ok());
  EXPECT_TRUE(workload::CheckValue(3, out.data(), kValue));
  EXPECT_EQ(rpcs_of(*ctx, [&] { ASSERT_TRUE(ctx->Del(1).ok()); }), 1u)
      << "hinted Del";

  // A Del without a cached pointer is one RPC too: the home ring forwards
  // it to the owner if need be.
  ASSERT_TRUE(ctx->Put(2, buf.data(), kValue).ok());
  auto other = Context::Create(&node);
  EXPECT_EQ(rpcs_of(*other, [&] { ASSERT_TRUE(other->Del(2).ok()); }), 1u)
      << "unhinted Del";
  EXPECT_EQ(ctx->Get(1, out.data(), kValue).code(), StatusCode::kNotFound);
  EXPECT_EQ(ctx->Get(2, out.data(), kValue).code(), StatusCode::kNotFound);

  auto cls = node.ClassForPayload(kValue);
  ASSERT_TRUE(cls.ok());
  EXPECT_EQ(UsedBytes(&node, *cls), 0u);
  EXPECT_TRUE(node.Audit().ok());
}

// N clients Put the same fresh keys at once, round after round. Every Put
// succeeds, one object per key wins the publish and the losers' objects go
// back to the allocator, so exactly one object per key stays allocated.
TEST(IndexTest, ConcurrentPutsOfOneFreshKeyKeepOneObject) {
  CormNode node(BaseConfig());
  constexpr int kThreads = 4;
#ifdef CORM_TSAN_ENABLED
  constexpr uint64_t kRounds = 64;
#else
  constexpr uint64_t kRounds = 256;
#endif
  // Real-time pacing: the worker's modeled allocation cost then spans the
  // gap between its lookup and its insert, so racing Puts overlap there.
  const double scale = sim::SetSimTimeScale(1.0);
  std::atomic<int> arrived{0};
  std::vector<std::vector<Status>> results(
      kThreads, std::vector<Status>(kRounds));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ctx = Context::Create(&node, ShortDeadlines());
      std::vector<uint8_t> buf(kValue);
      for (uint64_t key = 0; key < kRounds; ++key) {
        workload::FillValue(key * 100 + static_cast<uint64_t>(t), buf.data(),
                            kValue);
        // Round barrier: all threads Put key `key` together.
        arrived.fetch_add(1);
        const int target = static_cast<int>(key + 1) * kThreads;
        while (arrived.load() < target) std::this_thread::yield();
        results[t][key] = ctx->Put(key, buf.data(), kValue).status();
      }
    });
  }
  for (auto& th : threads) th.join();
  sim::SetSimTimeScale(scale);

  auto reader = Context::Create(&node);
  std::vector<uint8_t> out(kValue);
  for (uint64_t key = 0; key < kRounds; ++key) {
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_TRUE(results[t][key].ok()) << "key " << key << " thread " << t
                                        << ": " << results[t][key].ToString();
    }
    ASSERT_TRUE(reader->Get(key, out.data(), kValue).ok()) << key;
    bool one_of_them = false;
    for (int t = 0; t < kThreads; ++t) {
      one_of_them |= workload::CheckValue(key * 100 + static_cast<uint64_t>(t),
                                          out.data(), kValue);
    }
    EXPECT_TRUE(one_of_them) << "key " << key << " holds nobody's value";
  }
  auto cls = node.ClassForPayload(kValue);
  ASSERT_TRUE(cls.ok());
  EXPECT_EQ(node.index_view()->LiveEntries(), kRounds);
  EXPECT_EQ(UsedBytes(&node, *cls), kRounds * node.classes().ClassSize(*cls));
  EXPECT_TRUE(node.Audit().ok());
  // The losers' frees: the lost-race path did run.
  EXPECT_GT(node.stats().rpc_frees, 0u);
}

// A fresh key whose two candidate buckets are full is refused with a
// definite status, and the object the worker had already filled for it is
// freed again: the used bytes are exactly the accepted keys'.
TEST(IndexTest, FullBucketPairRefusesThePutWithoutAnOrphan) {
  CormConfig config = BaseConfig();
  config.index_buckets = 512;
  CormNode node(config);
  auto ctx = Context::Create(&node);
  std::vector<uint8_t> buf(kValue), out(kValue);
  const uint64_t capacity = 4 * config.index_buckets;
  uint64_t accepted = 0;
  Status refused;
  for (uint64_t k = 0; k < capacity; ++k) {
    workload::FillValue(k, buf.data(), kValue);
    auto addr = ctx->Put(k, buf.data(), kValue);
    if (!addr.ok()) {
      refused = addr.status();
      break;
    }
    ++accepted;
  }
  ASSERT_LT(accepted, capacity) << "no Put was refused";
  EXPECT_EQ(refused.code(), StatusCode::kOutOfMemory) << refused;
  EXPECT_EQ(node.stats().index_insert_full, 1u);
  EXPECT_EQ(ctx->Get(accepted, out.data(), kValue).code(),
            StatusCode::kNotFound);

  auto cls = node.ClassForPayload(kValue);
  ASSERT_TRUE(cls.ok());
  EXPECT_EQ(node.index_view()->LiveEntries(), accepted);
  EXPECT_EQ(UsedBytes(&node, *cls), accepted * node.classes().ClassSize(*cls));
  EXPECT_TRUE(node.Audit().ok());
}

// --- The one-sided probe path: a fresh client never needs an RPC. ----------

TEST(IndexTest, FreshClientResolvesKeysOneSided) {
  CormNode node(BaseConfig());
  auto writer = Context::Create(&node);
  constexpr uint64_t kKeys = 64;
  std::vector<uint8_t> buf(kValue), out(kValue);
  for (uint64_t k = 0; k < kKeys; ++k) {
    workload::FillValue(k, buf.data(), kValue);
    ASSERT_TRUE(writer->Put(k, buf.data(), kValue).ok());
  }

  // A second client with a cold hint cache: every Get resolves through the
  // one-sided bucket probe + validated read, no RPC fallback.
  auto reader = Context::Create(&node);
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(reader->Get(k, out.data(), kValue).ok()) << k;
    EXPECT_TRUE(workload::CheckValue(k, out.data(), kValue)) << k;
  }
  EXPECT_EQ(reader->stats().index_lookups, kKeys);
  EXPECT_EQ(reader->stats().index_one_sided_hits, kKeys);
  EXPECT_EQ(reader->stats().index_rpc_fallbacks, 0u);

  // Warm cache: the steady state is one validated DirectRead per Get.
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(reader->Get(k, out.data(), kValue).ok());
  }
  EXPECT_EQ(reader->stats().index_one_sided_hits, 2 * kKeys);

  const core::NodeStats stats = node.stats();
  EXPECT_GE(stats.index_lookups, 2 * kKeys);
  EXPECT_GE(stats.index_one_sided_hits, 2 * kKeys);

  // A colocated client probes the same buckets with CPU loads: the same
  // one-sided resolution, and no chained post.
  Context::Options colocated;
  colocated.local = true;
  auto local = Context::Create(&node, colocated);
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(local->Get(k, out.data(), kValue).ok()) << k;
    EXPECT_TRUE(workload::CheckValue(k, out.data(), kValue)) << k;
  }
  EXPECT_EQ(local->stats().index_one_sided_hits, kKeys);
  EXPECT_EQ(local->stats().index_rpc_fallbacks, 0u);
  EXPECT_EQ(node.stats().doorbell_batches, stats.doorbell_batches);
}

// --- Fault site index.stale_hint: the RPC fallback stays correct. ----------

TEST(IndexTest, StaleHintFaultFallsBackToRpc) {
  CormNode node(BaseConfig());
  auto ctx = Context::Create(&node);
  constexpr uint64_t kKeys = 16;
  std::vector<uint8_t> buf(kValue), out(kValue);
  for (uint64_t k = 0; k < kKeys; ++k) {
    workload::FillValue(k, buf.data(), kValue);
    ASSERT_TRUE(ctx->Put(k, buf.data(), kValue).ok());
  }

  sim::FaultInjector injector(7);
  sim::FaultSchedule every;
  every.every_nth = 1;  // every Get distrusts its one-sided snapshot
  injector.Arm(sim::fault_sites::kIndexStaleHint, every);
  {
    sim::ScopedFaultInjector install(&injector);
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(ctx->Get(k, out.data(), kValue).ok()) << k;
      EXPECT_TRUE(workload::CheckValue(k, out.data(), kValue)) << k;
    }
  }
  EXPECT_EQ(injector.FiredCount(sim::fault_sites::kIndexStaleHint), kKeys);
  EXPECT_GE(ctx->stats().index_rpc_fallbacks, kKeys);
  EXPECT_GE(node.stats().index_rpc_fallbacks, kKeys);

  // Injector gone: the very next Gets ride the one-sided path again (the
  // fallback repopulated the hint cache).
  const uint64_t hits_before = ctx->stats().index_one_sided_hits;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(ctx->Get(k, out.data(), kValue).ok());
  }
  EXPECT_EQ(ctx->stats().index_one_sided_hits, hits_before + kKeys);
}

// --- Lookup during compaction: the IndexRepair interleave. -----------------
// The leader is frozen at a compaction phase transition — source objects
// and their destination copies under kCompacting, bucket entries before or
// after their rewrite — while a client drives keyed Gets straight into that
// window. kCompacting excludes writers only, so every Get must return the
// key's bytes, and never another object's bytes.

struct PhaseGate {
  std::mutex mu;
  std::condition_variable cv;
  bool paused = false;
  bool release = false;
  bool open = false;  // once true, the hook stops pausing

  // A phase hook that freezes the leader each time it enters `at`, until
  // Open().
  std::function<void(core::CompactionPhase)> FreezeAt(
      core::CompactionPhase at) {
    return [this, at](core::CompactionPhase p) {
      if (p != at) return;
      std::unique_lock<std::mutex> lock(mu);
      if (open) return;
      paused = true;
      release = false;
      cv.notify_all();
      cv.wait(lock, [this] { return release; });
    };
  }

  void WaitPaused() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return paused; });
  }

  // Lets this and every later pause through.
  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    release = true;
    cv.notify_all();
  }
};

// Runs Compact(class_idx) on its own thread. The destructor opens the gate
// and joins, so a failed assertion inside the frozen window still ends the
// run instead of aborting the process.
class Compactor {
 public:
  Compactor(CormNode* node, uint32_t class_idx, PhaseGate* gate)
      : gate_(gate), thread_([this, node, class_idx] {
          report_ = node->Compact(class_idx);
        }) {}
  ~Compactor() { Join(); }
  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  // Opens the gate, waits for the run and returns its report.
  const Result<core::CompactionReport>& Join() {
    gate_->Open();
    if (thread_.joinable()) thread_.join();
    return report_;
  }

 private:
  PhaseGate* const gate_;
  Result<core::CompactionReport> report_ = Status::Internal("never ran");
  std::thread thread_;
};

// A client whose RPCs land on worker 1's ring. Compaction runs on worker 0,
// which serves nothing while a PhaseGate holds it.
std::unique_ptr<Context> OffLeaderClient(CormNode* node,
                                         Context::Options options = {}) {
  for (;;) {
    auto ctx = Context::Create(node, options);
    if (ctx->home_ring() != 0) return ctx;
  }
}

core::LockState LockAt(CormNode* node, const GlobalAddr& addr) {
  return core::ObjectHeader::Unpack(
             core::LoadHeaderWord(
                 node->rnic()->address_space()->TranslatePtr(addr.vaddr)))
      .lock;
}

// Loads keys 0..255 and deletes the even ones: classic fragmentation, with
// the survivors' bucket entries pointing into soon-to-move blocks. Returns
// each survivor's pointer as Put returned it.
std::vector<std::pair<uint64_t, GlobalAddr>> LoadFragmented(Context* ctx) {
  constexpr uint64_t kKeys = 256;
  std::vector<uint8_t> buf(kValue);
  std::vector<std::pair<uint64_t, GlobalAddr>> survivors;
  for (uint64_t k = 0; k < kKeys; ++k) {
    workload::FillValue(k, buf.data(), kValue);
    auto addr = ctx->Put(k, buf.data(), kValue);
    EXPECT_TRUE(addr.ok()) << addr.status();
    if (k % 2 == 1 && addr.ok()) survivors.emplace_back(k, *addr);
  }
  for (uint64_t k = 0; k < kKeys; k += 2) EXPECT_TRUE(ctx->Del(k).ok());
  return survivors;
}

// Survivors whose object the frozen pair is moving (source kCompacting).
std::vector<std::pair<uint64_t, GlobalAddr>> MovingKeys(
    CormNode* node,
    const std::vector<std::pair<uint64_t, GlobalAddr>>& survivors) {
  std::vector<std::pair<uint64_t, GlobalAddr>> moving;
  for (const auto& [k, addr] : survivors) {
    if (LockAt(node, addr) == core::LockState::kCompacting) {
      moving.emplace_back(k, addr);
    }
  }
  return moving;
}

TEST(IndexTest, LookupDuringIndexRepairSeesNoDanglingHint) {
  PhaseGate gate;
  CormConfig config = BaseConfig();
  config.compaction_slice_objects = 4;  // many small IndexRepair slices
  config.compaction_phase_hook =
      gate.FreezeAt(core::CompactionPhase::kIndexRepair);
  CormNode node(config);
  auto ctx = Context::Create(&node);

  // Fault site index.repair_delay: stall before every repair slice,
  // widening the src-coordinates window the Gets race against.
  sim::FaultInjector injector(11);
  sim::FaultSchedule stall;
  stall.every_nth = 1;
  stall.delay_ns = 2'000;
  injector.Arm(sim::fault_sites::kIndexRepairDelay, stall);
  sim::ScopedFaultInjector install(&injector);

  const auto survivors = LoadFragmented(ctx.get());
  std::vector<uint8_t> buf(kValue), out(kValue);

  auto cls = node.ClassForPayload(kValue);
  ASSERT_TRUE(cls.ok());
  Compactor compactor(&node, *cls, &gate);

  // Wait for the leader to freeze inside kIndexRepair, then probe the
  // window with a cold client. Objects under compaction read through, so
  // every Get resolves one-sided to its bytes.
  gate.WaitPaused();
  const auto moving = MovingKeys(&node, survivors);
  EXPECT_FALSE(moving.empty());
  auto prober = OffLeaderClient(&node, ShortDeadlines());
  for (const auto& [k, addr] : survivors) {
    const Status st = prober->Get(k, out.data(), kValue);
    ASSERT_TRUE(st.ok()) << "key " << k << ": " << st.ToString();
    EXPECT_TRUE(workload::CheckValue(k, out.data(), kValue))
        << "key " << k << " read through a dangling hint mid-repair";
  }
  EXPECT_EQ(prober->stats().index_rpc_fallbacks, 0u);
  // Writers still wait out the move: a write through the old pointer of a
  // moving key bounces, and the key keeps its bytes.
  for (const auto& [k, addr] : moving) {
    GlobalAddr old = addr;
    workload::FillValue(k + 1000, buf.data(), kValue);
    EXPECT_EQ(prober->Write(&old, buf.data(), kValue).code(),
              StatusCode::kObjectLocked)
        << k;
    ASSERT_TRUE(prober->Get(k, out.data(), kValue).ok());
    EXPECT_TRUE(workload::CheckValue(k, out.data(), kValue)) << k;
  }
  const auto& report = compactor.Join();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(injector.FiredCount(sim::fault_sites::kIndexRepairDelay), 0u);

  // After the run: every survivor resolves one-sided to its bytes, the
  // engine rewrote at least one moved entry, and the node audits clean.
  EXPECT_GT(node.stats().index_repairs, 0u);
  auto verify = Context::Create(&node);
  for (const auto& [k, addr] : survivors) {
    ASSERT_TRUE(verify->Get(k, out.data(), kValue).ok()) << k;
    EXPECT_TRUE(workload::CheckValue(k, out.data(), kValue)) << k;
  }
  EXPECT_TRUE(node.Audit().ok());
}

// --- kCompacting excludes writers, not readers. ----------------------------
// Frozen where IndexRepair ends and Remap begins: every moving key's entry
// already names the destination copy, and source and copy both hold
// kCompacting. Reads through either address see the key's bytes; a write
// through either bounces until the remap publishes the copy.

TEST(IndexTest, ReadsPassThroughCompactionLocksWritesWaitForRemap) {
  PhaseGate gate;
  CormConfig config = BaseConfig();
  config.compaction_slice_objects = 4;
  config.compaction_phase_hook = gate.FreezeAt(core::CompactionPhase::kRemap);
  CormNode node(config);
  auto ctx = Context::Create(&node);
  const auto survivors = LoadFragmented(ctx.get());
  std::vector<uint8_t> buf(kValue), out(kValue);

  auto cls = node.ClassForPayload(kValue);
  ASSERT_TRUE(cls.ok());
  Compactor compactor(&node, *cls, &gate);
  gate.WaitPaused();

  const auto moving = MovingKeys(&node, survivors);
  ASSERT_FALSE(moving.empty());
  auto client = OffLeaderClient(&node, ShortDeadlines());
  for (const auto& [k, addr] : survivors) {
    ASSERT_TRUE(client->Get(k, out.data(), kValue).ok()) << k;
    EXPECT_TRUE(workload::CheckValue(k, out.data(), kValue)) << k;
  }
  EXPECT_EQ(client->stats().index_rpc_fallbacks, 0u);

  for (const auto& [k, addr] : moving) {
    index::IndexEntry entry;
    ASSERT_TRUE(node.index_view()->Lookup(k, &entry)) << k;
    GlobalAddr copy = entry.addr;
    ASSERT_NE(copy.vaddr, addr.vaddr) << "IndexRepair left key " << k;
    EXPECT_EQ(LockAt(&node, copy), core::LockState::kCompacting) << k;
    // One-sided and RPC reads through both the old pointer and the
    // rewritten entry return the key's bytes.
    for (GlobalAddr a : {addr, copy}) {
      ASSERT_TRUE(client->DirectRead(a, out.data(), kValue).ok()) << k;
      EXPECT_TRUE(workload::CheckValue(k, out.data(), kValue)) << k;
      ASSERT_TRUE(client->Read(&a, out.data(), kValue).ok()) << k;
      EXPECT_TRUE(workload::CheckValue(k, out.data(), kValue)) << k;
    }
    // Writes through either address bounce.
    workload::FillValue(k + 1000, buf.data(), kValue);
    for (GlobalAddr a : {addr, copy}) {
      EXPECT_EQ(client->Write(&a, buf.data(), kValue).code(),
                StatusCode::kObjectLocked)
          << k;
    }
  }

  const auto& report = compactor.Join();
  ASSERT_TRUE(report.ok()) << report.status();
  // Once the remap published the copies, the same Puts land and read back.
  for (const auto& [k, addr] : moving) {
    workload::FillValue(k + 1000, buf.data(), kValue);
    ASSERT_TRUE(client->Put(k, buf.data(), kValue).ok()) << k;
    ASSERT_TRUE(client->Get(k, out.data(), kValue).ok()) << k;
    EXPECT_TRUE(workload::CheckValue(k + 1000, out.data(), kValue)) << k;
  }
  EXPECT_TRUE(node.Audit().ok());
}

// --- A pair whose remap fails rolls back completely. -----------------------
// Fault site compaction.remap_fail fails the first pair's MergeRemap after
// IndexRepair rewrote its entries. AbortPair restores the entries, then
// tombstones each copy before it unlocks the source, so the copy's address
// reads kObjectMoved while the key reads, writes and audits cleanly.

TEST(IndexTest, FailedRemapRollsThePairBack) {
  PhaseGate gate;
  CormConfig config = BaseConfig();
  config.compaction_slice_objects = 4;
  config.compaction_phase_hook = gate.FreezeAt(core::CompactionPhase::kRemap);
  CormNode node(config);
  auto ctx = Context::Create(&node);
  const auto survivors = LoadFragmented(ctx.get());
  std::vector<uint8_t> buf(kValue), out(kValue);

  sim::FaultInjector injector(5);
  sim::FaultSchedule once;
  once.one_shot_at = 1;
  injector.Arm(sim::fault_sites::kCompactionRemapFail, once);
  sim::ScopedFaultInjector install(&injector);

  auto cls = node.ClassForPayload(kValue);
  ASSERT_TRUE(cls.ok());
  Compactor compactor(&node, *cls, &gate);
  gate.WaitPaused();
  const auto moving = MovingKeys(&node, survivors);
  ASSERT_FALSE(moving.empty());
  std::vector<GlobalAddr> copies;
  for (const auto& [k, addr] : moving) {
    index::IndexEntry entry;
    ASSERT_TRUE(node.index_view()->Lookup(k, &entry)) << k;
    ASSERT_NE(entry.addr.vaddr, addr.vaddr) << k;
    copies.push_back(entry.addr);
  }
  EXPECT_FALSE(compactor.Join().ok());
  EXPECT_EQ(injector.FiredCount(sim::fault_sites::kCompactionRemapFail), 1u);

  auto client = OffLeaderClient(&node, ShortDeadlines());
  for (size_t i = 0; i < moving.size(); ++i) {
    const auto& [k, addr] = moving[i];
    EXPECT_EQ(client->DirectRead(copies[i], out.data(), kValue).code(),
              StatusCode::kObjectMoved)
        << "copy of key " << k << " outlived its aborted pair";
    index::IndexEntry entry;
    ASSERT_TRUE(node.index_view()->Lookup(k, &entry)) << k;
    EXPECT_EQ(entry.addr.vaddr, addr.vaddr) << "entry of " << k
                                            << " not restored";
    EXPECT_EQ(LockAt(&node, addr), core::LockState::kFree) << k;
  }
  for (const auto& [k, addr] : survivors) {
    ASSERT_TRUE(client->Get(k, out.data(), kValue).ok()) << k;
    EXPECT_TRUE(workload::CheckValue(k, out.data(), kValue)) << k;
  }
  for (const auto& [k, addr] : moving) {
    workload::FillValue(k + 1000, buf.data(), kValue);
    ASSERT_TRUE(client->Put(k, buf.data(), kValue).ok()) << k;
    ASSERT_TRUE(client->Get(k, out.data(), kValue).ok()) << k;
    EXPECT_TRUE(workload::CheckValue(k + 1000, out.data(), kValue)) << k;
  }
  EXPECT_TRUE(node.Audit().ok());

  // The next run (the one-shot fault is spent) merges normally.
  auto again = node.Compact(*cls);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_GT(again->blocks_freed, 0u);
  for (const auto& [k, addr] : survivors) {
    ASSERT_TRUE(client->Get(k, out.data(), kValue).ok()) << k;
    const uint64_t value = std::find_if(moving.begin(), moving.end(),
                                        [k = k](const auto& m) {
                                          return m.first == k;
                                        }) != moving.end()
                               ? k + 1000
                               : k;
    EXPECT_TRUE(workload::CheckValue(value, out.data(), kValue)) << k;
  }
  EXPECT_TRUE(node.Audit().ok());
}

// --- A keyed Del never strands its object. --------------------------------
// The owner checks the block and the object before it unlinks the key: a
// Del that meets a block collected for compaction (ownership in transit)
// answers kObjectLocked with the key still linked, rides it out under
// recovery_retry, and lands after the run.

// The worker that owns the block behind `addr` (-1 while the block sits
// in a compaction pool).
int OwnerOf(CormNode* node, const GlobalAddr& addr) {
  const auto entry = node->directory_for_testing().Lookup(
      core::BlockBaseOf(addr.vaddr, node->block_bytes()));
  EXPECT_NE(entry.block, nullptr);
  return entry.block != nullptr ? entry.block->owner_thread() : -1;
}

TEST(IndexTest, DelOfACollectedKeyWaitsOutTheRunWithoutStrandingIt) {
  PhaseGate gate;
  CormConfig config = BaseConfig();
  config.compaction_phase_hook =
      gate.FreezeAt(core::CompactionPhase::kConflictCheck);
  CormNode node(config);
  // Worker 1 owns the loaded blocks, so the Dels land on a worker that
  // keeps serving while the leader (worker 0) is frozen after Collect.
  auto ctx = OffLeaderClient(&node);
  const auto survivors = LoadFragmented(ctx.get());
  auto cls = node.ClassForPayload(kValue);
  ASSERT_TRUE(cls.ok());
  const uint32_t slot_size = node.classes().ClassSize(*cls);
  std::vector<uint8_t> out(kValue);

  Compactor compactor(&node, *cls, &gate);
  gate.WaitPaused();
  const auto victim =
      std::find_if(survivors.begin(), survivors.end(),
                   [&](const auto& s) { return OwnerOf(&node, s.second) < 0; });
  ASSERT_NE(victim, survivors.end()) << "Collect took none of the blocks";
  const uint64_t key = victim->first;

  // A Del with a short recovery deadline gives up with a definite status,
  // and nothing was unlinked: the key still reads its bytes.
  auto impatient = OffLeaderClient(&node, ShortDeadlines());
  ASSERT_TRUE(impatient->Get(key, out.data(), kValue).ok());
  EXPECT_EQ(impatient->Del(key).code(), StatusCode::kTimeout);
  EXPECT_GT(impatient->stats().retries, 0u);
  index::IndexEntry entry;
  EXPECT_TRUE(node.index_view()->Lookup(key, &entry));
  ASSERT_TRUE(impatient->Get(key, out.data(), kValue).ok());
  EXPECT_TRUE(workload::CheckValue(key, out.data(), kValue));

  // A patient Del retries across the rest of the run and then lands.
  Status del_status = Status::Internal("never ran");
  std::atomic<bool> started{false};
  std::thread deleter([&] {
    started.store(true);
    del_status = ctx->Del(key);
  });
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const auto& report = compactor.Join();
  deleter.join();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(del_status.ok()) << del_status;

  // No leftover object: the key is gone, and the class holds exactly the
  // other survivors.
  EXPECT_EQ(ctx->Get(key, out.data(), kValue).code(), StatusCode::kNotFound);
  EXPECT_FALSE(node.index_view()->Lookup(key, &entry));
  EXPECT_EQ(node.index_view()->LiveEntries(), survivors.size() - 1);
  EXPECT_EQ(UsedBytes(&node, *cls), (survivors.size() - 1) * slot_size);
  EXPECT_TRUE(node.Audit().ok());
}

// Compaction hands collected blocks to the leader, so a client's cached
// pointer can carry a stale owner hint. Its Del lands on the old owner's
// ring, which forwards it once to the new owner.
TEST(IndexTest, DelWithAStaleOwnerHintIsForwardedOnce) {
  CormNode node(BaseConfig());
  auto ctx = OffLeaderClient(&node);
  const auto survivors = LoadFragmented(ctx.get());
  auto cls = node.ClassForPayload(kValue);
  ASSERT_TRUE(cls.ok());
  auto report = node.Compact(*cls);
  ASSERT_TRUE(report.ok()) << report.status();

  const auto moved = std::find_if(
      survivors.begin(), survivors.end(), [&](const auto& s) {
        return OwnerOf(&node, s.second) != s.second.OwnerHint();
      });
  ASSERT_NE(moved, survivors.end()) << "no block changed owner";
  const uint64_t forwarded = node.stats().forwarded_ops;
  ASSERT_TRUE(ctx->Del(moved->first).ok());
  EXPECT_EQ(node.stats().forwarded_ops - forwarded, 1u);
  std::vector<uint8_t> out(kValue);
  EXPECT_EQ(ctx->Get(moved->first, out.data(), kValue).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(node.Audit().ok());
}

// --- A node stop inside IndexRepair rolls the pair back. -------------------
// The walk is stopped after it rewrote some of the moving keys' entries and
// before it reached the others; Shutdown's AbortPair must restore the
// rewritten ones before it frees the copies they name. Checked from the
// leader's last phase hook, while the node's memory is still mapped: every
// entry names its original object, which reads the key's bytes.

TEST(IndexTest, NodeStopMidIndexRepairRestoresEveryEntry) {
  PhaseGate gate;
  std::atomic<bool> stopping{false};
  bool checked = false;
  uint64_t repaired_at_stop = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<uint64_t, GlobalAddr>> survivors;
  std::unique_ptr<Context> reader;
  CormNode* raw = nullptr;

  CormConfig config = BaseConfig();
  config.compaction_slice_objects = 4;  // 4 buckets per repair slice
  const auto freeze = gate.FreezeAt(core::CompactionPhase::kIndexRepair);
  config.compaction_phase_hook = [&](core::CompactionPhase p) {
    freeze(p);
    if (p != core::CompactionPhase::kIdle || !stopping.load()) return;
    checked = true;
    repaired_at_stop = raw->stats().index_repairs;
    std::vector<uint8_t> out(kValue);
    for (const auto& [k, addr] : survivors) {
      index::IndexEntry e;
      if (!raw->index_view()->Lookup(k, &e)) {
        failures.push_back("key " + std::to_string(k) + " unlinked");
        continue;
      }
      if (e.addr.vaddr != addr.vaddr) {
        failures.push_back("entry of key " + std::to_string(k) +
                           " not restored");
      }
      if (LockAt(raw, e.addr) != core::LockState::kFree) {
        failures.push_back("entry of key " + std::to_string(k) +
                           " names a locked or freed slot");
      }
      const Status st = reader->DirectRead(e.addr, out.data(), kValue);
      if (!st.ok() || !workload::CheckValue(k, out.data(), kValue)) {
        failures.push_back("key " + std::to_string(k) + " reads " +
                           st.ToString());
      }
    }
  };
  auto node = std::make_unique<CormNode>(config);
  raw = node.get();
  auto ctx = Context::Create(node.get());
  survivors = LoadFragmented(ctx.get());
  reader = Context::Create(node.get());

  // Each repair slice pauses in wall time while the node runs at a real
  // time scale, so the stop below lands a slice or two into the walk.
  sim::FaultInjector injector(13);
  sim::FaultSchedule stall;
  stall.every_nth = 1;
  stall.delay_ns = 300'000;
  injector.Arm(sim::fault_sites::kIndexRepairDelay, stall);
  sim::ScopedFaultInjector install(&injector);

  // Posted from this thread, so nothing but the node's own threads touches
  // the node while it is destroyed.
  std::vector<core::PendingCompaction> runs = node->PostCompactIfFragmented();
  // A failed assertion below must not leave the leader frozen: open the
  // gate before `runs` waits for the run and the node joins its workers.
  struct OpenOnExit {
    PhaseGate* gate;
    ~OpenOnExit() { gate->Open(); }
  } open_on_exit{&gate};
  ASSERT_EQ(runs.size(), 1u);
  gate.WaitPaused();
  const size_t moving = MovingKeys(node.get(), survivors).size();
  ASSERT_GT(moving, 1u);
  const double scale = sim::SetSimTimeScale(1.0);
  stopping.store(true);
  gate.Open();
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (node->stats().index_repairs == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  node.reset();  // stop: the leader's Shutdown aborts the pair mid-walk
  sim::SetSimTimeScale(scale);
  EXPECT_FALSE(core::WaitCompactions(std::move(runs)).ok());

  ASSERT_TRUE(checked);
  EXPECT_GT(repaired_at_stop, 0u);
  EXPECT_LT(repaired_at_stop, moving) << "the walk finished before the stop";
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

// --- Epoch seal: fenced entries force the RPC re-mint. ---------------------

TEST(IndexTest, SealedEpochFencesEntriesUntilRpcRemint) {
  CormNode node(BaseConfig());
  auto writer = Context::Create(&node);
  std::vector<uint8_t> buf(kValue), out(kValue);
  workload::FillValue(9, buf.data(), kValue);
  ASSERT_TRUE(writer->Put(9, buf.data(), kValue).ok());

  const uint64_t fenced_before = node.stats().index_fenced_entries;
  node.SealIndexEpoch();
  EXPECT_GT(node.stats().index_fenced_entries, fenced_before);

  // A cold client's one-sided probe sees the fenced entry, distrusts it,
  // and re-mints through the RPC lookup — which repairs the entry under
  // the new epoch.
  auto reader = Context::Create(&node);
  ASSERT_TRUE(reader->Get(9, out.data(), kValue).ok());
  EXPECT_TRUE(workload::CheckValue(9, out.data(), kValue));
  EXPECT_GE(reader->stats().index_rpc_fallbacks, 1u);
  EXPECT_GT(node.stats().index_repairs, 0u);

  // Re-minted: the next cold probe validates one-sided again.
  auto reader2 = Context::Create(&node);
  ASSERT_TRUE(reader2->Get(9, out.data(), kValue).ok());
  EXPECT_EQ(reader2->stats().index_rpc_fallbacks, 0u);
  EXPECT_EQ(reader2->stats().index_one_sided_hits, 1u);
}

// --- DSM: keyed routing, failover re-home, seal-on-revive. -----------------

TEST(IndexTest, FailoverRehomesKeyRangesAndSealsRevivedNode) {
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.node_config = BaseConfig();
  dsm::Cluster cluster(cfg);
  dsm::DsmContext ctx(&cluster, ShortDeadlines());

  constexpr uint64_t kKeys = 64;
  std::vector<uint8_t> buf(kValue), out(kValue);
  std::vector<uint64_t> on_dead;
  for (uint64_t k = 0; k < kKeys; ++k) {
    workload::FillValue(k, buf.data(), kValue);
    auto addr = ctx.Put(k, buf.data(), kValue);
    ASSERT_TRUE(addr.ok()) << addr.status();
    EXPECT_EQ(dsm::NodeOf(*addr), cluster.KeyOwner(k));
    if (cluster.KeyOwner(k) == 1) on_dead.push_back(k);
  }
  ASSERT_FALSE(on_dead.empty());  // 64 ranges over 3 nodes: ~21 on node 1

  // Kill the home. Its ranges stay put: keyed ops answer with a transient
  // network error, nothing is silently re-routed.
  cluster.CrashNode(1);
  EXPECT_EQ(ctx.Get(on_dead[0], out.data(), kValue).code(),
            StatusCode::kNetworkError);
  workload::FillValue(99, buf.data(), kValue);
  EXPECT_EQ(ctx.Put(on_dead[0], buf.data(), kValue).status().code(),
            StatusCode::kNetworkError);

  // Explicit control-plane failover: every range homed on node 1 moves to
  // a surviving successor, counted on the new homes.
  const int moved = cluster.RehomeDeadNode(1);
  EXPECT_GT(moved, 0);
  uint64_t rehomes = 0;
  for (int n = 0; n < cfg.num_nodes; ++n) {
    rehomes += cluster.node(n)->stats().index_rehomes;
  }
  EXPECT_EQ(rehomes, static_cast<uint64_t>(moved));
  for (uint64_t k = 0; k < kKeys; ++k) EXPECT_NE(cluster.KeyOwner(k), 1);

  // The data did not migrate (no replication in this test), so a re-homed
  // key is NotFound on its new home — a clean miss, never a wrong value —
  // and a fresh Put re-creates it there.
  EXPECT_EQ(ctx.Get(on_dead[0], out.data(), kValue).code(),
            StatusCode::kNotFound);
  workload::FillValue(on_dead[0], buf.data(), kValue);
  auto readdr = ctx.Put(on_dead[0], buf.data(), kValue);
  ASSERT_TRUE(readdr.ok());
  EXPECT_NE(dsm::NodeOf(*readdr), 1);
  ASSERT_TRUE(ctx.Get(on_dead[0], out.data(), kValue).ok());
  EXPECT_TRUE(workload::CheckValue(on_dead[0], out.data(), kValue));

  // Restart the dead node: the armed seal fires, fencing every pre-crash
  // bucket entry it still holds (it no longer owns those ranges).
  const uint64_t fenced_before = cluster.node(1)->stats().index_fenced_entries;
  cluster.RestartNode(1);
  EXPECT_GT(cluster.node(1)->stats().index_fenced_entries, fenced_before);
  for (int i = 0; i < 4; ++i) cluster.Heartbeat();
  EXPECT_EQ(cluster.failure_detector()->health(1), dsm::NodeHealth::kAlive);

  // Keys homed on the survivors were never disturbed.
  for (uint64_t k = 0; k < kKeys; ++k) {
    if (cluster.KeyOwner(k) == 1) continue;
    if (std::find(on_dead.begin(), on_dead.end(), k) != on_dead.end()) {
      continue;  // lost with node 1's data, by design
    }
    ASSERT_TRUE(ctx.Get(k, out.data(), kValue).ok()) << k;
    EXPECT_TRUE(workload::CheckValue(k, out.data(), kValue)) << k;
  }
}

// --- Concurrency: keyed drivers hammering one node stay consistent. --------

TEST(IndexTest, ConcurrentKeyedDriversStayConsistent) {
  CormConfig config = BaseConfig();
  CormNode node(config);
  constexpr int kThreads = 3;
#ifdef CORM_TSAN_ENABLED
  constexpr size_t kOps = 150;
#else
  constexpr size_t kOps = 600;
#endif

  std::vector<workload::KeyedDriverReport> reports(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&node, &reports, t] {
      auto ctx = Context::Create(&node, ShortDeadlines());
      workload::KeyedDriverConfig dcfg;
      dcfg.ycsb.num_keys = 32;
      dcfg.ycsb.read_fraction = 0.6;
      dcfg.ycsb.zipf_theta = 0.6;
      dcfg.ycsb.seed = 100 + t;
      dcfg.value_size = kValue;
      dcfg.delete_fraction = 0.2;
      dcfg.key_offset = static_cast<uint64_t>(t) << 20;
      workload::KeyedDriver<Context> driver(ctx.get(), dcfg);
      ASSERT_TRUE(driver.Load().ok());
      reports[t] = driver.Run(kOps);
    });
  }
  for (auto& th : threads) th.join();

  uint64_t ops = 0;
  for (const auto& r : reports) {
    ops += r.ops;
    EXPECT_EQ(r.corruptions, 0u);
    EXPECT_EQ(r.failures, 0u);
    EXPECT_EQ(r.not_found, 0u);  // disjoint key spaces, Del always re-Puts
  }
  EXPECT_EQ(ops, static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_TRUE(node.Audit().ok());
}

}  // namespace
}  // namespace corm
