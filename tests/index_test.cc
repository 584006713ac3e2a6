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
#include <mutex>
#include <thread>
#include <vector>

#include "common/sanitizer.h"
#include "core/client.h"
#include "core/corm_node.h"
#include "core/object_layout.h"
#include "dsm/cluster.h"
#include "dsm/dsm_context.h"
#include "sim/fault_injector.h"
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

// Outcomes a keyed op may legally produce while racing compaction or a
// paused leader; anything else is a bug.
bool TransientKeyed(const Status& st) {
  switch (st.code()) {
    case StatusCode::kTimeout:
    case StatusCode::kNetworkError:
    case StatusCode::kObjectLocked:
    case StatusCode::kTornRead:
    case StatusCode::kObjectMoved:
    case StatusCode::kStalePointer:
    case StatusCode::kQpBroken:
      return true;
    default:
      return false;
  }
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
  std::thread writer([&] {
    std::vector<uint8_t> value(kValue);
    workload::FillValue(43, value.data(), kValue);
    put_status = ctx->Put(42, value.data(), kValue).status();
    put_done.store(true);
  });
  // Far past the spin even on a loaded host, so the Put must back off.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
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
// The leader is frozen inside the kIndexRepair sub-phase — source objects
// under kCompacting locks, bucket entries part-way through their rewrite —
// while a client drives keyed Gets straight into that window. Every Get
// must return the key's bytes or a transient error, never another
// object's bytes.

struct PhaseGate {
  std::mutex mu;
  std::condition_variable cv;
  bool paused = false;
  bool release = false;
  bool open = false;  // once true, the hook stops pausing
};

TEST(IndexTest, LookupDuringIndexRepairSeesNoDanglingHint) {
  PhaseGate gate;
  CormConfig config = BaseConfig();
  config.compaction_slice_objects = 4;  // many small IndexRepair slices
  config.compaction_phase_hook = [&gate](core::CompactionPhase p) {
    if (p != core::CompactionPhase::kIndexRepair) return;
    std::unique_lock<std::mutex> lock(gate.mu);
    if (gate.open) return;
    gate.paused = true;
    gate.release = false;
    gate.cv.notify_all();
    gate.cv.wait(lock, [&gate] { return gate.release; });
  };
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

  // Load keys, then delete every other one: classic fragmentation, with
  // the survivors' bucket entries pointing into soon-to-move blocks.
  constexpr uint64_t kKeys = 256;
  std::vector<uint8_t> buf(kValue), out(kValue);
  std::vector<uint64_t> survivors;
  for (uint64_t k = 0; k < kKeys; ++k) {
    workload::FillValue(k, buf.data(), kValue);
    ASSERT_TRUE(ctx->Put(k, buf.data(), kValue).ok());
  }
  for (uint64_t k = 0; k < kKeys; ++k) {
    if (k % 2 == 0) {
      ASSERT_TRUE(ctx->Del(k).ok());
    } else {
      survivors.push_back(k);
    }
  }

  auto cls = node.ClassForPayload(kValue);
  ASSERT_TRUE(cls.ok());
  std::atomic<bool> done{false};
  Result<core::CompactionReport> report = Status::Internal("never ran");
  std::thread compactor([&] {
    report = node.Compact(*cls);
    done.store(true, std::memory_order_release);
  });

  // Wait for the leader to freeze inside kIndexRepair, then probe the
  // window with a cold client (short deadlines: an RPC fallback landing on
  // the frozen leader's ring must time out, not hang the test).
  {
    std::unique_lock<std::mutex> lock(gate.mu);
    gate.cv.wait(lock, [&gate] { return gate.paused; });
  }
  auto prober = Context::Create(&node, ShortDeadlines());
  size_t ok_reads = 0, transient_reads = 0;
  for (const uint64_t k : survivors) {
    const Status st = prober->Get(k, out.data(), kValue);
    if (st.ok()) {
      ++ok_reads;
      EXPECT_TRUE(workload::CheckValue(k, out.data(), kValue))
          << "key " << k << " read through a dangling hint mid-repair";
    } else {
      ++transient_reads;
      EXPECT_TRUE(TransientKeyed(st)) << "key " << k << ": " << st.ToString();
    }
  }
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.open = true;  // let this and every later pause through
    gate.release = true;
    gate.cv.notify_all();
  }
  compactor.join();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(ok_reads + transient_reads, 0u);
  EXPECT_GT(injector.FiredCount(sim::fault_sites::kIndexRepairDelay), 0u);

  // After the run: every survivor resolves one-sided to its bytes, the
  // engine rewrote at least one moved entry, and the node audits clean.
  EXPECT_GT(node.stats().index_repairs, 0u);
  auto verify = Context::Create(&node);
  for (const uint64_t k : survivors) {
    ASSERT_TRUE(verify->Get(k, out.data(), kValue).ok()) << k;
    EXPECT_TRUE(workload::CheckValue(k, out.data(), kValue)) << k;
  }
  EXPECT_TRUE(node.Audit().ok());
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
