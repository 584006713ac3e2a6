// Concurrency tests: clients racing with writers and with live compaction.
// These exercise the consistency machinery of §3.2.3 under real thread
// interleavings (yield-heavy spins make this meaningful even on one CPU).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/client.h"
#include "core/corm_node.h"
#include "core/object_layout.h"
#include "sim/fault_injector.h"

namespace corm::core {
namespace {

CormConfig Config() {
  CormConfig config;
  config.num_workers = 2;
  config.block_pages = 1;
  return config;
}

// Writers continuously update an object with self-consistent snapshots
// (PatternFill over a run index); readers must never observe a mix.
TEST(ConcurrencyTest, DirectReadsNeverObserveTornSnapshots) {
  CormNode node(Config());
  auto wctx = Context::Create(&node);
  constexpr uint32_t kPayload = 1000;  // many cachelines
  auto addr = wctx->Alloc(kPayload);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> init(kPayload);
  PatternFill(0, init.data(), kPayload);
  ASSERT_TRUE(wctx->Write(&*addr, init.data(), kPayload).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> verified{0}, retries{0};

  std::thread writer([&] {
    std::vector<uint8_t> buf(kPayload);
    GlobalAddr waddr = *addr;
    for (uint64_t round = 1; !stop.load(); ++round) {
      PatternFill(round % 64, buf.data(), kPayload);
      ASSERT_TRUE(wctx->Write(&waddr, buf.data(), kPayload).ok());
    }
  });

  {
    auto rctx = Context::Create(&node);
    std::vector<uint8_t> buf(kPayload);
    while (verified.load() < 2000) {
      Status st = rctx->DirectRead(*addr, buf.data(), kPayload);
      if (!st.ok()) {
        ASSERT_TRUE(st.IsTornRead() || st.IsObjectLocked()) << st;
        retries.fetch_add(1);
        continue;
      }
      // A successful read must be one complete snapshot.
      bool matched = false;
      for (uint64_t round = 0; round < 64 && !matched; ++round) {
        matched = PatternCheck(round, buf.data(), kPayload);
      }
      ASSERT_TRUE(matched) << "torn snapshot passed the version check";
      verified.fetch_add(1);
    }
  }
  stop.store(true);
  writer.join();
}

// Readers churn while the node compacts repeatedly: every read result must
// be either a clean failure (locked/moved -> recovered) or intact data.
// Writers rewrite each object's fixed pattern while readers DirectRead,
// with torn publishes injected (fault site write.torn: the worker publishes
// half the payload under the object lock and lingers before the rest).
// Every successful read must hand back the object's pattern, and the only
// failures allowed are transient ones. Each object keeps one pattern, so
// this checks the validation path under lock contention; the torn-snapshot
// check is DirectReadsNeverObserveTornSnapshots above.
TEST(ConcurrencyTest, NoTornReadEscapesInjectedTornWrites) {
  CormNode node(Config());
  constexpr size_t kObjects = 8;
  constexpr int kIters = 40;
  auto setup = Context::Create(&node);
  std::vector<GlobalAddr> addrs(kObjects);
  for (size_t i = 0; i < kObjects; ++i) {
    auto addr = setup->Alloc(192);
    ASSERT_TRUE(addr.ok());
    std::vector<uint8_t> in(192);
    PatternFill(static_cast<int>(i), in.data(), in.size());
    ASSERT_TRUE(setup->Write(&*addr, in.data(), in.size()).ok());
    addrs[i] = *addr;
  }

  sim::FaultInjector inj(4242);
  sim::FaultSchedule torn;
  torn.probability = 0.05;
  torn.delay_ns = 3000;  // extra lock-hold time per torn publish
  inj.Arm(sim::fault_sites::kTornWrite, torn);
  sim::ScopedFaultInjector scoped(&inj);

  auto transient = [](const Status& st) {
    return st.IsTimeout() || st.IsNetworkError() || st.IsObjectLocked() ||
           st.IsTornRead() || st.IsQpBroken() || st.IsObjectMoved();
  };
  std::atomic<int> torn_escapes{0};
  std::atomic<int> hard_errors{0};
  auto writer = [&] {
    auto ctx = Context::Create(&node);
    std::vector<uint8_t> in(192);
    for (int it = 0; it < kIters; ++it) {
      const size_t i = static_cast<size_t>(it) % kObjects;
      PatternFill(static_cast<int>(i), in.data(), in.size());
      GlobalAddr addr = addrs[i];
      Status st = ctx->Write(&addr, in.data(), in.size());
      if (!st.ok() && !transient(st)) hard_errors.fetch_add(1);
    }
  };
  auto reader = [&] {
    auto ctx = Context::Create(&node);
    std::vector<uint8_t> out(192);
    for (int it = 0; it < kIters; ++it) {
      const size_t i = static_cast<size_t>(it * 3 + 1) % kObjects;
      Status st = ctx->DirectRead(addrs[i], out.data(), out.size());
      if (st.ok()) {
        if (!PatternCheck(static_cast<int>(i), out.data(), out.size())) {
          torn_escapes.fetch_add(1);
        }
      } else if (!transient(st)) {
        hard_errors.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer);
  threads.emplace_back(writer);
  threads.emplace_back(reader);
  threads.emplace_back(reader);
  for (auto& t : threads) t.join();

  EXPECT_GT(inj.FiredCount(sim::fault_sites::kTornWrite), 0u);
  EXPECT_EQ(torn_escapes.load(), 0);
  EXPECT_EQ(hard_errors.load(), 0);
}

TEST(ConcurrencyTest, ReadsStayConsistentDuringCompaction) {
  CormNode node(Config());
  auto ctx = Context::Create(&node);
  constexpr uint32_t kPayload = 56;
  const uint32_t class_idx = *node.ClassForPayload(kPayload);

  auto addrs = node.BulkAlloc(2048, kPayload);
  ASSERT_TRUE(addrs.ok());
  // Free 60% to make compaction worthwhile.
  std::vector<GlobalAddr> survivors;
  std::vector<GlobalAddr> doomed;
  std::vector<uint64_t> survivor_idx;
  for (size_t i = 0; i < addrs->size(); ++i) {
    if (i % 5 < 3) {
      doomed.push_back((*addrs)[i]);
    } else {
      survivors.push_back((*addrs)[i]);
      survivor_idx.push_back(i);
    }
  }
  ASSERT_TRUE(node.BulkFree(doomed).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads_ok{0};
  std::atomic<uint64_t> failures{0};

  std::thread reader([&] {
    auto rctx = Context::Create(&node);
    Rng rng(3);
    std::vector<uint8_t> buf(kPayload);
    while (!stop.load()) {
      const size_t i = rng.Uniform(survivors.size());
      GlobalAddr addr = survivors[i];
      Status st = rctx->ReadWithRecovery(&addr, buf.data(), kPayload);
      if (st.ok()) {
        ASSERT_TRUE(PatternCheck(survivor_idx[i], buf.data(), kPayload))
            << "object " << survivor_idx[i] << " corrupted";
        reads_ok.fetch_add(1);
      } else {
        failures.fetch_add(1);
      }
    }
  });

  for (int round = 0; round < 6; ++round) {
    auto report = node.Compact(class_idx);
    ASSERT_TRUE(report.ok());
  }
  // Let the reader observe the post-compaction state for a while.
  while (reads_ok.load() < 3000) {
    std::this_thread::yield();
  }
  stop.store(true);
  reader.join();
  EXPECT_GE(reads_ok.load(), 3000u);
  EXPECT_EQ(failures.load(), 0u) << "recovery should always converge";
}

// Frees racing with compaction: no object lost, no double free accepted.
TEST(ConcurrencyTest, FreesRaceCompactionSafely) {
  CormNode node(Config());
  auto ctx = Context::Create(&node);
  constexpr uint32_t kPayload = 24;
  const uint32_t class_idx = *node.ClassForPayload(kPayload);

  auto addrs = node.BulkAlloc(4096, kPayload);
  ASSERT_TRUE(addrs.ok());

  std::atomic<bool> done{false};
  std::thread compactor([&] {
    while (!done.load()) {
      ASSERT_TRUE(node.Compact(class_idx).ok());
      std::this_thread::yield();
    }
  });

  // Free everything (with retries on transient compaction locks).
  auto fctx = Context::Create(&node);
  for (GlobalAddr addr : *addrs) {
    for (int attempt = 0;; ++attempt) {
      Status st = fctx->Free(&addr);
      if (st.ok()) break;
      ASSERT_TRUE(st.IsObjectLocked()) << st;
      ASSERT_LT(attempt, 100000) << "free never succeeded";
      std::this_thread::yield();
    }
  }
  done.store(true);
  compactor.join();

  auto frag = node.Fragmentation();
  EXPECT_EQ(frag[class_idx].used_bytes, 0u);
  EXPECT_EQ(frag[class_idx].granted_bytes, 0u);
  EXPECT_EQ(node.vaddr_ghosts_for_testing(), 0u);
}

// Multiple clients allocating/writing/reading concurrently across workers.
TEST(ConcurrencyTest, ParallelClientsIndependentObjects) {
  CormConfig config = Config();
  config.num_workers = 4;
  CormNode node(config);
  constexpr int kClients = 4;
  constexpr int kOpsEach = 400;
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto ctx = Context::Create(&node);
      std::vector<uint8_t> buf(64), out(64);
      for (int i = 0; i < kOpsEach; ++i) {
        auto addr = ctx->Alloc(64);
        if (!addr.ok()) {
          errors.fetch_add(1);
          continue;
        }
        PatternFill(c * kOpsEach + i, buf.data(), 64);
        if (!ctx->Write(&*addr, buf.data(), 64).ok()) errors.fetch_add(1);
        if (!ctx->ReadWithRecovery(&*addr, out.data(), 64).ok()) {
          errors.fetch_add(1);
        } else if (!PatternCheck(c * kOpsEach + i, out.data(), 64)) {
          errors.fetch_add(1);
        }
        if (i % 3 == 0) {
          if (!ctx->Free(&*addr).ok()) errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
}

// QP breakage under the rereg strategy: a client reading during the rereg
// window breaks and must reconnect — the §3.5 motivation for ODP.
TEST(ConcurrencyTest, ReregWindowBreaksConcurrentReaders) {
  CormConfig config = Config();
  config.remap_strategy = sim::RemapStrategy::kReregMr;
  CormNode node(config);
  auto ctx = Context::Create(&node);
  auto addr = ctx->Alloc(56);
  ASSERT_TRUE(addr.ok());

  // Inject the race deterministically via the test hooks.
  rdma::Rnic* rnic = node.rnic();
  ASSERT_TRUE(rnic->BeginRereg(addr->r_key).ok());
  std::vector<uint8_t> buf(56);
  Status st = ctx->DirectRead(*addr, buf.data(), 56);
  EXPECT_TRUE(st.IsQpBroken());
  EXPECT_EQ(ctx->stats().qp_reconnects, 1u);
  ASSERT_TRUE(rnic->EndRereg(addr->r_key).ok());
  // After the (auto) reconnect, reads work again.
  EXPECT_TRUE(ctx->DirectRead(*addr, buf.data(), 56).ok());
}

// The per-verb RNIC counters are striped across cachelines and the
// keyed-lookup counters land on per-context client shards; neither may
// lose an increment. T threads x N one-sided reads count exactly T*N, and
// the node's index counters equal the sum over every context's stats.
TEST(ConcurrencyTest, StripedCountersStayExact) {
  constexpr int kThreads = 6;  // more than the client shards' divisor
  constexpr int kReads = 2000;
  constexpr uint64_t kKeys = 64;
  CormNode node(Config());
  auto loader = Context::Create(&node);
  std::vector<uint8_t> value(32, 0x5A);
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(loader->Put(k, value.data(), value.size()).ok());
  }
  auto addr = loader->Alloc(56);
  ASSERT_TRUE(addr.ok());

  std::vector<std::unique_ptr<Context>> ctxs;
  for (int t = 0; t < kThreads; ++t) ctxs.push_back(Context::Create(&node));
  rdma::Rnic* rnic = node.rnic();
  const uint64_t reads_before = rnic->stats().reads.load();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      rdma::QueuePair qp(rnic);
      uint8_t buf[56];
      for (int i = 0; i < kReads; ++i) {
        ASSERT_TRUE(qp.Read(addr->r_key, addr->vaddr, buf, sizeof(buf)).ok());
      }
      std::vector<uint8_t> out(value.size());
      for (int i = 0; i < kReads; ++i) {
        ASSERT_TRUE(ctxs[t]->Get(i % kKeys, out.data(), out.size()).ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  // Gets issue reads of their own; count them through the contexts' QPs.
  uint64_t ctx_reads = 0;
  for (const auto& c : ctxs) ctx_reads += c->queue_pair()->reads_issued();
  EXPECT_EQ(rnic->stats().reads.load() - reads_before,
            uint64_t{kThreads} * kReads + ctx_reads);

  uint64_t lookups = loader->stats().index_lookups;
  uint64_t hits = loader->stats().index_one_sided_hits;
  for (const auto& c : ctxs) {
    EXPECT_EQ(c->stats().index_lookups, uint64_t{kReads});
    lookups += c->stats().index_lookups;
    hits += c->stats().index_one_sided_hits;
  }
  EXPECT_EQ(node.stats().index_lookups, lookups);
  EXPECT_EQ(node.stats().index_one_sided_hits, hits);

  EXPECT_GT(rnic->stats().mtt_cache_hits.load(), 0u);
  rnic->ResetMttCache();
  EXPECT_EQ(rnic->stats().mtt_cache_hits.load(), 0u);
  EXPECT_EQ(rnic->stats().mtt_cache_misses.load(), 0u);
}

}  // namespace
}  // namespace corm::core
