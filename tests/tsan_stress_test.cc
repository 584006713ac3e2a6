// TSan-targeted stress regression (ctest -L tsan): eight client threads
// hammer alloc/free/write/read through a node whose eight workers each
// mutate their own ThreadAllocator, while a control thread forces repeated
// compactions (block ownership hand-offs between workers and the leader)
// and runs the full invariant audit. Under CORM_SANITIZE=thread this
// exercises every annotated hand-off: spinlocks, the MPMC inbox, block
// owner transfer, the seqlock read protocol, and the ranked directory
// locks. The assertions also make it a functional stress test in plain
// builds.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "common/mpmc_queue.h"
#include "common/random.h"
#include "core/client.h"
#include "core/corm_node.h"
#include "core/object_layout.h"
#include "rdma/rpc_transport.h"

namespace corm::core {
namespace {

constexpr int kClients = 8;
constexpr uint32_t kPayload = 48;
constexpr int kOpsPerClient = 400;

CormConfig Config() {
  CormConfig config;
  config.num_workers = kClients;
  config.block_pages = 1;
  // Compact aggressively so ownership transfer happens mid-traffic.
  config.fragmentation_threshold = 1.01;
  config.collection_max_occupancy = 1.0;
  return config;
}

TEST(TsanStressTest, AllocFreeChurnWithConcurrentCompaction) {
  CormNode node(Config());
  const uint32_t class_idx = *node.ClassForPayload(kPayload);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed_ops{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&node, c, &completed_ops] {
      auto ctx = Context::Create(&node);
      Rng rng(0x5eed + static_cast<uint64_t>(c));
      std::vector<GlobalAddr> live;
      std::vector<uint8_t> buf(kPayload);
      for (int op = 0; op < kOpsPerClient; ++op) {
        const uint64_t dice = rng.Next() % 100;
        if (live.empty() || dice < 40) {
          auto addr = ctx->Alloc(kPayload);
          ASSERT_TRUE(addr.ok()) << addr.status();
          PatternFill(static_cast<uint64_t>(op), buf.data(), kPayload);
          Status st = Status::OK();
          for (int attempt = 0; attempt < 64; ++attempt) {
            st = ctx->Write(&*addr, buf.data(), kPayload);
            if (!st.IsObjectLocked()) break;  // compaction holds the object
            std::this_thread::yield();
          }
          ASSERT_TRUE(st.ok() || st.IsObjectLocked()) << st;
          live.push_back(*addr);
        } else if (dice < 70) {
          const size_t pick = rng.Next() % live.size();
          Status st = ctx->ReadWithRecovery(&live[pick], buf.data(), kPayload);
          // The object may be mid-move; recovery retries, so only a clean
          // success or a still-locked verdict is acceptable.
          ASSERT_TRUE(st.ok() || st.IsObjectLocked()) << st;
        } else {
          const size_t pick = rng.Next() % live.size();
          Status st = ctx->Free(&live[pick]);
          ASSERT_TRUE(st.ok() || st.IsObjectLocked()) << st;
          if (st.ok()) {
            live[pick] = live.back();
            live.pop_back();
          }
        }
        completed_ops.fetch_add(1, std::memory_order_relaxed);
      }
      // Drain: frees also exercise ghost release + empty-block destruction.
      for (GlobalAddr& addr : live) {
        for (int attempt = 0; attempt < 4096; ++attempt) {
          Status st = ctx->Free(&addr);
          if (st.ok()) break;
          ASSERT_TRUE(st.IsObjectLocked()) << st;
          std::this_thread::yield();
        }
      }
    });
  }

  // Control thread: force compactions + audits through the whole run.
  std::thread control([&node, class_idx, &stop] {
    uint64_t compactions = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto report = node.Compact(class_idx);
      if (report.ok()) ++compactions;
      Status audit = node.Audit();
      EXPECT_TRUE(audit.ok()) << audit;
      std::this_thread::yield();
    }
    EXPECT_GT(compactions, 0u) << "compaction never ran during the stress";
  });

  for (auto& t : clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  control.join();

  EXPECT_EQ(completed_ops.load(),
            static_cast<uint64_t>(kClients) * kOpsPerClient);
  // Everything was freed: the final audit must pass and no thread may have
  // leaked a rank on the lock stack.
  Status audit = node.Audit();
  EXPECT_TRUE(audit.ok()) << audit;
  EXPECT_EQ(LockRankTracker::Depth(), 0);
}

// Pointer corrections against the compaction leader's own blocks. After a
// run, the leader (worker 0) owns every surviving block, so a stale-hint
// write served by another worker asks worker 0 to look the object up. The
// next run collects those blocks into the leader's pool and hands them back
// to it, so the block's owner reads 0, then -1, then 0 again. A "not the
// owner" reply must send the requester back to re-read the owner, never be
// mistaken for "ID not in block" because the owner looks unchanged by the
// time the reply is read.
TEST(TsanStressTest, StaleHintWritesRaceLeaderOwnershipRoundTrips) {
  constexpr int kWorkers = 4;
  constexpr int kWriters = 6;
  constexpr int kWritesPerWriter = 1500;
  CormConfig config = Config();
  config.num_workers = kWorkers;
  CormNode node(config);
  const uint32_t class_idx = *node.ClassForPayload(kPayload);

  // Four objects per slot column, three of them freed: the first run
  // relocates most survivors, so their original pointers keep stale hints.
  auto loader = Context::Create(&node);
  std::vector<GlobalAddr> survivors;
  {
    std::vector<GlobalAddr> all;
    for (int i = 0; i < 1024; ++i) {
      auto addr = loader->Alloc(kPayload);
      ASSERT_TRUE(addr.ok()) << addr.status();
      all.push_back(*addr);
    }
    for (size_t i = 0; i < all.size(); ++i) {
      if (i % 4 == 0) {
        survivors.push_back(all[i]);
      } else {
        ASSERT_TRUE(loader->Free(&all[i]).ok());
      }
    }
  }
  auto first = node.Compact(class_idx);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_GT(first->objects_relocated, 0u);

  std::atomic<bool> stop{false};
  std::thread control([&node, class_idx, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_TRUE(node.Compact(class_idx).ok());
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&node, &survivors, t] {
      auto ctx = Context::Create(&node);
      Rng rng(0xc0ffee + static_cast<uint64_t>(t));
      std::vector<uint8_t> buf(kPayload);
      for (int op = 0; op < kWritesPerWriter; ++op) {
        // A fresh copy of the original pointer every time: the hint stays
        // stale, so every write goes through a correction.
        GlobalAddr addr = survivors[rng.Next() % survivors.size()];
        PatternFill(static_cast<uint64_t>(op), buf.data(), kPayload);
        const Status st = ctx->Write(&addr, buf.data(), kPayload);
        ASSERT_TRUE(st.ok() || st.IsObjectLocked()) << st;
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  control.join();
  EXPECT_TRUE(node.Audit().ok());
}

// Producers racing parking workers (DESIGN.md §7.3). Clients push RPCs
// after random short gaps, so pushes land on their ring owner at every
// point of its park: announcing it, re-checking for work, asleep, timing
// out. A control thread fans messages into every worker's inbox the same
// way. Each push and send must wake a parked owner; a lost wake-up shows up
// as an op that waits out the ~1 ms timeout, and under TSan the handshake
// must carry no unordered access.
TEST(TsanStressTest, PushAndSendRaceWorkersParking) {
  CormConfig config;
  config.num_workers = 4;
  config.block_pages = 1;
  ASSERT_TRUE(config.idle_park);
  CormNode node(config);
  constexpr int kRaceClients = 4;
  constexpr int kRaceOps = 300;

  std::atomic<int> clients_done{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kRaceClients; ++c) {
    clients.emplace_back([&node, &clients_done, c] {
      auto ctx = Context::Create(&node);
      Rng rng(0xa11 + static_cast<uint64_t>(c));
      auto addr = ctx->Alloc(kPayload);
      ASSERT_TRUE(addr.ok()) << addr.status();
      std::vector<uint8_t> buf(kPayload), out(kPayload);
      for (int op = 0; op < kRaceOps; ++op) {
        const uint64_t gap = rng.Next() % 4;
        if (gap == 1) std::this_thread::yield();
        if (gap >= 2) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(rng.Next() % 40));
        }
        PatternFill(static_cast<uint64_t>(op), buf.data(), kPayload);
        ASSERT_TRUE(ctx->Write(&*addr, buf.data(), kPayload).ok()) << op;
        ASSERT_TRUE(ctx->Read(&*addr, out.data(), kPayload).ok()) << op;
        ASSERT_EQ(out, buf) << op;
      }
      clients_done.fetch_add(1, std::memory_order_release);
    });
  }
  std::thread control([&node, &clients_done] {
    Rng rng(0xc0de);
    while (clients_done.load(std::memory_order_acquire) < kRaceClients) {
      std::this_thread::sleep_for(std::chrono::microseconds(rng.Next() % 200));
      EXPECT_FALSE(node.Fragmentation().empty());
    }
  });
  for (auto& t : clients) t.join();
  control.join();
  EXPECT_EQ(node.stats().park_missed_wakeups, 0u);
  EXPECT_TRUE(node.Audit().ok());
}

// The message pool's two recycle paths racing (DESIGN.md §7.2): on the
// normal path the client drops the last reference and the message recycles
// into the *client's* freelist; on the abandoned path the client Unrefs
// without waiting (a timeout) while the server is still filling the
// response, so the server's completing Unref is the last one and recycles
// into the *worker's* freelist. TSan must see the acq_rel refcount as the
// only thing ordering the loser's field resets against the winner's final
// accesses — and must see no unsynchronized reuse, because an abandoned
// message can only re-enter circulation from the thread that shelved it.
TEST(TsanStressTest, MessagePoolRecycleVsAbandonedUnref) {
  constexpr int kRounds = 20'000;

  MpmcQueue<rdma::RpcMessage*> ring(1024);
  std::atomic<bool> stop{false};

  // Server: pop, touch the request, write a response, publish, Unref.
  std::thread server([&] {
    // Run loop bounded by the stop flag. NOLINT(corm-spin-wait)
    while (!stop.load(std::memory_order_acquire)) {
      if (auto msg = ring.TryPop()) {
        rdma::RpcMessage* m = *msg;
        ASSERT_FALSE(m->request.empty());
        m->response.assign(m->request.begin(), m->request.end());
        m->status = Status::OK();
        m->done.store(true, std::memory_order_release);
        m->Unref();
      } else {
        std::this_thread::yield();
      }
    }
  });

  Rng rng(0xf00d);
  uint64_t abandoned = 0;
  rdma::RpcMessage* last = nullptr;
  for (int i = 0; i < kRounds; ++i) {
    rdma::RpcMessage* msg = rdma::RpcMessagePool::Acquire();
    ASSERT_TRUE(msg->request.empty());   // recycled messages arrive reset
    ASSERT_TRUE(msg->response.empty());
    msg->request.assign(16, static_cast<uint8_t>(i));
    while (!ring.TryPush(msg)) std::this_thread::yield();
    // The last round takes the normal path and keeps its reference until
    // the server is gone (below).
    const bool final_round = i + 1 == kRounds;
    if (rng.Chance(0.3) && !final_round) {
      // Abandon immediately: the server's Unref races ours and whoever is
      // last recycles on their own thread.
      msg->Unref();
      ++abandoned;
    } else {
      // Normal path: wait for completion, read the response, then release.
      // Local server thread cannot die. NOLINT(corm-spin-wait)
      while (!msg->done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      ASSERT_EQ(msg->response.size(), 16u);
      if (final_round) {
        last = msg;
      } else {
        msg->Unref();
      }
    }
  }
  stop.store(true, std::memory_order_release);
  server.join();
  // The server dropped its reference to the last message before it
  // exited, so ours is the last one: the normal path.
  last->Unref();

  EXPECT_GT(abandoned, 0u);
  // Normal-path rounds recycled into this (client) thread's freelist.
  EXPECT_GT(rdma::RpcMessagePool::LocalFreeForTesting(), 0u);
}

}  // namespace
}  // namespace corm::core
