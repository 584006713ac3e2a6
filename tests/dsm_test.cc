// Tests for the multi-node DSM layer and the primary-backup replication
// extension (paper §3.2.4 future work).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/object_layout.h"
#include "dsm/cluster.h"
#include "dsm/dsm_context.h"
#include "dsm/replication.h"
#include "sim/fault_injector.h"

namespace corm::dsm {
namespace {

using core::GlobalAddr;
using core::PatternCheck;
using core::PatternFill;

ClusterConfig SmallCluster(int nodes = 3) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.node_config.num_workers = 1;  // keep thread count sane on 1 CPU
  return config;
}

TEST(NodeStampTest, RoundTripsAndPreservesOldBlockBit) {
  GlobalAddr addr;
  SetNode(&addr, 93);
  EXPECT_EQ(NodeOf(addr), 93);
  addr.flags |= GlobalAddr::kFlagOldBlock;
  EXPECT_EQ(NodeOf(addr), 93);
  EXPECT_TRUE(addr.ReferencesOldBlock());
  SetNode(&addr, 5);
  EXPECT_EQ(NodeOf(addr), 5);
  EXPECT_TRUE(addr.ReferencesOldBlock());
}

TEST(DsmTest, RoundRobinSpreadsAllocations) {
  Cluster cluster(SmallCluster(3));
  DsmContext ctx(&cluster);
  std::set<int> nodes;
  std::vector<GlobalAddr> addrs;
  for (int i = 0; i < 12; ++i) {
    auto addr = ctx.Alloc(56);
    ASSERT_TRUE(addr.ok());
    nodes.insert(NodeOf(*addr));
    addrs.push_back(*addr);
  }
  EXPECT_EQ(nodes.size(), 3u);
  for (auto& addr : addrs) EXPECT_TRUE(ctx.Free(&addr).ok());
}

TEST(DsmTest, CrossNodeReadWrite) {
  Cluster cluster(SmallCluster(3));
  DsmContext ctx(&cluster);
  std::vector<uint8_t> in(100), out(100);
  for (int node = 0; node < 3; ++node) {
    auto addr = ctx.AllocOn(node, 100);
    ASSERT_TRUE(addr.ok());
    EXPECT_EQ(NodeOf(*addr), node);
    PatternFill(node, in.data(), 100);
    ASSERT_TRUE(ctx.Write(&*addr, in.data(), 100).ok());
    EXPECT_EQ(NodeOf(*addr), node) << "routing bits lost after write";
    ASSERT_TRUE(ctx.DirectRead(*addr, out.data(), 100).ok());
    EXPECT_EQ(in, out);
  }
}

TEST(DsmTest, LeastLoadedPlacementPrefersEmptyNode) {
  ClusterConfig config = SmallCluster(2);
  config.placement = Placement::kLeastLoaded;
  Cluster cluster(config);
  DsmContext ctx(&cluster);
  // Preload node 0 heavily.
  auto preload = cluster.node(0)->BulkAlloc(5000, 56);
  ASSERT_TRUE(preload.ok());
  int on_node1 = 0;
  for (int i = 0; i < 20; ++i) {
    auto addr = ctx.Alloc(56);
    ASSERT_TRUE(addr.ok());
    on_node1 += NodeOf(*addr) == 1;
  }
  EXPECT_GE(on_node1, 19);  // virtually everything lands on the empty node
}

TEST(DsmTest, PointersSurviveNodeLocalCompaction) {
  Cluster cluster(SmallCluster(2));
  DsmContext ctx(&cluster);
  std::vector<GlobalAddr> addrs;
  std::vector<uint8_t> buf(56);
  for (int i = 0; i < 512; ++i) {
    auto addr = ctx.Alloc(56);
    ASSERT_TRUE(addr.ok());
    PatternFill(i, buf.data(), 56);
    ASSERT_TRUE(ctx.Write(&*addr, buf.data(), 56).ok());
    addrs.push_back(*addr);
  }
  std::vector<GlobalAddr> survivors;
  std::vector<int> idx;
  for (size_t i = 0; i < addrs.size(); ++i) {
    // Free alternating *pairs* so each node (round-robin placement) loses
    // every other of its own objects rather than one node losing all.
    if ((i / 2) % 2 == 0) {
      ASSERT_TRUE(ctx.Free(&addrs[i]).ok());
    } else {
      survivors.push_back(addrs[i]);
      idx.push_back(static_cast<int>(i));
    }
  }
  auto reports = cluster.CompactAllIfFragmented();
  ASSERT_TRUE(reports.ok());
  EXPECT_FALSE(reports->empty());
  for (size_t i = 0; i < survivors.size(); ++i) {
    ASSERT_TRUE(ctx.ReadWithRecovery(&survivors[i], buf.data(), 56).ok());
    EXPECT_TRUE(PatternCheck(idx[i], buf.data(), 56));
    EXPECT_EQ(NodeOf(survivors[i]), idx[i] % 2 == 1 ? NodeOf(survivors[i])
                                                    : NodeOf(survivors[i]));
  }
}

TEST(DsmTest, DeadNodeOperationsFailWithNetworkError) {
  Cluster cluster(SmallCluster(2));
  DsmContext ctx(&cluster);
  auto addr = ctx.AllocOn(1, 56);
  ASSERT_TRUE(addr.ok());
  cluster.KillNode(1);
  std::vector<uint8_t> buf(56);
  EXPECT_EQ(ctx.Read(&*addr, buf.data(), 56).code(),
            StatusCode::kNetworkError);
  EXPECT_EQ(ctx.Write(&*addr, buf.data(), 56).code(),
            StatusCode::kNetworkError);
  EXPECT_EQ(ctx.AllocOn(1, 56).status().code(), StatusCode::kNetworkError);
  // Placement avoids the dead node.
  for (int i = 0; i < 8; ++i) {
    auto fresh = ctx.Alloc(56);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(NodeOf(*fresh), 0);
  }
  cluster.ReviveNode(1);
  EXPECT_TRUE(ctx.Read(&*addr, buf.data(), 56).ok());
}

// --- Replication ------------------------------------------------------------

// DirectReadBatch splits a mixed batch into per-node runs; a dead node
// fails its own entries with kNetworkError and the live node's complete.
TEST(DsmBatchTest, BatchRoutesPerNodeRunsAndIsolatesDeadNodes) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.node_config.num_workers = 1;
  Cluster cluster(cfg);
  DsmContext ctx(&cluster);

  constexpr size_t kObjects = 8;
  std::vector<GlobalAddr> addrs;
  for (size_t i = 0; i < kObjects; ++i) {
    auto addr = ctx.AllocOn(static_cast<int>(i % 2), 64);
    ASSERT_TRUE(addr.ok());
    std::vector<uint8_t> in(64);
    PatternFill(static_cast<int>(i), in.data(), in.size());
    ASSERT_TRUE(ctx.Write(&*addr, in.data(), in.size()).ok());
    addrs.push_back(*addr);
  }

  std::vector<uint8_t> bufs(kObjects * 64);
  std::vector<Status> statuses(kObjects);
  ASSERT_TRUE(ctx.DirectReadBatch(addrs.data(), kObjects, bufs.data(), 64,
                                  statuses.data())
                  .ok());
  for (size_t i = 0; i < kObjects; ++i) {
    EXPECT_TRUE(statuses[i].ok()) << i;
    EXPECT_TRUE(PatternCheck(static_cast<int>(i), bufs.data() + i * 64, 64));
  }

  cluster.KillNode(1);
  Status st = ctx.DirectReadBatch(addrs.data(), kObjects, bufs.data(), 64,
                                  statuses.data());
  EXPECT_FALSE(st.ok());
  for (size_t i = 0; i < kObjects; ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(statuses[i].ok()) << i;
    } else {
      EXPECT_EQ(statuses[i].code(), StatusCode::kNetworkError) << i;
    }
  }
}

TEST(ReplicationTest, ReplicasLandOnDistinctNodes) {
  Cluster cluster(SmallCluster(3));
  ReplicatedContext rctx(&cluster, 3);
  auto addr = rctx.Alloc(56);
  ASSERT_TRUE(addr.ok());
  std::set<int> nodes;
  for (const auto& replica : addr->replicas) nodes.insert(NodeOf(replica));
  EXPECT_EQ(nodes.size(), 3u);
  EXPECT_TRUE(rctx.Free(&*addr).ok());
}

TEST(ReplicationTest, ReadsFailOverWhenPrimaryDies) {
  Cluster cluster(SmallCluster(3));
  ReplicatedContext rctx(&cluster, 2);
  auto addr = rctx.Alloc(100);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> in(100), out(100);
  PatternFill(5, in.data(), 100);
  ASSERT_TRUE(rctx.Write(&*addr, in.data(), 100).ok());

  cluster.KillNode(NodeOf(addr->primary()));
  ASSERT_TRUE(rctx.Read(&*addr, out.data(), 100).ok());
  EXPECT_EQ(in, out);
  EXPECT_EQ(rctx.failovers(), 1u);
}

TEST(ReplicationTest, WritesDegradeWhenBackupDies) {
  Cluster cluster(SmallCluster(3));
  ReplicatedContext rctx(&cluster, 2);
  auto addr = rctx.Alloc(100);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> in(100), out(100);
  const int backup = NodeOf(addr->replicas[1]);
  cluster.KillNode(backup);
  PatternFill(6, in.data(), 100);
  ASSERT_TRUE(rctx.Write(&*addr, in.data(), 100).ok());
  EXPECT_EQ(rctx.degraded_writes(), 1u);
  // Data durable on the primary.
  ASSERT_TRUE(rctx.Read(&*addr, out.data(), 100).ok());
  EXPECT_EQ(in, out);
  // Revive the backup and let anti-entropy re-replicate the degraded
  // write onto it (the primary holds the only durable copy until then —
  // failing over before the repair would correctly refuse, since promoting
  // the version-0 backup would lose the acked write).
  cluster.ReviveNode(backup);
  rctx.RunAntiEntropySweep(8);
  EXPECT_GE(rctx.anti_entropy_repairs(), 1u);
  // A dead *primary* now triggers an epoch-fenced failover: the repaired
  // backup is promoted and the write proceeds under the new epoch
  // (DESIGN.md §11).
  cluster.KillNode(NodeOf(addr->primary()));
  PatternFill(7, in.data(), 100);
  ASSERT_TRUE(rctx.Write(&*addr, in.data(), 100).ok());
  EXPECT_GE(rctx.failovers(), 1u);
  EXPECT_EQ(addr->epoch, 2u);
  ASSERT_TRUE(rctx.Read(&*addr, out.data(), 100).ok());
  EXPECT_EQ(in, out);
}

TEST(ReplicationTest, ReplicasSurviveCompactionOnEveryNode) {
  Cluster cluster(SmallCluster(3));
  ReplicatedContext rctx(&cluster, 3);
  DsmContext filler(&cluster);
  std::vector<ReplicatedAddr> objects;
  std::vector<GlobalAddr> chaff;
  std::vector<uint8_t> buf(56);
  for (int i = 0; i < 100; ++i) {
    auto addr = rctx.Alloc(56);
    ASSERT_TRUE(addr.ok());
    PatternFill(i, buf.data(), 56);
    ASSERT_TRUE(rctx.Write(&*addr, buf.data(), 56).ok());
    objects.push_back(*addr);
    // Interleave chaff that gets freed to create fragmentation. Replica
    // images carry a 24-byte ReplObjectHeader, so the chaff must match the
    // *image* size to land in the same size class as the replicas.
    for (int c = 0; c < 6; ++c) {
      auto extra = filler.Alloc(56 + sizeof(rdma::ReplObjectHeader));
      ASSERT_TRUE(extra.ok());
      chaff.push_back(*extra);
    }
  }
  for (auto& extra : chaff) ASSERT_TRUE(filler.Free(&extra).ok());
  auto reports = cluster.CompactAllIfFragmented();
  ASSERT_TRUE(reports.ok());
  EXPECT_FALSE(reports->empty());
  // Every replica of every object readable with intact data, even with one
  // node down.
  cluster.KillNode(1);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(rctx.Read(&objects[i], buf.data(), 56).ok()) << i;
    EXPECT_TRUE(PatternCheck(i, buf.data(), 56));
  }
}

TEST(ReplicationTest, AllocFailsWithoutEnoughLiveNodes) {
  Cluster cluster(SmallCluster(2));
  ReplicatedContext rctx(&cluster, 2);
  cluster.KillNode(0);
  EXPECT_EQ(rctx.Alloc(56).status().code(), StatusCode::kNetworkError);
}

// Randomized cluster churn: allocations, frees, writes, node-local
// compactions and transient node failures interleave; every live object
// must stay intact and routable throughout.
TEST(DsmChurnTest, RandomizedOpsPreserveEveryObject) {
  Cluster cluster(SmallCluster(3));
  DsmContext ctx(&cluster);
  Rng rng(2026);

  struct LiveObj {
    GlobalAddr addr;
    uint64_t pattern;
    uint32_t size;
  };
  std::vector<LiveObj> live;
  uint64_t next_pattern = 0;
  std::vector<uint8_t> buf(512);
  int dead_node = -1;

  for (int step = 0; step < 4000; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.45 || live.empty()) {
      const uint32_t size = 24u << rng.Uniform(4);  // 24..192
      auto addr = ctx.Alloc(size);
      if (!addr.ok()) continue;  // placement can fail while a node is dead
      PatternFill(next_pattern, buf.data(), size);
      if (ctx.Write(&*addr, buf.data(), size).ok()) {
        live.push_back({*addr, next_pattern++, size});
      }
    } else if (dice < 0.75) {
      const size_t victim = rng.Uniform(live.size());
      if (NodeOf(live[victim].addr) == dead_node) continue;
      ASSERT_TRUE(ctx.Free(&live[victim].addr).ok());
      live[victim] = live.back();
      live.pop_back();
    } else if (dice < 0.95) {
      ASSERT_TRUE(cluster.CompactAllIfFragmented().ok());
    } else if (dead_node < 0) {
      dead_node = static_cast<int>(rng.Uniform(3));
      cluster.KillNode(dead_node);
    } else {
      cluster.ReviveNode(dead_node);
      dead_node = -1;
    }
  }
  if (dead_node >= 0) cluster.ReviveNode(dead_node);

  // Final sweep: everything alive, intact, routable.
  ASSERT_TRUE(cluster.CompactAllIfFragmented().ok());
  for (const LiveObj& obj : live) {
    GlobalAddr addr = obj.addr;
    ASSERT_TRUE(ctx.ReadWithRecovery(&addr, buf.data(), obj.size).ok());
    EXPECT_TRUE(PatternCheck(obj.pattern, buf.data(), obj.size));
  }
}


// --- The cluster sweep runs every node's compaction at once. ---------------

constexpr uint32_t kSweepPayload = 56;

// Phase hook shared by every node of a cluster. The hook only sees the
// phase, so it tells node 0's leader apart by thread: Learn() runs one
// (empty) compaction on node 0 and records the thread that announces it.
// The tests then hold node 0's leader, or the other leaders, at a phase.
struct LeaderGate {
  std::mutex mu;
  std::condition_variable cv;
  bool learning = false;
  std::thread::id node0_leader;
  // Node 0's leader blocks when it enters `hold_phase` until `release`.
  std::optional<core::CompactionPhase> hold_phase;
  bool node0_held = false;
  bool release = false;
  // kIdle announcements from the other nodes' leaders (a finished run).
  int others_finished = 0;
  // The other leaders block at kSelect until this returns true.
  std::function<bool()> others_may_start = [] { return true; };

  void OnPhase(core::CompactionPhase p) {
    std::unique_lock<std::mutex> lock(mu);
    const std::thread::id self = std::this_thread::get_id();
    if (learning) {
      node0_leader = self;
      return;
    }
    if (self == node0_leader) {
      if (p != hold_phase) return;
      node0_held = true;
      cv.notify_all();
      cv.wait(lock, [this] { return release; });
      return;
    }
    if (p == core::CompactionPhase::kIdle) {
      ++others_finished;
      cv.notify_all();
    } else if (p == core::CompactionPhase::kSelect) {
      // Polled (nothing signals the predicate) and bounded, so a predicate
      // that never holds cannot wedge teardown.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!others_may_start() &&
             std::chrono::steady_clock::now() < deadline) {
        cv.wait_for(lock, std::chrono::milliseconds(1));
      }
    }
  }

  void Learn(Cluster* cluster, uint32_t class_idx) {
    {
      std::lock_guard<std::mutex> lock(mu);
      learning = true;
    }
    ASSERT_TRUE(cluster->node(0)->Compact(class_idx).ok());
    std::lock_guard<std::mutex> lock(mu);
    learning = false;
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
};

ClusterConfig GatedCluster(LeaderGate* gate, int workers) {
  ClusterConfig config = SmallCluster(3);
  config.node_config.num_workers = workers;
  config.node_config.compaction_phase_hook = [gate](core::CompactionPhase p) {
    gate->OnPhase(p);
  };
  return config;
}

// Fills every node with half-empty blocks of one class: returns the
// survivors (pattern seed = index into `patterns`).
std::vector<GlobalAddr> FragmentEveryNode(Cluster* cluster, DsmContext* ctx,
                                          std::vector<int>* patterns) {
  std::vector<GlobalAddr> all;
  std::vector<uint8_t> buf(kSweepPayload);
  for (int node = 0; node < cluster->num_nodes(); ++node) {
    for (int i = 0; i < 256; ++i) {
      auto addr = ctx->AllocOn(node, kSweepPayload);
      EXPECT_TRUE(addr.ok());
      if (!addr.ok()) continue;
      PatternFill(all.size(), buf.data(), kSweepPayload);
      EXPECT_TRUE(ctx->Write(&*addr, buf.data(), kSweepPayload).ok());
      all.push_back(*addr);
    }
  }
  std::vector<GlobalAddr> survivors;
  for (size_t i = 0; i < all.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(ctx->Free(&all[i]).ok());
    } else {
      survivors.push_back(all[i]);
      patterns->push_back(static_cast<int>(i));
    }
  }
  return survivors;
}

void VerifySurvivors(DsmContext* ctx, std::vector<GlobalAddr> survivors,
                     const std::vector<int>& patterns) {
  std::vector<uint8_t> buf(kSweepPayload);
  for (size_t i = 0; i < survivors.size(); ++i) {
    ASSERT_TRUE(
        ctx->ReadWithRecovery(&survivors[i], buf.data(), kSweepPayload).ok())
        << i;
    EXPECT_TRUE(PatternCheck(patterns[i], buf.data(), kSweepPayload)) << i;
  }
}

TEST(DsmSweepTest, NodesCompactConcurrentlyAndTheSweepWaitsForAll) {
  LeaderGate gate;
  gate.hold_phase = core::CompactionPhase::kCopy;
  Cluster cluster(GatedCluster(&gate, /*workers=*/1));
  const uint32_t class_idx = *cluster.node(0)->ClassForPayload(kSweepPayload);
  gate.Learn(&cluster, class_idx);
  DsmContext ctx(&cluster);
  std::vector<int> patterns;
  const std::vector<GlobalAddr> survivors =
      FragmentEveryNode(&cluster, &ctx, &patterns);

  std::atomic<bool> sweep_done{false};
  Result<std::vector<core::CompactionReport>> reports =
      Status::Internal("never ran");
  std::thread sweeper([&] {
    reports = cluster.CompactAllIfFragmented();
    sweep_done.store(true, std::memory_order_release);
  });

  // Node 0's leader sits in kCopy; the other two nodes must still finish
  // their runs, and the sweep must keep waiting for node 0.
  bool others_done_while_held = false;
  {
    std::unique_lock<std::mutex> lock(gate.mu);
    others_done_while_held =
        gate.cv.wait_for(lock, std::chrono::seconds(10), [&gate] {
          return gate.node0_held && gate.others_finished >= 2;
        });
  }
  const bool returned_while_held =
      sweep_done.load(std::memory_order_acquire);
  gate.Release();
  sweeper.join();

  EXPECT_TRUE(others_done_while_held)
      << "nodes 1 and 2 did not compact while node 0's run was held";
  EXPECT_FALSE(returned_while_held)
      << "the sweep returned before node 0's run finished";
  ASSERT_TRUE(reports.ok()) << reports.status();
  ASSERT_EQ(reports->size(), 3u);  // one over-threshold class per node
  for (const core::CompactionReport& r : *reports) {
    EXPECT_GT(r.blocks_freed, 0u);
  }
  VerifySurvivors(&ctx, survivors, patterns);
}

TEST(DsmSweepTest, OneFailingNodeDoesNotStopTheOthers) {
  // Installed before the cluster exists, so every worker that can reach it
  // is joined before it is destroyed. Armed only once the setup is done.
  sim::FaultInjector injector(/*seed=*/11);
  sim::ScopedFaultInjector install(&injector);
  LeaderGate gate;
  ClusterConfig config = GatedCluster(&gate, /*workers=*/2);
  // Node 0's run waits this out; the healthy nodes' collectors must answer
  // within it even on a loaded host.
  config.node_config.compaction_collect_deadline_ns = 500'000'000;  // 0.5 s
  Cluster cluster(config);
  const uint32_t class_idx = *cluster.node(0)->ClassForPayload(kSweepPayload);
  gate.Learn(&cluster, class_idx);
  DsmContext ctx(&cluster);
  std::vector<int> patterns;
  const std::vector<GlobalAddr> survivors =
      FragmentEveryNode(&cluster, &ctx, &patterns);

  // Node 0's peer worker swallows the first Collect message, so node 0's
  // run times out. Nodes 1 and 2 wait at kSelect until it has fired, so
  // the stall cannot land on them.
  sim::FaultSchedule stall;
  stall.one_shot_at = 1;
  injector.Arm(sim::fault_sites::kCompactionCollectStall, stall);
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.others_may_start = [&injector] {
      return injector.FiredCount(sim::fault_sites::kCompactionCollectStall) >
             0;
    };
  }
  auto reports = cluster.CompactAllIfFragmented();
  ASSERT_FALSE(reports.ok());
  EXPECT_TRUE(reports.status().IsTimeout()) << reports.status();
  EXPECT_EQ(
      injector.FiredCount(sim::fault_sites::kCompactionCollectStall), 1u);
  EXPECT_EQ(cluster.node(0)->stats().compaction_timeouts, 1u);
  EXPECT_EQ(cluster.node(0)->stats().blocks_compacted, 0u);
  for (int i = 1; i < cluster.num_nodes(); ++i) {
    const core::NodeStats stats = cluster.node(i)->stats();
    EXPECT_GT(stats.blocks_compacted, 0u)
        << "node " << i << " did not compact after node 0 failed ("
        << stats.compaction_runs << " runs, " << stats.compaction_timeouts
        << " timeouts)";
  }
  VerifySurvivors(&ctx, survivors, patterns);
}

}  // namespace
}  // namespace corm::dsm
