// Tests for the one-sided replicated log (DESIGN.md §11): record wire
// format, ring shipping under seeded faults (sequence gaps, ack delays),
// quorum acknowledgment semantics, epoch fencing across failover, and the
// anti-entropy repair path. Companion to the replication scenarios in
// dsm_test.cc, focused on the log machinery itself.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/object_layout.h"
#include "dsm/cluster.h"
#include "dsm/dsm_context.h"
#include "dsm/replication.h"
#include "rdma/repl_record.h"
#include "sim/fault_injector.h"

namespace corm::dsm {
namespace {

using core::PatternCheck;
using core::PatternFill;

ClusterConfig SmallCluster(int nodes = 3) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.node_config.num_workers = 1;  // keep thread count sane on 1 CPU
  return config;
}

// Aggregates one repl counter across every node's sharded stats.
template <typename Field>
uint64_t SumStat(Cluster& cluster, Field field) {
  uint64_t total = 0;
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    total += cluster.node(i)->stats().*field;
  }
  return total;
}

// --- Wire format ------------------------------------------------------------

TEST(ReplRecordTest, RecordCrcDetectsCorruption) {
  rdma::ReplRecordHeader h;
  h.magic = rdma::kReplRecordMagic;
  h.epoch = 3;
  h.seq = 17;
  h.version = 42;
  h.payload_len = 8;
  h.kind = rdma::kReplRecordData;
  const uint8_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  h.crc = rdma::ReplRecordCrc(h, payload, sizeof(payload));
  EXPECT_EQ(h.crc, rdma::ReplRecordCrc(h, payload, sizeof(payload)));

  // Any torn byte — header or payload — breaks the checksum.
  rdma::ReplRecordHeader torn = h;
  torn.seq ^= 1;
  EXPECT_NE(torn.crc, rdma::ReplRecordCrc(torn, payload, sizeof(payload)));
  uint8_t torn_payload[8];
  std::memcpy(torn_payload, payload, sizeof(payload));
  torn_payload[5] ^= 0x80;
  EXPECT_NE(h.crc, rdma::ReplRecordCrc(h, torn_payload, sizeof(payload)));
}

TEST(ReplRecordTest, ObjectCrcExcludesEpochSoSealsNeedNoPayload) {
  const uint8_t payload[16] = {9, 8, 7, 6, 5, 4, 3, 2,
                               1, 0, 1, 2, 3, 4, 5, 6};
  rdma::ReplObjectHeader h;
  h.epoch = 1;
  h.version = 7;
  h.len = sizeof(payload);
  h.crc = rdma::ReplObjectCrc(h.version, payload, h.len);
  ASSERT_TRUE(rdma::ReplObjectValid(h, payload));

  // A failover seal rewrites only the stored epoch; the image must stay
  // self-consistent without the sealer re-reading the payload.
  h.epoch = 2;
  EXPECT_TRUE(rdma::ReplObjectValid(h, payload));

  // But version and payload *are* covered.
  rdma::ReplObjectHeader stale = h;
  stale.version = 6;
  EXPECT_FALSE(rdma::ReplObjectValid(stale, payload));
  uint8_t torn[16];
  std::memcpy(torn, payload, sizeof(payload));
  torn[0] ^= 1;
  EXPECT_FALSE(rdma::ReplObjectValid(h, torn));
}

// --- Ship / apply under faults ---------------------------------------------

TEST(ReplLogTest, RoundTripAdvancesShipAndApplyCounters) {
  Cluster cluster(SmallCluster(3));
  ReplicatedContext rctx(&cluster, 2);
  auto addr = rctx.Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> in(64), out(64);
  PatternFill(1, in.data(), 64);
  ASSERT_TRUE(rctx.Write(&*addr, in.data(), 64).ok());
  ASSERT_TRUE(rctx.Read(&*addr, out.data(), 64).ok());
  EXPECT_EQ(in, out);

  EXPECT_EQ(rctx.acked_writes(), 1u);
  EXPECT_EQ(addr->committed, 1u);
  // Alloc init-writes go through the plain RPC path, so the log counters
  // reflect exactly the replicated write: one record shipped into each
  // replica's ring, each durably applied.
  EXPECT_GE(SumStat(cluster, &core::NodeStats::repl_ship_records), 2u);
  EXPECT_GE(SumStat(cluster, &core::NodeStats::repl_applied_records), 2u);
  EXPECT_GE(SumStat(cluster, &core::NodeStats::repl_acked_writes), 1u);
  EXPECT_TRUE(rctx.Free(&*addr).ok());
}

TEST(ReplLogTest, ShipDropGapsAreFilledByRetransmit) {
  Cluster cluster(SmallCluster(3));
  sim::FaultInjector inj(/*seed=*/7);
  // Every third ship attempt silently loses the record: the replica sees a
  // sequence gap and must hold later records until retransmit fills it.
  sim::FaultSchedule drops;
  drops.every_nth = 3;
  inj.Arm(sim::fault_sites::kReplShipDrop, drops);
  sim::ScopedFaultInjector scoped(&inj);

  ReplicationOptions ropts;
  ropts.ring_slots = 4;  // force ring wraparound and window pressure
  ReplicatedContext rctx(&cluster, 2, core::Context::Options{}, ropts);
  auto addr = rctx.Alloc(48);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> in(48), out(48);
  const int kWrites = 24;
  for (int i = 0; i < kWrites; ++i) {
    PatternFill(i, in.data(), 48);
    ASSERT_TRUE(rctx.Write(&*addr, in.data(), 48).ok()) << "write " << i;
  }
  EXPECT_GT(inj.FiredCount(sim::fault_sites::kReplShipDrop), 0u);
  EXPECT_EQ(rctx.acked_writes(), static_cast<uint64_t>(kWrites));
  EXPECT_EQ(addr->committed, static_cast<uint64_t>(kWrites));
  ASSERT_TRUE(rctx.Read(&*addr, out.data(), 48).ok());
  EXPECT_TRUE(PatternCheck(kWrites - 1, out.data(), 48));
}

TEST(ReplLogTest, AckDelayStallsButEveryWriteStillAcks) {
  Cluster cluster(SmallCluster(3));
  sim::FaultInjector inj(/*seed=*/11);
  sim::FaultSchedule delay;
  delay.probability = 0.25;
  delay.delay_ns = 20'000;
  inj.Arm(sim::fault_sites::kReplAckDelay, delay);
  sim::ScopedFaultInjector scoped(&inj);

  ReplicatedContext rctx(&cluster, 2);
  auto addr = rctx.Alloc(32);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> in(32);
  for (int i = 0; i < 8; ++i) {
    PatternFill(i, in.data(), 32);
    ASSERT_TRUE(rctx.Write(&*addr, in.data(), 32).ok());
  }
  EXPECT_GT(inj.FiredCount(sim::fault_sites::kReplAckDelay), 0u);
  EXPECT_EQ(rctx.acked_writes(), 8u);
  EXPECT_EQ(rctx.quorum_timeouts(), 0u);
}

// --- Quorum semantics -------------------------------------------------------

TEST(ReplLogTest, PausedBackupTimesOutWithoutAdvancingCommitted) {
  Cluster cluster(SmallCluster(3));
  // Only the write against the paused backup gets the short quorum
  // deadline; the others keep the default, so a busy host cannot time them
  // out. The version lives in the handle, so both contexts can write it.
  ReplicatedContext rctx(&cluster, 2);
  ReplicationOptions ropts;
  ropts.quorum_deadline_ns = 5'000'000;  // 5 ms: keep the stall short
  ReplicatedContext stalled(&cluster, 2, core::Context::Options{}, ropts);
  auto addr = rctx.Alloc(40);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> in(40), out(40);
  PatternFill(1, in.data(), 40);
  ASSERT_TRUE(rctx.Write(&*addr, in.data(), 40).ok());

  // A paused backup is unreachable-but-not-declared-dead: its workers stop
  // draining the ingress ring, so the quorum can never form, but the
  // failure detector still trusts it — the write must report UNCERTAIN
  // (kTimeout), not degrade around it.
  const int backup = NodeOf(addr->replicas[1]);
  cluster.node(backup)->PauseService();
  PatternFill(2, in.data(), 40);
  EXPECT_EQ(stalled.Write(&*addr, in.data(), 40).code(), StatusCode::kTimeout);
  EXPECT_EQ(stalled.quorum_timeouts(), 1u);
  EXPECT_EQ(addr->committed, 1u);  // the uncertain write is NOT acked

  // After the backup resumes, the next write draws a *fresh* version (the
  // uncertain one is consumed forever) and the object converges on it.
  cluster.node(backup)->ResumeService();
  PatternFill(3, in.data(), 40);
  ASSERT_TRUE(rctx.Write(&*addr, in.data(), 40).ok());
  EXPECT_EQ(addr->committed, 3u);
  ASSERT_TRUE(rctx.Read(&*addr, out.data(), 40).ok());
  EXPECT_TRUE(PatternCheck(3, out.data(), 40));
}

TEST(ReplLogTest, DeadBackupDegradesAndQueuesRepair) {
  Cluster cluster(SmallCluster(3));
  ReplicatedContext rctx(&cluster, 2);
  auto addr = rctx.Alloc(40);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> in(40);
  PatternFill(1, in.data(), 40);
  ASSERT_TRUE(rctx.Write(&*addr, in.data(), 40).ok());

  cluster.KillNode(NodeOf(addr->replicas[1]));
  PatternFill(2, in.data(), 40);
  ASSERT_TRUE(rctx.Write(&*addr, in.data(), 40).ok());
  EXPECT_EQ(rctx.degraded_writes(), 1u);
  EXPECT_EQ(addr->committed, 2u);  // still acked: primary holds it durably
  EXPECT_EQ(rctx.pending_repairs(), 1u);
  EXPECT_GE(SumStat(cluster, &core::NodeStats::repl_degraded_writes), 1u);
}

// --- Epoch fencing ----------------------------------------------------------

TEST(ReplLogTest, SealFencesStaleEpochRecords) {
  Cluster cluster(SmallCluster(3));
  sim::FaultInjector inj(/*seed=*/13);
  // The seal race: after failover seals the old epoch, a straggler record
  // stamped with that epoch arrives at the new primary. The applier's
  // epoch fence must reject it (repl_fenced_records) or an already-acked
  // write could be silently overwritten by a zombie writer.
  sim::FaultSchedule race;
  race.one_shot_at = 1;
  inj.Arm(sim::fault_sites::kReplSealRace, race);
  sim::ScopedFaultInjector scoped(&inj);

  ReplicatedContext rctx(&cluster, 2);
  auto addr = rctx.Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> in(64), out(64);
  PatternFill(1, in.data(), 64);
  ASSERT_TRUE(rctx.Write(&*addr, in.data(), 64).ok());

  cluster.KillNode(NodeOf(addr->primary()));
  PatternFill(2, in.data(), 64);
  ASSERT_TRUE(rctx.Write(&*addr, in.data(), 64).ok());
  EXPECT_EQ(inj.FiredCount(sim::fault_sites::kReplSealRace), 1u);
  EXPECT_EQ(rctx.failovers(), 1u);
  EXPECT_GE(rctx.seals(), 1u);
  EXPECT_EQ(addr->epoch, 2u);
  EXPECT_GE(SumStat(cluster, &core::NodeStats::repl_fenced_records), 1u);
  EXPECT_GE(SumStat(cluster, &core::NodeStats::repl_seals), 1u);

  // The fenced straggler must not have clobbered the epoch-2 write.
  ASSERT_TRUE(rctx.Read(&*addr, out.data(), 64).ok());
  EXPECT_TRUE(PatternCheck(2, out.data(), 64));
}

TEST(ReplLogTest, FailoverRefusesWhenCommittedStateIsUnreachable) {
  Cluster cluster(SmallCluster(3));
  ReplicatedContext rctx(&cluster, 2);
  auto addr = rctx.Alloc(40);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> in(40);
  // Degrade: the backup dies, then an acked write lands only on the
  // primary.
  cluster.KillNode(NodeOf(addr->replicas[1]));
  PatternFill(1, in.data(), 40);
  ASSERT_TRUE(rctx.Write(&*addr, in.data(), 40).ok());
  // Now the primary (sole durable copy) dies and the backup revives empty:
  // promoting it would lose the acked write, so failover must refuse with
  // kTimeout (retryable once a replica with the committed state returns).
  cluster.ReviveNode(NodeOf(addr->replicas[1]));
  cluster.KillNode(NodeOf(addr->primary()));
  EXPECT_EQ(rctx.Failover(&*addr).code(), StatusCode::kTimeout);
}

// --- Anti-entropy -----------------------------------------------------------

TEST(ReplLogTest, AntiEntropyRepairsDegradedReplica) {
  Cluster cluster(SmallCluster(3));
  ReplicatedContext rctx(&cluster, 2);
  auto addr = rctx.Alloc(72);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> in(72), out(72);
  PatternFill(1, in.data(), 72);
  ASSERT_TRUE(rctx.Write(&*addr, in.data(), 72).ok());

  const int backup = NodeOf(addr->replicas[1]);
  cluster.KillNode(backup);
  PatternFill(2, in.data(), 72);
  ASSERT_TRUE(rctx.Write(&*addr, in.data(), 72).ok());
  ASSERT_EQ(rctx.pending_repairs(), 1u);

  cluster.ReviveNode(backup);
  EXPECT_EQ(rctx.RunAntiEntropySweep(8), 1u);
  EXPECT_EQ(rctx.pending_repairs(), 0u);
  EXPECT_GE(rctx.anti_entropy_repairs(), 1u);
  EXPECT_GE(SumStat(cluster, &core::NodeStats::repl_anti_entropy_repairs),
            1u);

  // Proof the repair copied real bytes: kill the primary so the *backup*
  // serves the read, and the repaired copy must carry the degraded write.
  cluster.KillNode(NodeOf(addr->primary()));
  ASSERT_TRUE(rctx.Read(&*addr, out.data(), 72).ok());
  EXPECT_TRUE(PatternCheck(2, out.data(), 72));
}

TEST(ReplLogTest, SchedulerHostedSweepDrainsRepairQueue) {
  Cluster cluster(SmallCluster(3));
  ReplicatedContext rctx(&cluster, 2);
  auto addr = rctx.Alloc(40);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> in(40);
  const int backup = NodeOf(addr->replicas[1]);
  cluster.KillNode(backup);
  PatternFill(1, in.data(), 40);
  ASSERT_TRUE(rctx.Write(&*addr, in.data(), 40).ok());
  ASSERT_EQ(rctx.pending_repairs(), 1u);
  cluster.ReviveNode(backup);

  // The sweep runs on the PR-5 duty-cycled background scheduler; poll until
  // it picks up the queued repair.
  rctx.StartAntiEntropy(/*scheduler_node=*/0);
  for (int spin = 0; spin < 2000 && rctx.pending_repairs() > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rctx.StopAntiEntropy();
  EXPECT_EQ(rctx.pending_repairs(), 0u);
  EXPECT_GE(rctx.anti_entropy_repairs(), 1u);
}

// --- Idle appliers are woken by the ship (DESIGN.md §7.3) -----------------

// True once every worker of node `n` is parked on its futex.
bool WaitParked(Cluster& cluster, int n) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  core::CormNode* node = cluster.node(n);
  for (int w = 0; w < node->config().num_workers; ++w) {
    while (!node->rpc_queue()->parker(w)->parked()) {
      if (std::chrono::steady_clock::now() > give_up) return false;
      std::this_thread::yield();
    }
  }
  return true;
}

TEST(ReplLogTest, ShippedRecordsWakeTheParkedApplier) {
  ClusterConfig config = SmallCluster(3);
  ASSERT_TRUE(config.node_config.idle_park);
  Cluster cluster(config);
  ReplicatedContext rctx(&cluster, 2);
  auto addr = rctx.Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> in(64), out(64);
  const uint64_t missed =
      SumStat(cluster, &core::NodeStats::park_missed_wakeups);
  const uint64_t applied =
      SumStat(cluster, &core::NodeStats::repl_applied_records);
  constexpr int kWrites = 20;
  for (int i = 0; i < kWrites; ++i) {
    // Idle gap: every worker parks and climbs to the ~1 ms top of its
    // timeout ladder, so a record that did not wake its applier would wait
    // out that timeout and count a missed wake-up. (A short timeout could
    // expire while a woken shipper is merely descheduled between its ring
    // write and its Wake, which the counter cannot tell from a lost wake.)
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    for (int n = 0; n < cluster.num_nodes(); ++n) {
      ASSERT_TRUE(WaitParked(cluster, n)) << "node " << n << " write " << i;
    }
    PatternFill(static_cast<uint64_t>(i), in.data(), 64);
    ASSERT_TRUE(rctx.Write(&*addr, in.data(), 64).ok()) << i;
  }
  ASSERT_TRUE(rctx.Read(&*addr, out.data(), 64).ok());
  EXPECT_TRUE(PatternCheck(kWrites - 1, out.data(), 64));
  EXPECT_GE(SumStat(cluster, &core::NodeStats::repl_applied_records) - applied,
            static_cast<uint64_t>(kWrites));
  EXPECT_EQ(SumStat(cluster, &core::NodeStats::park_missed_wakeups), missed);
}

// --- The serving path takes no page-table lock --------------------------------

// Every translation a worker makes while it serves — RPC Read and Write,
// keyed Get and Put, replicated-log applies — walks the page table without
// its lock (DESIGN.md §7.6). After a warm-up round (fresh keys and objects
// map blocks, ODP entries fault in) a storm of those operations must leave
// every node's page-table lock count where it was.
TEST(ZeroLockTest, ServingPathTakesNoPageTableLock) {
  Cluster cluster(SmallCluster(3));
  ReplicatedContext rctx(&cluster, 2);
  auto raddr = rctx.Alloc(64);
  ASSERT_TRUE(raddr.ok());
  auto ctx = core::Context::Create(cluster.node(0));
  auto addr = ctx->Alloc(64);
  ASSERT_TRUE(addr.ok());

  constexpr uint64_t kKeys = 16;
  std::vector<uint8_t> in(64), out(64);
  const auto round = [&](uint64_t i) {
    PatternFill(i, in.data(), 64);
    ASSERT_TRUE(ctx->Write(&*addr, in.data(), 64).ok()) << i;
    ASSERT_TRUE(ctx->Read(&*addr, out.data(), 64).ok()) << i;
    ASSERT_EQ(in, out) << i;
    ASSERT_TRUE(ctx->Put(i % kKeys, in.data(), 64).ok()) << i;
    ASSERT_TRUE(ctx->Get(i % kKeys, out.data(), 64).ok()) << i;
    ASSERT_EQ(in, out) << i;
    ASSERT_TRUE(rctx.Write(&*raddr, in.data(), 64).ok()) << i;
    ASSERT_TRUE(rctx.Read(&*raddr, out.data(), 64).ok()) << i;
    ASSERT_EQ(in, out) << i;
  };
  for (uint64_t i = 0; i < kKeys; ++i) round(i);

  const auto locks = [&] {
    std::vector<uint64_t> n;
    for (int i = 0; i < cluster.num_nodes(); ++i) {
      n.push_back(cluster.node(i)
                      ->rnic()
                      ->address_space()
                      ->lock_acquires_for_testing());
    }
    return n;
  };
  const uint64_t applied =
      SumStat(cluster, &core::NodeStats::repl_applied_records);
  const uint64_t rpc_writes = SumStat(cluster, &core::NodeStats::rpc_writes);
  const std::vector<uint64_t> before = locks();
  for (uint64_t i = kKeys; i < 20 * kKeys; ++i) round(i);
  EXPECT_EQ(locks(), before);
  // The storm did reach the paths it claims to cover.
  EXPECT_GE(SumStat(cluster, &core::NodeStats::repl_applied_records) - applied,
            19 * kKeys);
  EXPECT_GE(SumStat(cluster, &core::NodeStats::rpc_writes) - rpc_writes,
            2 * 19 * kKeys);
}

// --- RPC fallback for oversized images --------------------------------------

TEST(ReplLogTest, OversizedImageFallsBackToRpcAndStillAcks) {
  Cluster cluster(SmallCluster(3));
  ReplicationOptions ropts;
  ropts.ring_slot_bytes = 128;  // slot capacity 128-56=72 < the 124 B image
  ReplicatedContext rctx(&cluster, 2, core::Context::Options{}, ropts);
  auto addr = rctx.Alloc(100);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> in(100), out(100);
  PatternFill(1, in.data(), 100);
  ASSERT_TRUE(rctx.Write(&*addr, in.data(), 100).ok());
  EXPECT_EQ(rctx.acked_writes(), 1u);
  ASSERT_TRUE(rctx.Read(&*addr, out.data(), 100).ok());
  EXPECT_EQ(in, out);
}

}  // namespace
}  // namespace corm::dsm
