// Chaos harness: a YCSB-style workload on a replicated cluster under a
// seeded fault schedule (RPC drops/delays/duplicates, QP breaks, torn
// writes, node crash/restart), with continuous invariant checking.
//
// Correctness rules the harness enforces:
//   - An operation may fail only with a *transient* status (timeout,
//     network error, locked, torn, QP broken, moved) — never a hard error.
//   - Read-your-writes: a read must return the last committed value or one
//     of the writes whose fate is uncertain (it timed out, or a degraded
//     write left a backup stale). A timed-out write is uncertain forever:
//     its RPC may still be queued on a slow node and apply later, so the
//     accept set is sticky until the key is retired.
//   - A key whose *first* write did not cleanly reach every replica is
//     poisoned (never read again): a replica could still hold
//     never-initialized memory.
//   - After the storm: every node's Audit() passes, every surviving key
//     reads back an accepted value, frees succeed, compaction runs clean.
//
// CORM_CHAOS_SEED overrides the fault-schedule seed (default below); an
// identical seed replays an identical schedule (see fault_injector_test).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/sanitizer.h"
#include "core/object_layout.h"
#include "dsm/cluster.h"
#include "dsm/replication.h"
#include "sim/fault_injector.h"
#include "workload/ycsb.h"

namespace corm {
namespace {

using core::GlobalAddr;
using dsm::Cluster;
using dsm::ClusterConfig;
using dsm::NodeHealth;

// A failure the fault schedule is allowed to cause. Anything else (invalid
// argument, stale pointer, not found, internal) is a bug.
bool Transient(const Status& st) {
  switch (st.code()) {
    case StatusCode::kTimeout:
    case StatusCode::kNetworkError:
    case StatusCode::kObjectLocked:
    case StatusCode::kTornRead:
    case StatusCode::kQpBroken:
    case StatusCode::kObjectMoved:
      return true;
    default:
      return false;
  }
}

core::Context::Options ChaosClientOptions() {
  core::Context::Options opts;
#ifdef CORM_TSAN_ENABLED
  // TSan slows the serving side ~10-20x; keep headroom so timeouts only
  // fire against genuinely crashed nodes.
  opts.rpc_retry.deadline_ns = 60'000'000;
  opts.recovery_retry.deadline_ns = 120'000'000;
#else
  opts.rpc_retry.deadline_ns = 15'000'000;
  opts.recovery_retry.deadline_ns = 40'000'000;
#endif
  return opts;
}

// --- Satellite regression: the unbounded client-side RPC wait. ------------
// Before the transport deadline existed, a node that stopped serving with a
// request in flight hung the client forever. Now the call returns kTimeout,
// and a restart purges the stranded request so it can never apply later.
TEST(ChaosRegressionTest, InFlightRpcTimesOutWhenNodeStopsServing) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.node_config.num_workers = 2;
  Cluster cluster(cfg);

  core::Context::Options opts;
  opts.rpc_retry.deadline_ns = 20'000'000;
  opts.recovery_retry.deadline_ns = 40'000'000;
  dsm::DsmContext ctx(&cluster, opts);

  auto addr = ctx.AllocOn(1, 64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> buf(64);
  core::PatternFill(1, buf.data(), buf.size());
  ASSERT_TRUE(ctx.Write(&*addr, buf.data(), buf.size()).ok());

  // The node stops draining its RPC queue with the next request in flight.
  cluster.node(1)->PauseService();
  Status st = ctx.Write(&*addr, buf.data(), buf.size());
  EXPECT_EQ(st.code(), StatusCode::kTimeout) << st.ToString();
  EXPECT_GE(ctx.context(1)->stats().timeouts, 1u);

  // The timed-out request is still queued on the node; a crash + restart
  // drops it (connection-reset semantics), after which fresh traffic and
  // a heartbeat-driven lease renewal bring the node back.
  cluster.CrashNode(1);
  cluster.RestartNode(1);
  EXPECT_EQ(cluster.Heartbeat(), 2);
  EXPECT_EQ(cluster.failure_detector()->health(1), NodeHealth::kAlive);

  std::vector<uint8_t> out(64);
  ASSERT_TRUE(ctx.ReadWithRecovery(&*addr, out.data(), out.size()).ok());
  EXPECT_TRUE(core::PatternCheck(1, out.data(), out.size()));
}

// --- Failure detector: heartbeat escalation and lease-renewal revival. ----
TEST(FailureDetectorClusterTest, HeartbeatEscalatesAndLeaseRenewalRevives) {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.node_config.num_workers = 1;
  Cluster cluster(cfg);
  const dsm::FailureDetector& fd = *cluster.failure_detector();

  EXPECT_EQ(cluster.Heartbeat(), 3);
  EXPECT_EQ(fd.health(2), NodeHealth::kAlive);

  cluster.node(2)->PauseService();
  EXPECT_EQ(cluster.Heartbeat(), 2);
  EXPECT_EQ(fd.health(2), NodeHealth::kSuspect);
  cluster.Heartbeat();
  cluster.Heartbeat();
  EXPECT_EQ(fd.health(2), NodeHealth::kDead);
  EXPECT_EQ(fd.deaths(), 1u);

  // Placement and the cluster-wide compaction sweep route around it.
  for (int i = 0; i < 12; ++i) EXPECT_NE(cluster.PickNode(), 2);
  auto sweep = cluster.CompactAllIfFragmented();
  EXPECT_TRUE(sweep.ok()) << sweep.status().ToString();

  // One successful probe renews the lease: instant revival.
  cluster.node(2)->ResumeService();
  EXPECT_EQ(cluster.Heartbeat(), 3);
  EXPECT_EQ(fd.health(2), NodeHealth::kAlive);
  EXPECT_EQ(fd.revivals(), 1u);
}

// --- The chaos harness proper. --------------------------------------------

constexpr size_t kObjectSize = 48;
constexpr int kThreads = 3;
constexpr uint64_t kKeysPerThread = 24;
#ifdef CORM_TSAN_ENABLED
constexpr int kOpsPerThread = 400;
#else
constexpr int kOpsPerThread = 1500;
#endif

struct KeyState {
  dsm::ReplicatedAddr addr;
  bool live = false;
  bool poisoned = false;  // retired: unverifiable (leaks on purpose)
  uint64_t committed = 0;
  // Pattern ids whose fate is unknown (timed-out writes, values a stale
  // backup may still serve). Sticky: a queued RPC can apply arbitrarily
  // late, so these stay acceptable until the key is retired.
  std::vector<uint64_t> uncertain;
};

struct ThreadReport {
  std::vector<KeyState> keys;
  uint64_t ops = 0;
  uint64_t write_timeouts = 0;
  uint64_t value_errors = 0;
  std::vector<std::string> hard_errors;
};

uint64_t PatternId(int thread_id, uint64_t key, uint64_t seq) {
  return (static_cast<uint64_t>(thread_id) << 40) | (key << 20) | seq;
}

bool Matches(const KeyState& k, const uint8_t* buf) {
  if (core::PatternCheck(k.committed, buf, kObjectSize)) return true;
  for (const uint64_t pid : k.uncertain) {
    if (core::PatternCheck(pid, buf, kObjectSize)) return true;
  }
  return false;
}

void RunWorkload(Cluster* cluster, int thread_id, uint64_t seed,
                 ThreadReport* rep) {
  dsm::ReplicatedContext ctx(cluster, /*replication_factor=*/2,
                             ChaosClientOptions());
  workload::YcsbConfig wcfg;
  wcfg.num_keys = kKeysPerThread;
  wcfg.zipf_theta = 0.6;
  wcfg.read_fraction = 0.5;
  wcfg.seed = seed;
  workload::YcsbGenerator gen(wcfg);

  rep->keys.resize(kKeysPerThread);
  std::vector<uint8_t> buf(kObjectSize), out(kObjectSize);
  uint64_t seq = 0;

  auto hard_error = [&](const char* what, const Status& st, uint64_t key) {
    rep->hard_errors.push_back(std::string(what) + " key " +
                               std::to_string(key) + ": " + st.ToString());
  };

  for (int i = 0; i < kOpsPerThread; ++i) {
    const auto op = gen.Next();
    KeyState& k = rep->keys[op.key];
    if (k.poisoned) continue;
    ++rep->ops;

    if (!k.live) {
      auto addr = ctx.Alloc(kObjectSize);
      if (!addr.ok()) {
        // "Not enough live nodes" mid-crash is expected; retry later.
        if (!Transient(addr.status())) hard_error("alloc", addr.status(), op.key);
        continue;
      }
      k.addr = *addr;
      const uint64_t pid = PatternId(thread_id, op.key, ++seq);
      core::PatternFill(pid, buf.data(), kObjectSize);
      const uint64_t degraded_before = ctx.degraded_writes();
      Status st = ctx.Write(&k.addr, buf.data(), kObjectSize);
      if (st.ok() && ctx.degraded_writes() == degraded_before) {
        k.live = true;
        k.committed = pid;
      } else {
        // The initial write did not cleanly reach every replica: some
        // replica may hold never-initialized memory. Retire the key.
        k.poisoned = true;
        if (!st.ok() && !Transient(st)) hard_error("init write", st, op.key);
      }
      continue;
    }

    if (op.is_read) {
      Status st = ctx.Read(&k.addr, out.data(), kObjectSize);
      if (st.ok()) {
        if (!Matches(k, out.data())) {
          ++rep->value_errors;
          rep->hard_errors.push_back(
              "read-your-writes violation at key " + std::to_string(op.key));
        }
      } else if (!Transient(st)) {
        hard_error("read", st, op.key);
      }
      continue;
    }

    const uint64_t pid = PatternId(thread_id, op.key, ++seq);
    core::PatternFill(pid, buf.data(), kObjectSize);
    const uint64_t degraded_before = ctx.degraded_writes();
    Status st = ctx.Write(&k.addr, buf.data(), kObjectSize);
    if (st.ok()) {
      if (ctx.degraded_writes() != degraded_before) {
        // A backup missed this write; it may serve the old value on a
        // future failover read.
        k.uncertain.push_back(k.committed);
      }
      k.committed = pid;
    } else if (Transient(st)) {
      ++rep->write_timeouts;
      k.uncertain.push_back(pid);  // may or may not have landed anywhere
    } else {
      hard_error("write", st, op.key);
    }
    if (k.uncertain.size() > 24) k.poisoned = true;  // unverifiable: retire
  }
}

TEST(ChaosTest, SeededFaultScheduleKeepsClusterConsistent) {
  uint64_t seed = 0xC0DE5EED;
  if (const char* env = std::getenv("CORM_CHAOS_SEED")) {
    seed = std::strtoull(env, nullptr, 0);
  }
  SCOPED_TRACE("CORM_CHAOS_SEED=" + std::to_string(seed));

  sim::FaultInjector injector(seed);
  auto arm = [&](const char* site, double p, uint64_t delay_ns = 0) {
    sim::FaultSchedule s;
    s.probability = p;
    s.delay_ns = delay_ns;
    injector.Arm(site, s);
  };
  arm(sim::fault_sites::kRpcDelay, 0.02, 4000);
  arm(sim::fault_sites::kRpcDropRequest, 0.008);
  arm(sim::fault_sites::kRpcDropResponse, 0.004);
  arm(sim::fault_sites::kRpcDupCompletion, 0.01);
  arm(sim::fault_sites::kQpBreak, 0.004);
  arm(sim::fault_sites::kTornWrite, 0.01, 3000);
  arm(sim::fault_sites::kNodeCrash, 0.08);
  // Replicated-log sites (DESIGN.md §11): lost ship records (retransmit
  // must fill the sequence gap), stalled high-water reads, and stale-epoch
  // stragglers racing a failover seal (the epoch fence must reject them).
  arm(sim::fault_sites::kReplShipDrop, 0.02);
  arm(sim::fault_sites::kReplAckDelay, 0.02, 4000);
  arm(sim::fault_sites::kReplSealRace, 0.2);

  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.node_config.num_workers = 2;
  cfg.node_config.seed = seed;
  // Compaction under chaos runs through each node's duty-cycled scheduler
  // instead of a periodic driver sweep: crashes, restarts and the workload
  // storm all overlap sliced background runs.
  cfg.node_config.background_compaction = true;
  cfg.node_config.compaction_check_interval_us = 3000;
  Cluster cluster(cfg);

  std::vector<ThreadReport> reports(kThreads);
  {
    sim::ScopedFaultInjector install(&injector);

    // Chaos driver: heartbeats and seeded crash/restart cycles. Compaction
    // is NOT driven from here any more — each node's background scheduler
    // paces its own sliced runs off per-class fragmentation, concurrently
    // with the crashes this thread injects.
    std::atomic<bool> stop{false};
    std::thread driver([&] {
      Rng rng(seed ^ 0xD21CEULL);
      int crashed = -1;
      int restart_in = 0;
      while (!stop.load(std::memory_order_acquire)) {
        cluster.Heartbeat();
        if (crashed < 0) {
          if (injector.ShouldFire(sim::fault_sites::kNodeCrash)) {
            crashed = static_cast<int>(rng.Uniform(cfg.num_nodes));
            cluster.CrashNode(crashed);
            restart_in = 2 + static_cast<int>(rng.Uniform(4));
          }
        } else if (--restart_in <= 0) {
          cluster.RestartNode(crashed);
          crashed = -1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (crashed >= 0) cluster.RestartNode(crashed);
    });

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back(RunWorkload, &cluster, t, seed + t, &reports[t]);
    }
    for (auto& w : workers) w.join();
    stop.store(true, std::memory_order_release);
    driver.join();
  }  // fault injector uninstalled: verification runs on a clean fabric

  // Let any still-queued (timed-out) requests drain, then heal the
  // cluster: every node must come back via lease renewal.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < 4; ++i) cluster.Heartbeat();
  for (int n = 0; n < cfg.num_nodes; ++n) {
    EXPECT_EQ(cluster.failure_detector()->health(n), NodeHealth::kAlive)
        << "node " << n << " did not recover";
  }

  // No workload thread saw a hard error or a read-your-writes violation.
  uint64_t total_ops = 0, total_timeouts = 0, live_keys = 0, poisoned = 0;
  for (int t = 0; t < kThreads; ++t) {
    const ThreadReport& rep = reports[t];
    total_ops += rep.ops;
    total_timeouts += rep.write_timeouts;
    EXPECT_EQ(rep.value_errors, 0u);
    for (const auto& err : rep.hard_errors) {
      ADD_FAILURE() << "thread " << t << ": " << err;
    }
    for (const auto& k : rep.keys) {
      live_keys += (k.live && !k.poisoned) ? 1 : 0;
      poisoned += k.poisoned ? 1 : 0;
    }
  }
  EXPECT_GT(total_ops, 0u);
  EXPECT_GT(live_keys, 0u);  // the storm must leave something to verify

  // Stop the schedulers before verification: the final read/free sweep and
  // the closing synchronous compaction must not race a background run that
  // holds blocks in transit (frees would bounce with kObjectLocked).
  cluster.StopBackgroundCompaction();

  // Structural invariants survived on every node.
  for (int n = 0; n < cfg.num_nodes; ++n) {
    Status audit = cluster.node(n)->Audit();
    EXPECT_TRUE(audit.ok()) << "node " << n << ": " << audit.ToString();
  }

  // Final sweep: every surviving key reads back an accepted value and
  // frees cleanly on the healed cluster.
  dsm::ReplicatedContext verify(&cluster, 2, core::Context::Options{});
  std::vector<uint8_t> out(kObjectSize);
  for (int t = 0; t < kThreads; ++t) {
    for (size_t key = 0; key < reports[t].keys.size(); ++key) {
      KeyState& k = reports[t].keys[key];
      if (!k.live || k.poisoned) continue;
      Status st = verify.Read(&k.addr, out.data(), kObjectSize);
      ASSERT_TRUE(st.ok()) << "thread " << t << " key " << key << ": "
                           << st.ToString();
      EXPECT_TRUE(Matches(k, out.data()))
          << "thread " << t << " key " << key << " holds an unknown value";
      Status freed = verify.Free(&k.addr);
      EXPECT_TRUE(freed.ok()) << "thread " << t << " key " << key << ": "
                              << freed.ToString();
    }
  }

  auto sweep = cluster.CompactAllIfFragmented();
  EXPECT_TRUE(sweep.ok()) << sweep.status().ToString();

  std::printf(
      "chaos: seed=%#llx ops=%llu live_keys=%llu poisoned=%llu "
      "write_timeouts=%llu crashes=%llu detector_deaths=%llu "
      "detector_revivals=%llu\n",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(total_ops),
      static_cast<unsigned long long>(live_keys),
      static_cast<unsigned long long>(poisoned),
      static_cast<unsigned long long>(total_timeouts),
      static_cast<unsigned long long>(
          injector.FiredCount(sim::fault_sites::kNodeCrash)),
      static_cast<unsigned long long>(cluster.failure_detector()->deaths()),
      static_cast<unsigned long long>(
          cluster.failure_detector()->revivals()));
}

// --- Zero lost acknowledged writes under replica and primary kills. --------
// The tentpole invariant, tested head-on: keys are initialized on a clean
// cluster, then a driver thread crash/restarts nodes — including each key's
// primary, mid-ship — while a writer hammers every key through the
// replicated log. Every write that returned OK must remain readable (the
// acked value or a newer accepted one) after the cluster heals; a failover
// during the storm must never surface the pre-failover value of an acked
// write.
TEST(ChaosTest, ReplicaAndPrimaryKillsLoseNoAckedWrites) {
  uint64_t seed = 0x5EA15EED;
  if (const char* env = std::getenv("CORM_CHAOS_SEED")) {
    seed = std::strtoull(env, nullptr, 0) ^ 0x5EA1;
  }
  SCOPED_TRACE("derived seed=" + std::to_string(seed));

  sim::FaultInjector injector(seed);
  auto arm = [&](const char* site, double p, uint64_t delay_ns = 0) {
    sim::FaultSchedule s;
    s.probability = p;
    s.delay_ns = delay_ns;
    injector.Arm(site, s);
  };
  arm(sim::fault_sites::kReplShipDrop, 0.03);
  arm(sim::fault_sites::kReplAckDelay, 0.03, 4000);
  arm(sim::fault_sites::kReplSealRace, 0.5);

  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.node_config.num_workers = 2;
  cfg.node_config.seed = seed;
  Cluster cluster(cfg);

  constexpr uint64_t kKeys = 8;
#ifdef CORM_TSAN_ENABLED
  constexpr int kOps = 250;
#else
  constexpr int kOps = 900;
#endif

  std::vector<KeyState> keys(kKeys);
  std::vector<uint8_t> buf(kObjectSize), out(kObjectSize);
  std::vector<std::string> hard_errors;
  uint64_t seq = 0;

  // Initialize every key on the quiet cluster so the storm below never has
  // to reason about half-initialized replicas. Nothing is injected yet, so
  // the init context keeps the default RPC deadline: the chaos client's
  // short one can expire on a loaded host before any fault is armed. The
  // storm context adopts the ReplicatedAddrs, which carry all the
  // client-side replication state.
  {
    dsm::ReplicatedContext init(&cluster, /*replication_factor=*/2);
    for (uint64_t key = 0; key < kKeys; ++key) {
      auto addr = init.Alloc(kObjectSize);
      ASSERT_TRUE(addr.ok()) << addr.status().ToString();
      keys[key].addr = *addr;
      const uint64_t pid = PatternId(0, key, ++seq);
      core::PatternFill(pid, buf.data(), kObjectSize);
      const Status st = init.Write(&keys[key].addr, buf.data(), kObjectSize);
      ASSERT_TRUE(st.ok()) << st.ToString();
      ASSERT_EQ(init.degraded_writes(), 0u);
      keys[key].live = true;
      keys[key].committed = pid;
    }
  }

  dsm::ReplicatedContext ctx(&cluster, /*replication_factor=*/2,
                             ChaosClientOptions());

  uint64_t acked = 0, uncertain_writes = 0;
  {
    sim::ScopedFaultInjector install(&injector);

    // Driver: seeded crash/restart cycles with heartbeats, so the failure
    // detector declares real deaths (driving degrade + failover paths)
    // while some kills stay undetected long enough to land mid-ship.
    std::atomic<bool> stop{false};
    std::thread driver([&] {
      Rng rng(seed ^ 0xD21CEULL);
      int crashed = -1;
      int restart_in = 0;
      while (!stop.load(std::memory_order_acquire)) {
        cluster.Heartbeat();
        if (crashed < 0) {
          crashed = static_cast<int>(rng.Uniform(cfg.num_nodes));
          cluster.CrashNode(crashed);
          restart_in = 2 + static_cast<int>(rng.Uniform(4));
        } else if (--restart_in <= 0) {
          cluster.RestartNode(crashed);
          crashed = -1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (crashed >= 0) cluster.RestartNode(crashed);
    });

    Rng rng(seed);
    for (int i = 0; i < kOps; ++i) {
      KeyState& k = keys[rng.Uniform(kKeys)];
      const uint64_t pid = PatternId(0, rng.Uniform(kKeys), ++seq);
      core::PatternFill(pid, buf.data(), kObjectSize);
      const uint64_t degraded_before = ctx.degraded_writes();
      Status st = ctx.Write(&k.addr, buf.data(), kObjectSize);
      if (st.ok()) {
        ++acked;
        if (ctx.degraded_writes() != degraded_before) {
          k.uncertain.push_back(k.committed);
        }
        k.committed = pid;
      } else if (Transient(st)) {
        ++uncertain_writes;
        k.uncertain.push_back(pid);
      } else {
        hard_errors.push_back("write: " + st.ToString());
      }
      // Interleave repair so a degraded key regains full redundancy before
      // its primary is the next to die.
      if (i % 32 == 31) ctx.RunAntiEntropySweep(4);
    }

    stop.store(true, std::memory_order_release);
    driver.join();
  }

  // Heal: every node must come back, then repair any remaining degraded
  // replicas on the clean fabric.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < 4; ++i) cluster.Heartbeat();
  for (int n = 0; n < cfg.num_nodes; ++n) {
    ASSERT_EQ(cluster.failure_detector()->health(n), NodeHealth::kAlive)
        << "node " << n << " did not recover";
  }
  while (ctx.pending_repairs() > 0) ctx.RunAntiEntropySweep(8);

  for (const auto& err : hard_errors) ADD_FAILURE() << err;

  // The invariant: every key serves its last acked write (or a newer
  // accepted value) — nothing acked was lost to any kill, including
  // primary kills that forced epoch-fenced failovers.
  uint64_t lost = 0;
  for (uint64_t key = 0; key < kKeys; ++key) {
    KeyState& k = keys[key];
    Status st = ctx.Read(&k.addr, out.data(), kObjectSize);
    ASSERT_TRUE(st.ok()) << "key " << key << ": " << st.ToString();
    if (!Matches(k, out.data())) {
      ++lost;
      ADD_FAILURE() << "key " << key << " lost its acked write";
    }
    EXPECT_TRUE(ctx.Free(&k.addr).ok());
  }
  EXPECT_EQ(lost, 0u);
  EXPECT_GT(acked, 0u);

  std::printf(
      "repl-chaos: seed=%#llx acked=%llu uncertain=%llu failovers=%llu "
      "seals=%llu degraded=%llu quorum_timeouts=%llu repairs=%llu\n",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(acked),
      static_cast<unsigned long long>(uncertain_writes),
      static_cast<unsigned long long>(ctx.failovers()),
      static_cast<unsigned long long>(ctx.seals()),
      static_cast<unsigned long long>(ctx.degraded_writes()),
      static_cast<unsigned long long>(ctx.quorum_timeouts()),
      static_cast<unsigned long long>(ctx.anti_entropy_repairs()));
}

// --- Keyed path under the storm: zero lost or misdirected acked ops. -------
// The keyed client surface (Put/Get/Del through the RDMA hash index) runs
// through the same kill/restart storm as the pointer harness above, with
// background compaction rewriting bucket hints mid-flight and the
// index-specific fault sites armed. Values are globally unique patterns, so
// a Get that lands on the wrong object is flagged as a corruption rather
// than passing by coincidence. Rules:
//   - An acked Put stays readable until a Del that may have applied: a Get
//     may return the committed value or a timed-out Put's value (its insert
//     may land late), never anything else.
//   - A timed-out Del is uncertain forever: NotFound stays acceptable for
//     the key from then on (the queued remove may still apply — or the
//     remove landed but the trailing Free timed out), and so do the
//     accepted values (it may never apply).
//   - Keyed data is unreplicated, so the storm never re-homes key ranges:
//     a crashed home answers transiently until it restarts with its memory
//     (and its index, unsealed) intact.

struct KeyedState {
  bool exists = false;        // an acked Put not yet followed by an acked Del
  bool maybe_deleted = false; // a Del timed out: NotFound acceptable forever
  bool poisoned = false;      // accept set grew unverifiable: retired
  uint64_t committed = 0;
  std::vector<uint64_t> uncertain;  // timed-out Puts: may apply late
};

struct KeyedThreadReport {
  std::vector<KeyedState> keys;
  uint64_t ops = 0;
  uint64_t uncertain_puts = 0;
  uint64_t uncertain_dels = 0;
  std::vector<std::string> hard_errors;
};

// The index lookup path additionally surfaces kStalePointer (a fenced or
// torn bucket hint) and resolves it by RPC; under short chaos deadlines the
// retry budget can expire with that status in hand.
bool TransientKeyed(const Status& st) {
  return Transient(st) || st.code() == StatusCode::kStalePointer;
}

bool KeyedMatches(const KeyedState& k, const uint8_t* buf) {
  if (k.exists && core::PatternCheck(k.committed, buf, kObjectSize)) {
    return true;
  }
  for (const uint64_t pid : k.uncertain) {
    if (core::PatternCheck(pid, buf, kObjectSize)) return true;
  }
  return false;
}

// Thread-disjoint key space: the keyed API has no cross-client conflict
// story beyond what raw pointers offer, so each thread owns its keys.
uint64_t KeyedKey(int thread_id, uint64_t k) {
  return (static_cast<uint64_t>(thread_id + 1) << 40) | k;
}

void RunKeyedWorkload(Cluster* cluster, int thread_id, uint64_t seed,
                      KeyedThreadReport* rep) {
  dsm::DsmContext ctx(cluster, ChaosClientOptions());
  Rng rng(seed);
  rep->keys.resize(kKeysPerThread);
  std::vector<uint8_t> buf(kObjectSize), out(kObjectSize);
  uint64_t seq = 0;

  auto hard_error = [&](const char* what, const Status& st, uint64_t key) {
    rep->hard_errors.push_back(std::string(what) + " key " +
                               std::to_string(key) + ": " + st.ToString());
  };

  const int ops = kOpsPerThread * 2 / 3;  // keyed ops RPC more: keep runtime flat
  for (int i = 0; i < ops; ++i) {
    const uint64_t k = rng.Uniform(kKeysPerThread);
    KeyedState& ks = rep->keys[k];
    if (ks.poisoned) continue;
    ++rep->ops;
    const uint64_t dice = rng.Uniform(100);

    if (dice < 50) {  // Get
      Status st = ctx.Get(KeyedKey(thread_id, k), out.data(), kObjectSize);
      if (st.ok()) {
        if (!KeyedMatches(ks, out.data())) {
          rep->hard_errors.push_back("misdirected/stale read at key " +
                                     std::to_string(k));
        }
      } else if (st.code() == StatusCode::kNotFound) {
        if (ks.exists && !ks.maybe_deleted) {
          rep->hard_errors.push_back("acked Put lost at key " +
                                     std::to_string(k));
        }
      } else if (!TransientKeyed(st)) {
        hard_error("get", st, k);
      }
    } else if (dice < 90) {  // Put
      const uint64_t pid = PatternId(thread_id, k, ++seq);
      core::PatternFill(pid, buf.data(), kObjectSize);
      auto addr = ctx.Put(KeyedKey(thread_id, k), buf.data(), kObjectSize);
      if (addr.ok()) {
        ks.exists = true;
        ks.committed = pid;
      } else if (TransientKeyed(addr.status())) {
        ++rep->uncertain_puts;
        ks.uncertain.push_back(pid);  // the insert may still land late
      } else {
        hard_error("put", addr.status(), k);
      }
    } else {  // Del
      Status st = ctx.Del(KeyedKey(thread_id, k));
      if (st.ok()) {
        ks.exists = false;
      } else if (st.code() == StatusCode::kNotFound) {
        if (ks.exists && !ks.maybe_deleted) {
          rep->hard_errors.push_back("live key vanished at key " +
                                     std::to_string(k));
        }
        ks.exists = false;  // a pending uncertain Del has now applied
      } else if (TransientKeyed(st)) {
        ++rep->uncertain_dels;
        ks.maybe_deleted = true;  // sticky: the remove may apply any time
      } else {
        hard_error("del", st, k);
      }
    }
    if (ks.uncertain.size() > 24) ks.poisoned = true;  // unverifiable: retire
  }
}

TEST(ChaosTest, KeyedOpsSurviveKillRestartStorm) {
  uint64_t seed = 0x1DE75EED;
  if (const char* env = std::getenv("CORM_CHAOS_SEED")) {
    seed = std::strtoull(env, nullptr, 0) ^ 0x1DE7;
  }
  SCOPED_TRACE("derived seed=" + std::to_string(seed));

  sim::FaultInjector injector(seed);
  auto arm = [&](const char* site, double p, uint64_t delay_ns = 0) {
    sim::FaultSchedule s;
    s.probability = p;
    s.delay_ns = delay_ns;
    injector.Arm(site, s);
  };
  arm(sim::fault_sites::kRpcDelay, 0.02, 4000);
  arm(sim::fault_sites::kRpcDropRequest, 0.008);
  arm(sim::fault_sites::kRpcDropResponse, 0.004);
  arm(sim::fault_sites::kRpcDupCompletion, 0.01);
  arm(sim::fault_sites::kQpBreak, 0.004);
  arm(sim::fault_sites::kTornWrite, 0.01, 3000);
  arm(sim::fault_sites::kNodeCrash, 0.08);
  // Index-specific sites (DESIGN.md §6.2): stale bucket hints force the RPC
  // fallback; repair delays widen the window where a one-sided probe races
  // the compaction engine's IndexRepair pass.
  arm(sim::fault_sites::kIndexStaleHint, 0.05);
  arm(sim::fault_sites::kIndexRepairDelay, 0.1, 2000);

  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.node_config.num_workers = 2;
  cfg.node_config.seed = seed;
  cfg.node_config.background_compaction = true;
  cfg.node_config.compaction_check_interval_us = 3000;
  Cluster cluster(cfg);

  std::vector<KeyedThreadReport> reports(kThreads);
  {
    sim::ScopedFaultInjector install(&injector);

    std::atomic<bool> stop{false};
    std::thread driver([&] {
      Rng rng(seed ^ 0xD21CEULL);
      int crashed = -1;
      int restart_in = 0;
      while (!stop.load(std::memory_order_acquire)) {
        cluster.Heartbeat();
        if (crashed < 0) {
          if (injector.ShouldFire(sim::fault_sites::kNodeCrash)) {
            crashed = static_cast<int>(rng.Uniform(cfg.num_nodes));
            cluster.CrashNode(crashed);
            restart_in = 2 + static_cast<int>(rng.Uniform(4));
          }
        } else if (--restart_in <= 0) {
          // No RehomeDeadNode here on purpose: keyed data is unreplicated,
          // so re-homing a range would strand every acked object behind it.
          // The crashed node restarts with memory and index intact.
          cluster.RestartNode(crashed);
          crashed = -1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (crashed >= 0) cluster.RestartNode(crashed);
    });

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back(RunKeyedWorkload, &cluster, t, seed + t,
                           &reports[t]);
    }
    for (auto& w : workers) w.join();
    stop.store(true, std::memory_order_release);
    driver.join();
  }  // fault injector uninstalled: verification runs on a clean fabric

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < 4; ++i) cluster.Heartbeat();
  for (int n = 0; n < cfg.num_nodes; ++n) {
    ASSERT_EQ(cluster.failure_detector()->health(n), NodeHealth::kAlive)
        << "node " << n << " did not recover";
  }
  cluster.StopBackgroundCompaction();

  for (int n = 0; n < cfg.num_nodes; ++n) {
    Status audit = cluster.node(n)->Audit();
    EXPECT_TRUE(audit.ok()) << "node " << n << ": " << audit.ToString();
  }

  uint64_t total_ops = 0, uncertain_puts = 0, uncertain_dels = 0;
  for (int t = 0; t < kThreads; ++t) {
    total_ops += reports[t].ops;
    uncertain_puts += reports[t].uncertain_puts;
    uncertain_dels += reports[t].uncertain_dels;
    for (const auto& err : reports[t].hard_errors) {
      ADD_FAILURE() << "thread " << t << ": " << err;
    }
  }
  EXPECT_GT(total_ops, 0u);

  // Final sweep on the healed cluster with full deadlines: every key must
  // serve an accepted value or be legitimately absent — nothing acked was
  // lost or misdirected by any kill, repair race, or stale hint.
  dsm::DsmContext verify(&cluster, core::Context::Options{});
  std::vector<uint8_t> out(kObjectSize);
  uint64_t verified = 0, lost = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t k = 0; k < reports[t].keys.size(); ++k) {
      KeyedState& ks = reports[t].keys[k];
      if (ks.poisoned) continue;
      Status st = verify.Get(KeyedKey(t, k), out.data(), kObjectSize);
      if (st.ok()) {
        EXPECT_TRUE(KeyedMatches(ks, out.data()))
            << "thread " << t << " key " << k << " holds an unknown value";
        ++verified;
        EXPECT_TRUE(verify.Del(KeyedKey(t, k)).ok())
            << "thread " << t << " key " << k;
      } else if (st.code() == StatusCode::kNotFound) {
        if (ks.exists && !ks.maybe_deleted) {
          ++lost;
          ADD_FAILURE() << "thread " << t << " key " << k
                        << " lost its acked Put";
        }
      } else {
        ADD_FAILURE() << "thread " << t << " key " << k << ": "
                      << st.ToString();
      }
    }
  }
  EXPECT_EQ(lost, 0u);
  EXPECT_GT(verified, 0u);  // the storm must leave something to verify

  core::NodeStats agg;
  for (int n = 0; n < cfg.num_nodes; ++n) {
    const core::NodeStats s = cluster.node(n)->stats();
    agg.index_lookups += s.index_lookups;
    agg.index_one_sided_hits += s.index_one_sided_hits;
    agg.index_rpc_fallbacks += s.index_rpc_fallbacks;
    agg.index_repairs += s.index_repairs;
    agg.index_fenced_entries += s.index_fenced_entries;
  }
  EXPECT_GT(agg.index_lookups, 0u);
  std::printf(
      "keyed-chaos: seed=%#llx ops=%llu verified=%llu uncertain_puts=%llu "
      "uncertain_dels=%llu crashes=%llu lookups=%llu hits=%llu "
      "fallbacks=%llu repairs=%llu fenced=%llu\n",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(total_ops),
      static_cast<unsigned long long>(verified),
      static_cast<unsigned long long>(uncertain_puts),
      static_cast<unsigned long long>(uncertain_dels),
      static_cast<unsigned long long>(
          injector.FiredCount(sim::fault_sites::kNodeCrash)),
      static_cast<unsigned long long>(agg.index_lookups),
      static_cast<unsigned long long>(agg.index_one_sided_hits),
      static_cast<unsigned long long>(agg.index_rpc_fallbacks),
      static_cast<unsigned long long>(agg.index_repairs),
      static_cast<unsigned long long>(agg.index_fenced_entries));
}

}  // namespace
}  // namespace corm
