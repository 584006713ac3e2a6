// DSM scale-out bench (extension beyond the single-node paper evaluation):
// aggregate one-sided read throughput and compaction savings as nodes are
// added. Each node has its own RNIC/translation cache and NIC message
// budget, so both read capacity and compaction capacity scale linearly —
// the property that makes node-local compaction (paper §3.1.2) the right
// design for rack-scale DSM.
//
// Replicated-write mode (DESIGN.md §11): measures the modeled write
// latency through the one-sided replicated log against the unreplicated
// RPC write on the same cluster, then storms the cluster with node
// kill/restart cycles while writing and verifies zero lost acknowledged
// writes. Emits BENCH_replication.json (schema in EXPERIMENTS.md) and
// exits non-zero when the replicated p50 exceeds 2x unreplicated or any
// acked write is lost — the gate is self-enforcing.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/histogram.h"
#include "common/random.h"
#include "core/object_layout.h"
#include "dsm/cluster.h"
#include "dsm/dsm_context.h"
#include "dsm/replication.h"

using namespace corm;
using namespace corm::bench;
using namespace corm::dsm;
using core::GlobalAddr;

namespace {

struct ReplBenchResult {
  uint64_t unrep_p50_ns = 0;
  uint64_t rep_p50_ns = 0;
  double ratio = 0.0;
  uint64_t acked = 0;
  uint64_t uncertain = 0;
  uint64_t lost = 0;
  uint64_t failovers = 0;
  uint64_t degraded = 0;
  uint64_t repairs = 0;
};

constexpr size_t kReplPayload = 24;

// Measures replicated vs unreplicated write p50, then the kill-storm
// zero-lost-acked-writes check.
ReplBenchResult RunReplicationBench(size_t samples, size_t storm_writes) {
  ReplBenchResult r;
  ClusterConfig config;
  config.num_nodes = 3;
  config.node_config.num_workers = 2;
  config.node_config.rnic_model = sim::RnicModel::kConnectX5;
  Cluster cluster(config);
  Rng rng(17);

  // Baseline: plain RPC writes, modeled ns per op.
  {
    DsmContext ctx(&cluster);
    std::vector<GlobalAddr> objs;
    std::vector<uint8_t> buf(kReplPayload);
    for (int i = 0; i < 64; ++i) {
      auto addr = ctx.Alloc(kReplPayload);
      CORM_CHECK(addr.ok());
      objs.push_back(*addr);
    }
    Histogram hist;
    for (size_t i = 0; i < samples; ++i) {
      GlobalAddr& addr = objs[rng.Uniform(objs.size())];
      core::PatternFill(i, buf.data(), buf.size());
      CORM_CHECK(ctx.Write(&addr, buf.data(), buf.size()).ok());
      hist.Record(ctx.context(NodeOf(addr))->stats().last_op_ns);
    }
    r.unrep_p50_ns = hist.Percentile(0.5);
    for (auto& addr : objs) CORM_CHECK(ctx.Free(&addr).ok());
  }

  // Replicated: same payload through the one-sided log, k=2.
  ReplicatedContext rctx(&cluster, /*replication_factor=*/2);
  std::vector<ReplicatedAddr> objs;
  std::vector<uint8_t> buf(kReplPayload), out(kReplPayload);
  for (int i = 0; i < 64; ++i) {
    auto addr = rctx.Alloc(kReplPayload);
    CORM_CHECK(addr.ok());
    objs.push_back(*addr);
  }
  Histogram hist;
  for (size_t i = 0; i < samples; ++i) {
    ReplicatedAddr& addr = objs[rng.Uniform(objs.size())];
    core::PatternFill(i, buf.data(), buf.size());
    CORM_CHECK(rctx.Write(&addr, buf.data(), buf.size()).ok());
    hist.Record(rctx.last_op_ns());
  }
  r.rep_p50_ns = hist.Percentile(0.5);
  r.ratio = r.unrep_p50_ns == 0
                ? 0.0
                : static_cast<double>(r.rep_p50_ns) / r.unrep_p50_ns;

  // Kill storm: nodes crash and restart mid-stream while writes continue;
  // every write that returned OK must stay readable afterwards.
  struct Tracked {
    uint64_t committed = 0;          // last acked pattern id
    std::vector<uint64_t> uncertain;  // timed-out / possibly-stale values
  };
  std::vector<Tracked> tracked(objs.size());
  for (size_t key = 0; key < objs.size(); ++key) {
    core::PatternFill(key, buf.data(), buf.size());
    CORM_CHECK(rctx.Write(&objs[key], buf.data(), buf.size()).ok());
    tracked[key].committed = key;
  }
  int down = -1;
  uint64_t pid = objs.size();
  for (size_t i = 0; i < storm_writes; ++i) {
    // Crash/restart cadence: one node down at a time, detector driven.
    if (i % 40 == 10) {
      down = static_cast<int>(rng.Uniform(config.num_nodes));
      cluster.CrashNode(down);
      for (int h = 0; h < 3; ++h) cluster.Heartbeat();
    } else if (i % 40 == 30 && down >= 0) {
      cluster.RestartNode(down);
      cluster.Heartbeat();
      down = -1;
      rctx.RunAntiEntropySweep(16);
    }
    const size_t key = rng.Uniform(objs.size());
    ++pid;
    core::PatternFill(pid, buf.data(), buf.size());
    const uint64_t degraded_before = rctx.degraded_writes();
    Status st = rctx.Write(&objs[key], buf.data(), buf.size());
    if (st.ok()) {
      ++r.acked;
      if (rctx.degraded_writes() != degraded_before) {
        tracked[key].uncertain.push_back(tracked[key].committed);
      }
      tracked[key].committed = pid;
    } else {
      ++r.uncertain;
      tracked[key].uncertain.push_back(pid);
    }
  }
  if (down >= 0) {
    cluster.RestartNode(down);
    cluster.Heartbeat();
  }
  for (int h = 0; h < 4; ++h) cluster.Heartbeat();
  while (rctx.pending_repairs() > 0) rctx.RunAntiEntropySweep(16);

  // Verification: the acked value (or a newer accepted one) must read back
  // for every key. Anything else is a lost acknowledged write.
  for (size_t key = 0; key < objs.size(); ++key) {
    Status st = rctx.Read(&objs[key], out.data(), out.size());
    if (!st.ok()) {
      ++r.lost;
      continue;
    }
    bool ok = core::PatternCheck(tracked[key].committed, out.data(),
                                 out.size());
    for (const uint64_t u : tracked[key].uncertain) {
      ok = ok || core::PatternCheck(u, out.data(), out.size());
    }
    if (!ok) ++r.lost;
  }
  r.failovers = rctx.failovers();
  r.degraded = rctx.degraded_writes();
  r.repairs = rctx.anti_entropy_repairs();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  sim::SetSimTimeScale(0.0);
  const size_t objects_per_node =
      FlagU64(argc, argv, "objects_per_node", 500'000);
  const bool run_repl = FlagU64(argc, argv, "replication", 1) != 0;
  const size_t repl_samples = FlagU64(argc, argv, "repl_samples", 2000);
  const size_t repl_storm = FlagU64(argc, argv, "repl_storm", 600);
  const std::string json_path =
      FlagStr(argc, argv, "json", "BENCH_replication.json");

  PrintTitle("DSM scale-out: aggregate capacity vs cluster size");
  PrintRow({"nodes", "read_cap_Kreq/s", "rpc_cap_Kreq/s", "frag_GiB",
            "compacted_GiB", "blocks_freed"},
           17);
  for (int nodes : {1, 2, 4, 8}) {
    ClusterConfig config;
    config.num_nodes = nodes;
    config.node_config.num_workers = 2;
    config.node_config.rnic_model = sim::RnicModel::kConnectX3;
    Cluster cluster(config);
    DsmContext ctx(&cluster);

    // Load + fragment every node identically.
    std::vector<GlobalAddr> doomed;
    Rng rng(5);
    for (int n = 0; n < nodes; ++n) {
      auto addrs = cluster.node(n)->BulkAlloc(objects_per_node, 24);
      CORM_CHECK(addrs.ok());
      for (auto& addr : *addrs) {
        if (rng.Chance(0.5)) doomed.push_back(addr);
      }
      CORM_CHECK(cluster.node(n)->BulkFree(doomed).ok());
      doomed.clear();
    }

    // Sample per-node one-sided read cost under uniform access.
    double read_cap = 0, rpc_cap = 0;
    for (int n = 0; n < nodes; ++n) {
      auto* node = cluster.node(n);
      node->rnic()->ResetMttCache();
      MttMissProbe probe(node->rnic());
      auto* cctx = ctx.context(n);
      std::vector<uint8_t> buf(24);
      // Probe with bulk-pattern addresses reconstructed via directory-free
      // sampling: reuse BulkAlloc pointers held by the node's own test API
      // is not available here, so sample via fresh allocations.
      std::vector<GlobalAddr> sample;
      for (int i = 0; i < 4000; ++i) {
        auto addr = cctx->Alloc(24);
        CORM_CHECK(addr.ok());
        sample.push_back(*addr);
      }
      Rng srng(n);
      for (int i = 0; i < 20000; ++i) {
        CORM_CHECK(cctx->DirectRead(sample[srng.Uniform(sample.size())],
                                    buf.data(), 24)
                       .ok());
      }
      const auto model = node->latency_model();
      const double service = model.RnicReadServiceNs() +
                             probe.MissRate() * model.MttCacheMissNs();
      read_cap += 1e9 / service;
      rpc_cap += static_cast<double>(node->config().nic_msg_rate) / 2.0;
    }

    const uint64_t frag_bytes = cluster.TotalActiveMemoryBytes();
    auto reports = cluster.CompactAllIfFragmented();
    CORM_CHECK(reports.ok());
    size_t freed = 0;
    for (const auto& r : *reports) freed += r.blocks_freed;
    PrintRow({std::to_string(nodes), Kreq(read_cap), Kreq(rpc_cap),
              Gib(frag_bytes), Gib(cluster.TotalActiveMemoryBytes()),
              std::to_string(freed)},
             17);
  }
  std::printf(
      "\nexpectation: read and RPC capacity scale ~linearly with nodes (one\n"
      "RNIC each); compaction stays node-local so its savings scale too,\n"
      "and no cross-node coordination is ever needed (§3.1.2).\n");

  if (!run_repl) return 0;

  PrintTitle("Replicated writes: one-sided log vs plain RPC (3 nodes, k=2)");
  const ReplBenchResult r = RunReplicationBench(repl_samples, repl_storm);
  PrintRow({"mode", "write_p50_us"}, 22);
  PrintRow({"unreplicated", Us(r.unrep_p50_ns)}, 22);
  PrintRow({"replicated k=2", Us(r.rep_p50_ns)}, 22);
  std::printf(
      "ratio=%.2fx  storm: acked=%llu uncertain=%llu lost=%llu "
      "failovers=%llu degraded=%llu repairs=%llu\n",
      r.ratio, static_cast<unsigned long long>(r.acked),
      static_cast<unsigned long long>(r.uncertain),
      static_cast<unsigned long long>(r.lost),
      static_cast<unsigned long long>(r.failovers),
      static_cast<unsigned long long>(r.degraded),
      static_cast<unsigned long long>(r.repairs));

  {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"replication\",\n"
        << "  \"config\": {\"nodes\": 3, \"replication_factor\": 2, "
        << "\"payload\": " << kReplPayload
        << ", \"samples\": " << repl_samples
        << ", \"storm_writes\": " << repl_storm << "},\n"
        << "  \"results\": {\"unrep_p50_ns\": " << r.unrep_p50_ns
        << ", \"rep_p50_ns\": " << r.rep_p50_ns << ", \"ratio\": " << r.ratio
        << ",\n    \"acked\": " << r.acked
        << ", \"uncertain\": " << r.uncertain << ", \"lost\": " << r.lost
        << ", \"failovers\": " << r.failovers
        << ", \"degraded\": " << r.degraded << ", \"repairs\": " << r.repairs
        << "},\n"
        << "  \"gate\": {\"max_ratio\": 2.0, \"max_lost\": 0}\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Self-enforcing acceptance gate: replication must cost at most 2x the
  // unreplicated write p50, and an acknowledged write may never be lost.
  int rc = 0;
  if (r.ratio > 2.0) {
    std::fprintf(stderr,
                 "FAIL: replicated p50 %.2fx unreplicated (gate: <= 2.0x)\n",
                 r.ratio);
    rc = 1;
  }
  if (r.lost > 0) {
    std::fprintf(stderr, "FAIL: %llu acknowledged write(s) lost (gate: 0)\n",
                 static_cast<unsigned long long>(r.lost));
    rc = 1;
  }
  if (r.acked == 0) {
    std::fprintf(stderr, "FAIL: storm acked no writes — gate vacuous\n");
    rc = 1;
  }
  return rc;
}
