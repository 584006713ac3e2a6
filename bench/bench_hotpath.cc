// Hot-path RPC throughput, with idle-park attribution (DESIGN.md §7).
//
// Unlike the figure benches, this one measures *wall-clock* throughput of
// the real serving loop (SimTimeScale 0, NIC message rate uncapped): the
// quantity under test is the data plane's per-op CPU cost — directory
// lookup, queue synchronization, message allocation, scheduler rotation —
// not the modeled network. The one data-plane knob, CormConfig::idle_park,
// can be set from the CLI (--idle_park=0|1), and the default run also
// measures the single-client read rate with it off to attribute its share.
//
// Output: a table on stdout plus BENCH_hotpath.json (schema in
// EXPERIMENTS.md, "Hot path" section). --check=<floor.json> compares the
// results against a checked-in floor and exits non-zero on a >30%
// regression — the CI perf-smoke gate.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/client.h"
#include "core/corm_node.h"

using namespace corm;
using namespace corm::bench;
using core::Context;
using core::CormConfig;
using core::CormNode;
using core::GlobalAddr;

namespace {

struct Workload {
  int num_workers = 4;
  int threads = 4;
  size_t objects = 4096;
  uint32_t payload = 64;
  uint64_t seconds = 2;
};

struct Results {
  double read_1t = 0;
  double read_nt = 0;
  double mixed_nt = 0;
  core::NodeStats counters;
};

// Closed-loop clients hammering Read (or alternating Read/Write) on a
// shared pre-allocated object set for a fixed wall-clock window.
double RunLoad(CormNode* node, const std::vector<GlobalAddr>& addrs,
               int nthreads, bool mixed, uint64_t seconds, uint32_t payload) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ops{0};
  std::vector<std::thread> ts;
  ts.reserve(static_cast<size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    ts.emplace_back([&, t] {
      auto ctx = Context::Create(node);
      std::vector<GlobalAddr> mine = addrs;  // private copy: corrections
      std::vector<uint8_t> buf(payload);
      uint64_t n = 0;
      size_t i = static_cast<size_t>(t) * 997;  // decorrelate thread walks
      while (!stop.load(std::memory_order_relaxed)) {
        GlobalAddr& a = mine[i++ % mine.size()];
        const Status st = (mixed && (i & 1))
                              ? ctx->Write(&a, buf.data(), payload)
                              : ctx->Read(&a, buf.data(), payload);
        if (st.ok()) ++n;
      }
      ops.fetch_add(n);
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  stop.store(true);
  for (auto& th : ts) th.join();
  return static_cast<double>(ops.load()) / static_cast<double>(seconds);
}

Results Measure(const Workload& w, bool idle_park, bool full_matrix) {
  CormConfig cfg;
  cfg.num_workers = w.num_workers;
  cfg.nic_msg_rate = 0;  // uncapped: measure CPU cost, not the modeled NIC
  cfg.idle_park = idle_park;
  CormNode node(cfg);
  auto addrs = node.BulkAlloc(w.objects, w.payload);
  CORM_CHECK(addrs.ok());
  Results r;
  r.read_1t = RunLoad(&node, *addrs, 1, false, w.seconds, w.payload);
  if (full_matrix) {
    r.read_nt = RunLoad(&node, *addrs, w.threads, false, w.seconds, w.payload);
    r.mixed_nt = RunLoad(&node, *addrs, w.threads, true, w.seconds, w.payload);
  }
  r.counters = node.stats();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  sim::SetSimTimeScale(0.0);

  Workload w;
  w.num_workers = static_cast<int>(FlagU64(argc, argv, "workers", 4));
  w.threads = static_cast<int>(FlagU64(argc, argv, "threads", 4));
  w.objects = FlagU64(argc, argv, "objects", 4096);
  w.payload = static_cast<uint32_t>(FlagU64(argc, argv, "payload", 64));
  w.seconds = FlagU64(argc, argv, "seconds", 2);

  const bool idle_park = FlagU64(argc, argv, "idle_park", 1) != 0;
  const bool attrib = FlagU64(argc, argv, "attrib", 1) != 0;
  const std::string json_path =
      FlagStr(argc, argv, "json", "BENCH_hotpath.json");
  const std::string floor_path = FlagStr(argc, argv, "check", "");

  PrintTitle("Hot path: RPC throughput (wall clock, NIC uncapped)");
  std::printf("workers=%d threads=%d objects=%zu payload=%uB window=%llus\n",
              w.num_workers, w.threads, w.objects, w.payload,
              static_cast<unsigned long long>(w.seconds));

  const Results r = Measure(w, idle_park, /*full_matrix=*/true);
  PrintRow({"mode", "ops/s"}, 26);
  PrintRow({"read 1 client", Fmt("%.0f", r.read_1t)}, 26);
  PrintRow({"read N clients", Fmt("%.0f", r.read_nt)}, 26);
  PrintRow({"mixed 50/50 N clients", Fmt("%.0f", r.mixed_nt)}, 26);

  // Attribution: the single-client read rate with idle_park off. What it
  // buys depends on the host: on few-core machines it is the biggest lever.
  double read_1t_no_idle_park = 0;
  if (attrib) {
    PrintTitle("Attribution: idle_park off, read 1 client");
    PrintRow({"toggle off", "ops/s", "vs full"}, 22);
    read_1t_no_idle_park =
        Measure(w, /*idle_park=*/false, /*full_matrix=*/false).read_1t;
    PrintRow({"idle_park", Fmt("%.0f", read_1t_no_idle_park),
              Fmt("%.2fx", r.read_1t / std::max(read_1t_no_idle_park, 1.0))},
             22);
  }

  // JSON artifact (schema: EXPERIMENTS.md, "Hot path").
  {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"hotpath\",\n";
    out << "  \"config\": {\"workers\": " << w.num_workers
        << ", \"threads\": " << w.threads << ", \"objects\": " << w.objects
        << ", \"payload\": " << w.payload << ", \"seconds\": " << w.seconds
        << "},\n";
    out << "  \"toggles\": {\"idle_park\": " << (idle_park ? 1 : 0)
        << "},\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"results\": {\"read_1t\": %.0f, \"read_nt\": %.0f, "
                  "\"mixed_nt\": %.0f},\n",
                  r.read_1t, r.read_nt, r.mixed_nt);
    out << buf;
    out << "  \"attribution\": {";
    if (attrib) {
      std::snprintf(buf, sizeof(buf), "\"read_1t_no_idle_park\": %.0f",
                    read_1t_no_idle_park);
      out << buf;
    }
    out << "},\n";
    out << "  \"counters\": {\"dir_cache_hits\": " << r.counters.dir_cache_hits
        << ", \"dir_cache_misses\": " << r.counters.dir_cache_misses
        << ", \"rpc_batches\": " << r.counters.rpc_batches
        << ", \"rpc_polled\": " << r.counters.rpc_polled
        << ", \"id_draw_fallbacks\": " << r.counters.id_draw_fallbacks
        << "},\n";
    // The pre-overhaul numbers on the reference host (single-CPU VM, same
    // workload defaults), kept for before/after context in the artifact.
    out << "  \"baseline_pre_pr\": {\"read_1t\": 332317, \"read_nt\": "
           "696714, \"mixed_nt\": 687150}\n}\n";
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  // Floor check (CI perf smoke): the results must stay within 30% of the
  // checked-in floor.
  if (!floor_path.empty()) {
    const int check = CheckFloor(floor_path,
                                 {{"read_1t", r.read_1t},
                                  {"read_nt", r.read_nt},
                                  {"mixed_nt", r.mixed_nt}},
                                 0.7);
    if (check != 0) return check;
    std::printf("check: OK\n");
  }
  return 0;
}
