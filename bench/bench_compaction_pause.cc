// Data-plane pause under compaction: sliced engine vs monolithic baseline.
//
// The quantity under test is the ISSUE's acceptance number: the p99 latency
// a closed-loop client observes for a read *while the node is compacting*.
// Two modes run the exact same workload:
//
//   monolithic — compaction_slice_objects/pairs = SIZE_MAX, which degrades
//     the engine to the pre-refactor behavior: one Step() call executes the
//     entire run, and the leader serves no data-plane RPCs until it ends.
//   sliced — bounded budgets: the leader serves one RPC batch between
//     engine slices, so a read lands at most one slice behind.
//
// Setup: the reader hammers a *stable* object set in one size class while
// every compaction round churns and merges a *different* class. The two
// classes share nothing but the serving loop, so the measured pause is the
// engine's occupancy of the data plane — not object-lock bounces.
//
// SimTimeScale stays at 1.0 (unlike the throughput benches): collection and
// remap pace their modeled durations in wall time, so the monolithic stall
// has its true modeled length and the sliced mode's interleaving is visible
// in the same clock the client latencies are measured in.
//
// Output: a table on stdout plus BENCH_compaction.json (schema in
// EXPERIMENTS.md, "Compaction pause" section).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/histogram.h"
#include "common/logging.h"
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
  size_t read_objects = 1024;   // stable read set (class 64, never churned)
  uint32_t read_payload = 56;
  size_t churn = 16384;         // churned per round (class 128, compacted)
  uint32_t churn_payload = 120;
  size_t block_pages = 4;       // bigger blocks: remap cost per merge grows
  int rounds = 6;
  size_t slice_objects = 32;
  size_t slice_pairs = 4;
};

struct ModeResult {
  Histogram pause;        // read latency while a compaction run is active
  uint64_t reads = 0;     // all successful reads over the mode's window
  core::NodeStats stats;  // node counters after the run
};

// Frees every other address in `batch`, leaving its blocks half-full, and
// returns the survivors.
std::vector<GlobalAddr> FreeEveryOther(CormNode* node,
                                       std::vector<GlobalAddr> batch) {
  std::vector<GlobalAddr> victims, survivors;
  for (size_t i = 0; i < batch.size(); ++i) {
    (i % 2 == 0 ? victims : survivors).push_back(batch[i]);
  }
  CORM_CHECK(node->BulkFree(victims).ok());
  return survivors;
}

ModeResult RunMode(bool monolithic, const Workload& w) {
  CormConfig cfg;
  cfg.num_workers = 1;  // the leader IS the data plane: pauses are naked
  cfg.block_pages = w.block_pages;
  if (monolithic) {
    cfg.compaction_slice_objects = SIZE_MAX;
    cfg.compaction_slice_pairs = SIZE_MAX;
  } else {
    cfg.compaction_slice_objects = w.slice_objects;
    cfg.compaction_slice_pairs = w.slice_pairs;
  }
  CormNode node(cfg);

  auto read_set = node.BulkAlloc(w.read_objects, w.read_payload);
  CORM_CHECK(read_set.ok());
  const uint32_t churn_class = *node.ClassForPayload(w.churn_payload);
  CORM_CHECK(churn_class != *node.ClassForPayload(w.read_payload));

  std::atomic<bool> stop{false};
  std::atomic<bool> compacting{false};
  Histogram pause;
  std::atomic<uint64_t> reads{0};
  std::thread reader([&] {
    auto ctx = Context::Create(&node);
    std::vector<GlobalAddr> mine = *read_set;  // private: corrections land
    std::vector<uint8_t> buf(w.read_payload);
    size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      GlobalAddr& a = mine[i++ % mine.size()];
      // Time-to-success, attributed to compaction when the op overlapped a
      // run: an op held up by the engine (or by a retry bounce) shows its
      // whole span — that is the pause the application experiences.
      bool during = compacting.load(std::memory_order_acquire);
      const auto t0 = std::chrono::steady_clock::now();
      while (!ctx->Read(&a, buf.data(), w.read_payload).ok() &&
             !stop.load(std::memory_order_acquire)) {
      }
      const auto t1 = std::chrono::steady_clock::now();
      during |= compacting.load(std::memory_order_acquire);
      reads.fetch_add(1, std::memory_order_relaxed);
      if (during) {
        pause.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
      }
    }
  });

  // Churn + compact rounds: each round fragments the churn class with a
  // fresh batch (half-full blocks), merges it while the reader hammers the
  // other class, then drops the leftovers so the next round starts clean.
  for (int round = 0; round < w.rounds; ++round) {
    auto batch = node.BulkAlloc(w.churn, w.churn_payload);
    CORM_CHECK(batch.ok());
    std::vector<GlobalAddr> keep = FreeEveryOther(&node, *batch);
    compacting.store(true, std::memory_order_release);
    auto report = node.Compact(churn_class);
    compacting.store(false, std::memory_order_release);
    CORM_CHECK(report.ok()) << report.status().ToString();
    CORM_CHECK(node.BulkFree(keep).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  stop.store(true, std::memory_order_release);
  reader.join();

  ModeResult r;
  r.pause = pause;
  r.reads = reads.load();
  r.stats = node.stats();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // Deliberately no SetSimTimeScale(0): see the header comment.
  Workload w;
  w.read_objects = FlagU64(argc, argv, "read_objects", 1024);
  w.churn = FlagU64(argc, argv, "churn", 16384);
  w.block_pages = FlagU64(argc, argv, "block_pages", 4);
  w.rounds = static_cast<int>(FlagU64(argc, argv, "rounds", 6));
  w.slice_objects = FlagU64(argc, argv, "slice_objects", 32);
  w.slice_pairs = FlagU64(argc, argv, "slice_pairs", 4);
  const std::string json_path =
      FlagStr(argc, argv, "json", "BENCH_compaction.json");

  PrintTitle("Compaction pause: client read latency during compaction");
  std::printf(
      "read_set=%zu churn=%zu block_pages=%zu rounds=%d "
      "slices=%zu obj / %zu pairs\n",
      w.read_objects, w.churn, w.block_pages, w.rounds, w.slice_objects,
      w.slice_pairs);

  const ModeResult mono = RunMode(/*monolithic=*/true, w);
  const ModeResult sliced = RunMode(/*monolithic=*/false, w);

  auto row = [](const char* name, const ModeResult& r) {
    PrintRow({name, std::to_string(r.pause.count()),
              Us(r.pause.Percentile(0.5)), Us(r.pause.Percentile(0.99)),
              Us(r.pause.max()), std::to_string(r.stats.compaction_slices),
              std::to_string(r.stats.blocks_compacted)},
             14);
  };
  PrintRow({"mode", "paused rds", "p50 us", "p99 us", "max us", "slices",
            "merges"},
           14);
  row("monolithic", mono);
  row("sliced", sliced);

  const uint64_t mono_p99 = mono.pause.Percentile(0.99);
  const uint64_t sliced_p99 = sliced.pause.Percentile(0.99);
  std::printf("\np99 pause: monolithic %.2f us -> sliced %.2f us (%.1fx)\n",
              mono_p99 / 1000.0, sliced_p99 / 1000.0,
              sliced_p99 ? static_cast<double>(mono_p99) /
                               static_cast<double>(sliced_p99)
                         : 0.0);

  // JSON artifact (schema: EXPERIMENTS.md, "Compaction pause").
  {
    std::ofstream out(json_path);
    auto mode_json = [&](const char* name, const ModeResult& r) {
      out << "    \"" << name << "\": {\"reads\": " << r.reads
          << ", \"paused_reads\": " << r.pause.count()
          << ", \"pause_p50_ns\": " << r.pause.Percentile(0.5)
          << ", \"pause_p99_ns\": " << r.pause.Percentile(0.99)
          << ", \"pause_max_ns\": " << r.pause.max()
          << ", \"compaction_runs\": " << r.stats.compaction_runs
          << ", \"slices\": " << r.stats.compaction_slices
          << ", \"blocks_compacted\": " << r.stats.blocks_compacted
          << ", \"bytes_copied\": " << r.stats.compaction_bytes_copied
          << "}";
    };
    out << "{\n  \"bench\": \"compaction_pause\",\n";
    out << "  \"config\": {\"read_objects\": " << w.read_objects
        << ", \"churn\": " << w.churn
        << ", \"block_pages\": " << w.block_pages
        << ", \"rounds\": " << w.rounds
        << ", \"slice_objects\": " << w.slice_objects
        << ", \"slice_pairs\": " << w.slice_pairs << "},\n";
    out << "  \"modes\": {\n";
    mode_json("monolithic", mono);
    out << ",\n";
    mode_json("sliced", sliced);
    out << "\n  },\n";
    char buf[128];
    std::snprintf(buf, sizeof(buf), "  \"p99_improvement\": %.3f\n}\n",
                  sliced_p99 ? static_cast<double>(mono_p99) /
                                   static_cast<double>(sliced_p99)
                             : 0.0);
    out << buf;
    std::printf("wrote %s\n", json_path.c_str());
  }

  // The refactor's acceptance bar: the sliced engine must strictly beat the
  // monolithic pause profile.
  if (sliced_p99 >= mono_p99) {
    std::printf("FAIL: sliced p99 did not improve on monolithic\n");
    return 1;
  }
  return 0;
}
