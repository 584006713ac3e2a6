// Sync-scheme shootout + doorbell-batching A/B (DESIGN.md §12).
//
// Part 1 — doorbell batching: a batch of 8 one-sided object reads posted
// as one WR chain (one doorbell + one completion) against the same batch
// with batching disabled (8 full round trips through the sequential
// fallback). Modeled nanoseconds, deterministic after an MTT warm-up; the
// gate is self-enforcing: batched p50 must beat unbatched by >= 1.5x or
// the bench exits non-zero.
//
// Part 2 — scheme shootout: optimistic / cas_spinlock / lease_rw under two
// contention levels (low: uniform over many objects; high: every client
// hammers a small hot set), closed-loop reader and writer threads, modeled
// per-op latency sampled from ClientStats::last_op_ns. Lock traffic is
// real — conflicts, lease steals and timeouts come from the node's sync_*
// shard counters.
//
// Output: paper-style tables on stdout plus BENCH_sync.json (schema in
// EXPERIMENTS.md, "Synchronization shootout" section). --check=<floor.json>
// additionally compares the measured batch speedup against a checked-in
// floor — the CI sync-matrix gate.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/histogram.h"
#include "common/random.h"
#include "core/client.h"
#include "core/corm_node.h"
#include "sync/sync_scheme.h"

using namespace corm;
using namespace corm::bench;
using core::Context;
using core::CormConfig;
using core::CormNode;
using core::GlobalAddr;

namespace {

constexpr uint32_t kPayload = 64;
constexpr size_t kBatch = 8;

// ---------------------------------------------------------------------------
// Part 1: doorbell batching A/B.
// ---------------------------------------------------------------------------

struct BatchResult {
  uint64_t batched_p50_ns = 0;
  uint64_t unbatched_p50_ns = 0;
  double speedup = 0.0;
  uint64_t batches = 0;      // chained posts issued on the batching node
  uint64_t batched_wrs = 0;  // WRs carried by those chains
};

// p50 modeled ns of DirectReadBatch(kBatch) on a node with the given
// batching setting (off = the sequential per-object fallback, same API).
uint64_t MeasureBatchP50(bool batching_on, size_t samples, uint64_t* batches,
                         uint64_t* batched_wrs) {
  CormConfig cfg;
  cfg.num_workers = 1;
  cfg.doorbell_batching = batching_on;
  CormNode node(cfg);
  auto addrs = node.BulkAlloc(kBatch, kPayload);
  CORM_CHECK(addrs.ok());
  auto ctx = Context::Create(&node);
  std::vector<uint8_t> bufs(kBatch * kPayload);
  std::vector<Status> statuses(kBatch);
  // Warm the RNIC translation cache so the A/B compares doorbell counts,
  // not cold-MTT faults.
  for (const auto& a : *addrs) {
    CORM_CHECK(ctx->DirectRead(a, bufs.data(), kPayload).ok());
  }
  Histogram hist = SampleLatency(ctx.get(), static_cast<int>(samples), [&](int) {
    CORM_CHECK(ctx->DirectReadBatch(addrs->data(), kBatch, bufs.data(),
                                    kPayload, statuses.data())
                   .ok());
  });
  if (batches) *batches = node.stats().doorbell_batches;
  if (batched_wrs) *batched_wrs = node.stats().doorbell_batched_wrs;
  return hist.Percentile(0.5);
}

BatchResult RunBatchAb(size_t samples) {
  BatchResult r;
  r.batched_p50_ns =
      MeasureBatchP50(true, samples, &r.batches, &r.batched_wrs);
  r.unbatched_p50_ns = MeasureBatchP50(false, samples, nullptr, nullptr);
  r.speedup = r.batched_p50_ns == 0
                  ? 0.0
                  : static_cast<double>(r.unbatched_p50_ns) /
                        static_cast<double>(r.batched_p50_ns);
  return r;
}

// ---------------------------------------------------------------------------
// Part 2: scheme shootout under contention.
// ---------------------------------------------------------------------------

struct Contention {
  const char* name;    // "low" / "high"
  size_t objects;      // working-set size every thread draws from
  int readers;
  int writers;
};

struct SchemeResult {
  uint64_t read_p50_ns = 0;
  uint64_t read_p99_ns = 0;
  uint64_t write_p50_ns = 0;
  uint64_t write_p99_ns = 0;
  uint64_t read_failures = 0;   // ops that exhausted their retry budget
  uint64_t write_failures = 0;
  uint64_t acquires = 0;
  uint64_t conflicts = 0;
  uint64_t steals = 0;
  uint64_t timeouts = 0;
  uint64_t fences = 0;
};

SchemeResult RunScheme(sync::SchemeKind kind, const Contention& c,
                       size_t iters) {
  CormConfig cfg;
  cfg.num_workers = 2;
  cfg.sync_scheme = kind;
  cfg.sync_lease_ns = 1'000'000;
  CormNode node(cfg);
  auto addrs = node.BulkAlloc(c.objects, kPayload);
  CORM_CHECK(addrs.ok());

  SchemeResult r;
  Histogram reads, writes;
  uint64_t read_fail = 0, write_fail = 0;
  std::mutex merge_mu;

  auto run = [&](int tid, bool writer) {
    auto ctx = Context::Create(&node);
    std::vector<GlobalAddr> mine = *addrs;  // private copy: corrections
    std::vector<uint8_t> buf(kPayload, static_cast<uint8_t>(tid));
    Histogram hist;
    uint64_t failures = 0;
    Rng rng(static_cast<uint64_t>(tid) * 7919 + 13);
    for (size_t i = 0; i < iters; ++i) {
      GlobalAddr& a = mine[rng.Uniform(mine.size())];
      const Status st = writer ? ctx->Write(&a, buf.data(), kPayload)
                               : ctx->ReadWithRecovery(&a, buf.data(),
                                                       kPayload);
      if (st.ok()) {
        hist.Record(ctx->stats().last_op_ns);
      } else {
        ++failures;
      }
    }
    std::lock_guard<std::mutex> lock(merge_mu);
    (writer ? writes : reads).Merge(hist);
    (writer ? write_fail : read_fail) += failures;
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < c.readers; ++t) {
    threads.emplace_back(run, t + 1, /*writer=*/false);
  }
  for (int t = 0; t < c.writers; ++t) {
    threads.emplace_back(run, c.readers + t + 1, /*writer=*/true);
  }
  for (auto& th : threads) th.join();

  r.read_p50_ns = reads.Percentile(0.5);
  r.read_p99_ns = reads.Percentile(0.99);
  r.write_p50_ns = writes.Percentile(0.5);
  r.write_p99_ns = writes.Percentile(0.99);
  r.read_failures = read_fail;
  r.write_failures = write_fail;
  const core::NodeStats s = node.stats();
  r.acquires = s.sync_lock_acquires;
  r.conflicts = s.sync_lock_conflicts;
  r.steals = s.sync_lock_steals;
  r.timeouts = s.sync_lock_timeouts;
  r.fences = s.sync_epoch_fences;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  sim::SetSimTimeScale(0.0);

  const size_t batch_samples = FlagU64(argc, argv, "batch_samples", 2000);
  const size_t iters = FlagU64(argc, argv, "iters", 1500);
  const int readers = static_cast<int>(FlagU64(argc, argv, "readers", 3));
  const int writers = static_cast<int>(FlagU64(argc, argv, "writers", 1));
  const size_t objects = FlagU64(argc, argv, "objects", 256);
  const size_t hot = FlagU64(argc, argv, "hot", 8);
  const std::string json_path = FlagStr(argc, argv, "json", "BENCH_sync.json");
  const std::string floor_path = FlagStr(argc, argv, "check", "");

  // --- Part 1: doorbell batching. ----------------------------------------
  PrintTitle("Doorbell batching: batch of 8 one-sided reads (modeled ns)");
  const BatchResult b = RunBatchAb(batch_samples);
  PrintRow({"mode", "p50_us", "chains", "wrs"}, 16);
  PrintRow({"batched", Us(b.batched_p50_ns), std::to_string(b.batches),
            std::to_string(b.batched_wrs)},
           16);
  PrintRow({"unbatched", Us(b.unbatched_p50_ns), "0", "0"}, 16);
  std::printf("speedup=%.2fx (gate: >= 1.50x)\n", b.speedup);

  // --- Part 2: scheme shootout. ------------------------------------------
  const Contention levels[] = {
      {"low", objects, readers, writers},
      // High contention: everyone hammers a hot set smaller than the
      // thread count's reach, writers matched to readers.
      {"high", hot, readers, std::max(writers, readers)},
  };
  SchemeResult results[sync::kNumSchemeKinds][2];
  for (int k = 0; k < sync::kNumSchemeKinds; ++k) {
    const auto kind = static_cast<sync::SchemeKind>(k);
    for (int l = 0; l < 2; ++l) {
      results[k][l] = RunScheme(kind, levels[l], iters);
    }
  }
  for (int l = 0; l < 2; ++l) {
    const Contention& c = levels[l];
    PrintTitle(std::string("Scheme shootout: ") + c.name + " contention (" +
               std::to_string(c.readers) + "r:" + std::to_string(c.writers) +
               "w over " + std::to_string(c.objects) + " objects)");
    PrintRow({"scheme", "read_p50_us", "read_p99_us", "write_p50_us",
              "write_p99_us", "conflicts", "steals", "timeouts"},
             13);
    for (int k = 0; k < sync::kNumSchemeKinds; ++k) {
      const SchemeResult& r = results[k][l];
      PrintRow({sync::SchemeName(static_cast<sync::SchemeKind>(k)),
                Us(r.read_p50_ns), Us(r.read_p99_ns), Us(r.write_p50_ns),
                Us(r.write_p99_ns), std::to_string(r.conflicts),
                std::to_string(r.steals), std::to_string(r.timeouts)},
               13);
    }
  }
  std::printf(
      "\nexpectation: optimistic wins reads outright (no lock traffic);\n"
      "cas_spinlock serializes writers at the cost of lock round trips;\n"
      "lease_rw admits readers with one FETCH_ADD pair and keeps writer\n"
      "p99 bounded under contention. Validation is on in every scheme, so\n"
      "none of them can hand a torn read to the application.\n");

  // --- JSON artifact (schema: EXPERIMENTS.md, "Synchronization"). --------
  {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"sync\",\n";
    out << "  \"config\": {\"payload\": " << kPayload
        << ", \"batch\": " << kBatch << ", \"batch_samples\": " << batch_samples
        << ", \"iters\": " << iters << ", \"readers\": " << readers
        << ", \"writers\": " << writers << ", \"objects\": " << objects
        << ", \"hot\": " << hot << "},\n";
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"batching\": {\"batched_p50_ns\": %llu, "
                  "\"unbatched_p50_ns\": %llu, \"batch_speedup\": %.3f, "
                  "\"chains\": %llu, \"chained_wrs\": %llu},\n",
                  static_cast<unsigned long long>(b.batched_p50_ns),
                  static_cast<unsigned long long>(b.unbatched_p50_ns),
                  b.speedup, static_cast<unsigned long long>(b.batches),
                  static_cast<unsigned long long>(b.batched_wrs));
    out << buf;
    out << "  \"schemes\": {\n";
    for (int k = 0; k < sync::kNumSchemeKinds; ++k) {
      out << "    \"" << sync::SchemeName(static_cast<sync::SchemeKind>(k))
          << "\": {";
      for (int l = 0; l < 2; ++l) {
        const SchemeResult& r = results[k][l];
        std::snprintf(
            buf, sizeof(buf),
            "%s\"%s\": {\"read_p50_ns\": %llu, \"read_p99_ns\": %llu, "
            "\"write_p50_ns\": %llu, \"write_p99_ns\": %llu, "
            "\"read_failures\": %llu, \"write_failures\": %llu, "
            "\"acquires\": %llu, \"conflicts\": %llu, \"steals\": %llu, "
            "\"timeouts\": %llu, \"fences\": %llu}",
            l ? ",\n      " : "", levels[l].name,
            static_cast<unsigned long long>(r.read_p50_ns),
            static_cast<unsigned long long>(r.read_p99_ns),
            static_cast<unsigned long long>(r.write_p50_ns),
            static_cast<unsigned long long>(r.write_p99_ns),
            static_cast<unsigned long long>(r.read_failures),
            static_cast<unsigned long long>(r.write_failures),
            static_cast<unsigned long long>(r.acquires),
            static_cast<unsigned long long>(r.conflicts),
            static_cast<unsigned long long>(r.steals),
            static_cast<unsigned long long>(r.timeouts),
            static_cast<unsigned long long>(r.fences));
        out << buf;
      }
      out << "}" << (k + 1 < sync::kNumSchemeKinds ? "," : "") << "\n";
    }
    out << "  },\n";
    out << "  \"gate\": {\"min_batch_speedup\": 1.5}\n}\n";
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  int rc = 0;

  // Self-enforcing acceptance gate: chaining 8 reads behind one doorbell
  // must beat 8 round trips by at least 1.5x.
  if (b.speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: batch of %zu reads only %.2fx faster than unbatched "
                 "(gate: >= 1.50x)\n",
                 kBatch, b.speedup);
    rc = 1;
  }

  // Floor check (CI sync-matrix): the measured speedup must also meet the
  // checked-in floor, which may be tightened beyond the hard 1.5x gate.
  if (!floor_path.empty()) {
    const int check =
        CheckFloor(floor_path, {{"batch_speedup", b.speedup}}, 1.0);
    if (check == 2) return 2;
    if (check != 0) rc = 1;
  }
  if (rc == 0) std::printf("gate: OK\n");
  return rc;
}
