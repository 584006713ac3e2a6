// Doorbell-batching A/B (DESIGN.md §12).
//
// A batch of 8 one-sided object reads posted as one WR chain (one doorbell +
// one completion, Context::DirectReadBatch) against the same 8 objects read
// by 8 sequential DirectReads on the same context (8 full round trips).
// Modeled nanoseconds, deterministic after an MTT warm-up; the gate is
// self-enforcing: batched p50 must beat unbatched by >= 1.5x or the bench
// exits non-zero.
//
// Output: a table on stdout plus BENCH_sync.json (schema in EXPERIMENTS.md,
// "Doorbell batching" section). --check=<floor.json> additionally compares
// the measured speedup against a checked-in floor (the CI perf-smoke gate).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/histogram.h"
#include "core/client.h"
#include "core/corm_node.h"

using namespace corm;
using namespace corm::bench;
using core::Context;
using core::CormConfig;
using core::CormNode;

namespace {

constexpr uint32_t kPayload = 64;
constexpr size_t kBatch = 8;

struct BatchResult {
  uint64_t batched_p50_ns = 0;
  uint64_t unbatched_p50_ns = 0;
  double speedup = 0.0;
  uint64_t batches = 0;      // chained posts issued by the batched arm
  uint64_t batched_wrs = 0;  // WRs carried by those chains
};

BatchResult RunBatchAb(size_t samples) {
  CormConfig cfg;
  cfg.num_workers = 1;
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

  BatchResult r;
  const Histogram batched =
      SampleLatency(ctx.get(), static_cast<int>(samples), [&](int) {
        CORM_CHECK(ctx->DirectReadBatch(addrs->data(), kBatch, bufs.data(),
                                        kPayload, statuses.data())
                       .ok());
      });
  r.batches = node.stats().doorbell_batches;
  r.batched_wrs = node.stats().doorbell_batched_wrs;

  // last_op_ns covers one DirectRead only: time the 8 as one sample.
  Histogram unbatched;
  for (size_t s = 0; s < samples; ++s) {
    const uint64_t start = ctx->stats().modeled_ns_total;
    for (size_t i = 0; i < kBatch; ++i) {
      CORM_CHECK(ctx->DirectRead((*addrs)[i], bufs.data() + i * kPayload,
                                 kPayload)
                     .ok());
    }
    unbatched.Record(ctx->stats().modeled_ns_total - start);
  }

  r.batched_p50_ns = batched.Percentile(0.5);
  r.unbatched_p50_ns = unbatched.Percentile(0.5);
  r.speedup = r.batched_p50_ns == 0
                  ? 0.0
                  : static_cast<double>(r.unbatched_p50_ns) /
                        static_cast<double>(r.batched_p50_ns);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  sim::SetSimTimeScale(0.0);

  const size_t batch_samples = FlagU64(argc, argv, "batch_samples", 2000);
  const std::string json_path = FlagStr(argc, argv, "json", "BENCH_sync.json");
  const std::string floor_path = FlagStr(argc, argv, "check", "");

  PrintTitle("Doorbell batching: batch of 8 one-sided reads (modeled ns)");
  const BatchResult b = RunBatchAb(batch_samples);
  PrintRow({"mode", "p50_us", "chains", "wrs"}, 16);
  PrintRow({"batched", Us(b.batched_p50_ns), std::to_string(b.batches),
            std::to_string(b.batched_wrs)},
           16);
  PrintRow({"unbatched", Us(b.unbatched_p50_ns), "0", "0"}, 16);
  std::printf("speedup=%.2fx (gate: >= 1.50x)\n", b.speedup);

  // --- JSON artifact (schema: EXPERIMENTS.md, "Doorbell batching"). ------
  {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"sync\",\n";
    out << "  \"config\": {\"payload\": " << kPayload
        << ", \"batch\": " << kBatch << ", \"batch_samples\": " << batch_samples
        << "},\n";
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

  // Floor check: the measured speedup must also meet the checked-in floor,
  // which may be tightened beyond the hard 1.5x gate.
  if (!floor_path.empty()) {
    const int check =
        CheckFloor(floor_path, {{"batch_speedup", b.speedup}}, 1.0);
    if (check == 2) return 2;
    if (check != 0) rc = 1;
  }
  if (rc == 0) std::printf("gate: OK\n");
  return rc;
}
