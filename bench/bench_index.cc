// Keyed-index bench (DESIGN.md §13): one-sided hit rate and keyed-read
// latency against the raw-pointer baseline, steady state and under
// compaction churn.
//
// Phase 1 — load: the working set goes in through the keyed Put path; the
// returned GlobalAddrs double as the raw-pointer comparison set.
//
// Phase 2 — steady state: a fresh client resolves every key with one-sided
// bucket probes (tier-2), then serves a uniform read pass off its hint
// cache (tier-1). Both tiers avoid the RPC ring, so the steady-state
// one-sided hit rate must be >= 90% and the warm keyed read p50 must stay
// within 1.5x of a plain DirectRead on the same objects — both gates are
// self-enforcing (non-zero exit on violation, the CI index job runs this).
//
// Phase 3 — churn: half the keys are deleted, the size class is compacted
// (driving the IndexRepair sub-phase), and the survivors are re-read
// through the now-stale hint cache. Moved objects cost a stale-hint
// fallback to a fresh probe; the bucket entries themselves must have been
// repaired eagerly during compaction, so the post-churn RPC fallback count
// stays near zero. Reported, not gated: churn cost depends on how many
// blocks the pairing pass actually moved.
//
// Output: paper-style tables on stdout plus BENCH_index.json (schema in
// EXPERIMENTS.md, "Keyed index" section).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/histogram.h"
#include "common/random.h"
#include "core/client.h"
#include "core/corm_node.h"
#include "core/object_layout.h"

using namespace corm;
using namespace corm::bench;
using core::Context;
using core::CormConfig;
using core::CormNode;
using core::GlobalAddr;

namespace {

constexpr uint32_t kPayload = 64;
constexpr double kMinHitRate = 0.9;
constexpr double kMaxKeyedDirectRatio = 1.5;

}  // namespace

int main(int argc, char** argv) {
  sim::SetSimTimeScale(0.0);

  const uint64_t keys = FlagU64(argc, argv, "keys", 512);
  const int samples = static_cast<int>(FlagU64(argc, argv, "samples", 2000));
  const std::string json_path =
      FlagStr(argc, argv, "json", "BENCH_index.json");

  CormConfig cfg;
  cfg.num_workers = 2;
  CormNode node(cfg);

  // --- Load through the keyed API. ----------------------------------------
  auto writer = Context::Create(&node);
  std::vector<GlobalAddr> addrs(keys);
  std::vector<uint8_t> buf(kPayload), out(kPayload);
  for (uint64_t k = 0; k < keys; ++k) {
    core::PatternFill(k, buf.data(), buf.size());
    auto a = writer->Put(k, buf.data(), buf.size());
    CORM_CHECK(a.ok()) << a.status().ToString();
    addrs[k] = *a;
  }

  // --- Steady state: cold resolve, then warm uniform reads. ---------------
  auto reader = Context::Create(&node);
  Rng rng(42);
  Histogram cold =
      SampleLatency(reader.get(), static_cast<int>(keys), [&](int i) {
        CORM_CHECK(reader
                       ->Get(static_cast<uint64_t>(i), out.data(),
                             out.size())
                       .ok());
      });
  Histogram warm = SampleLatency(reader.get(), samples, [&](int) {
    CORM_CHECK(reader->Get(rng.Uniform(keys), out.data(), out.size()).ok());
  });
  const core::ClientStats steady = reader->stats();
  const double hit_rate =
      steady.index_lookups == 0
          ? 0.0
          : static_cast<double>(steady.index_one_sided_hits) /
                static_cast<double>(steady.index_lookups);

  // Raw-pointer baseline on the same objects, same (MTT-warm) client.
  Histogram direct = SampleLatency(reader.get(), samples, [&](int) {
    CORM_CHECK(
        reader->DirectRead(addrs[rng.Uniform(keys)], out.data(), out.size())
            .ok());
  });
  const double ratio =
      direct.Percentile(0.5) == 0
          ? 0.0
          : static_cast<double>(warm.Percentile(0.5)) /
                static_cast<double>(direct.Percentile(0.5));

  PrintTitle("Keyed index: steady state (modeled ns)");
  PrintRow({"path", "p50_us", "p99_us"}, 16);
  PrintRow({"keyed_cold", Us(cold.Percentile(0.5)), Us(cold.Percentile(0.99))},
           16);
  PrintRow({"keyed_warm", Us(warm.Percentile(0.5)), Us(warm.Percentile(0.99))},
           16);
  PrintRow({"direct_read", Us(direct.Percentile(0.5)),
            Us(direct.Percentile(0.99))},
           16);
  std::printf(
      "lookups=%llu one_sided_hits=%llu rpc_fallbacks=%llu "
      "hit_rate=%.3f (gate: >= %.2f) keyed/direct p50 ratio=%.2fx "
      "(gate: <= %.2fx)\n",
      static_cast<unsigned long long>(steady.index_lookups),
      static_cast<unsigned long long>(steady.index_one_sided_hits),
      static_cast<unsigned long long>(steady.index_rpc_fallbacks),
      hit_rate, kMinHitRate, ratio, kMaxKeyedDirectRatio);

  // --- Churn: delete half, compact, re-read survivors. --------------------
  for (uint64_t k = 0; k < keys; k += 2) {
    CORM_CHECK(writer->Del(k).ok());
  }
  auto cls = node.ClassForPayload(kPayload);
  CORM_CHECK(cls.ok());
  CORM_CHECK(node.Compact(*cls).ok());

  const uint64_t lk_before = reader->stats().index_lookups;
  const uint64_t hit_before = reader->stats().index_one_sided_hits;
  const uint64_t fb_before = reader->stats().index_rpc_fallbacks;
  Histogram churned = SampleLatency(reader.get(), samples, [&](int) {
    const uint64_t k = rng.Uniform(keys) | 1;  // survivors are the odd keys
    CORM_CHECK(reader->Get(k, out.data(), out.size()).ok());
  });
  const core::ClientStats after = reader->stats();
  const uint64_t churn_lookups = after.index_lookups - lk_before;
  const uint64_t churn_hits = after.index_one_sided_hits - hit_before;
  const uint64_t churn_fallbacks = after.index_rpc_fallbacks - fb_before;
  const double churn_hit_rate =
      churn_lookups == 0
          ? 0.0
          : static_cast<double>(churn_hits) /
                static_cast<double>(churn_lookups);
  const core::NodeStats ns = node.stats();

  PrintTitle("Keyed index: after delete-half + compaction");
  PrintRow({"path", "p50_us", "p99_us"}, 16);
  PrintRow({"keyed_churned", Us(churned.Percentile(0.5)),
            Us(churned.Percentile(0.99))},
           16);
  std::printf(
      "repairs=%llu fenced=%llu churn_hit_rate=%.3f churn_rpc_fallbacks=%llu\n",
      static_cast<unsigned long long>(ns.index_repairs),
      static_cast<unsigned long long>(ns.index_fenced_entries),
      churn_hit_rate, static_cast<unsigned long long>(churn_fallbacks));

  // --- JSON artifact (schema: EXPERIMENTS.md, "Keyed index"). -------------
  {
    std::ofstream jout(json_path);
    jout << "{\n  \"bench\": \"index\",\n";
    jout << "  \"config\": {\"payload\": " << kPayload << ", \"keys\": " << keys
         << ", \"samples\": " << samples << "},\n";
    char line[640];
    std::snprintf(
        line, sizeof(line),
        "  \"steady\": {\"cold_p50_ns\": %llu, \"warm_p50_ns\": %llu, "
        "\"direct_p50_ns\": %llu, \"keyed_direct_ratio\": %.3f, "
        "\"lookups\": %llu, \"one_sided_hits\": %llu, "
        "\"rpc_fallbacks\": %llu, \"hit_rate\": %.4f},\n",
        static_cast<unsigned long long>(cold.Percentile(0.5)),
        static_cast<unsigned long long>(warm.Percentile(0.5)),
        static_cast<unsigned long long>(direct.Percentile(0.5)), ratio,
        static_cast<unsigned long long>(steady.index_lookups),
        static_cast<unsigned long long>(steady.index_one_sided_hits),
        static_cast<unsigned long long>(steady.index_rpc_fallbacks),
        hit_rate);
    jout << line;
    std::snprintf(
        line, sizeof(line),
        "  \"churn\": {\"churned_p50_ns\": %llu, \"repairs\": %llu, "
        "\"fenced_entries\": %llu, \"hit_rate\": %.4f, "
        "\"rpc_fallbacks\": %llu},\n",
        static_cast<unsigned long long>(churned.Percentile(0.5)),
        static_cast<unsigned long long>(ns.index_repairs),
        static_cast<unsigned long long>(ns.index_fenced_entries),
        churn_hit_rate, static_cast<unsigned long long>(churn_fallbacks));
    jout << line;
    std::snprintf(line, sizeof(line),
                  "  \"gate\": {\"min_hit_rate\": %.2f, "
                  "\"max_keyed_direct_ratio\": %.2f}\n}\n",
                  kMinHitRate, kMaxKeyedDirectRatio);
    jout << line;
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  // --- Self-enforcing acceptance gates. -----------------------------------
  int rc = 0;
  if (hit_rate < kMinHitRate) {
    std::fprintf(stderr,
                 "FAIL: steady-state one-sided hit rate %.3f below the "
                 "%.2f gate\n",
                 hit_rate, kMinHitRate);
    rc = 1;
  }
  if (ratio > kMaxKeyedDirectRatio) {
    std::fprintf(stderr,
                 "FAIL: warm keyed read p50 is %.2fx a direct read "
                 "(gate: <= %.2fx)\n",
                 ratio, kMaxKeyedDirectRatio);
    rc = 1;
  }
  if (rc == 0) std::printf("gate: OK\n");
  return rc;
}
