// Shared helpers for the figure/table reproduction benches.
//
// Latency figures come from the modeled-nanosecond accounting the client
// library keeps (ClientStats::last_op_ns): each op's network legs, RNIC
// faults and charged server time. Throughput figures are derived with the
// bottleneck model in ThroughputModel below — see EXPERIMENTS.md for why
// wall-clock parallelism is not used (single-CPU host; pacing documented in
// DESIGN.md §2).

#ifndef CORM_BENCH_BENCH_COMMON_H_
#define CORM_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "core/client.h"
#include "core/corm_node.h"

namespace corm::bench {

// ---------------------------------------------------------------------------
// Output formatting: every bench prints paper-style series tables.
// ---------------------------------------------------------------------------

inline void PrintTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRow(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& cell : cells) std::printf("%-*s", width, cell.c_str());
  std::printf("\n");
}

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

inline std::string Us(uint64_t ns) { return Fmt("%.2f", ns / 1000.0); }
inline std::string Kreq(double per_sec) { return Fmt("%.0f", per_sec / 1e3); }
inline std::string Gib(uint64_t bytes) {
  return Fmt("%.3f", static_cast<double>(bytes) / (1024.0 * 1024 * 1024));
}

// Simple --key=value flag lookup: the value of the first --name=, or null.
inline const char* FlagValue(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return nullptr;
}

inline uint64_t FlagU64(int argc, char** argv, const char* name,
                        uint64_t def) {
  const char* v = FlagValue(argc, argv, name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : def;
}

inline std::string FlagStr(int argc, char** argv, const char* name,
                           const std::string& def) {
  const char* v = FlagValue(argc, argv, name);
  return v != nullptr ? std::string(v) : def;
}

// ---------------------------------------------------------------------------
// Floor checks: --check=<floor.json> compares measured values against a
// checked-in flat JSON floor file (the CI perf gates).
// ---------------------------------------------------------------------------

// Numeric field `key` of a flat JSON object; false when the key is absent.
inline bool JsonNumber(const std::string& text, const std::string& key,
                       double* out) {
  const std::string needle = "\"" + key + "\"";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  const size_t colon = text.find(':', at + needle.size());
  if (colon == std::string::npos) return false;
  *out = std::strtod(text.c_str() + colon + 1, nullptr);
  return true;
}

// One gated value: it passes when `measured` is at least `fraction` times
// the floor file's value for `key`.
struct FloorGate {
  const char* key;
  double measured;
};

// Checks every gate against the floor text and reports each on stdout or
// stderr. Returns 0 when all pass, 1 when a value is below its line, and 2
// when the text lacks a key (which wins over a low value).
inline int CheckFloorText(const std::string& floor_text,
                          const std::vector<FloorGate>& gates,
                          double fraction) {
  int rc = 0;
  for (const FloorGate& g : gates) {
    double floor = 0;
    if (!JsonNumber(floor_text, g.key, &floor)) {
      std::fprintf(stderr, "check: floor file lacks \"%s\"\n", g.key);
      rc = 2;
      continue;
    }
    const double min_ok = fraction * floor;
    if (g.measured < min_ok) {
      std::fprintf(stderr,
                   "check: %s = %.2f is below %.0f%% of the floor %.2f\n",
                   g.key, g.measured, fraction * 100, floor);
      if (rc == 0) rc = 1;
    } else {
      std::printf("check: %s = %.2f >= %.2f (%.0f%% of floor %.2f)\n",
                  g.key, g.measured, min_ok, fraction * 100, floor);
    }
  }
  return rc;
}

// CheckFloorText over the file at `path`; 2 when it cannot be read.
inline int CheckFloor(const std::string& path,
                      const std::vector<FloorGate>& gates, double fraction) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "check: cannot read floor file %s\n", path.c_str());
    return 2;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return CheckFloorText(ss.str(), gates, fraction);
}

// ---------------------------------------------------------------------------
// Modeled-latency sampling.
// ---------------------------------------------------------------------------

// Runs `op` n times, recording the client's modeled per-op nanoseconds.
template <typename Fn>
Histogram SampleLatency(core::Context* ctx, int n, Fn&& op) {
  Histogram hist;
  for (int i = 0; i < n; ++i) {
    op(i);
    hist.Record(ctx->stats().last_op_ns);
  }
  return hist;
}

// ---------------------------------------------------------------------------
// Throughput bottleneck model (see EXPERIMENTS.md).
//
// Each closed-loop client with one outstanding request issues ops at
// 1/avg_rtt. Aggregate throughput is additionally capped by the server
// NIC: two-sided messages (RPC) drain at nic_msg_rate (two messages per
// RPC), and the one-sided read engine serves a read every
// (RnicReadServiceNs + avg MTT-miss penalty) nanoseconds.
// ---------------------------------------------------------------------------

struct ThroughputModel {
  double avg_op_ns = 0;        // modeled client round trip
  double rpc_fraction = 0;     // fraction of ops using the RPC path
  double rdma_fraction = 0;    // fraction of ops using one-sided reads
  double mtt_miss_rate = 0;    // misses per one-sided read
  const core::CormNode* node = nullptr;

  double OpsPerSec(int clients) const {
    const double client_bound =
        clients * (1e9 / std::max(avg_op_ns, 1.0));
    // Server NIC capacity is shared between the two engines: an RPC costs
    // two two-sided messages, a one-sided read costs one read-engine slot
    // whose service time grows with translation-cache misses.
    double server_ns_per_op = 0;
    if (rpc_fraction > 0 && node->config().nic_msg_rate > 0) {
      server_ns_per_op += rpc_fraction * 2.0 * 1e9 /
                          static_cast<double>(node->config().nic_msg_rate);
    }
    if (rdma_fraction > 0) {
      const auto model = node->latency_model();
      const double service =
          static_cast<double>(model.RnicReadServiceNs()) +
          mtt_miss_rate * static_cast<double>(model.MttCacheMissNs());
      server_ns_per_op += rdma_fraction * service;
    }
    const double server_bound =
        server_ns_per_op > 0 ? 1e9 / server_ns_per_op : client_bound;
    return std::min(client_bound, server_bound);
  }
};

// MTT miss rate observed over a sampling window.
class MttMissProbe {
 public:
  explicit MttMissProbe(const rdma::Rnic* rnic) : rnic_(rnic) { Reset(); }

  void Reset() {
    hits_ = rnic_->stats().mtt_cache_hits.load();
    misses_ = rnic_->stats().mtt_cache_misses.load();
  }

  double MissRate() const {
    const uint64_t h = rnic_->stats().mtt_cache_hits.load() - hits_;
    const uint64_t m = rnic_->stats().mtt_cache_misses.load() - misses_;
    return h + m == 0 ? 0.0 : static_cast<double>(m) / (h + m);
  }

 private:
  const rdma::Rnic* rnic_;
  uint64_t hits_ = 0, misses_ = 0;
};

}  // namespace corm::bench

#endif  // CORM_BENCH_BENCH_COMMON_H_
