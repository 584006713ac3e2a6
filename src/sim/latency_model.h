// Latency model for the simulated RDMA fabric and host operations.
//
// All constants are calibrated to the measurements the paper itself reports
// (Figures 8, 9, 15 and §4.1 prose) so that reproduced benches land near
// the published absolute numbers and, more importantly, preserve their
// relative shape. See DESIGN.md §2 for the substitution rationale.

#ifndef CORM_SIM_LATENCY_MODEL_H_
#define CORM_SIM_LATENCY_MODEL_H_

#include <atomic>
#include <cstdint>

namespace corm::sim {

// Modeled RNIC generation (paper evaluates ConnectX-3 and ConnectX-5).
enum class RnicModel { kConnectX3, kConnectX5 };

// Strategy for restoring RDMA access after a page remap (paper §3.5).
enum class RemapStrategy {
  kReregMr,      // ibv_rereg_mr: keys preserved, concurrent access breaks QP
  kOdp,          // on-demand paging: first access takes an MTT fault
  kOdpPrefetch,  // ODP + ibv_advise_mr prefetch after remap (CoRM default)
};

// Modeled host CPU for inter-thread messaging costs (paper Fig. 15 left).
enum class CpuModel { kIntelXeon, kAmdEpyc };

// Pure function of configuration: returns modeled durations in nanoseconds.
struct LatencyModel {
  RnicModel rnic = RnicModel::kConnectX5;
  CpuModel cpu = CpuModel::kIntelXeon;

  // --- Host memory-management primitives (Fig. 8). ---
  uint64_t MmapNs() const { return 2100; }
  uint64_t ReregMrNs() const {
    // Fig. 15: ~70 us on ConnectX-3; Fig. 8: 8.5-9.6 us on ConnectX-5.
    return rnic == RnicModel::kConnectX3 ? 70000 : 9000;
  }
  uint64_t OdpMissNs() const { return 63000; }    // first post-remap read
  uint64_t AdviseMrNs() const { return 4550; }    // MTT prefetch

  // --- RNIC translation cache (paper §4.2.2: "RNICs have limited cache
  // for address translation entries, and once the cache is full the MTT
  // will swap and incur in more misses"). ---
  size_t MttCacheEntries() const {
    return rnic == RnicModel::kConnectX3 ? 64 * 1024 : 128 * 1024;
  }
  // Penalty of a translation-cache miss (PCIe fetch of the MTT entry).
  uint64_t MttCacheMissNs() const { return 420; }
  // Base per-message service time of the inbound one-sided read engine;
  // 1e9 / (this + avg miss penalty) is the aggregate read IOPS ceiling.
  uint64_t RnicReadServiceNs() const { return 360; }

  // --- Network round trips (Fig. 9, §4.1 prose). ---
  // The round-trip constants decompose into the verbs cost structure the
  // SIGMOD'23 one-sided-synchronization guidelines use: a doorbell (MMIO
  // write posting the work request), the wire/NIC round trip, and the
  // completion (CQE write + poll). The compositions below reproduce the
  // calibrated 1.7 us one-sided / 2.6 us two-sided totals exactly; the
  // split is what lets a chained post with selective signaling amortize
  // the doorbell + completion across a whole batch (DESIGN.md §12).
  uint64_t DoorbellNs() const { return 600; }    // WR post + MMIO doorbell
  uint64_t CompletionNs() const { return 300; }  // CQE write + poll
  // Wire + NIC processing for `bytes` of payload: FDR-like ~6.8 GB/s.
  uint64_t RdmaWireNs(uint64_t bytes) const { return 800 + bytes * 147 / 1000; }
  // One-sided RDMA read round trip for `bytes` of payload (1.7 us base).
  uint64_t RdmaReadNs(uint64_t bytes) const {
    return DoorbellNs() + RdmaWireNs(bytes) + CompletionNs();
  }
  // Chained post of `wrs` work requests carrying `total_bytes` overall with
  // selective signaling: one doorbell rings the whole chain and only the
  // last WR generates a completion, so the per-verb overhead is paid once
  // while every WR still pays its wire leg.
  uint64_t RdmaBatchNs(uint64_t wrs, uint64_t total_bytes) const {
    return DoorbellNs() + wrs * RdmaWireNs(0) + total_bytes * 147 / 1000 +
           CompletionNs();
  }
  // Send/Recv RPC round trip carrying `bytes` of payload (the larger
  // direction). Two-sided adds ~0.9 us: the responder's own doorbell +
  // completion on the reply leg (the same calibrated constants as above —
  // no more magic 2600 composite).
  uint64_t RpcNs(uint64_t bytes) const {
    return RdmaReadNs(bytes) + DoorbellNs() + CompletionNs();
  }
  // TCP/IP over IPoIB on the same link (paper: 17 us) — reference only.
  uint64_t TcpNs(uint64_t bytes) const { return 17000 + bytes * 400 / 1000; }

  // Duration a writer holds an object's lock while updating payload +
  // version bytes (the window a concurrent DirectRead can observe as
  // locked/torn, Fig. 13).
  uint64_t WriteLockHoldNs(uint64_t bytes) const {
    return 250 + bytes * 147 / 1000;
  }

  // --- CoRM operation extras on top of the RPC base (§4.1). ---
  uint64_t AllocExtraNs() const { return 500; }
  uint64_t FreeExtraNs() const { return 500; }
  // Thread-local allocator missing a block: allocate + register one.
  uint64_t BlockAllocExtraNs() const { return 5000; }

  // --- Compaction protocol (Fig. 15). ---
  // Block-collection broadcast + replies across `nthreads` worker threads.
  uint64_t CollectionNs(int nthreads) const {
    const uint64_t base = cpu == CpuModel::kIntelXeon ? 7000 : 500;
    return base + static_cast<uint64_t>(nthreads) * 1500;
  }

  // Cost of remapping one block of `npages` pages for a given strategy,
  // including the data copy the caller performed (copy modeled separately).
  uint64_t RemapBlockNs(RemapStrategy strategy, uint64_t npages) const {
    switch (strategy) {
      case RemapStrategy::kReregMr:
        return npages * MmapNs() + ReregMrNs() * npages;
      case RemapStrategy::kOdp:
        return npages * MmapNs();  // fault cost paid by the first reader
      case RemapStrategy::kOdpPrefetch:
        return npages * (MmapNs() + AdviseMrNs());
    }
    return 0;
  }
};

// ---------------------------------------------------------------------------
// Pacing: benches convert modeled nanoseconds into real elapsed time with a
// configurable scale so that throughput numbers emerge from real concurrent
// execution. Scale 1.0 reproduces paper-like absolute values; tests use 0.
// ---------------------------------------------------------------------------

// Process-wide time scale (multiplied into every Pace call).
std::atomic<double>& SimTimeScale();

// Sets the scale; returns the previous value.
double SetSimTimeScale(double scale);

// Busy-waits for `ns * SimTimeScale()` wall-clock nanoseconds.
void Pace(uint64_t ns);

}  // namespace corm::sim

#endif  // CORM_SIM_LATENCY_MODEL_H_
