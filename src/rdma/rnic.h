// Simulated RDMA NIC (RNIC).
//
// The RNIC keeps its own Memory Translation Table (MTT): a *snapshot* of the
// OS page-table entries taken when a memory region is registered
// (paper §2.2.1, Fig. 2). Because it is a snapshot, remapping a page in the
// AddressSpace does NOT update the RNIC unless one of the paper's three
// repair strategies runs (§3.5):
//
//   1. ibv_rereg_mr  -> Rnic::ReregMr (keys preserved; QPs touching the
//      region while re-registration is in flight break, per the IB spec);
//   2. ODP           -> regions registered with odp=true subscribe to the
//      AddressSpace MmuNotifier; a remap invalidates the affected MTT
//      entries and the next RDMA access pays a ~63 us fault to re-resolve;
//   3. ODP+prefetch  -> Rnic::AdviseMr eagerly re-resolves invalid entries.
//
// MTT entries hold references on their physical frames, modeling the page
// pinning performed by real RDMA registration: a stale entry reads stale
// (but live) data, never freed memory.
//
// Locking: a verb resolves its r_key through the MPT without a lock (the
// real NIC does this lookup in hardware) and then takes only the region's
// entries_mu_, under which it re-checks the key, bounds-checks, and copies
// through the entries' pinned frame pointers. Registration, deregistration,
// repair and MMU-notifier invalidation serialize on mu_, taken before any
// entries_mu_.

#ifndef CORM_RDMA_RNIC_H_
#define CORM_RDMA_RNIC_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/sharded_counters.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "sim/address_space.h"
#include "sim/latency_model.h"
#include "sim/physical_memory.h"

namespace corm::rdma {

using RKey = uint32_t;
using LKey = uint32_t;

// Keys returned by memory registration.
struct MrKeys {
  LKey l_key = 0;
  RKey r_key = 0;
};

// One slot of the RNIC's memory protection table (MPT) and the registered
// memory region occupying it, with the region's MTT entries. Slots are
// allocated once and recycled by later registrations, never freed before
// the RNIC, so a verb may lock a slot it found through a stale key: the
// key re-check under entries_mu_ then rejects it.
class MemoryRegion {
 private:
  friend class Rnic;

  // An entry pins its frame and keeps the frame's bytes beside it, so the
  // data path never asks PhysicalMemory for them. data == nullptr => ODP
  // fault required (or never resolved).
  struct MttEntry {
    sim::FrameId frame = sim::kInvalidFrame;
    uint8_t* data = nullptr;
  };

  bool CoversLocked(sim::VAddr addr, size_t len) const
      REQUIRES(entries_mu_) {
    return addr >= base_ && addr + len <= base_ + npages_ * sim::kVPageSize;
  }

  mutable Mutex entries_mu_;
  // The live key naming this slot (0 while the slot is free), and the
  // registration it names. Written by (de)registration under both the
  // RNIC's mu_ and entries_mu_.
  RKey r_key_ GUARDED_BY(entries_mu_) = 0;
  uint8_t tag_ GUARDED_BY(entries_mu_) = 0;  // last key tag issued
  sim::VAddr base_ GUARDED_BY(entries_mu_) = 0;
  size_t npages_ GUARDED_BY(entries_mu_) = 0;
  bool odp_ GUARDED_BY(entries_mu_) = false;
  std::vector<MttEntry> entries_ GUARDED_BY(entries_mu_);
  // Set while ibv_rereg_mr is in flight; accesses then break the QP.
  std::atomic<bool> reregistering_{false};
};

// Counters for observing RNIC behaviour in tests and benches. The per-verb
// counters are striped (sharded_counters.h), so concurrent verbs never
// write a shared cacheline; read them with load() like the atomics.
struct RnicStats {
  StripedCounter reads;
  StripedCounter writes;
  std::atomic<uint64_t> odp_faults{0};
  std::atomic<uint64_t> prefetches{0};
  std::atomic<uint64_t> reregs{0};
  std::atomic<uint64_t> qp_breaks{0};
  StripedCounter mtt_cache_hits;
  StripedCounter mtt_cache_misses;
  std::atomic<uint64_t> repair_batches{0};  // batched MTT repair epochs
};

// One registered range inside a batched repair call.
struct MrRange {
  RKey r_key = 0;
  sim::VAddr addr = 0;
  size_t len = 0;
};

class Rnic : public sim::MmuNotifier {
 public:
  // `model` selects the latency constants (ConnectX-3 vs -5).
  Rnic(sim::AddressSpace* address_space, sim::LatencyModel model);
  ~Rnic() override;

  Rnic(const Rnic&) = delete;
  Rnic& operator=(const Rnic&) = delete;

  // --- Registration (ibv_reg_mr). -------------------------------------
  // Registers [base, base + npages * page) and snapshots translations into
  // the MTT. With odp=true the entries start valid but become invalid on
  // remap (they re-resolve lazily); with odp=false they are immutable until
  // ReregMr.
  Result<MrKeys> RegisterMemory(sim::VAddr base, size_t npages, bool odp);

  // Deregisters and drops MTT frame references.
  Status DeregisterMemory(RKey r_key);

  // --- The three §3.5 repair strategies. --------------------------------
  // ibv_rereg_mr: refreshes all MTT entries from the page table, preserving
  // keys. Models the dangerous window: while in flight, RDMA access to the
  // region breaks the QP. Returns the modeled duration (ns).
  Result<uint64_t> ReregMr(RKey r_key);

  // ibv_advise_mr(PREFETCH): re-resolves invalid ODP entries in the given
  // range. Returns modeled ns.
  Result<uint64_t> AdviseMr(RKey r_key, sim::VAddr addr, size_t len);

  // --- Batched repair (one MTT repair epoch per compaction slice). ------
  // Repairs every listed region in one pass: one registration-table lock
  // acquisition resolves all keys up front, then the per-region repair runs
  // back-to-back. Semantically identical to calling ReregMr / AdviseMr per
  // entry (same per-range modeled cost, charged by the caller); batching
  // removes the per-call table walk so a block and its chained ghost
  // aliases repair as a single epoch. Counted in RnicStats::repair_batches.
  Status ReregMrBatch(const std::vector<RKey>& keys);
  Status AdviseMrBatch(const std::vector<MrRange>& ranges);

  // --- Data path used by QueuePair::ExecuteWr. -------------------------
  // Reads/writes `len` bytes at `addr` through the MTT. Returns modeled ns
  // spent in MTT faults (0 when all entries were valid). `broke_qp` is set
  // when the access hit a region under re-registration.
  Result<uint64_t> MttAccess(RKey r_key, sim::VAddr addr, void* buf,
                             size_t len, bool is_write, bool* broke_qp);

  // MmuNotifier: the OS remapped `page`; invalidate ODP entries.
  void OnMappingChange(sim::VAddr page) override;

  // Testing hooks: splits ReregMr into an explicit window so races can be
  // injected deterministically.
  Status BeginRereg(RKey r_key);
  Status EndRereg(RKey r_key);

  const sim::LatencyModel& model() const { return model_; }
  const RnicStats& stats() const { return stats_; }
  sim::AddressSpace* address_space() const { return space_; }

  // Resets the MTT translation cache (benches isolate configurations).
  void ResetMttCache();

 private:
  // r_key layout: MPT slot index in the upper 24 bits, the slot's tag in
  // the low 8. Tags run 1..255, so no key is 0; a slot whose tag reached
  // 255 is retired rather than recycled, so no key is ever issued twice.
  static constexpr uint32_t kTagBits = 8;
  static constexpr uint32_t kMaxTag = (1u << kTagBits) - 1;
  static constexpr uint32_t kChunkShift = 10;  // 1Ki slots per MPT chunk
  static constexpr size_t kChunkSlots = size_t{1} << kChunkShift;
  static constexpr size_t kMaxChunks =
      (size_t{1} << (32 - kTagBits)) >> kChunkShift;

  // The MPT slot `r_key` indexes, or dead_slot_ if that chunk was never
  // allocated. Lock-free; the caller checks the key under entries_mu_.
  MemoryRegion* Slot(RKey r_key) {
    const uint32_t idx = r_key >> kTagBits;
    MemoryRegion* chunk =
        mpt_[idx >> kChunkShift].load(std::memory_order_acquire);
    return chunk == nullptr ? &dead_slot_ : &chunk[idx & (kChunkSlots - 1)];
  }

  // Whether `r_key` names the registration now occupying `mr`.
  static bool KeyLiveLocked(const MemoryRegion* mr, RKey r_key)
      REQUIRES(mr->entries_mu_) {
    return r_key != 0 && mr->r_key_ == r_key;
  }
  // KeyLiveLocked under a lock of its own; the batches check every key
  // before repairing any.
  bool KeyLive(RKey r_key) REQUIRES(mu_);

  // Why a verb on `mr` must break the QP (dead key, out of bounds, or
  // re-registration in flight), or null when it may proceed.
  static const char* RejectLocked(const MemoryRegion* mr, RKey r_key,
                                  sim::VAddr addr, size_t len)
      REQUIRES(mr->entries_mu_);

  // Counts a QP break and returns it as kQpBroken.
  Status BreakQp(bool* broke_qp, std::string why);

  // Makes entry `page_idx` of `mr` valid, paying an ODP fault when it is
  // not (non-ODP regions break the QP instead). Adds the modeled fault ns
  // to *fault_ns.
  Status FaultInLocked(MemoryRegion* mr, size_t page_idx, uint64_t* fault_ns,
                       bool* broke_qp) REQUIRES(mr->entries_mu_);

  // Resolves entry `page_idx` of `mr` from the OS page table, pinning the
  // frame and keeping its data pointer.
  Status ResolveEntryLocked(MemoryRegion* mr, size_t page_idx)
      REQUIRES(mr->entries_mu_);
  // Drops every pin `mr` holds.
  void UnpinAllLocked(MemoryRegion* mr) REQUIRES(mr->entries_mu_);

  // Repair building blocks for one region named by a live key, shared by
  // the single-region calls and the batches. Every key change holds mu_,
  // so a key these find live stays live until mu_ is released.
  Result<uint64_t> AdviseRegion(RKey r_key, sim::VAddr addr, size_t len)
      REQUIRES(mu_);
  Status BeginReregLocked(RKey r_key) REQUIRES(mu_);
  Status EndReregLocked(RKey r_key) REQUIRES(mu_);

  // Models the RNIC's bounded translation cache (§4.2.2): direct-mapped
  // over virtual pages. Returns the modeled miss penalty (0 on hit).
  uint64_t MttCacheAccess(sim::VAddr page);

  sim::AddressSpace* const space_;
  const sim::LatencyModel model_;

  // Control-plane lock (rank kSubstrate): registration, repair and
  // MMU-notifier invalidation. Never taken by a verb.
  Mutex mu_;
  // The MPT: kMaxChunks chunk pointers, each chunk allocated on first use
  // (under mu_) and published with a release store; freed by ~Rnic only.
  std::unique_ptr<std::atomic<MemoryRegion*>[]> mpt_;
  std::vector<std::unique_ptr<MemoryRegion[]>> chunks_ GUARDED_BY(mu_);
  std::vector<uint32_t> free_slots_ GUARDED_BY(mu_);  // recyclable indices
  uint32_t next_slot_ GUARDED_BY(mu_) = 0;             // never-used slots
  // Live regions ordered by base vaddr: O(log n) page->region lookup for
  // MMU-notifier invalidations (regions are disjoint).
  std::map<sim::VAddr, MemoryRegion*> by_base_ GUARDED_BY(mu_);
  // Stands in for the slots of unallocated chunks: never registered, so
  // every key check on it fails.
  MemoryRegion dead_slot_;
  RnicStats stats_;
  // Direct-mapped translation cache: cached vpage per set (0 = empty).
  std::vector<std::atomic<uint64_t>> mtt_cache_;
};

}  // namespace corm::rdma

#endif  // CORM_RDMA_RNIC_H_
