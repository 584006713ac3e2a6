// Process-wide block allocator (paper §2.1.1, §3.1.1).
//
// Responsibilities:
//  * allocate blocks: reserve a virtual range, obtain physical pages from
//    the 16 MiB memfd pool, map them, and register the block with the RNIC
//    so remote peers can read it;
//  * destroy blocks, releasing physical and (when allowed) virtual memory;
//  * perform the compaction remap: point a source block's virtual range at
//    the destination block's physical pages and restore RDMA access via the
//    configured §3.5 strategy.

#ifndef CORM_ALLOC_BLOCK_ALLOCATOR_H_
#define CORM_ALLOC_BLOCK_ALLOCATOR_H_

#include <cstdint>
#include <memory>

#include "alloc/block.h"
#include "alloc/size_classes.h"
#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "rdma/rnic.h"
#include "sim/address_space.h"
#include "sim/latency_model.h"
#include "sim/mem_file.h"

namespace corm::alloc {

struct BlockAllocatorConfig {
  // Pages per block. 1 (4 KiB) is the paper's default; memory-compaction
  // studies use 256 (1 MiB, FaRM's block size).
  size_t block_pages = 1;
  // Strategy for restoring RDMA access after remaps. Implies the MR type:
  // kReregMr registers non-ODP regions, the ODP strategies register ODP
  // regions. The paper's default is kOdpPrefetch.
  sim::RemapStrategy remap_strategy = sim::RemapStrategy::kOdpPrefetch;
  // Back blocks with 2 MiB huge pages (paper §3.1.1: "CoRM can easily be
  // extended to work with huge pages"; §4.3.1: a 2 MiB page remaps and
  // re-registers at the same cost as one 4 KiB page). Functionally the
  // translation granularity stays 4 KiB in the simulator; the *modeled*
  // remap/rereg/prefetch cost is charged per 2 MiB unit.
  bool huge_pages = false;
};

// Translation units a remap of `npages` 4 KiB pages touches.
inline uint64_t RemapUnits(size_t npages, bool huge_pages) {
  constexpr size_t kPagesPerHugePage = 512;  // 2 MiB / 4 KiB
  return huge_pages ? (npages + kPagesPerHugePage - 1) / kPagesPerHugePage
                    : npages;
}

class BlockAllocator {
 public:
  BlockAllocator(sim::AddressSpace* space, sim::MemFileManager* files,
                 rdma::Rnic* rnic, const SizeClassTable* classes,
                 BlockAllocatorConfig config);

  BlockAllocator(const BlockAllocator&) = delete;
  BlockAllocator& operator=(const BlockAllocator&) = delete;

  // Allocates + maps + RNIC-registers a block for `class_idx`. Thread-safe.
  Result<std::unique_ptr<Block>> AllocBlock(uint32_t class_idx);

  // Fully destroys a block's memory: deregister, unmap, free physical
  // pages, release the virtual range. Only valid when no objects are homed
  // in the block. Returns the drained descriptor so the caller can retire
  // it to a graveyard — lock-free directory readers may hold a stale
  // pointer to it for a short window after the directory erase, so the
  // descriptor must outlive them (CormNode routes it to RetireBlock).
  std::unique_ptr<Block> DestroyBlock(std::unique_ptr<Block> block);

  // Compaction remap (paper §3.1.2): after the owner copied all live
  // objects from `src` into `dst`, point src's virtual pages at dst's
  // physical pages and repair the RNIC MTT per the configured strategy.
  // src's virtual address and r_key stay valid (they now alias dst's
  // memory). src's own pages move to `*retired`: a thread that translated
  // src's vaddr before the remap may still be reading them, so the caller
  // punches them out of the memfd pool (FreeRetired) once no such thread
  // remains. Returns modeled ns.
  Result<uint64_t> MergeRemap(Block* src, Block* dst, sim::PhysBlock* retired);

  // Punches pages that MergeRemap retired out of the memfd pool; frames
  // stay alive while any mapping still pins them.
  void FreeRetired(const sim::PhysBlock& retired);

  // Releases the virtual range + MR of a fully-drained ghost block (no
  // homed objects remain; paper §3.3). `base`/`npages`/`r_key` identify the
  // remnant. Its physical pages were retired by MergeRemap.
  void ReleaseGhost(sim::VAddr base, size_t npages, rdma::RKey r_key);

  const SizeClassTable& classes() const { return *classes_; }
  const BlockAllocatorConfig& config() const { return config_; }
  size_t block_bytes() const { return config_.block_pages * sim::kVPageSize; }
  sim::AddressSpace* address_space() const { return space_; }
  rdma::Rnic* rnic() const { return rnic_; }

  // Counters. Read under the same lock as the writers: benchmarks and the
  // audit poll them while workers allocate, so unlocked reads would race.
  uint64_t blocks_allocated() const {
    LockGuard<RankedSpinLock> lock(mu_);
    return blocks_allocated_;
  }
  uint64_t blocks_destroyed() const {
    LockGuard<RankedSpinLock> lock(mu_);
    return blocks_destroyed_;
  }
  uint64_t merges() const {
    LockGuard<RankedSpinLock> lock(mu_);
    return merges_;
  }

  // Invariant audit (always compiled): the lifecycle counters must account
  // for every block — allocations cover destructions plus merges (a merged
  // source is retired, never destroyed twice), and the address space must
  // not have leaked mapped pages relative to the net live block count.
  Status AuditCounters() const;

 private:
  sim::AddressSpace* const space_;
  sim::MemFileManager* const files_;
  rdma::Rnic* const rnic_;
  const SizeClassTable* const classes_;
  const BlockAllocatorConfig config_;

  // Guards the counters; ranked so that any accidental re-entry from the
  // substrate callbacks (which rank higher) is caught (see lock_rank.h).
  mutable RankedSpinLock mu_{LockRank::kBlockAllocator};
  uint64_t blocks_allocated_ GUARDED_BY(mu_) = 0;
  uint64_t blocks_destroyed_ GUARDED_BY(mu_) = 0;
  uint64_t merges_ GUARDED_BY(mu_) = 0;
};

}  // namespace corm::alloc

#endif  // CORM_ALLOC_BLOCK_ALLOCATOR_H_
