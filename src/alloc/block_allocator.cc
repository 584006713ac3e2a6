#include "alloc/block_allocator.h"

#include "common/logging.h"

namespace corm::alloc {

BlockAllocator::BlockAllocator(sim::AddressSpace* space,
                               sim::MemFileManager* files, rdma::Rnic* rnic,
                               const SizeClassTable* classes,
                               BlockAllocatorConfig config)
    : space_(space),
      files_(files),
      rnic_(rnic),
      classes_(classes),
      config_(config) {
  CORM_CHECK_GT(config_.block_pages, 0u);
}

Result<std::unique_ptr<Block>> BlockAllocator::AllocBlock(uint32_t class_idx) {
  CORM_CHECK_LT(class_idx, classes_->num_classes());
  const uint32_t slot_size = classes_->ClassSize(class_idx);
  if (slot_size > block_bytes()) {
    return Status::InvalidArgument("size class larger than block");
  }
  const size_t npages = config_.block_pages;

  sim::VAddr base = space_->ReserveRange(npages);
  auto phys = files_->AllocBlock(npages);
  if (!phys.ok()) {
    space_->ReleaseRange(base, npages);
    return phys.status();
  }
  Status st = space_->MapFrames(base, phys->frames);
  if (!st.ok()) {
    files_->FreeBlock(*phys);
    space_->ReleaseRange(base, npages);
    return st;
  }
  const bool odp = config_.remap_strategy != sim::RemapStrategy::kReregMr;
  auto keys = rnic_->RegisterMemory(base, npages, odp);
  if (!keys.ok()) {
    CORM_CHECK(space_->Unmap(base, npages).ok());
    files_->FreeBlock(*phys);
    space_->ReleaseRange(base, npages);
    return keys.status();
  }
  {
    LockGuard<RankedSpinLock> lock(mu_);
    ++blocks_allocated_;
  }
  return std::make_unique<Block>(base, std::move(*phys), class_idx, slot_size,
                                 *keys);
}

std::unique_ptr<Block> BlockAllocator::DestroyBlock(
    std::unique_ptr<Block> block) {
  CORM_CHECK(block != nullptr);
  CORM_CHECK(rnic_->DeregisterMemory(block->keys().r_key).ok());
  CORM_CHECK(space_->Unmap(block->base(), block->npages()).ok());
  files_->FreeBlock(block->phys());
  space_->ReleaseRange(block->base(), block->npages());
  {
    LockGuard<RankedSpinLock> lock(mu_);
    ++blocks_destroyed_;
  }
  return block;
}

Result<uint64_t> BlockAllocator::MergeRemap(Block* src, Block* dst,
                                            sim::PhysBlock* retired) {
  CORM_CHECK_EQ(src->npages(), dst->npages());
  const size_t npages = src->npages();

  // 1. mmap: point src's virtual pages (and every ghost range already
  //    aliasing src) at dst's physical pages. For ODP regions this fires
  //    the MMU notifier, invalidating the affected MTT entries.
  std::vector<std::pair<sim::VAddr, rdma::RKey>> ranges;
  ranges.emplace_back(src->base(), src->keys().r_key);
  for (const auto& ghost : src->aliases()) {
    ranges.emplace_back(ghost.base, ghost.r_key);
  }
  // Modeled cost is charged per translation unit: with huge pages a 2 MiB
  // page remaps/re-registers at the cost of one 4 KiB page (§4.3.1).
  const uint64_t units = RemapUnits(npages, config_.huge_pages);
  uint64_t ns = 0;
  for (const auto& [base, r_key] : ranges) {
    CORM_RETURN_NOT_OK(space_->Remap(base, dst->base(), npages));
    ns += rnic_->model().MmapNs() * units;
  }

  // 2. Restore RDMA access through the preserved r_keys (paper §3.5) in
  //    one batched repair epoch: src's range and every chained ghost alias
  //    repair under a single RNIC registration-table pass, so one engine
  //    slice issues exactly one epoch however long the alias chain is. The
  //    modeled cost is unchanged from the per-call path: it is charged per
  //    range per remapped unit (paper Fig. 15: compaction time grows
  //    linearly with the page count).
  switch (config_.remap_strategy) {
    case sim::RemapStrategy::kReregMr: {
      std::vector<rdma::RKey> keys;
      keys.reserve(ranges.size());
      for (const auto& [base, r_key] : ranges) keys.push_back(r_key);
      CORM_RETURN_NOT_OK(rnic_->ReregMrBatch(keys));
      ns += rnic_->model().ReregMrNs() * units * ranges.size();
      break;
    }
    case sim::RemapStrategy::kOdp:
      // Nothing to do: the next remote access pays the ODP fault.
      break;
    case sim::RemapStrategy::kOdpPrefetch: {
      std::vector<rdma::MrRange> mr_ranges;
      mr_ranges.reserve(ranges.size());
      for (const auto& [base, r_key] : ranges) {
        mr_ranges.push_back({r_key, base, npages * sim::kVPageSize});
      }
      CORM_RETURN_NOT_OK(rnic_->AdviseMrBatch(mr_ranges));
      ns += rnic_->model().AdviseMrNs() * units * ranges.size();
      break;
    }
  }

  // The ghosts (and src itself) now alias dst; dst inherits them.
  for (const auto& ghost : src->aliases()) dst->aliases().push_back(ghost);
  src->aliases().clear();
  dst->aliases().push_back({src->base(), src->keys().r_key});

  // 3. Retire src's pages: the caller punches them out of the memfd file
  //    (FreeRetired) once no reader of the old translation remains. src
  //    now aliases dst's frames; record that in its phys block descriptor
  //    so later full destruction does not double-free.
  *retired = src->phys();
  src->mutable_phys()->frames = dst->phys().frames;
  src->mutable_phys()->id = {-1, 0};  // no file backing of its own

  {
    LockGuard<RankedSpinLock> lock(mu_);
    ++merges_;
  }
  // Note: no pacing here — the caller holds locks that must not be held for
  // a modeled duration; it paces with the returned ns after releasing them.
  return ns;
}

void BlockAllocator::FreeRetired(const sim::PhysBlock& retired) {
  files_->FreeBlock(retired);
}

void BlockAllocator::ReleaseGhost(sim::VAddr base, size_t npages,
                                  rdma::RKey r_key) {
  CORM_CHECK(rnic_->DeregisterMemory(r_key).ok());
  CORM_CHECK(space_->Unmap(base, npages).ok());
  space_->ReleaseRange(base, npages);
}

Status BlockAllocator::AuditCounters() const {
  uint64_t allocated, destroyed, merges;
  {
    LockGuard<RankedSpinLock> lock(mu_);
    allocated = blocks_allocated_;
    destroyed = blocks_destroyed_;
    merges = merges_;
  }
  // Every destroyed or merged-away block was once allocated; a merge
  // retires its source exactly once (MergeRemap), so the two sinks can
  // never outrun the source counter.
  if (destroyed + merges > allocated) {
    return Status::Internal(
        "block allocator audit: destroyed + merged > allocated (" +
        std::to_string(destroyed) + " + " + std::to_string(merges) + " > " +
        std::to_string(allocated) + ")");
  }
  return Status::OK();
}

}  // namespace corm::alloc
