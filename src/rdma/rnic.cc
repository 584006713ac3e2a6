#include "rdma/rnic.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "sim/fault_injector.h"

namespace corm::rdma {

Rnic::Rnic(sim::AddressSpace* address_space, sim::LatencyModel model)
    : space_(address_space),
      model_(model),
      mpt_(std::make_unique<std::atomic<MemoryRegion*>[]>(kMaxChunks)),
      mtt_cache_(model.MttCacheEntries()) {
  space_->AddNotifier(this);
}

void Rnic::ResetMttCache() {
  for (auto& entry : mtt_cache_) entry.store(0, std::memory_order_relaxed);
  stats_.mtt_cache_hits.Reset();
  stats_.mtt_cache_misses.Reset();
}

uint64_t Rnic::MttCacheAccess(sim::VAddr page) {
  const uint64_t vpage = page >> sim::kVPageShift;
  const size_t set =
      (vpage * 0x9E3779B97F4A7C15ULL >> 17) % mtt_cache_.size();
  auto& entry = mtt_cache_[set];
  if (entry.load(std::memory_order_relaxed) == vpage) {
    stats_.mtt_cache_hits.Add();
    return 0;
  }
  entry.store(vpage, std::memory_order_relaxed);
  stats_.mtt_cache_misses.Add();
  return model_.MttCacheMissNs();
}

Rnic::~Rnic() {
  space_->RemoveNotifier(this);
  // Drop all MTT frame references.
  LockGuard<Mutex> lock(mu_);
  for (auto& region : by_base_) {
    MemoryRegion* mr = region.second;
    LockGuard<Mutex> elock(mr->entries_mu_);
    UnpinAllLocked(mr);
  }
}

Result<MrKeys> Rnic::RegisterMemory(sim::VAddr base, size_t npages,
                                    bool odp) {
  if (sim::PageOffset(base) != 0 || npages == 0) {
    return Status::InvalidArgument("RegisterMemory: bad range");
  }
  LockGuard<Mutex> lock(mu_);
  uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (next_slot_ == kMaxChunks * kChunkSlots) {
      return Status::OutOfMemory("RegisterMemory: MPT exhausted");
    }
    idx = next_slot_++;
    if (idx % kChunkSlots == 0) {
      // A new MPT chunk; verbs see it only after the release store.
      chunks_.push_back(std::make_unique<MemoryRegion[]>(kChunkSlots));
      mpt_[idx >> kChunkShift].store(chunks_.back().get(),
                                     std::memory_order_release);
    }
  }
  MemoryRegion* mr = Slot(idx << kTagBits);
  LockGuard<Mutex> elock(mr->entries_mu_);
  mr->base_ = base;
  mr->npages_ = npages;
  mr->odp_ = odp;
  mr->entries_.assign(npages, {});
  mr->reregistering_.store(false, std::memory_order_relaxed);
  // Pin + snapshot translations into the MTT.
  for (size_t i = 0; i < npages; ++i) {
    Status st = ResolveEntryLocked(mr, i);
    if (!st.ok()) {
      UnpinAllLocked(mr);  // unwind; the slot's tag was never issued
      free_slots_.push_back(idx);
      return st;
    }
  }
  ++mr->tag_;
  mr->r_key_ = (idx << kTagBits) | mr->tag_;
  by_base_[base] = mr;
  return MrKeys{mr->r_key_, mr->r_key_};
}

Status Rnic::DeregisterMemory(RKey r_key) {
  LockGuard<Mutex> lock(mu_);
  MemoryRegion* mr = Slot(r_key);
  LockGuard<Mutex> elock(mr->entries_mu_);
  if (!KeyLiveLocked(mr, r_key)) {
    return Status::NotFound("DeregisterMemory: unknown r_key");
  }
  // Under entries_mu_: a verb that already found this slot re-checks the
  // key after we release it and fails, so it never re-pins a frame here.
  UnpinAllLocked(mr);
  mr->r_key_ = 0;
  by_base_.erase(mr->base_);
  if (mr->tag_ < kMaxTag) free_slots_.push_back(r_key >> kTagBits);
  return Status::OK();
}

bool Rnic::KeyLive(RKey r_key) {
  MemoryRegion* mr = Slot(r_key);
  LockGuard<Mutex> elock(mr->entries_mu_);
  return KeyLiveLocked(mr, r_key);
}

Status Rnic::ResolveEntryLocked(MemoryRegion* mr, size_t page_idx) {
  auto frame = space_->TranslatePage(mr->base_ + page_idx * sim::kVPageSize);
  if (!frame.ok()) return frame.status();
  auto& entry = mr->entries_[page_idx];
  sim::PhysicalMemory* phys = space_->physical_memory();
  uint8_t* data = phys->Ref(*frame);
  if (entry.data != nullptr) phys->Unref(entry.frame);
  entry = {*frame, data};
  return Status::OK();
}

void Rnic::UnpinAllLocked(MemoryRegion* mr) {
  for (auto& entry : mr->entries_) {
    if (entry.data != nullptr) space_->physical_memory()->Unref(entry.frame);
    entry = {};
  }
}

Result<uint64_t> Rnic::ReregMr(RKey r_key) {
  CORM_RETURN_NOT_OK(BeginRereg(r_key));
  CORM_RETURN_NOT_OK(EndRereg(r_key));
  return model_.ReregMrNs();
}

Status Rnic::BeginRereg(RKey r_key) {
  LockGuard<Mutex> lock(mu_);
  return BeginReregLocked(r_key);
}

Status Rnic::EndRereg(RKey r_key) {
  LockGuard<Mutex> lock(mu_);
  return EndReregLocked(r_key);
}

Status Rnic::BeginReregLocked(RKey r_key) {
  MemoryRegion* mr = Slot(r_key);
  LockGuard<Mutex> elock(mr->entries_mu_);
  if (!KeyLiveLocked(mr, r_key)) {
    return Status::NotFound("ReregMr: unknown r_key");
  }
  bool expected = false;
  if (!mr->reregistering_.compare_exchange_strong(expected, true)) {
    return Status::Internal("ReregMr: already re-registering");
  }
  stats_.reregs.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Rnic::EndReregLocked(RKey r_key) {
  MemoryRegion* mr = Slot(r_key);
  LockGuard<Mutex> elock(mr->entries_mu_);
  if (!KeyLiveLocked(mr, r_key)) {
    return Status::NotFound("ReregMr: unknown r_key");
  }
  Status st;
  for (size_t i = 0; i < mr->npages_ && st.ok(); ++i) {
    st = ResolveEntryLocked(mr, i);
  }
  mr->reregistering_.store(false);
  return st;
}

Result<uint64_t> Rnic::AdviseRegion(RKey r_key, sim::VAddr addr, size_t len) {
  MemoryRegion* mr = Slot(r_key);
  LockGuard<Mutex> elock(mr->entries_mu_);
  if (!KeyLiveLocked(mr, r_key)) {
    return Status::NotFound("AdviseMr: unknown r_key");
  }
  if (!mr->CoversLocked(addr, len)) {
    return Status::InvalidArgument("AdviseMr: range outside region");
  }
  if (!mr->odp_) {
    return Status::NotSupported("AdviseMr: region not registered with ODP");
  }
  const size_t first = (addr - mr->base_) >> sim::kVPageShift;
  const size_t last = (addr + len - 1 - mr->base_) >> sim::kVPageShift;
  uint64_t ns = 0;
  for (size_t i = first; i <= last; ++i) {
    if (mr->entries_[i].data == nullptr) {
      CORM_RETURN_NOT_OK(ResolveEntryLocked(mr, i));
      ns += model_.AdviseMrNs();
      stats_.prefetches.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return ns;
}

Result<uint64_t> Rnic::AdviseMr(RKey r_key, sim::VAddr addr, size_t len) {
  LockGuard<Mutex> lock(mu_);
  return AdviseRegion(r_key, addr, len);
}

// One mu_ hold covers the whole batch: every key is checked before any
// repair runs, then the per-region repairs run back-to-back as a single
// epoch with no registration change in between.
Status Rnic::ReregMrBatch(const std::vector<RKey>& keys) {
  if (keys.empty()) return Status::OK();
  LockGuard<Mutex> lock(mu_);
  for (RKey key : keys) {
    if (!KeyLive(key)) {
      return Status::NotFound("ReregMrBatch: unknown r_key");
    }
  }
  stats_.repair_batches.fetch_add(1, std::memory_order_relaxed);
  for (RKey key : keys) {
    CORM_RETURN_NOT_OK(BeginReregLocked(key));
    CORM_RETURN_NOT_OK(EndReregLocked(key));
  }
  return Status::OK();
}

Status Rnic::AdviseMrBatch(const std::vector<MrRange>& ranges) {
  if (ranges.empty()) return Status::OK();
  LockGuard<Mutex> lock(mu_);
  for (const MrRange& r : ranges) {
    if (!KeyLive(r.r_key)) {
      return Status::NotFound("AdviseMrBatch: unknown r_key");
    }
  }
  stats_.repair_batches.fetch_add(1, std::memory_order_relaxed);
  for (const MrRange& r : ranges) {
    CORM_RETURN_NOT_OK(AdviseRegion(r.r_key, r.addr, r.len).status());
  }
  return Status::OK();
}

// --- Data path. --------------------------------------------------------------

const char* Rnic::RejectLocked(const MemoryRegion* mr, RKey r_key,
                               sim::VAddr addr, size_t len) {
  // Invalid (or deregistered) r_key: the IB spec says the QP moves to the
  // error state.
  if (!KeyLiveLocked(mr, r_key)) {
    return "remote access error: unknown r_key";
  }
  if (!mr->CoversLocked(addr, len)) {
    return "remote access error: out of region bounds";
  }
  if (mr->reregistering_.load(std::memory_order_acquire)) {
    // Access while ibv_rereg_mr is in flight (paper §3.5, first strategy).
    return "access during memory re-registration";
  }
  return nullptr;
}

Status Rnic::BreakQp(bool* broke_qp, std::string why) {
  *broke_qp = true;
  stats_.qp_breaks.fetch_add(1, std::memory_order_relaxed);
  return Status::QpBroken(std::move(why));
}

Status Rnic::FaultInLocked(MemoryRegion* mr, size_t page_idx,
                           uint64_t* fault_ns, bool* broke_qp) {
  if (mr->entries_[page_idx].data != nullptr) return Status::OK();
  if (!mr->odp_) {
    return BreakQp(broke_qp, "MTT entry invalid on non-ODP region");
  }
  // ODP fault: re-resolve from the OS page table (modeled 63 us).
  Status st = ResolveEntryLocked(mr, page_idx);
  if (!st.ok()) {
    return BreakQp(broke_qp, "ODP fault on unmapped page: " + st.message());
  }
  *fault_ns += model_.OdpMissNs();
  stats_.odp_faults.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<uint64_t> Rnic::MttAccess(RKey r_key, sim::VAddr addr, void* buf,
                                 size_t len, bool is_write, bool* broke_qp) {
  *broke_qp = false;
  if (auto* fi = sim::GlobalFaultInjector();
      fi != nullptr && fi->ShouldFire(sim::fault_sites::kQpBreak)) {
    // Injected transport-level fault (cable pull, firmware hiccup): the QP
    // transitions to the error state exactly like the organic break paths
    // below, so clients exercise the same reconnect machinery.
    return BreakQp(broke_qp, "injected QP break");
  }
  MemoryRegion* mr = Slot(r_key);
  LockGuard<Mutex> elock(mr->entries_mu_);
  if (const char* why = RejectLocked(mr, r_key, addr, len)) {
    return BreakQp(broke_qp, why);
  }
  (is_write ? stats_.writes : stats_.reads).Add();

  uint64_t fault_ns = 0;
  auto* cbuf = static_cast<uint8_t*>(buf);
  sim::VAddr cur = addr;
  size_t remaining = len;
  while (remaining > 0) {
    fault_ns += MttCacheAccess(cur);
    const size_t page_idx = (cur - mr->base_) >> sim::kVPageShift;
    CORM_RETURN_NOT_OK(FaultInLocked(mr, page_idx, &fault_ns, broke_qp));
    const size_t in_page =
        std::min<size_t>(remaining, sim::kVPageSize - sim::PageOffset(cur));
    uint8_t* frame_ptr = mr->entries_[page_idx].data + sim::PageOffset(cur);
    if (is_write) {
      std::memcpy(frame_ptr, cbuf, in_page);
    } else {
      std::memcpy(cbuf, frame_ptr, in_page);
    }
    cbuf += in_page;
    cur += in_page;
    remaining -= in_page;
  }
  return fault_ns;
}

void Rnic::OnMappingChange(sim::VAddr page) {
  // Regions are disjoint: find the (at most one) region covering `page`
  // via the base-ordered index, then invalidate under the region's lock.
  // mu_ stays held so the slot cannot be recycled in between.
  LockGuard<Mutex> lock(mu_);
  auto it = by_base_.upper_bound(page);
  if (it == by_base_.begin()) return;
  MemoryRegion* mr = std::prev(it)->second;
  LockGuard<Mutex> elock(mr->entries_mu_);
  if (!mr->odp_ || !mr->CoversLocked(page, sim::kVPageSize)) return;
  auto& entry = mr->entries_[(page - mr->base_) >> sim::kVPageShift];
  if (entry.data != nullptr) {
    space_->physical_memory()->Unref(entry.frame);
    entry = {};
  }
}

}  // namespace corm::rdma
