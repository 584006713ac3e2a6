#include "sim/address_space.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/sanitizer.h"

namespace corm::sim {

AddressSpace::AddressSpace(PhysicalMemory* phys)
    : phys_(phys),
      root_(std::make_unique<std::atomic<Leaf*>[]>(kRootSlots)) {}

AddressSpace::~AddressSpace() {
  // Drop page-table references so PhysicalMemory accounting stays balanced
  // when address spaces are torn down in tests.
  LockGuard<CountedMutex> lock(mu_);
  for (const auto& leaf : leaves_) {
    for (const PageEntry& e : leaf->entries) {
      if (e.data.load(std::memory_order_relaxed) != nullptr) {
        phys_->Unref(e.frame);
      }
    }
  }
}

AddressSpace::PageEntry* AddressSpace::FindEntry(VAddr addr) const {
  if (addr < kBase) return nullptr;
  const uint64_t index = (addr - kBase) >> kVPageShift;
  if (index >= kSpanPages) return nullptr;
  Leaf* leaf = root_[index / kLeafPages].load(std::memory_order_acquire);
  return leaf == nullptr ? nullptr : &leaf->entries[index % kLeafPages];
}

AddressSpace::PageEntry* AddressSpace::EntryForMap(VAddr page) {
  CORM_CHECK(page >= kBase && ((page - kBase) >> kVPageShift) < kSpanPages)
      << "map outside the page table's span at " << page;
  const uint64_t index = (page - kBase) >> kVPageShift;
  std::atomic<Leaf*>& slot = root_[index / kLeafPages];
  Leaf* leaf = slot.load(std::memory_order_relaxed);
  if (leaf == nullptr) {
    leaves_.push_back(std::make_unique<Leaf>());
    leaf = leaves_.back().get();
    slot.store(leaf, std::memory_order_release);  // zeroed leaf, then root
  }
  return &leaf->entries[index % kLeafPages];
}

void AddressSpace::Install(VAddr page, FrameId frame, uint8_t* data) {
  PageEntry* e = EntryForMap(page);
  CORM_CHECK(e->data.load(std::memory_order_relaxed) == nullptr)
      << "map over an existing mapping at " << page;
  e->frame = frame;
  e->data.store(data, std::memory_order_release);
  ++mapped_pages_;
}

VAddr AddressSpace::ReserveRange(size_t npages) {
  CORM_CHECK_GT(npages, 0u);
  LockGuard<CountedMutex> lock(mu_);
  reserved_pages_ += npages;
  auto it = free_ranges_.find(npages);
  if (it != free_ranges_.end()) {
    VAddr base = it->second;
    free_ranges_.erase(it);
    return base;
  }
  VAddr base = next_vaddr_;
  CORM_CHECK_LE(((base - kBase) >> kVPageShift) + npages, kSpanPages)
      << "ReserveRange past the page table's span";
  next_vaddr_ += npages * kVPageSize;
  return base;
}

void AddressSpace::ReleaseRange(VAddr base, size_t npages) {
  CORM_CHECK_EQ(PageOffset(base), 0u);
  LockGuard<CountedMutex> lock(mu_);
  CORM_CHECK_GE(reserved_pages_, npages);
  reserved_pages_ -= npages;
  free_ranges_.emplace(npages, base);
}

Status AddressSpace::MapFresh(VAddr base, size_t npages) {
  if (PageOffset(base) != 0) {
    return Status::InvalidArgument("MapFresh: base not page aligned");
  }
  std::vector<FrameId> frames;
  frames.reserve(npages);
  for (size_t i = 0; i < npages; ++i) {
    auto frame = phys_->AllocFrame();
    if (!frame.ok()) {
      // Roll back partial allocation.
      for (FrameId f : frames) phys_->Unref(f);
      return frame.status();
    }
    frames.push_back(*frame);
  }
  LockGuard<CountedMutex> lock(mu_);
  for (size_t i = 0; i < npages; ++i) {
    // AllocFrame's ref becomes the PT ref.
    Install(base + i * kVPageSize, frames[i], phys_->FrameData(frames[i]));
  }
  return Status::OK();
}

Status AddressSpace::MapFreshContiguous(VAddr base, size_t npages) {
  if (PageOffset(base) != 0) {
    return Status::InvalidArgument(
        "MapFreshContiguous: base not page aligned");
  }
  auto frames = phys_->AllocContiguousFrames(npages);
  if (!frames.ok()) return frames.status();
  LockGuard<CountedMutex> lock(mu_);
  for (size_t i = 0; i < npages; ++i) {
    // The alloc ref becomes the PT ref.
    Install(base + i * kVPageSize, (*frames)[i],
            phys_->FrameData((*frames)[i]));
  }
  return Status::OK();
}

Status AddressSpace::MapFrames(VAddr base, const std::vector<FrameId>& frames) {
  if (PageOffset(base) != 0) {
    return Status::InvalidArgument("MapFrames: base not page aligned");
  }
  LockGuard<CountedMutex> lock(mu_);
  for (size_t i = 0; i < frames.size(); ++i) {
    Install(base + i * kVPageSize, frames[i], phys_->Ref(frames[i]));
  }
  return Status::OK();
}

Status AddressSpace::Remap(VAddr base, VAddr target, size_t npages) {
  if (PageOffset(base) != 0 || PageOffset(target) != 0) {
    return Status::InvalidArgument("Remap: addresses not page aligned");
  }
  const auto mapped = [this](VAddr page) {
    const PageEntry* e = FindEntry(page);
    return e != nullptr && e->data.load(std::memory_order_relaxed) != nullptr;
  };
  std::vector<VAddr> changed;
  {
    LockGuard<CountedMutex> lock(mu_);
    // Validate both ranges first so the operation is all-or-nothing.
    for (size_t i = 0; i < npages; ++i) {
      if (!mapped(base + i * kVPageSize) || !mapped(target + i * kVPageSize)) {
        return Status::InvalidArgument("Remap: unmapped page in range");
      }
    }
    for (size_t i = 0; i < npages; ++i) {
      VAddr src_page = base + i * kVPageSize;
      PageEntry* src = FindEntry(src_page);
      const FrameId new_frame = FindEntry(target + i * kVPageSize)->frame;
      if (src->frame == new_frame) continue;
      const FrameId old_frame = src->frame;
      uint8_t* data = phys_->Ref(new_frame);  // PT ref for the new mapping
      src->frame = new_frame;
      // Publish the new translation before the old frame loses its pin.
      src->data.store(data, std::memory_order_release);
      phys_->Unref(old_frame);  // old PT ref dropped
      changed.push_back(src_page);
    }
  }
  for (VAddr page : changed) NotifyChange(page);
  return Status::OK();
}

Status AddressSpace::Unmap(VAddr base, size_t npages) {
  if (PageOffset(base) != 0) {
    return Status::InvalidArgument("Unmap: base not page aligned");
  }
  std::vector<VAddr> changed;
  {
    LockGuard<CountedMutex> lock(mu_);
    for (size_t i = 0; i < npages; ++i) {
      VAddr page = base + i * kVPageSize;
      PageEntry* e = FindEntry(page);
      if (e == nullptr || e->data.load(std::memory_order_relaxed) == nullptr) {
        return Status::InvalidArgument("Unmap: page not mapped");
      }
      // Unpublish before the frame loses the page table's pin.
      e->data.store(nullptr, std::memory_order_release);
      phys_->Unref(e->frame);
      e->frame = kInvalidFrame;
      --mapped_pages_;
      changed.push_back(page);
    }
  }
  for (VAddr page : changed) NotifyChange(page);
  return Status::OK();
}

Result<FrameId> AddressSpace::TranslatePage(VAddr addr) const {
  LockGuard<CountedMutex> lock(mu_);
  const PageEntry* e = FindEntry(addr);
  if (e == nullptr || e->data.load(std::memory_order_relaxed) == nullptr) {
    return Status::NotFound("page not mapped");
  }
  return e->frame;
}

uint8_t* AddressSpace::TranslatePtr(VAddr addr) const {
  // Lock-free walk; see the safety argument in address_space.h. No
  // frame-pool lock is taken either: the entry carries the frame's bytes.
  const PageEntry* e = FindEntry(addr);
  if (e == nullptr) return nullptr;
  uint8_t* data = e->data.load(std::memory_order_acquire);
  return data == nullptr ? nullptr : data + PageOffset(addr);
}

Status AddressSpace::ReadVirtual(VAddr addr, void* out, size_t size) const {
  auto* dst = static_cast<uint8_t*>(out);
  while (size > 0) {
    const size_t in_page = std::min<size_t>(size, kVPageSize - PageOffset(addr));
    const uint8_t* src = TranslatePtr(addr);
    if (src == nullptr) return Status::NotFound("ReadVirtual: unmapped page");
    // Simulated one-sided DMA: remote reads race with local CPU stores by
    // design; consumers validate snapshots via the object layout's version
    // bytes (paper §3.2.3). RacyCopy keeps the hardware side of that race
    // out of TSan while the CPU side stays instrumented.
    RacyCopy(dst, src, in_page);
    dst += in_page;
    addr += in_page;
    size -= in_page;
  }
  return Status::OK();
}

Status AddressSpace::WriteVirtual(VAddr addr, const void* data, size_t size) {
  const auto* src = static_cast<const uint8_t*>(data);
  while (size > 0) {
    const size_t in_page = std::min<size_t>(size, kVPageSize - PageOffset(addr));
    uint8_t* dst = TranslatePtr(addr);
    if (dst == nullptr) return Status::NotFound("WriteVirtual: unmapped page");
    RacyCopy(dst, src, in_page);  // simulated DMA write (see ReadVirtual)
    src += in_page;
    addr += in_page;
    size -= in_page;
  }
  return Status::OK();
}

void AddressSpace::AddNotifier(MmuNotifier* notifier) {
  LockGuard<CountedMutex> lock(mu_);
  notifiers_.push_back(notifier);
}

void AddressSpace::RemoveNotifier(MmuNotifier* notifier) {
  LockGuard<CountedMutex> lock(mu_);
  notifiers_.erase(std::remove(notifiers_.begin(), notifiers_.end(), notifier),
                   notifiers_.end());
}

void AddressSpace::NotifyChange(VAddr page) {
  std::vector<MmuNotifier*> snapshot;
  {
    LockGuard<CountedMutex> lock(mu_);
    snapshot = notifiers_;
  }
  for (MmuNotifier* n : snapshot) n->OnMappingChange(page);
}

size_t AddressSpace::mapped_pages() const {
  LockGuard<CountedMutex> lock(mu_);
  return mapped_pages_;
}

size_t AddressSpace::reserved_pages() const {
  LockGuard<CountedMutex> lock(mu_);
  return reserved_pages_;
}

}  // namespace corm::sim
