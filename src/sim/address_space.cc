#include "sim/address_space.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/sanitizer.h"

namespace corm::sim {

AddressSpace::~AddressSpace() {
  // Drop page-table references so PhysicalMemory accounting stays balanced
  // when address spaces are torn down in tests.
  for (const auto& [page, entry] : page_table_) {
    phys_->Unref(entry.frame);
  }
}

VAddr AddressSpace::ReserveRange(size_t npages) {
  CORM_CHECK_GT(npages, 0u);
  LockGuard<Mutex> lock(mu_);
  reserved_pages_ += npages;
  auto it = free_ranges_.find(npages);
  if (it != free_ranges_.end()) {
    VAddr base = it->second;
    free_ranges_.erase(it);
    return base;
  }
  VAddr base = next_vaddr_;
  next_vaddr_ += npages * kVPageSize;
  return base;
}

void AddressSpace::ReleaseRange(VAddr base, size_t npages) {
  CORM_CHECK_EQ(PageOffset(base), 0u);
  LockGuard<Mutex> lock(mu_);
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
  LockGuard<Mutex> lock(mu_);
  for (size_t i = 0; i < npages; ++i) {
    VAddr page = base + i * kVPageSize;
    CORM_CHECK(page_table_.find(page) == page_table_.end())
        << "MapFresh over an existing mapping at " << page;
    // AllocFrame's ref becomes the PT ref.
    page_table_[page] = {frames[i], phys_->FrameData(frames[i])};
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
  LockGuard<Mutex> lock(mu_);
  for (size_t i = 0; i < npages; ++i) {
    VAddr page = base + i * kVPageSize;
    CORM_CHECK(page_table_.find(page) == page_table_.end())
        << "MapFreshContiguous over an existing mapping at " << page;
    // The alloc ref becomes the PT ref.
    page_table_[page] = {(*frames)[i], phys_->FrameData((*frames)[i])};
  }
  return Status::OK();
}

Status AddressSpace::MapFrames(VAddr base, const std::vector<FrameId>& frames) {
  if (PageOffset(base) != 0) {
    return Status::InvalidArgument("MapFrames: base not page aligned");
  }
  LockGuard<Mutex> lock(mu_);
  for (size_t i = 0; i < frames.size(); ++i) {
    VAddr page = base + i * kVPageSize;
    CORM_CHECK(page_table_.find(page) == page_table_.end())
        << "MapFrames over an existing mapping";
    page_table_[page] = {frames[i], phys_->Ref(frames[i])};
  }
  return Status::OK();
}

Status AddressSpace::Remap(VAddr base, VAddr target, size_t npages) {
  if (PageOffset(base) != 0 || PageOffset(target) != 0) {
    return Status::InvalidArgument("Remap: addresses not page aligned");
  }
  std::vector<VAddr> changed;
  {
    LockGuard<Mutex> lock(mu_);
    // Validate both ranges first so the operation is all-or-nothing.
    for (size_t i = 0; i < npages; ++i) {
      if (page_table_.find(base + i * kVPageSize) == page_table_.end() ||
          page_table_.find(target + i * kVPageSize) == page_table_.end()) {
        return Status::InvalidArgument("Remap: unmapped page in range");
      }
    }
    for (size_t i = 0; i < npages; ++i) {
      VAddr src_page = base + i * kVPageSize;
      VAddr dst_page = target + i * kVPageSize;
      PageEntry& src = page_table_[src_page];
      const FrameId new_frame = page_table_[dst_page].frame;
      if (src.frame == new_frame) continue;
      uint8_t* data = phys_->Ref(new_frame);  // PT ref for the new mapping
      phys_->Unref(src.frame);                // old PT ref dropped
      src = {new_frame, data};
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
    LockGuard<Mutex> lock(mu_);
    for (size_t i = 0; i < npages; ++i) {
      VAddr page = base + i * kVPageSize;
      auto it = page_table_.find(page);
      if (it == page_table_.end()) {
        return Status::InvalidArgument("Unmap: page not mapped");
      }
      phys_->Unref(it->second.frame);
      page_table_.erase(it);
      changed.push_back(page);
    }
  }
  for (VAddr page : changed) NotifyChange(page);
  return Status::OK();
}

Result<FrameId> AddressSpace::TranslatePage(VAddr addr) const {
  LockGuard<Mutex> lock(mu_);
  auto it = page_table_.find(PageBase(addr));
  if (it == page_table_.end()) {
    return Status::NotFound("page not mapped");
  }
  return it->second.frame;
}

uint8_t* AddressSpace::TranslatePtr(VAddr addr) const {
  // The entry's data pointer is read under the page-table lock, and the
  // entry pins its frame until Remap/Unmap drops that pin under the same
  // lock, so the frame is live when the pointer is returned. No frame-pool
  // lock is taken.
  LockGuard<Mutex> lock(mu_);
  auto it = page_table_.find(PageBase(addr));
  if (it == page_table_.end()) return nullptr;
  return it->second.data + PageOffset(addr);
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
  LockGuard<Mutex> lock(mu_);
  notifiers_.push_back(notifier);
}

void AddressSpace::RemoveNotifier(MmuNotifier* notifier) {
  LockGuard<Mutex> lock(mu_);
  notifiers_.erase(std::remove(notifiers_.begin(), notifiers_.end(), notifier),
                   notifiers_.end());
}

void AddressSpace::NotifyChange(VAddr page) {
  std::vector<MmuNotifier*> snapshot;
  {
    LockGuard<Mutex> lock(mu_);
    snapshot = notifiers_;
  }
  for (MmuNotifier* n : snapshot) n->OnMappingChange(page);
}

size_t AddressSpace::mapped_pages() const {
  LockGuard<Mutex> lock(mu_);
  return page_table_.size();
}

size_t AddressSpace::reserved_pages() const {
  LockGuard<Mutex> lock(mu_);
  return reserved_pages_;
}

}  // namespace corm::sim
