#include "sim/physical_memory.h"

#include <cstring>

#include "common/logging.h"

namespace corm::sim {

Result<std::vector<FrameId>> PhysicalMemory::AllocContiguousFrames(size_t n) {
  CORM_CHECK_GT(n, 0u);
  LockGuard<Mutex> lock(mu_);
  if (max_frames_ != 0 && live_frames_ + n > max_frames_) {
    return Status::OutOfMemory("simulated DRAM exhausted");
  }
  std::shared_ptr<uint8_t[]> slab =
      std::make_shared<uint8_t[]>(n * kFrameSize);
  std::vector<FrameId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    FrameId id;
    if (!free_list_.empty()) {
      id = free_list_.back();
      free_list_.pop_back();
    } else {
      id = static_cast<FrameId>(frames_.size());
      frames_.emplace_back();
    }
    frames_[id].slab = slab;
    frames_[id].offset = i * kFrameSize;
    frames_[id].refcount = 1;
    ids.push_back(id);
  }
  live_frames_ += n;
  total_allocs_ += n;
  if (live_frames_ > peak_frames_) peak_frames_ = live_frames_;
  return ids;
}

Result<FrameId> PhysicalMemory::AllocFrame() {
  auto ids = AllocContiguousFrames(1);
  CORM_RETURN_NOT_OK(ids.status());
  return (*ids)[0];
}

uint8_t* PhysicalMemory::Ref(FrameId id) {
  LockGuard<Mutex> lock(mu_);
  CORM_CHECK_LT(id, frames_.size());
  CORM_CHECK_GT(frames_[id].refcount, 0u) << "Ref on a free frame";
  ++frames_[id].refcount;
  return frames_[id].slab.get() + frames_[id].offset;
}

void PhysicalMemory::Unref(FrameId id) {
  LockGuard<Mutex> lock(mu_);
  CORM_CHECK_LT(id, frames_.size());
  CORM_CHECK_GT(frames_[id].refcount, 0u) << "Unref on a free frame";
  if (--frames_[id].refcount == 0) {
    frames_[id].slab.reset();  // slab dies with its last live frame
    free_list_.push_back(id);
    --live_frames_;
  }
}

uint8_t* PhysicalMemory::FrameData(FrameId id) {
  LockGuard<Mutex> lock(mu_);
  CORM_CHECK_LT(id, frames_.size());
  CORM_CHECK(frames_[id].slab != nullptr) << "FrameData on a free frame";
  return frames_[id].slab.get() + frames_[id].offset;
}

uint32_t PhysicalMemory::RefCount(FrameId id) const {
  LockGuard<Mutex> lock(mu_);
  CORM_CHECK_LT(id, frames_.size());
  return frames_[id].refcount;
}

size_t PhysicalMemory::live_frames() const {
  LockGuard<Mutex> lock(mu_);
  return live_frames_;
}

size_t PhysicalMemory::peak_frames() const {
  LockGuard<Mutex> lock(mu_);
  return peak_frames_;
}

uint64_t PhysicalMemory::total_allocs() const {
  LockGuard<Mutex> lock(mu_);
  return total_allocs_;
}

}  // namespace corm::sim
