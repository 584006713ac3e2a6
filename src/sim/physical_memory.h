// Simulated physical memory: a pool of 4 KiB frames backed by real heap
// allocations.
//
// Substitution note (DESIGN.md §2): the paper allocates physical pages with
// memfd_create and maps them with mmap. Here a "physical page" is a Frame in
// this pool. Frames are reference counted to model page *pinning*: the OS
// page table holds one reference per mapping, and every RNIC memory-region
// translation entry holds another (RDMA registration pins pages). A frame is
// returned to the pool only when the last reference drops, so a stale,
// never-updated RNIC MTT entry reads stale-but-live data — exactly the
// real-hardware behaviour, and memory-safe in simulation.

#ifndef CORM_SIM_PHYSICAL_MEMORY_H_
#define CORM_SIM_PHYSICAL_MEMORY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/byte_units.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace corm::sim {

using FrameId = uint32_t;
inline constexpr FrameId kInvalidFrame = UINT32_MAX;

inline constexpr size_t kFrameSize = kPageSize;  // 4 KiB

// Thread-safe frame pool. A frame's data pointer is stable while the frame
// holds a reference (frames are never relocated, only recycled after
// refcount 0), so every holder of a pin — a page-table entry, an RNIC MTT
// entry — keeps the pointer Ref() returned beside the frame id and reaches
// the bytes without coming back here: the data path never takes mu_.
class PhysicalMemory {
 public:
  // `max_frames` caps the simulated DRAM; 0 means unlimited.
  explicit PhysicalMemory(size_t max_frames = 0) : max_frames_(max_frames) {}

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  // Allocates a zeroed frame with refcount 1.
  Result<FrameId> AllocFrame();

  // Allocates `n` zeroed frames backed by ONE contiguous slab, so that the
  // bytes of frame i+1 directly follow frame i. This models a physically
  // contiguous extent of a memfd file: CoRM's blocks are linearly
  // addressable (slots may straddle page boundaries), and remaps always
  // retarget whole blocks, preserving linearity.
  Result<std::vector<FrameId>> AllocContiguousFrames(size_t n);

  // Increments the pin count of `id` and returns the frame's 4 KiB of
  // data, valid until the matching Unref.
  uint8_t* Ref(FrameId id);

  // Decrements the pin count; recycles the frame when it reaches zero.
  void Unref(FrameId id);

  // Direct pointer to the frame's 4 KiB of data (control path: allocation
  // and mapping; pin holders use the pointer Ref returned).
  uint8_t* FrameData(FrameId id);

  // Current refcount (testing / accounting).
  uint32_t RefCount(FrameId id) const;

  // Number of live (refcount > 0) frames: the "granted" physical memory.
  size_t live_frames() const;
  size_t peak_frames() const;
  uint64_t total_allocs() const;

 private:
  // A frame is a 4 KiB view into a shared slab; the slab dies with its
  // last frame. Single-frame allocations own a one-page slab.
  struct Frame {
    std::shared_ptr<uint8_t[]> slab;
    size_t offset = 0;
    uint32_t refcount = 0;
  };

  const size_t max_frames_;

  // Substrate lock (rank kSubstrate: always a leaf) over the frame table and
  // refcounts, taken by allocation, pinning and unpinning only. Frame
  // *data* is deliberately not guarded: it models DMA targets whose races
  // are validated by the object-layout seqlock.
  mutable Mutex mu_;
  std::vector<Frame> frames_ GUARDED_BY(mu_);
  std::vector<FrameId> free_list_ GUARDED_BY(mu_);
  size_t live_frames_ GUARDED_BY(mu_) = 0;
  size_t peak_frames_ GUARDED_BY(mu_) = 0;
  uint64_t total_allocs_ GUARDED_BY(mu_) = 0;
};

}  // namespace corm::sim

#endif  // CORM_SIM_PHYSICAL_MEMORY_H_
