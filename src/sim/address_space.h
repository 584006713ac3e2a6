// Simulated per-node virtual address space: page table, virtual-address
// allocation with reuse, remapping, and MMU-notifier callbacks.
//
// This is the component that makes CoRM's compaction mechanism observable in
// simulation: CPU-side code reaches memory only through Translate*, so after
// Remap() a virtual page genuinely resolves to the destination block's
// physical frame. RNICs snapshot translations at registration time into
// their own MTT (rdma/rnic.h); ODP memory regions additionally subscribe to
// this address space's MmuNotifier so remaps invalidate their entries, which
// mirrors the Linux mmu_notifier → ODP pipeline.

#ifndef CORM_SIM_ADDRESS_SPACE_H_
#define CORM_SIM_ADDRESS_SPACE_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "sim/physical_memory.h"

namespace corm::sim {

// Simulated virtual address. Page-aligned addresses map whole pages.
using VAddr = uint64_t;

inline constexpr VAddr kVPageShift = 12;
inline constexpr VAddr kVPageSize = 1ULL << kVPageShift;  // matches kFrameSize

inline constexpr VAddr PageBase(VAddr a) { return a & ~(kVPageSize - 1); }
inline constexpr uint64_t PageOffset(VAddr a) { return a & (kVPageSize - 1); }

// Callback interface for consumers that cache translations (ODP regions).
class MmuNotifier {
 public:
  virtual ~MmuNotifier() = default;
  // The mapping of `page` (page-aligned) changed or was removed. The holder
  // must drop / invalidate any cached translation for it.
  virtual void OnMappingChange(VAddr page) = 0;
};

class AddressSpace {
 public:
  // All reserved ranges start at this base, so (vaddr - kBase) >> 12 is a
  // compact page index (CoRM packs it into object headers, paper §3.3).
  static constexpr VAddr kBase = 0x0000'1000'0000'0000ULL;

  explicit AddressSpace(PhysicalMemory* phys) : phys_(phys) {}

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  ~AddressSpace();

  // --- Virtual address allocation (no backing). -------------------------
  // Reserves a page-aligned range of `npages` pages and returns its base.
  // Released ranges are recycled, which is what lets CoRM reuse virtual
  // addresses after ReleasePtr/Free (paper §3.3).
  VAddr ReserveRange(size_t npages);
  void ReleaseRange(VAddr base, size_t npages);

  // --- Mapping. ----------------------------------------------------------
  // Maps npages starting at `base` to freshly allocated frames
  // (memfd_create + mmap in the paper). Takes a page-table reference on
  // each frame.
  Status MapFresh(VAddr base, size_t npages);

  // MapFresh, but backed by ONE contiguous slab (a linear memfd extent):
  // the bytes of page i+1 directly follow page i in host memory, so a
  // CPU-side consumer may hold a single TranslatePtr(base) pointer across
  // the whole range. The keyed index table needs this — its server-side
  // view walks buckets linearly (index/index_table.h).
  Status MapFreshContiguous(VAddr base, size_t npages);

  // Maps pages at `base` to explicit frames (shared mapping of an existing
  // memfd region). Takes a reference on each frame.
  Status MapFrames(VAddr base, const std::vector<FrameId>& frames);

  // Points npages at `base` to the frames that currently back `target`
  // (mmap(MAP_FIXED) of the destination block's memfd file over the source
  // block's virtual range — the core compaction remap, paper §3.1.2).
  // Old frames lose the page-table reference. Fires MmuNotifiers.
  Status Remap(VAddr base, VAddr target, size_t npages);

  // Removes the mappings and drops the page-table references.
  Status Unmap(VAddr base, size_t npages);

  // --- Translation (the CPU/MMU path). ------------------------------------
  // Frame currently backing the page containing `addr`.
  Result<FrameId> TranslatePage(VAddr addr) const;

  // Direct byte pointer for CPU load/store at `addr`. Returns nullptr for
  // unmapped addresses. Takes only the page-table lock: the pointer comes
  // from the page-table entry, not the frame pool. It is valid until the
  // page is remapped or unmapped (callers on hot paths cache it per block
  // and are invalidated by CoRM's own block ownership protocol).
  uint8_t* TranslatePtr(VAddr addr) const;

  // Copies `size` bytes crossing page boundaries through translation.
  Status ReadVirtual(VAddr addr, void* out, size_t size) const;
  Status WriteVirtual(VAddr addr, const void* data, size_t size);

  // --- MMU notifiers. ------------------------------------------------------
  void AddNotifier(MmuNotifier* notifier);
  void RemoveNotifier(MmuNotifier* notifier);

  PhysicalMemory* physical_memory() const { return phys_; }

  // Number of mapped pages (diagnostics).
  size_t mapped_pages() const;
  // Total reserved-but-unreleased virtual pages: virtual address footprint.
  size_t reserved_pages() const;

 private:
  void NotifyChange(VAddr page);

  PhysicalMemory* const phys_;

  // One page-table entry: the frame it pins and that frame's bytes (the
  // pointer PhysicalMemory::Ref returned), so translation never goes back
  // to the frame pool.
  struct PageEntry {
    FrameId frame = kInvalidFrame;
    uint8_t* data = nullptr;
  };

  // Substrate lock (rank kSubstrate: always a leaf, models the kernel's
  // mmap_lock). Annotated for clang thread-safety analysis.
  mutable Mutex mu_;
  std::unordered_map<VAddr, PageEntry> page_table_
      GUARDED_BY(mu_);  // vpage base -> entry
  // Virtual allocator state: bump pointer + freelist of ranges by size.
  VAddr next_vaddr_ GUARDED_BY(mu_) = kBase;
  std::multimap<size_t, VAddr> free_ranges_ GUARDED_BY(mu_);  // npages -> base
  size_t reserved_pages_ GUARDED_BY(mu_) = 0;
  std::vector<MmuNotifier*> notifiers_ GUARDED_BY(mu_);
};

}  // namespace corm::sim

#endif  // CORM_SIM_ADDRESS_SPACE_H_
