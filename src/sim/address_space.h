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
//
// The page table is a two-level radix table read without a lock, the way
// the hardware MMU walks page tables under a running kernel (DESIGN.md
// §7.6). Every mapping lies in a range ReserveRange handed out, so the page
// index (vaddr - kBase) >> 12 is dense: a fixed root of atomic leaf
// pointers covers the whole span, and each leaf holds kLeafPages entries.
//
// Reader safety argument (TranslatePtr, ReadVirtual, WriteVirtual):
//  * Leaves: a leaf is allocated zeroed under mu_ on the first map that
//    needs it and published with a release store into its root slot. A
//    reader acquire-loads the slot; null means nothing in the leaf was ever
//    mapped. Leaves are freed only by the destructor, so a reader never
//    walks freed memory.
//  * Entries: an entry's data pointer is one atomic word, written only
//    under mu_ and read with an acquire load. Writers publish the new
//    pointer before they drop the old frame's pin (Remap stores the new
//    frame's pointer, then Unrefs the old frame; Unmap stores null, then
//    Unrefs). A reader racing a writer therefore gets the old pointer or
//    the new one (or null) — the same two outcomes a reader that took the
//    mutex could get, depending on which side of the writer it queued.
//  * Lifetime: the returned pointer was never valid past the call on its
//    own: with the mutex, too, a remap could drop the frame's last
//    page-table pin the moment the reader let go. What keeps the bytes
//    alive is unchanged: block frames stay pinned by their memfd extent
//    and the RNIC's registration, and compaction retires a remapped
//    block's frames only after every worker has quiesced (DESIGN.md §9).
//  * The frame id beside the pointer is written and read under mu_ only
//    (TranslatePage and the writers), so it needs no atomic.

#ifndef CORM_SIM_ADDRESS_SPACE_H_
#define CORM_SIM_ADDRESS_SPACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
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

  explicit AddressSpace(PhysicalMemory* phys);

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  ~AddressSpace();

  // --- Virtual address allocation (no backing). -------------------------
  // Reserves a page-aligned range of `npages` pages and returns its base.
  // Released ranges are recycled, which is what lets CoRM reuse virtual
  // addresses after ReleasePtr/Free (paper §3.3). Aborts when the range
  // would end past the page table's span (kSpanPages).
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
  // unmapped addresses and addresses outside the span. Takes no lock: two
  // acquire loads walk the radix table (see the safety argument above). It
  // is valid until the page is remapped or unmapped (callers on hot paths
  // cache it per operation and are protected by CoRM's own block
  // ownership protocol).
  uint8_t* TranslatePtr(VAddr addr) const;

  // Copies `size` bytes crossing page boundaries through translation; no
  // lock, like TranslatePtr.
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

  // Acquisitions of the page-table lock so far. Translation must not move
  // it (tests/sim_test.cc, tests/replication_log_test.cc).
  uint64_t lock_acquires_for_testing() const { return mu_.acquisitions(); }

  // Radix geometry: kLeafPages pages per leaf, kRootSlots leaves, so the
  // table spans kSpanPages pages (256 GiB) from kBase.
  static constexpr size_t kLeafPages = size_t{1} << 12;
  static constexpr size_t kRootSlots = size_t{1} << 14;
  static constexpr uint64_t kSpanPages = uint64_t{kLeafPages} * kRootSlots;

 private:
  // One page-table entry: the frame it pins and that frame's bytes (the
  // pointer PhysicalMemory::Ref returned), so translation never goes back
  // to the frame pool. `data` is null while the page is unmapped.
  struct PageEntry {
    std::atomic<uint8_t*> data{nullptr};
    FrameId frame = kInvalidFrame;  // under mu_ only
  };
  struct Leaf {
    PageEntry entries[kLeafPages];
  };

  void NotifyChange(VAddr page);

  // The entry of the page holding `addr`, or nullptr when the address is
  // outside the span or its leaf was never allocated. Lock-free; callers
  // that write the entry hold mu_.
  PageEntry* FindEntry(VAddr addr) const;
  // FindEntry, allocating the leaf on first use (for the map paths).
  PageEntry* EntryForMap(VAddr page) REQUIRES(mu_);
  // Points the unmapped entry of `page` at `frame` (whose pin the caller
  // hands over) and publishes it.
  void Install(VAddr page, FrameId frame, uint8_t* data) REQUIRES(mu_);

  PhysicalMemory* const phys_;

  // Substrate lock (rank kSubstrate: always a leaf, models the kernel's
  // mmap_lock) over every writer. Readers of the data pointers skip it.
  // Annotated for clang thread-safety analysis.
  mutable CountedMutex mu_;
  // kRootSlots leaf pointers; null until a map touches the leaf.
  const std::unique_ptr<std::atomic<Leaf*>[]> root_;
  // Owns every leaf root_ points to, for the address space's lifetime.
  std::vector<std::unique_ptr<Leaf>> leaves_ GUARDED_BY(mu_);
  size_t mapped_pages_ GUARDED_BY(mu_) = 0;
  // Virtual allocator state: bump pointer + freelist of ranges by size.
  VAddr next_vaddr_ GUARDED_BY(mu_) = kBase;
  std::multimap<size_t, VAddr> free_ranges_ GUARDED_BY(mu_);  // npages -> base
  size_t reserved_pages_ GUARDED_BY(mu_) = 0;
  std::vector<MmuNotifier*> notifiers_ GUARDED_BY(mu_);
};

}  // namespace corm::sim

#endif  // CORM_SIM_ADDRESS_SPACE_H_
