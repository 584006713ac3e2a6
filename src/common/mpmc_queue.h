// corm-hotpath
//
// Bounded multi-producer / multi-consumer queue used as the shared RPC queue
// that CoRM worker threads poll (paper Fig. 3) and as the per-thread message
// channels of the compaction protocol.
//
// Implementation: mutex-free Vyukov-style ring buffer with per-cell sequence
// numbers. Capacity must be a power of two.

#ifndef CORM_COMMON_MPMC_QUEUE_H_
#define CORM_COMMON_MPMC_QUEUE_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

#include "common/sanitizer.h"
#include "common/thread_annotations.h"

namespace corm {

template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(size_t capacity_pow2) : mask_(capacity_pow2 - 1) {
    assert(capacity_pow2 >= 2 && (capacity_pow2 & mask_) == 0 &&
           "capacity must be a power of two");
    // Cell ring allocated once at construction; ops are allocation-free.
    cells_ = std::make_unique<Cell[]>(capacity_pow2);  // NOLINT(corm-hotpath-alloc)
    for (size_t i = 0; i < capacity_pow2; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  // Returns false when the queue is full.
  // Escape: lock-free — exclusive access to `cell` is granted by winning the
  // tail_ CAS and is published via the cell's seq release/acquire pair, a
  // hand-off no capability model expresses.
  bool TryPush(T value) NO_THREAD_SAFETY_ANALYSIS {
    Cell* cell;
    size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const size_t seq = cell->seq.load(std::memory_order_acquire);
      const intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (diff == 0) {
        // seq_cst: the publish half of Parker's store-then-check hand-off
        // (common/parker.h), paired with NonEmpty()'s seq_cst load. Same
        // instruction as a relaxed CAS on x86.
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    // The cell was recycled by a consumer; its seq release/acquire pair
    // carries the hand-off. Annotate it per-cell so TSan keeps the edge
    // even under weakened orders and names the cell in reports.
    CORM_TSAN_ACQUIRE(cell);
    cell->value = std::move(value);
    CORM_TSAN_RELEASE(cell);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  // Returns nullopt when the queue is empty.
  // Escape: lock-free — winning the head_ CAS makes this thread the sole
  // reader of `cell` until its seq store recycles it to producers; the
  // seq acquire pairs with the producer's release (no capability to model).
  std::optional<T> TryPop() NO_THREAD_SAFETY_ANALYSIS {
    Cell* cell;
    size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const size_t seq = cell->seq.load(std::memory_order_acquire);
      const intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return std::nullopt;  // empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    CORM_TSAN_ACQUIRE(cell);  // pairs with the producer's release
    T out = std::move(cell->value);
    CORM_TSAN_RELEASE(cell);  // recycle hand-off back to producers
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return out;
  }

  // Dequeues up to `max` elements in one head_ synchronization. The batch
  // claim is a single CAS over the contiguous ready range [pos, pos+k), so
  // a consumer draining k elements pays one contended atomic instead of k —
  // the "batched drain" that amortizes queue synchronization on the RPC
  // data plane. Returns the number of elements written to `out`.
  // Escape: lock-free — winning the head_ CAS over the whole range makes
  // this thread the sole reader of those k cells until their seq stores
  // recycle them to producers; cells checked ready before the CAS cannot
  // become unready (only producers advance seq, and only past claimed
  // positions). Same hand-off protocol as TryPop, widened to a range.
  size_t TryPopBatch(T* out, size_t max) NO_THREAD_SAFETY_ANALYSIS {
    if (max == 0) return 0;
    size_t pos = head_.load(std::memory_order_relaxed);
    size_t k;
    for (;;) {
      k = 0;
      while (k < max) {
        const Cell& cell = cells_[(pos + k) & mask_];
        const size_t seq = cell.seq.load(std::memory_order_acquire);
        if (static_cast<intptr_t>(seq) -
                static_cast<intptr_t>(pos + k + 1) != 0) {
          break;  // cell not ready: end of the contiguous claimable range
        }
        ++k;
      }
      if (k == 0) {
        const size_t cur = head_.load(std::memory_order_relaxed);
        if (cur == pos) return 0;  // queue empty at our observation point
        pos = cur;                 // another consumer advanced; re-scan
        continue;
      }
      if (head_.compare_exchange_weak(pos, pos + k,
                                      std::memory_order_relaxed)) {
        break;  // cells [pos, pos+k) are exclusively ours
      }
      // CAS failure reloaded `pos`; retry.
    }
    for (size_t i = 0; i < k; ++i) {
      Cell* cell = &cells_[(pos + i) & mask_];
      CORM_TSAN_ACQUIRE(cell);  // pairs with the producer's release
      out[i] = std::move(cell->value);
      CORM_TSAN_RELEASE(cell);  // recycle hand-off back to producers
      cell->seq.store(pos + i + mask_ + 1, std::memory_order_release);
    }
    return k;
  }

  // True when some push has claimed a slot that no pop has taken yet (its
  // value may still be in flight). The seq_cst tail load is the check half
  // of Parker's hand-off: a consumer that announced its park and then
  // reads false cannot miss a push whose producer will not see the park.
  bool NonEmpty() const {
    const size_t t = tail_.load(std::memory_order_seq_cst);
    return head_.load(std::memory_order_relaxed) < t;
  }

  // Approximate: only exact when no concurrent operations are in flight.
  size_t ApproxSize() const {
    const size_t t = tail_.load(std::memory_order_relaxed);
    const size_t h = head_.load(std::memory_order_relaxed);
    return t >= h ? t - h : 0;
  }

 private:
  struct Cell {
    std::atomic<size_t> seq;
    T value;
  };

  const size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(64) std::atomic<size_t> head_{0};
  alignas(64) std::atomic<size_t> tail_{0};
};

}  // namespace corm

#endif  // CORM_COMMON_MPMC_QUEUE_H_
