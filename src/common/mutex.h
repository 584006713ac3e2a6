// Annotated mutex wrappers and RAII guards for Thread Safety Analysis.
//
// libstdc++'s std::mutex / std::shared_mutex and std::lock_guard /
// std::unique_lock / std::shared_lock carry no thread-safety attributes, so
// clang's analysis cannot see acquisitions made through them — every access
// under a std::lock_guard would be a false positive. This header provides:
//
//   * corm::Mutex / corm::SharedMutex / corm::CountedMutex — thin
//     CAPABILITY-annotated wrappers over the std primitives, for substrate
//     state (src/sim/, src/rdma/) that models kernel/NIC internals and
//     does not participate in the CoRM lock-rank hierarchy (rank
//     kSubstrate, always a leaf).
//   * LockGuard<M> / SharedLockGuard<M> — SCOPED_CAPABILITY guards usable
//     with any annotated Lockable (SpinLock, RankedSpinLock,
//     RankedSharedMutex, Mutex, SharedMutex, CountedMutex).
//
// The data plane (src/alloc/, src/core/) keeps using the ranked locks from
// common/lock_rank.h (enforced by lint.sh rule 2); these guards work for
// both worlds.

#ifndef CORM_COMMON_MUTEX_H_
#define CORM_COMMON_MUTEX_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace corm {

// Exclusive mutex for substrate state outside the lock-rank hierarchy.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void unlock() RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

// Mutex that counts its acquisitions, for substrate state whose readers
// promise to take no lock: a test snapshots acquisitions(), runs the
// lock-free path, and checks the count did not move.
class CAPABILITY("mutex") CountedMutex {
 public:
  CountedMutex() = default;
  CountedMutex(const CountedMutex&) = delete;
  CountedMutex& operator=(const CountedMutex&) = delete;

  void lock() ACQUIRE() {
    mu_.lock();
    acquires_.fetch_add(1, std::memory_order_relaxed);
  }
  void unlock() RELEASE() { mu_.unlock(); }

  uint64_t acquisitions() const {
    return acquires_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  std::atomic<uint64_t> acquires_{0};
};

// Reader/writer mutex for substrate state outside the lock-rank hierarchy.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  void lock_shared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

// Exclusive RAII guard. The destructor releases whatever mode the
// constructor acquired; RELEASE() without arguments covers both modes,
// which is what scoped_lockable destructors require.
template <typename M>
class SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(M& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  M& mu_;
};

// Shared (reader) RAII guard for SharedLockable types.
template <typename M>
class SCOPED_CAPABILITY SharedLockGuard {
 public:
  explicit SharedLockGuard(M& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~SharedLockGuard() RELEASE() { mu_.unlock_shared(); }

  SharedLockGuard(const SharedLockGuard&) = delete;
  SharedLockGuard& operator=(const SharedLockGuard&) = delete;

 private:
  M& mu_;
};

}  // namespace corm

#endif  // CORM_COMMON_MUTEX_H_
