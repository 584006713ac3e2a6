// Clang Thread Safety Analysis annotations (no-ops on other compilers).
//
// These macros attach compile-time locking contracts to lock types
// (CAPABILITY), guarded state (GUARDED_BY / PT_GUARDED_BY), and functions
// (REQUIRES / ACQUIRE / RELEASE / ...). Under clang the build promotes the
// analysis to an error (-Werror=thread-safety-analysis, see the root
// CMakeLists.txt), so a mis-guarded field is a build failure rather than a
// lucky TSan interleaving. GCC and other compilers see empty macros; the
// annotations cost nothing at runtime anywhere.
//
// Conventions (DESIGN.md §6.3):
//   * Every lock-like type is a CAPABILITY; every field it protects is
//     GUARDED_BY (or PT_GUARDED_BY for pointees) that lock.
//   * Private helpers that expect the caller to hold a lock say REQUIRES.
//   * Lock-free code the analyzer cannot prove (seqlock readers, Vyukov
//     cell hand-off, refcounted teardown) carries NO_THREAD_SAFETY_ANALYSIS
//     with a one-line proof sketch — enforced by corm-tidy (rule 6).

#ifndef CORM_COMMON_THREAD_ANNOTATIONS_H_
#define CORM_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#define CORM_TS_ATTRIBUTE__(x) __attribute__((x))
#else
#define CORM_TS_ATTRIBUTE__(x)  // no-op
#endif

// --- Type annotations. ------------------------------------------------------

// Marks a class as a lockable capability ("mutex", "shared_mutex", ...).
#define CAPABILITY(x) CORM_TS_ATTRIBUTE__(capability(x))

// Marks an RAII class whose lifetime equals a critical section.
#define SCOPED_CAPABILITY CORM_TS_ATTRIBUTE__(scoped_lockable)

// --- Data annotations. ------------------------------------------------------

// The field may only be touched while holding `x`.
#define GUARDED_BY(x) CORM_TS_ATTRIBUTE__(guarded_by(x))

// The *pointee* of this pointer/smart-pointer field is protected by `x`.
#define PT_GUARDED_BY(x) CORM_TS_ATTRIBUTE__(pt_guarded_by(x))

// Documented acquisition order between two locks (hierarchy hints).
#define ACQUIRED_BEFORE(...) CORM_TS_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) CORM_TS_ATTRIBUTE__(acquired_after(__VA_ARGS__))

// --- Function annotations. --------------------------------------------------

// Caller must already hold the capability (exclusively / shared).
#define REQUIRES(...) \
  CORM_TS_ATTRIBUTE__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  CORM_TS_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

// The function acquires the capability and holds it on return.
#define ACQUIRE(...) CORM_TS_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  CORM_TS_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))

// The function releases a capability the caller held on entry.
#define RELEASE(...) CORM_TS_ATTRIBUTE__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  CORM_TS_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  CORM_TS_ATTRIBUTE__(release_generic_capability(__VA_ARGS__))

// The function attempts the acquisition; first argument is the success
// return value.
#define TRY_ACQUIRE(...) \
  CORM_TS_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  CORM_TS_ATTRIBUTE__(try_acquire_shared_capability(__VA_ARGS__))

// Caller must NOT hold the capability (catches self-deadlock).
#define EXCLUDES(...) CORM_TS_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

// Runtime assertion that the capability is held (fatal otherwise); teaches
// the analyzer the fact without an acquisition.
#define ASSERT_CAPABILITY(x) CORM_TS_ATTRIBUTE__(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  CORM_TS_ATTRIBUTE__(assert_shared_capability(x))

// The function returns a reference to the capability guarding its result.
#define RETURN_CAPABILITY(x) CORM_TS_ATTRIBUTE__(lock_returned(x))

// Escape hatch for code the analyzer cannot model. Every use MUST carry a
// one-line proof sketch on the same or preceding line (corm-tidy rule 6).
#define NO_THREAD_SAFETY_ANALYSIS \
  CORM_TS_ATTRIBUTE__(no_thread_safety_analysis)

#endif  // CORM_COMMON_THREAD_ANNOTATIONS_H_
