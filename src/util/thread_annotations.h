// Clang thread-safety-analysis attribute macros (DESIGN.md §13).
//
// The QREG_ macros below attach compile-time locking contracts to mutexes,
// the data they guard, and the functions that acquire them. Under clang with
// -Wthread-safety the analysis proves every GUARDED_BY field is only touched
// with its capability held and every REQUIRES contract is honored at each
// call site; under any other compiler they expand to nothing. CI builds the
// library with clang and -Wthread-safety -Werror, so a lock-discipline
// violation is a build break, not a TSan lottery ticket.
//
// Conventions (see util/mutex.h for the annotated primitives):
//   - Every mutex-guarded field carries QREG_GUARDED_BY(mu).
//   - Private helpers that assume a lock is held carry QREG_REQUIRES(mu)
//     (or QREG_REQUIRES_SHARED(mu) when reading under a util::SharedMutex
//     reader lock) instead of re-locking.
//   - Try-lock paths adopt via MutexLock's adopt constructor so the scoped
//     release is still proven.
//   - Deliberate lock-free reads (atomically published pointers, racy hints
//     formalized by a comment) are isolated in tiny accessors marked
//     QREG_NO_THREAD_SAFETY_ANALYSIS with the happens-before argument
//     written next to them.

#ifndef QREG_UTIL_THREAD_ANNOTATIONS_H_
#define QREG_UTIL_THREAD_ANNOTATIONS_H_

// NOLINTBEGIN(bugprone-macro-parentheses)

#if defined(__clang__)
#define QREG_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define QREG_THREAD_ANNOTATION(x)  // no-op off clang
#endif

/// Marks a class as a lockable capability (e.g. a mutex type).
#define QREG_CAPABILITY(x) QREG_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define QREG_SCOPED_CAPABILITY QREG_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be read or written with capability `x` held.
#define QREG_GUARDED_BY(x) QREG_THREAD_ANNOTATION(guarded_by(x))

/// Pointee may only be touched with capability `x` held.
#define QREG_PT_GUARDED_BY(x) QREG_THREAD_ANNOTATION(pt_guarded_by(x))

/// Documents (and, where the analysis supports it, checks) lock ordering.
#define QREG_ACQUIRED_BEFORE(...) \
  QREG_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define QREG_ACQUIRED_AFTER(...) \
  QREG_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Caller must hold the capability; the function does not release it.
#define QREG_REQUIRES(...) \
  QREG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Caller must hold the capability at least shared (reader) mode.
#define QREG_REQUIRES_SHARED(...) \
  QREG_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define QREG_ACQUIRE(...) \
  QREG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function acquires the capability in shared (reader) mode.
#define QREG_ACQUIRE_SHARED(...) \
  QREG_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function releases a held capability.
#define QREG_RELEASE(...) \
  QREG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function releases a capability held in shared (reader) mode.
#define QREG_RELEASE_SHARED(...) \
  QREG_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `result`.
#define QREG_TRY_ACQUIRE(result, ...) \
  QREG_THREAD_ANNOTATION(try_acquire_capability(result, __VA_ARGS__))

/// Caller must NOT hold the capability (deadlock guard for re-entry).
#define QREG_EXCLUDES(...) \
  QREG_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (trusted by the analysis).
#define QREG_ASSERT_CAPABILITY(x) \
  QREG_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the named capability.
#define QREG_RETURN_CAPABILITY(x) QREG_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: the function's body is exempt from the analysis. Every use
/// must carry a comment with the happens-before argument that makes the
/// unchecked access sound.
#define QREG_NO_THREAD_SAFETY_ANALYSIS \
  QREG_THREAD_ANNOTATION(no_thread_safety_analysis)

// NOLINTEND(bugprone-macro-parentheses)

#endif  // QREG_UTIL_THREAD_ANNOTATIONS_H_
