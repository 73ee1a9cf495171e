// Annotated mutex primitives (DESIGN.md §13): thin wrappers over
// std::mutex / std::shared_mutex / std::condition_variable that carry the
// clang thread-safety capability annotations from util/thread_annotations.h.
// All locking in src/ goes through these types — tools/lint_invariants.py
// rejects the raw std primitives outside src/util/ — so the -Wthread-safety
// CI build proves the repo's lock discipline instead of documenting it.
//
// The wrappers add no state and no behavior: Mutex is std::mutex, MutexLock
// is a scoped lock (with an adopt constructor for try-lock paths),
// SharedMutex is std::shared_mutex held through the scoped ReaderMutexLock
// (shared) or WriterMutexLock (exclusive), and CondVar waits on a Mutex the
// caller already holds. Condition waits are written as explicit while-loops
// at the call sites (not predicate lambdas) because the analysis cannot see
// through a lambda's capture list.

#ifndef QREG_UTIL_MUTEX_H_
#define QREG_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "util/thread_annotations.h"

namespace qreg {
namespace util {

class CondVar;

/// \brief An annotated std::mutex. Prefer MutexLock over manual
/// Lock()/Unlock() pairs; the manual API exists for the adopt idiom and for
/// code with non-scoped critical sections.
class QREG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() QREG_ACQUIRE() { mu_.lock(); }
  void Unlock() QREG_RELEASE() { mu_.unlock(); }

  /// Returns true (with the lock held) iff the mutex was free. Pair a
  /// successful TryLock with MutexLock's adopt constructor so the release
  /// is still scoped.
  bool TryLock() QREG_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief RAII scoped lock over util::Mutex.
class QREG_SCOPED_CAPABILITY MutexLock {
 public:
  /// Tag type selecting the adopt constructor.
  struct Adopt {};

  explicit MutexLock(Mutex* mu) QREG_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }

  /// Adopts a mutex the caller already holds (e.g. after a successful
  /// TryLock) so the destructor releases it.
  MutexLock(Mutex* mu, Adopt) QREG_REQUIRES(mu) : mu_(mu) {}

  ~MutexLock() QREG_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// \brief An annotated std::shared_mutex: many readers or one writer.
/// Lock it through ReaderMutexLock / WriterMutexLock.
class QREG_CAPABILITY("mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() QREG_ACQUIRE() { mu_.lock(); }
  void Unlock() QREG_RELEASE() { mu_.unlock(); }
  void ReaderLock() QREG_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void ReaderUnlock() QREG_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// \brief RAII shared (reader) lock over util::SharedMutex.
class QREG_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) QREG_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() QREG_RELEASE() { mu_->ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// \brief RAII exclusive (writer) lock over util::SharedMutex.
class QREG_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) QREG_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() QREG_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// \brief Condition variable paired with util::Mutex. Every wait requires
/// the mutex held; spurious wakeups are expected — call sites loop on their
/// predicate.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases *mu, blocks, and reacquires *mu before returning.
  void Wait(Mutex* mu) QREG_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // The caller's scope still owns the mutex.
  }

  /// Like Wait() but gives up after `nanos`. Returns false iff the wait
  /// timed out (the mutex is reacquired either way). Non-positive `nanos`
  /// times out immediately.
  bool WaitFor(Mutex* mu, int64_t nanos) QREG_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    const std::cv_status status =
        cv_.wait_for(lk, std::chrono::nanoseconds(nanos));
    lk.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace util
}  // namespace qreg

#endif  // QREG_UTIL_MUTEX_H_
