// thread_safety.h -- Clang thread-safety-analysis capability wrappers.
//
// Every mutex in src/ is an annotated_mutex from this header; the repo
// lint (scripts/lint_synts.py) rejects raw std::mutex anywhere else. Under clang the wrappers expose capability
// attributes so `-Wthread-safety -Werror` turns an unguarded access to a
// SYNTS_GUARDED_BY member -- or a *_locked helper called without its
// SYNTS_REQUIRES lock -- into a build break. Under GCC every attribute
// macro expands to nothing and the wrappers compile to plain std::mutex.
// Lock ORDER is not checked here: ThreadSanitizer's deadlock detector
// reports a lock-order inversion on any run that takes two mutexes both
// ways (scripts/tsan_fixtures/ proves it is live).
//
// Idioms the analysis requires (clang TSA matches capability EXPRESSIONS
// textually, and does not see through libstdc++'s lock types):
//   - use the scoped guards below, never std::lock_guard/std::unique_lock;
//   - bind a local reference first when locking through an indirection,
//     so the guard expression and the member accesses name the same
//     object:  worker_queue& queue = *queues_[i];
//              const util::mutex_lock lock(queue.mutex);
//              queue.tasks.push_back(...);
//   - waits go through cv_mutex_lock + std::condition_variable_any, and
//     the wait condition is re-checked in an explicit loop rather than a
//     predicate lambda (the analysis cannot see that libstdc++ invokes the
//     predicate with the lock held);
//   - constructors and destructors are not analyzed (clang treats them as
//     NO_THREAD_SAFETY_ANALYSIS), which is why e.g. workload_registry's
//     copy constructor may fill its own members lock-free.

#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define SYNTS_TSA(x) __attribute__((x))
#else
#define SYNTS_TSA(x)
#endif

#define SYNTS_CAPABILITY(name) SYNTS_TSA(capability(name))
#define SYNTS_SCOPED_CAPABILITY SYNTS_TSA(scoped_lockable)
#define SYNTS_GUARDED_BY(mutex) SYNTS_TSA(guarded_by(mutex))
#define SYNTS_PT_GUARDED_BY(mutex) SYNTS_TSA(pt_guarded_by(mutex))
#define SYNTS_REQUIRES(...) SYNTS_TSA(requires_capability(__VA_ARGS__))
#define SYNTS_ACQUIRE(...) SYNTS_TSA(acquire_capability(__VA_ARGS__))
#define SYNTS_RELEASE(...) SYNTS_TSA(release_capability(__VA_ARGS__))
#define SYNTS_TRY_ACQUIRE(...) SYNTS_TSA(try_acquire_capability(__VA_ARGS__))
#define SYNTS_EXCLUDES(...) SYNTS_TSA(locks_excluded(__VA_ARGS__))
#define SYNTS_RETURN_CAPABILITY(mutex) SYNTS_TSA(lock_returned(mutex))
#define SYNTS_NO_THREAD_SAFETY_ANALYSIS SYNTS_TSA(no_thread_safety_analysis)

namespace synts::util {

/// std::mutex plus a capability attribute: the same layout in every build,
/// and every member inlines to the std::mutex call.
class SYNTS_CAPABILITY("mutex") annotated_mutex {
public:
    annotated_mutex() = default;
    annotated_mutex(const annotated_mutex&) = delete;
    annotated_mutex& operator=(const annotated_mutex&) = delete;

    void lock() SYNTS_ACQUIRE() { mutex_.lock(); }

    bool try_lock() SYNTS_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

    void unlock() SYNTS_RELEASE() { mutex_.unlock(); }

private:
    std::mutex mutex_;
};

/// Scope-bound exclusive lock (the std::lock_guard replacement).
class SYNTS_SCOPED_CAPABILITY mutex_lock {
public:
    explicit mutex_lock(annotated_mutex& mutex) SYNTS_ACQUIRE(mutex) : mutex_(mutex)
    {
        mutex_.lock();
    }

    ~mutex_lock() SYNTS_RELEASE() { mutex_.unlock(); }

    mutex_lock(const mutex_lock&) = delete;
    mutex_lock& operator=(const mutex_lock&) = delete;

private:
    annotated_mutex& mutex_;
};

/// Scope-bound exclusive lock that std::condition_variable_any can wait
/// on. The BasicLockable surface (lock/unlock) is deliberately free of
/// acquire/release annotations: the condition variable releases and
/// reacquires around the wait, and the analysis models the capability as
/// held across it (the abseil CondVar model).
class SYNTS_SCOPED_CAPABILITY cv_mutex_lock {
public:
    explicit cv_mutex_lock(annotated_mutex& mutex) SYNTS_ACQUIRE(mutex) : mutex_(mutex)
    {
        mutex_.lock();
    }

    ~cv_mutex_lock() SYNTS_RELEASE() { mutex_.unlock(); }

    cv_mutex_lock(const cv_mutex_lock&) = delete;
    cv_mutex_lock& operator=(const cv_mutex_lock&) = delete;

    void lock() SYNTS_NO_THREAD_SAFETY_ANALYSIS { mutex_.lock(); }

    void unlock() SYNTS_NO_THREAD_SAFETY_ANALYSIS { mutex_.unlock(); }

private:
    annotated_mutex& mutex_;
};

} // namespace synts::util
