// Fixture: idiomatic SynTS code -- annotated locking, snapshot-based
// stats, owned allocation -- produces zero findings. Rule names
// in comments (raw-mutex, counter-diff, system-call) must not fire either.
// pseudo-path: src/runtime/fixture.cpp
// (no expected findings)

#include <memory>

struct annotated_mutex_like {
    void lock() {}
    void unlock() {}
};

struct guard {
    explicit guard(annotated_mutex_like& m) : m_(m) { m_.lock(); }
    ~guard() { m_.unlock(); }
    annotated_mutex_like& m_;
};

struct snapshot {
    unsigned long hits = 0;
};

unsigned long fine_stats(const snapshot& before, const snapshot& after)
{
    return after.hits - before.hits;
}

std::unique_ptr<int> fine_alloc()
{
    return std::make_unique<int>(7);
}
