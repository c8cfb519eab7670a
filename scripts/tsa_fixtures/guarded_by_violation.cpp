// NEGATIVE fixture for the Clang thread-safety CI job. This file reads and
// writes a SYNTS_GUARDED_BY member without holding its mutex; compiling it
// with `clang++ -Wthread-safety -Werror=thread-safety` MUST FAIL. The CI
// step inverts the exit code, so the analysis silently going dark (a macro
// edit that no-ops the attributes, a flag typo in the job) breaks the
// build instead of shipping unanalyzed annotations.
//
// Not part of any CMake target: only the wthread-safety CI job compiles it.

#include "util/thread_safety.h"

#include <cstdint>

namespace {

class racy_counter {
public:
    void bump()
    {
        ++value_; // BAD: mutates value_ without mutex_ -- TSA must reject
    }

    [[nodiscard]] std::uint64_t read() const
    {
        return value_; // BAD: reads value_ without mutex_ -- TSA must reject
    }

private:
    mutable synts::util::annotated_mutex mutex_;
    std::uint64_t value_ SYNTS_GUARDED_BY(mutex_) = 0;
};

} // namespace

int main()
{
    racy_counter counter;
    counter.bump();
    return static_cast<int>(counter.read());
}
