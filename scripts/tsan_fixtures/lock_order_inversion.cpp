// NEGATIVE fixture for the ThreadSanitizer CI job. Two threads take the
// same two util::annotated_mutex objects in opposite orders; running the
// binary built with `g++ -fsanitize=thread` MUST print a
// `lock-order-inversion` report. The CI step fails unless it does, so the
// one check that guards lock order cannot go dark unnoticed.
//
// The threads are joined one after the other, so the inversion never
// closes into a real deadlock: TSan reports the potential cycle from the
// two acquisition orders alone.
//
// Not part of any CMake target: only the thread-sanitizer CI job builds it.

#include "util/thread_safety.h"

#include <thread>

namespace {

synts::util::annotated_mutex first;
synts::util::annotated_mutex second;

void take(synts::util::annotated_mutex& outer, synts::util::annotated_mutex& inner)
{
    const synts::util::mutex_lock a(outer);
    const synts::util::mutex_lock b(inner);
}

} // namespace

int main()
{
    std::thread forward([] { take(first, second); });
    forward.join();
    std::thread backward([] { take(second, first); }); // BAD: inverted order
    backward.join();
    return 0;
}
