// trace.h -- span recorder exporting Chrome trace-event JSON.
//
// Answers the question metrics cannot: not "how long do cells take on
// average" but "what was THIS worker doing at second 14". A recorder holds
// one append-only buffer per recording thread; a span is one "X" (complete)
// event with a steady-clock timestamp and duration, an instant is a zero-
// duration mark. write_chrome_trace() emits the Trace Event Format JSON
// that Perfetto and chrome://tracing load directly.
//
// Hot-path contract (the recording side, while a sweep runs):
//
//   * no locking: each thread appends to its own buffer; the buffer list
//     mutex is taken once per (thread, recorder) pair, at first use;
//   * no per-event allocation: buffers are chains of fixed-capacity chunks;
//     a chunk allocation happens once per `chunk::capacity` events, and
//     event names under ~22 bytes (every instrumented span here) sit in
//     libstdc++'s SSO buffer, so steady state writes are stores plus one
//     release counter bump;
//   * disabled cost is one relaxed bool load: trace_span checks
//     `recorder.enabled()` BEFORE evaluating its name (pass a callable for
//     names that need formatting -- it is only invoked when recording).
//
// Readers (event_count / events / write_chrome_trace) may run concurrently
// with writers: the per-thread committed-count is released by the writer
// and acquired by the reader, so a reader sees every event published before
// its snapshot and never a half-written one.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/thread_safety.h"

namespace synts::obs {

class trace_recorder {
public:
    /// One recorded event. `phase` is the Chrome trace-event phase: 'X'
    /// (complete, with duration) or 'i' (instant).
    struct event {
        std::string name;
        std::uint32_t tid = 0;     ///< recorder-local thread id (0, 1, ...)
        std::uint64_t ts_ns = 0;   ///< start, ns since the recorder's epoch
        std::uint64_t dur_ns = 0;  ///< 0 for instants
        char phase = 'X';
    };

    trace_recorder();
    ~trace_recorder() = default;
    trace_recorder(const trace_recorder&) = delete;
    trace_recorder& operator=(const trace_recorder&) = delete;

    /// True when spans/instants are being recorded. Relaxed load; the
    /// runner's --trace flag turns the global recorder on before the sweep.
    [[nodiscard]] bool enabled() const noexcept
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    void set_enabled(bool on) noexcept
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /// Nanoseconds since the recorder's construction (steady clock, so
    /// per-thread timestamps are monotonic).
    [[nodiscard]] std::uint64_t elapsed_ns() const noexcept;

    /// Records a completed span [ts_ns, ts_ns + dur_ns) on the calling
    /// thread. Unconditional: trace_span does the enabled() gating so raw
    /// recording stays testable.
    void complete_event(std::string name, std::uint64_t ts_ns, std::uint64_t dur_ns);

    /// Records an instant event at now (or at `ts_ns` if given).
    void instant_event(std::string name);
    void instant_event(std::string name, std::uint64_t ts_ns);

    /// Events published so far, over all threads.
    [[nodiscard]] std::size_t event_count() const;

    /// Snapshot of every published event, thread-major in publish order
    /// (threads ordered by registration, i.e. by tid).
    [[nodiscard]] std::vector<event> events() const;

    /// Writes `{"traceEvents": [...]}` Chrome trace-event JSON ("X" and
    /// "i" events; ts/dur in microseconds as the format specifies).
    void write_chrome_trace(std::ostream& out) const;

    /// The process-wide recorder instrumented spans target.
    [[nodiscard]] static trace_recorder& global();

private:
    struct chunk {
        static constexpr std::size_t capacity = 1024;
        std::array<event, capacity> events;
        std::atomic<chunk*> next{nullptr};
    };
    struct thread_buffer {
        std::uint32_t tid = 0;
        std::unique_ptr<chunk> head;
        chunk* tail = nullptr; ///< writer-only cursor
        std::atomic<std::uint64_t> committed{0};
        /// Chunks past head own each other through `next`; deleted here so
        /// destruction is iterative, not a recursive unique_ptr chain.
        ~thread_buffer();
    };

    [[nodiscard]] thread_buffer& buffer_for_current_thread();
    void append(std::string name, std::uint64_t ts_ns, std::uint64_t dur_ns, char phase);

    std::atomic<bool> enabled_{false};
    std::uint64_t epoch_ns_;
    std::uint64_t id_; ///< process-unique, guards TLS cache reuse across recorders

    /// Leaf lock over the buffer LIST only (taken once per (thread,
    /// recorder) pair); event appends are lock-free per-thread.
    mutable util::annotated_mutex buffers_mutex_;
    std::vector<std::unique_ptr<thread_buffer>> buffers_ SYNTS_GUARDED_BY(buffers_mutex_);
};

/// RAII span: records one "X" event on destruction covering its lifetime.
/// When the recorder is disabled at construction the span is inert -- the
/// name is not evaluated (callable form), no clock is read, nothing is
/// recorded at destruction even if tracing was enabled meanwhile.
class trace_span {
public:
    trace_span(trace_recorder& recorder, const char* name)
        : recorder_(recorder.enabled() ? &recorder : nullptr)
    {
        if (recorder_ != nullptr) {
            name_ = name;
            start_ns_ = recorder_->elapsed_ns();
        }
    }

    /// `make_name()` -> std::string, invoked only when recording (keeps
    /// formatted names free when tracing is off).
    template <typename NameFn>
        requires std::is_invocable_r_v<std::string, NameFn>
    trace_span(trace_recorder& recorder, NameFn&& make_name)
        : recorder_(recorder.enabled() ? &recorder : nullptr)
    {
        if (recorder_ != nullptr) {
            name_ = std::forward<NameFn>(make_name)();
            start_ns_ = recorder_->elapsed_ns();
        }
    }

    ~trace_span()
    {
        if (recorder_ != nullptr) {
            recorder_->complete_event(std::move(name_), start_ns_,
                                      recorder_->elapsed_ns() - start_ns_);
        }
    }

    trace_span(const trace_span&) = delete;
    trace_span& operator=(const trace_span&) = delete;

private:
    trace_recorder* recorder_;
    std::string name_;
    std::uint64_t start_ns_ = 0;
};

} // namespace synts::obs
