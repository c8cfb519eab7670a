// helpers.h -- shared test utilities: functional netlist evaluation and
// program artifacts profiled from a hand-built trace.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "arch/multicore.h"
#include "circuit/cell_library.h"
#include "circuit/dynamic_timing.h"
#include "circuit/netlist.h"
#include "circuit/voltage_model.h"
#include "core/program_artifacts.h"

namespace synts::test {

/// Functional evaluator for a combinational netlist (single nominal
/// corner). Also exposes the per-step sensitized delay.
class netlist_evaluator {
public:
    explicit netlist_evaluator(const circuit::netlist& nl)
        : lib_(circuit::cell_library::standard_22nm()), vm_(0.0),
          sim_(nl, lib_, vm_, std::span<const double>(&nominal_vdd_, 1)), nl_(nl),
          bits_(std::make_unique<bool[]>(nl.input_count()))
    {
    }

    /// Drives the inputs (LSB-first bit span) and returns the sensitized
    /// delay of the step.
    double step(std::span<const bool> inputs)
    {
        double delay = 0.0;
        sim_.step(inputs, std::span<double>(&delay, 1));
        return delay;
    }

    /// Drives inputs packed from `fields`: each (value, width) pair is
    /// written LSB-first in order.
    double step_fields(std::span<const std::pair<std::uint64_t, std::size_t>> fields)
    {
        std::size_t cursor = 0;
        for (const auto& [value, width] : fields) {
            for (std::size_t i = 0; i < width; ++i) {
                bits_[cursor++] = ((value >> i) & 1) != 0;
            }
        }
        return step(std::span<const bool>(bits_.get(), nl_.input_count()));
    }

    /// Reads `width` primary outputs starting at `first` as an LSB-first
    /// integer.
    [[nodiscard]] std::uint64_t read_outputs(std::size_t first, std::size_t width)
    {
        std::uint64_t value = 0;
        for (std::size_t i = 0; i < width; ++i) {
            if (sim_.output_value(first + i)) {
                value |= (std::uint64_t{1} << i);
            }
        }
        return value;
    }

    /// Single output bit.
    [[nodiscard]] bool read_output(std::size_t index)
    {
        return sim_.output_value(index);
    }

    /// Stage nominal period (STA critical path at 1.0 V).
    [[nodiscard]] double nominal_period_ps() const { return sim_.nominal_period_ps(0); }

    /// Resets simulator state to all-zero.
    void reset() { sim_.reset(); }

private:
    double nominal_vdd_ = 1.0;
    circuit::cell_library lib_;
    circuit::voltage_model vm_;
    circuit::dynamic_timing_simulator sim_;
    const circuit::netlist& nl_;
    std::unique_ptr<bool[]> bits_;
};

/// Program artifacts for an externally generated trace: the trace plus its
/// arch::multicore_profiler profiles. The workload, seed and
/// workload_digest stay at their defaults (digest 0: provenance unknown).
inline core::program_artifacts characterize_trace(arch::program_trace trace,
                                                  const arch::core_config& core = {})
{
    core::program_artifacts artifacts;
    artifacts.thread_count = trace.thread_count();
    artifacts.trace = std::move(trace);
    artifacts.arch_profiles = arch::multicore_profiler(core).profile(artifacts.trace);
    return artifacts;
}

} // namespace synts::test
