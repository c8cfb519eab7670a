// bench_common.h -- shared helpers for the figure/table reproduction
// benches. Every bench prints a banner, the regenerated data, and a
// paper-vs-measured comparison block.

#pragma once

#include <cstdio>
#include <string>

#include "core/experiment.h"
#include "util/table.h"

namespace synts::bench {

/// Prints the standard banner for one reproduced artifact.
inline void banner(const std::string& artifact, const std::string& caption)
{
    std::printf("================================================================\n");
    std::printf("%s -- %s\n", artifact.c_str(), caption.c_str());
    std::printf("================================================================\n");
}

/// Prints one paper-vs-measured line.
inline void compare_line(const std::string& what, double measured, double paper,
                         int precision = 3)
{
    std::printf("  %-48s %s\n", what.c_str(),
                util::format_vs_paper(measured, paper, precision).c_str());
}

/// Prints a free-form observation line.
inline void note(const std::string& text)
{
    std::printf("  %s\n", text.c_str());
}

} // namespace synts::bench
