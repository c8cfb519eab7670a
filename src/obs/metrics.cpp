#include "obs/metrics.h"

#include "util/hashing.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <sstream>
#include <thread>

namespace synts::obs {

namespace {

std::atomic<bool> telemetry_enabled{false};

/// CSV/table cells never need escaping (metric names are [a-z0-9._]), but
/// JSON strings are escaped anyway so the emitter is safe for any name.
std::string json_escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                std::ostringstream esc;
                esc << "\\u" << std::hex << std::setw(4) << std::setfill('0')
                    << static_cast<int>(static_cast<unsigned char>(c));
                out += esc.str();
            } else {
                out += c;
            }
        }
    }
    return out;
}

const char* kind_token(metric_sample::kind k)
{
    switch (k) {
    case metric_sample::kind::counter: return "counter";
    case metric_sample::kind::gauge: return "gauge";
    }
    return "unknown";
}

/// Streams a sample's value (a gauge's signed level, a counter's count),
/// honouring any width already set on `out`.
void put_value(std::ostream& out, const metric_sample& s)
{
    if (s.type == metric_sample::kind::gauge) {
        out << s.level;
    } else {
        out << s.count;
    }
}

} // namespace

bool enabled() noexcept { return telemetry_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept
{
    telemetry_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::size_t thread_stripe() noexcept
{
    // Mixing the thread-id hash decorrelates consecutive ids (libstdc++'s
    // std::hash<thread::id> is typically the identity over the pthread
    // handle, which would pile adjacent threads onto adjacent stripes).
    thread_local const std::size_t stripe = static_cast<std::size_t>(
        util::hash_mix(std::hash<std::thread::id>{}(std::this_thread::get_id()),
                       0x9E3779B97F4A7C15ull) &
        (counter_stripe_count - 1));
    return stripe;
}

counter& metrics_registry::counter_at(std::string_view name)
{
    const util::mutex_lock lock(mutex_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        it = counters_.emplace(std::string(name), std::make_unique<counter>()).first;
    }
    return *it->second;
}

gauge& metrics_registry::gauge_at(std::string_view name)
{
    const util::mutex_lock lock(mutex_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        it = gauges_.emplace(std::string(name), std::make_unique<gauge>()).first;
    }
    return *it->second;
}

std::vector<metric_sample> metrics_registry::snapshot() const
{
    const util::mutex_lock lock(mutex_);
    std::vector<metric_sample> samples;
    samples.reserve(counters_.size() + gauges_.size());
    for (const auto& [name, c] : counters_) {
        metric_sample s;
        s.name = name;
        s.type = metric_sample::kind::counter;
        s.count = c->value();
        samples.push_back(std::move(s));
    }
    for (const auto& [name, g] : gauges_) {
        metric_sample s;
        s.name = name;
        s.type = metric_sample::kind::gauge;
        s.level = g->value();
        samples.push_back(std::move(s));
    }
    // The two per-kind maps are each name-ordered; one sort keeps the
    // overall snapshot name-ordered regardless of instrument kind.
    std::sort(samples.begin(), samples.end(),
              [](const metric_sample& a, const metric_sample& b) { return a.name < b.name; });
    return samples;
}

void metrics_registry::reset()
{
    const util::mutex_lock lock(mutex_);
    for (auto& [name, c] : counters_) {
        c->reset();
    }
    for (auto& [name, g] : gauges_) {
        g->reset();
    }
}

metrics_registry& metrics_registry::global()
{
    static metrics_registry registry;
    return registry;
}

std::string render_metrics(const std::vector<metric_sample>& samples,
                           metrics_format format)
{
    std::ostringstream out;
    switch (format) {
    case metrics_format::csv: {
        out << "name,type,value\n";
        for (const metric_sample& s : samples) {
            out << s.name << ',' << kind_token(s.type) << ',';
            put_value(out, s);
            out << '\n';
        }
        break;
    }
    case metrics_format::json: {
        out << "{\n";
        bool first = true;
        for (const metric_sample& s : samples) {
            if (!first) {
                out << ",\n";
            }
            first = false;
            out << "  \"" << json_escape(s.name) << "\": {\"type\": \""
                << kind_token(s.type) << "\", \"value\": ";
            put_value(out, s);
            out << "}";
        }
        out << "\n}\n";
        break;
    }
    case metrics_format::table: {
        std::size_t name_width = 4; // "name"
        for (const metric_sample& s : samples) {
            name_width = std::max(name_width, s.name.size());
        }
        out << std::left << std::setw(static_cast<int>(name_width)) << "name"
            << std::right << "  " << std::setw(10) << "type" << std::setw(14) << "value"
            << '\n';
        for (const metric_sample& s : samples) {
            out << std::left << std::setw(static_cast<int>(name_width)) << s.name
                << std::right << "  " << std::setw(10) << kind_token(s.type)
                << std::setw(14);
            put_value(out, s);
            out << '\n';
        }
        break;
    }
    }
    return out.str();
}

} // namespace synts::obs
