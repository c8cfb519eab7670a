#include "obs/metrics.h"

#include "util/hashing.h"

#include <algorithm>
#include <chrono>
#include <cmath>
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
    case metric_sample::kind::histogram: return "histogram";
    }
    return "unknown";
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

std::uint64_t latency_histogram::percentile(double q) const noexcept
{
    const std::uint64_t n = total();
    if (n == 0) {
        return 0;
    }
    q = std::clamp(q, 0.0, 1.0);
    std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::uint64_t>(rank, 1, n);
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < bucket_count; ++b) {
        cumulative += count_at(b);
        if (cumulative >= rank) {
            return bucket_lower_bound(b);
        }
    }
    // Unreachable once cumulative == total(), but racing writers can make
    // total() read ahead of the bucket sums; fall back to the max bucket.
    for (std::size_t b = bucket_count; b-- > 0;) {
        if (count_at(b) != 0) {
            return bucket_lower_bound(b);
        }
    }
    return 0;
}

void latency_histogram::reset() noexcept
{
    for (stripe& s : stripes_) {
        for (std::atomic<std::uint64_t>& bucket : s.buckets) {
            bucket.store(0, std::memory_order_relaxed);
        }
    }
    for (padded_total& t : totals_) {
        t.value.store(0, std::memory_order_relaxed);
    }
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

latency_histogram& metrics_registry::histogram_at(std::string_view name)
{
    const util::mutex_lock lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_.emplace(std::string(name), std::make_unique<latency_histogram>())
                 .first;
    }
    return *it->second;
}

std::vector<metric_sample> metrics_registry::snapshot() const
{
    const util::mutex_lock lock(mutex_);
    std::vector<metric_sample> samples;
    samples.reserve(counters_.size() + gauges_.size() + histograms_.size());
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
    for (const auto& [name, h] : histograms_) {
        metric_sample s;
        s.name = name;
        s.type = metric_sample::kind::histogram;
        s.count = h->total();
        s.p50 = h->percentile(0.50);
        s.p95 = h->percentile(0.95);
        s.p99 = h->percentile(0.99);
        s.max = h->max_value();
        samples.push_back(std::move(s));
    }
    // The three per-kind maps are each name-ordered; one merge keeps the
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
    for (auto& [name, h] : histograms_) {
        h->reset();
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
        out << "name,type,value,count,p50_ns,p95_ns,p99_ns,max_ns\n";
        for (const metric_sample& s : samples) {
            out << s.name << ',' << kind_token(s.type) << ',';
            if (s.type == metric_sample::kind::gauge) {
                out << s.level;
            } else {
                out << s.count;
            }
            out << ',';
            if (s.type == metric_sample::kind::histogram) {
                out << s.count << ',' << s.p50 << ',' << s.p95 << ',' << s.p99 << ','
                    << s.max;
            } else {
                out << ",,,,";
            }
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
                << kind_token(s.type) << "\", ";
            switch (s.type) {
            case metric_sample::kind::counter:
                out << "\"value\": " << s.count;
                break;
            case metric_sample::kind::gauge:
                out << "\"value\": " << s.level;
                break;
            case metric_sample::kind::histogram:
                out << "\"count\": " << s.count << ", \"p50_ns\": " << s.p50
                    << ", \"p95_ns\": " << s.p95 << ", \"p99_ns\": " << s.p99
                    << ", \"max_ns\": " << s.max;
                break;
            }
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
            << std::setw(12) << "p50_ns" << std::setw(12) << "p95_ns" << std::setw(12)
            << "p99_ns" << std::setw(12) << "max_ns" << '\n';
        for (const metric_sample& s : samples) {
            out << std::left << std::setw(static_cast<int>(name_width)) << s.name
                << std::right << "  " << std::setw(10) << kind_token(s.type);
            if (s.type == metric_sample::kind::gauge) {
                out << std::setw(14) << s.level;
            } else {
                out << std::setw(14) << s.count;
            }
            if (s.type == metric_sample::kind::histogram) {
                out << std::setw(12) << s.p50 << std::setw(12) << s.p95 << std::setw(12)
                    << s.p99 << std::setw(12) << s.max;
            } else {
                out << std::setw(12) << '-' << std::setw(12) << '-' << std::setw(12)
                    << '-' << std::setw(12) << '-';
            }
            out << '\n';
        }
        break;
    }
    }
    return out.str();
}

} // namespace synts::obs
