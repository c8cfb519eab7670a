#include "workload/registry.h"

#include <ostream>
#include <stdexcept>
#include <utility>

#include "util/hashing.h"
#include "workload/scenarios.h"

namespace synts::workload {

workload_key::workload_key(benchmark_id benchmark) : workload_key(builtin_key(benchmark))
{
}

std::ostream& operator<<(std::ostream& out, const workload_key& key)
{
    return out << key.name << '#' << std::hex << key.id << std::dec;
}

workload_key builtin_key(benchmark_id id)
{
    util::digest_builder h;
    h.text("splash2");
    h.value(id);
    return {std::string(benchmark_name(id)), h.digest()};
}

workload_registry::workload_registry(const workload_registry& other)
{
    const util::mutex_lock lock(other.mutex_);
    entries_ = other.entries_;
    by_name_ = other.by_name_;
    by_id_ = other.by_id_;
}

void workload_registry::add(workload_key key, profile_factory factory)
{
    if (key.name.empty()) {
        throw std::invalid_argument("workload_registry: empty workload name");
    }
    if (!factory) {
        throw std::invalid_argument("workload_registry: null profile factory for \"" +
                                    key.name + "\"");
    }
    const util::mutex_lock lock(mutex_);
    if (by_name_.contains(key.name)) {
        throw std::invalid_argument("workload_registry: duplicate workload name \"" +
                                    key.name + "\"");
    }
    if (const auto it = by_id_.find(key.id); it != by_id_.end()) {
        throw std::invalid_argument(
            "workload_registry: workload \"" + key.name +
            "\" has the same identity digest as \"" + entries_[it->second].key.name +
            "\" (identical family + params may not be registered twice)");
    }
    const std::size_t index = entries_.size();
    by_name_.emplace(key.name, index);
    by_id_.emplace(key.id, index);
    entries_.push_back(entry{std::move(key), std::move(factory)});
}

bool workload_registry::contains(std::string_view name) const
{
    const util::mutex_lock lock(mutex_);
    return by_name_.contains(std::string(name));
}

workload_key workload_registry::key(std::string_view name) const
{
    const util::mutex_lock lock(mutex_);
    const auto it = by_name_.find(std::string(name));
    if (it == by_name_.end()) {
        throw std::out_of_range("workload_registry: unknown workload \"" +
                                std::string(name) + "\"");
    }
    return entries_[it->second].key;
}

benchmark_profile workload_registry::make_profile(const workload_key& key,
                                                  std::size_t thread_count) const
{
    profile_factory factory;
    {
        const util::mutex_lock lock(mutex_);
        const auto it = by_id_.find(key.id);
        if (it == by_id_.end()) {
            throw std::out_of_range("workload_registry: unknown workload \"" + key.name +
                                    "\" (identity not registered)");
        }
        factory = entries_[it->second].factory;
    }
    // Invoke outside the lock: factories may be arbitrarily heavy and must
    // not serialize concurrent profile construction of unrelated workloads.
    return factory(thread_count);
}

std::vector<workload_key> workload_registry::keys() const
{
    const util::mutex_lock lock(mutex_);
    std::vector<workload_key> keys;
    keys.reserve(entries_.size());
    for (const entry& e : entries_) {
        keys.push_back(e.key);
    }
    return keys;
}

std::size_t workload_registry::size() const
{
    const util::mutex_lock lock(mutex_);
    return entries_.size();
}

workload_registry workload_registry::with_builtins()
{
    workload_registry registry;
    for (const benchmark_id id : all_benchmarks()) {
        // Qualified: the member make_profile would otherwise shadow the
        // free SPLASH-2 factory inside this member function.
        registry.add(builtin_key(id), [id](std::size_t thread_count) {
            return workload::make_profile(id, thread_count);
        });
    }
    register_default_scenarios(registry);
    return registry;
}

workload_registry& workload_registry::global()
{
    static workload_registry registry = with_builtins();
    return registry;
}

} // namespace synts::workload
