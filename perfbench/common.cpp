#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "bench.h"
#include "obs/stage_profile.h"

namespace perfbench {

namespace {

std::string
json_number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
json_string(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

void
Report::e2e(std::string name, double value, std::string unit)
{
    end_to_end.push_back({std::move(name), value, std::move(unit)});
}

void
Report::layer(std::string name, double value, std::string unit)
{
    per_layer.push_back({std::move(name), value, std::move(unit)});
}

void
Report::note(std::string key, double value)
{
    record.emplace_back(std::move(key), json_number(value));
}

void
Report::note(std::string key, const std::string &text)
{
    record.emplace_back(std::move(key), json_string(text));
}

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(idx, values.size() - 1)];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

std::uint64_t
derive_seed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 over (seed, stream): distinct streams never share a
    // generator state.
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

bool
within_tolerance(double got, double want, double tol)
{
    return std::isfinite(got) &&
           std::fabs(got - want) <= tol * std::max(1.0, std::fabs(want));
}

double
max_abs_diff(const flowgnn::Matrix &a, const flowgnn::Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return std::numeric_limits<double>::infinity();
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(
            worst, std::fabs(double(a.data()[i]) - double(b.data()[i])));
    return worst;
}

double
peak_rss_mb()
{
    return static_cast<double>(flowgnn::obs::read_memory_stats().hwm_kb) /
           1024.0;
}

std::uint64_t
Spans::to_ns(Clock::time_point t) const
{
    if (!session_)
        return 0;
    const auto back = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - t)
                          .count();
    const std::uint64_t now = session_->now_ns();
    return back > 0 && std::uint64_t(back) < now ? now - back : now;
}

void
Spans::record(std::string_view name, std::uint64_t start_ns,
              std::uint64_t end_ns)
{
    if (!session_)
        return;
    session_->span(flowgnn::obs::Track::kHost, name, start_ns, end_ns);
    const double secs =
        end_ns > start_ns ? double(end_ns - start_ns) / 1e9 : 0.0;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = durations_.find(name);
    if (it == durations_.end())
        it = durations_.emplace(std::string(name), std::vector<double>{})
                 .first;
    it->second.push_back(secs);
}

std::vector<double>
Spans::seconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = durations_.find(name);
    return it == durations_.end() ? std::vector<double>{} : it->second;
}

double
Spans::median_s(const std::string &name) const
{
    return median(seconds(name));
}

double
peak_rss_growth_mb(const std::function<void()> &fn)
{
    const long before = flowgnn::obs::read_memory_stats().rss_kb;
    std::atomic<long> peak{before};
    std::atomic<bool> done{false};
    std::thread sampler([&] {
        while (!done.load(std::memory_order_relaxed)) {
            const long rss = flowgnn::obs::read_memory_stats().rss_kb;
            long cur = peak.load(std::memory_order_relaxed);
            while (rss > cur && !peak.compare_exchange_weak(cur, rss)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    });
    try {
        fn();
    } catch (...) {
        done = true;
        sampler.join();
        throw;
    }
    done = true;
    sampler.join();
    return static_cast<double>(peak.load() - before) / 1024.0;
}

} // namespace perfbench
