#include "serve/service.h"

#include <utility>

namespace flowgnn {

namespace {

PoolConfig
pool_config(const ServiceConfig &service)
{
    // Fail fast: a malformed config must never reach replica threads.
    service.validate();
    PoolConfig pool;
    pool.num_dies = static_cast<std::uint32_t>(service.replicas);
    pool.policy = PoolPolicy::kSpaceShare;
    pool.queue_capacity = service.queue_capacity;
    pool.admission = service.admission;
    pool.start_paused = service.start_paused;
    pool.metrics = service.metrics;
    return pool;
}

} // namespace

InferenceService::InferenceService(const Model &model,
                                   EngineConfig engine_config,
                                   ServiceConfig service_config)
    : queue_capacity_(service_config.queue_capacity),
      pool_(model, engine_config, pool_config(service_config))
{
}

std::vector<std::future<RunResult>>
InferenceService::submit_batch(std::vector<GraphSample> samples)
{
    std::vector<std::future<RunResult>> futures;
    futures.reserve(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        try {
            futures.push_back(submit(std::move(samples[i])));
        } catch (const ServiceOverloaded &) {
            // Shed the tail, keep the accepted prefix's futures.
            batch_shed_ += samples.size() - i - 1;
            break;
        }
    }
    return futures;
}

ServiceStats
InferenceService::stats() const
{
    const PoolStats pool = pool_.stats();
    ServiceStats out;
    out.submitted = pool.fast.submitted;
    out.completed = pool.fast.completed;
    out.failed = pool.fast.failed;
    out.rejected = pool.fast.rejected + batch_shed_;
    out.uptime_ms = pool.uptime_ms;
    out.throughput_gps = out.uptime_ms <= 0.0
        ? 0.0
        : static_cast<double>(out.completed) * 1e3 / out.uptime_ms;
    out.p50_ms = pool.latency_p50_ms;
    out.p95_ms = pool.latency_p95_ms;
    out.p99_ms = pool.latency_p99_ms;
    out.queue_peak_occupancy = pool.queue_peak_occupancy;
    out.queue_capacity = pool.queue_capacity;
    out.blocked_producers = pool.blocked_producers;
    out.replicas.reserve(pool.dies.size());
    for (const DieStats &die : pool.dies)
        out.replicas.push_back({die.leases, die.busy_ms, die.utilization});
    return out;
}

} // namespace flowgnn
