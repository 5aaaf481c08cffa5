/**
 * @file
 * flowgnn::serve — InferenceService, the replica-pool preset of
 * PoolScheduler.
 *
 * A service is a PoolScheduler whose dies are the replicas, serving
 * one-die whole-graph jobs under kSpaceShare: callers submit raw COO
 * samples and receive std::future<RunResult>. Because every die is a
 * deterministic cycle-stepped engine, results are bit-identical to a
 * sequential Engine::run loop regardless of replica count or
 * scheduling — the service changes throughput, never answers.
 *
 * Backpressure follows the paper's hardware discipline end to end:
 * the pending-job queue is bounded exactly like the NT-to-MP queues
 * inside the engine, and a full queue either blocks the producer
 * (AdmissionPolicy::kBlock) or sheds the request
 * (AdmissionPolicy::kReject + ServiceOverloaded) — it never grows
 * unbounded. Metrics, trace rows ("die N") and admission are the
 * pool's; ServiceStats is a view over PoolStats.
 */
#ifndef FLOWGNN_SERVE_SERVICE_H
#define FLOWGNN_SERVE_SERVICE_H

#include <atomic>
#include <future>
#include <memory>
#include <stdexcept>
#include <vector>

#include "pool/scheduler.h"

namespace flowgnn {

/** Deployment shape of an InferenceService. */
struct ServiceConfig {
    /** Engine replicas (pool dies). Each owns one Engine plus a
     * reusable RunWorkspace, so steady-state serving does not allocate
     * per graph. */
    std::size_t replicas = 2;
    /** Bounded submission-queue capacity (requests, not bytes). */
    std::size_t queue_capacity = 64;
    AdmissionPolicy admission = AdmissionPolicy::kBlock;
    /** Construct replicas parked; no request is executed until
     * start(). Lets tests and batch loaders fill the queue
     * deterministically. */
    bool start_paused = false;
    /** Metrics sink for the pool.* counters and histograms; see
     * PoolConfig::metrics. */
    std::shared_ptr<obs::MetricsRegistry> metrics;

    void
    validate() const
    {
        if (replicas == 0)
            throw std::invalid_argument(
                "ServiceConfig: replicas must be >= 1");
        if (queue_capacity == 0)
            throw std::invalid_argument(
                "ServiceConfig: queue_capacity must be >= 1");
    }
};

/** Per-replica share of the work, for utilization monitoring. */
struct ReplicaStats {
    std::size_t completed = 0; ///< runs the replica executed
    double busy_ms = 0.0;      ///< wall time spent running graphs
    double utilization = 0.0;  ///< busy_ms / service uptime
};

/** Aggregate service telemetry, derived from PoolStats. */
struct ServiceStats {
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;   ///< runs that ended in an exception
    std::size_t rejected = 0; ///< load shed under kReject
    double uptime_ms = 0.0;
    /** Completed graphs per second of wall time. */
    double throughput_gps = 0.0;
    /** Submit-to-completion wall latency percentiles (ms) over the
     * full service lifetime, from the pool.latency_ms log-bucket
     * histogram (each within ~1% relative error; see obs/metrics.h). */
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    /** Highest submission-queue occupancy observed. */
    std::size_t queue_peak_occupancy = 0;
    std::size_t queue_capacity = 0;
    /** Producers blocked in submit() right now (kBlock backpressure
     * in action; always 0 under kReject). */
    std::size_t blocked_producers = 0;
    std::vector<ReplicaStats> replicas;
};

/**
 * Asynchronous multi-replica inference service over one model.
 *
 * The model and the service must outlive every returned future's
 * consumer; the engine config is the hardware shape shared by all
 * replicas and is validated at construction (fail fast, before any
 * thread spawns). Destruction drains accepted work, then joins.
 */
class InferenceService
{
  public:
    InferenceService(const Model &model, EngineConfig engine_config = {},
                     ServiceConfig service_config = {});

    InferenceService(const InferenceService &) = delete;
    InferenceService &operator=(const InferenceService &) = delete;

    /** Unparks the replicas (no-op when already running). */
    void start() { pool_.start(); }

    /**
     * Enqueues one graph. The future carries the RunResult, or the
     * run's exception.
     */
    std::future<RunResult>
    submit(GraphSample sample, const RunOptions &opts = {})
    {
        return pool_.submit(std::move(sample), opts);
    }

    /**
     * Enqueues a batch, preserving order between samples & futures.
     * Under AdmissionPolicy::kReject a full queue ends the batch
     * early instead of throwing: the returned vector holds the
     * accepted prefix (compare its size against the batch to detect
     * shed samples), so handles to already-accepted work are never
     * lost. Every shed sample — the one that overflowed and the
     * unattempted tail behind it — counts in ServiceStats::rejected.
     */
    std::vector<std::future<RunResult>>
    submit_batch(std::vector<GraphSample> samples);

    /** Blocks until every accepted request has completed. */
    void drain() { pool_.drain(); }

    /** Drains, closes admission, and joins the replicas
     * (idempotent). */
    void shutdown() { pool_.shutdown(); }

    ServiceStats stats() const;

    std::size_t replica_count() const { return pool_.num_dies(); }
    std::size_t queue_capacity() const { return queue_capacity_; }

  private:
    const std::size_t queue_capacity_;
    PoolScheduler pool_;
    /** Batch samples shed unattempted behind an overflow; the pool
     * counts the overflowing one itself. */
    std::atomic<std::size_t> batch_shed_{0};
};

} // namespace flowgnn

#endif // FLOWGNN_SERVE_SERVICE_H
