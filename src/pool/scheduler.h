/**
 * @file
 * flowgnn::pool — PoolScheduler: admits jobs and schedules them onto
 * a DiePool.
 *
 * A job is one graph: either a whole-graph job (one die, the small
 * graph fast path) or a sharded job (a GhostPlan over P <= D dies).
 * A sharded job's layers are exchange-synchronous, so it is a gang of
 * P tasks: the die that completes the gang (the last of the P to
 * take its lease) runs run_ghost_plan (one host thread), and the
 * job's other dies hold their lease until that run ends. The pool's
 * occupancy, die leases, energy and autoscaler therefore see the P
 * dies the job models. Results are bit-identical to isolated runs
 * regardless of policy or interleaving: every run is deterministic.
 *
 * Policy (PoolConfig::policy; semantics at PoolPolicy in
 * pool/dispatch.h): FIFO gang, work-conserving space share, aging
 * priority, or EDF. kPriority/kEdf optionally preempt running tasks
 * at message-passing layer boundaries; the victim checkpoints,
 * requeues and later resumes bit-identically (Engine::run_resumable,
 * or the resumable run_ghost_plan). Every dispatch and victim
 * decision comes from a DispatchCore on a clock of nanoseconds since
 * construction, the same core simulate_pool_schedule drives on modeled
 * cycles; the scheduler keeps only threads, locking, promises, engine
 * runs, metrics and trace spans.
 *
 * Admission is bounded: the pending-job queue holds at most
 * queue_capacity jobs, and a full queue either blocks the producer
 * (AdmissionPolicy::kBlock) or sheds the job (kReject +
 * ServiceOverloaded). A whole-graph job is its raw sample: the die
 * prepares and runs it, so submit() only admits. A sharded job is
 * planned (partitioning + ghost sets) on the submitting thread, so its
 * exact width is known to the scheduler and dies never burn lease time
 * on planning.
 */
#ifndef FLOWGNN_POOL_SCHEDULER_H
#define FLOWGNN_POOL_SCHEDULER_H

#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/sync.h"
#include "obs/metrics.h"
#include "pool/die_pool.h"
#include "pool/dispatch.h"
#include "shard/shard_plan.h"

namespace flowgnn {

/** Thrown by submit() when the pending-job queue is full under
 * AdmissionPolicy::kReject. */
class ServiceOverloaded : public std::runtime_error
{
  public:
    ServiceOverloaded()
        : std::runtime_error("admission queue full: request shed")
    {
    }
};

/** What a full pending-job queue does to the next submit(). */
enum class AdmissionPolicy {
    kBlock,  ///< exert backpressure: submit() blocks until space frees
    kReject, ///< shed load: submit() throws ServiceOverloaded
};

/** Human-readable policy name. */
const char *pool_policy_name(PoolPolicy policy);

/**
 * Per-job scheduling parameters (everything about a job the scheduler
 * cares about that is not the graph itself).
 */
struct JobSpec {
    /** Higher runs earlier under kPriority; ages upward while queued. */
    int priority = 0;
    /**
     * Relative deadline from admission, milliseconds; <= 0 means no
     * deadline. Orders dispatch under kEdf; under every policy a
     * deadline job contributes to pool.lateness_ms and (when it
     * finishes late) pool.deadline_misses_total.
     */
    double deadline_ms = 0.0;
};

/** Deployment shape of a PoolScheduler. */
struct PoolConfig {
    /** Dies in the pool (engine replicas, one host thread each). */
    std::uint32_t num_dies = 4;
    PoolPolicy policy = PoolPolicy::kSpaceShare;
    /** Bounded pending-job queue (jobs with undispatched tasks). */
    std::size_t queue_capacity = 64;
    AdmissionPolicy admission = AdmissionPolicy::kBlock;
    /** kPriority aging: one effective-priority step per this many
     * milliseconds a job has waited. <= 0 disables aging. */
    double aging_ms = 25.0;
    /** Construct dies parked; nothing dispatches until start(). */
    bool start_paused = false;
    /**
     * kPriority / kEdf: a newly admitted job that is more urgent than
     * a running one (priority gap >= preempt_priority_gap, or an
     * earlier deadline under kEdf) requests layer-boundary preemption
     * of the least-urgent running task when no die is free. The
     * preempted task checkpoints at the next message-passing layer
     * boundary and resumes later, bit-identical (see
     * Engine::run_resumable).
     */
    bool enable_preemption = false;
    int preempt_priority_gap = 1;
    /** Metrics sink. The scheduler registers pool.* counters/gauges
     * and the pool.queue_delay_ms / pool.latency_ms histograms here;
     * pass a shared registry (e.g. obs::MetricsRegistry::global()) to
     * aggregate with other subsystems, or leave null for a private
     * one. PoolStats is a typed view over these metrics. */
    std::shared_ptr<obs::MetricsRegistry> metrics;

    void
    validate() const
    {
        if (num_dies == 0)
            throw std::invalid_argument(
                "PoolConfig: num_dies must be >= 1");
        if (queue_capacity == 0)
            throw std::invalid_argument(
                "PoolConfig: queue_capacity must be >= 1");
    }
};

/** Admission/completion counters for one submit path. */
struct PoolPathStats {
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t rejected = 0;
};

/** Aggregate pool telemetry since construction (or last start()).
 * All *_ms fields are wall-clock milliseconds; a sharded job that was
 * clamped or lost empty dies counts die leases at its effective P
 * (GhostPlan::shards.size()), never the requested num_shards. */
struct PoolStats {
    PoolPathStats fast;    ///< whole-graph (one-die) jobs
    PoolPathStats sharded; ///< ghost-plan jobs
    std::size_t jobs_pending = 0;  ///< jobs with undispatched tasks
    std::size_t tasks_running = 0; ///< dies currently leased
    /** Producers blocked in submit() right now (kBlock backpressure;
     * the deterministic sync point tests use instead of sleeping). */
    std::size_t blocked_producers = 0;
    std::size_t queue_capacity = 0;
    double uptime_ms = 0.0;
    /** Submit-to-first-dispatch wall delay percentiles (ms) over the
     * FULL scheduler lifetime, read from the shared
     * pool.queue_delay_ms log-bucket histogram (O(1) memory, each
     * quantile within ~1% relative error — see obs/metrics.h). */
    double queue_delay_p50_ms = 0.0;
    double queue_delay_p95_ms = 0.0;
    double queue_delay_p99_ms = 0.0;
    /** Submit-to-completion wall latency percentiles (ms) over every
     * finished job, same histogram kind (pool.latency_ms). */
    double latency_p50_ms = 0.0;
    double latency_p95_ms = 0.0;
    double latency_p99_ms = 0.0;
    /** Highest jobs_pending observed at admission. */
    std::size_t queue_peak_occupancy = 0;
    /** Highest number of simultaneously busy dies observed. */
    std::size_t peak_busy_dies = 0;
    /** Concurrency cap set by set_active_dies (<= dies.size()). */
    std::size_t active_dies = 0;
    /** Deadline jobs that finished past their deadline
     * (pool.deadline_misses_total). */
    std::size_t deadline_misses = 0;
    /** Lateness percentiles over completed deadline jobs, ms clamped
     * at 0 (an early finish records 0), from pool.lateness_ms. */
    double lateness_p50_ms = 0.0;
    double lateness_p99_ms = 0.0;
    /** Tasks preempted at a layer boundary and requeued
     * (pool.preemptions_total). */
    std::size_t preemptions = 0;
    std::vector<DieStats> dies;
    std::vector<OccupancyPoint> occupancy;

    std::size_t
    submitted() const
    {
        return fast.submitted + sharded.submitted;
    }
    std::size_t
    completed() const
    {
        return fast.completed + sharded.completed;
    }
};

/**
 * Schedules jobs over a DiePool. The model must outlive the
 * scheduler; destruction drains accepted work, then joins the dies.
 */
class PoolScheduler
{
  public:
    PoolScheduler(const Model &model, EngineConfig engine_config = {},
                  PoolConfig config = {});
    ~PoolScheduler();

    PoolScheduler(const PoolScheduler &) = delete;
    PoolScheduler &operator=(const PoolScheduler &) = delete;

    /** Unparks the dies (no-op when already running). */
    void start();

    /**
     * Admits one whole-graph job (one die). The future carries the
     * RunResult — bit-identical to Engine::run on the same sample —
     * or the run's exception. The die prepares the sample, so submit
     * itself only admits, and a malformed sample of any model fails
     * through the future with std::invalid_argument (Model::prepare
     * checks it before reading it).
     */
    std::future<RunResult> submit(GraphSample sample,
                                  const RunOptions &opts = {},
                                  const JobSpec &spec = {});

    /**
     * Admits one sharded job: the sample is ghost-planned over
     * min(shard.num_shards, num_dies) dies (clamped so a job can never
     * be wider than the pool) and the job takes the plan's effective
     * P dies, dispatched per the pool policy. The future carries the
     * ShardedRunResult — identical to ShardedEngine::run with the same
     * clamped config. The sample is prepared and planned here, so a
     * malformed one throws std::invalid_argument from this call.
     */
    std::future<ShardedRunResult> submit_sharded(GraphSample sample,
                                                 const ShardConfig &shard,
                                                 const RunOptions &opts = {},
                                                 const JobSpec &spec = {});

    /** Blocks until every accepted job has completed. */
    void drain();

    /** Drains, stops admission, joins the dies (idempotent). */
    void shutdown();

    PoolStats stats() const;

    /**
     * Elasticity hook (the Autoscaler's actuator): caps how many
     * tasks run concurrently to `n` dies, clamped to [1, num_dies()].
     * Scaling down never interrupts running tasks — the pool shrinks
     * as they finish — and a pending job wider than the cap raises
     * the effective cap to its width (a gang must never deadlock
     * against the autoscaler). Exported as pool.active_dies.
     */
    void set_active_dies(std::size_t n);
    std::size_t active_dies() const;

    std::size_t num_dies() const { return pool_.size(); }
    const DiePool &pool() const { return pool_; }
    /** The registry pool.* metrics land in (the config's, or the
     * private one) — what the Autoscaler snapshots. */
    const std::shared_ptr<obs::MetricsRegistry> &
    metrics() const
    {
        return metrics_;
    }

  private:
    struct Job;
    using JobPtr = std::unique_ptr<Job>;

    /** Takes the job over; from then on the core holds it, keyed by
     * its address, until the die that finishes it finalizes it. */
    void admit(JobPtr job);
    void die_loop(std::size_t die);
    /** Runs a whole-graph job on `die` (`first`: its first
     * dispatch); true when it yielded at a layer boundary. */
    bool run_whole(std::size_t die, Job &job, bool first);
    /** Runs or holds one of a sharded job's dies; true when the die
     * yields. */
    bool run_sharded(std::size_t die, Job &job);
    void finalize(JobPtr job);
    /** The dispatch clock: nanoseconds since construction. */
    std::uint64_t now_ticks() const;

    const Model &model_;
    PoolConfig config_;
    DiePool pool_;
    std::vector<std::thread> die_threads_;
    const std::chrono::steady_clock::time_point epoch_;

    mutable Mutex mutex_; // guards everything below
    CondVar work_;   ///< dies: task may be pickable
    CondVar admit_;  ///< producers: queue may have room
    CondVar idle_;   ///< drain(): a job finished
    CondVar unpark_; ///< start()
    CondVar held_;   ///< holder dies: a gang or run changed, or a yield was asked
    bool started_ FLOWGNN_GUARDED_BY(mutex_) = false;
    bool closed_ FLOWGNN_GUARDED_BY(mutex_) = false; ///< no new submissions
    bool shutdown_ FLOWGNN_GUARDED_BY(mutex_) = false; ///< dies may exit
    /** Every dispatch and victim decision, for every admitted job not
     * yet finished; keyed by the Job's address. */
    DispatchCore core_ FLOWGNN_GUARDED_BY(mutex_);
    /** Per-die preemption flags (atomic; requested under mutex_ by
     * core_.preempt_for, polled lock-free by the engines). */
    std::vector<std::unique_ptr<PreemptToken>> die_tokens_;
    std::size_t blocked_producers_ FLOWGNN_GUARDED_BY(mutex_) = 0;
    std::size_t peak_pending_ FLOWGNN_GUARDED_BY(mutex_) = 0;
    /** Dies of sharded jobs waiting on held_. */
    std::size_t holders_ FLOWGNN_GUARDED_BY(mutex_) = 0;
    PoolPathStats fast_ FLOWGNN_GUARDED_BY(mutex_);
    PoolPathStats sharded_ FLOWGNN_GUARDED_BY(mutex_);
    /** Labels die-lease trace spans. */
    std::uint64_t next_job_id_ FLOWGNN_GUARDED_BY(mutex_) = 1;

    // Shared-registry metrics; the counters mirror the mutex-guarded
    // PoolPathStats (those stay: drain()'s condition needs them
    // consistent under mutex_).
    std::shared_ptr<obs::MetricsRegistry> metrics_;
    obs::Counter &jobs_ctr_;
    obs::Counter &completed_ctr_;
    obs::Counter &failed_ctr_;
    obs::Counter &rejected_ctr_;
    obs::Gauge &busy_dies_gauge_;
    obs::Gauge &queue_depth_gauge_;
    obs::Histogram &queue_delay_hist_;
    obs::Histogram &latency_hist_;
    obs::Counter &deadline_miss_ctr_;
    obs::Counter &preempt_ctr_;
    obs::Gauge &active_dies_gauge_;
    obs::Histogram &lateness_hist_;
};

} // namespace flowgnn

#endif // FLOWGNN_POOL_SCHEDULER_H
