#include "pool/scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/telemetry.h"
#include "ghost/ghost_engine.h"
#include "obs/trace_session.h"

namespace flowgnn {

const char *
pool_policy_name(PoolPolicy policy)
{
    switch (policy) {
      case PoolPolicy::kFifoGang: return "fifo-gang";
      case PoolPolicy::kSpaceShare: return "space-share";
      case PoolPolicy::kPriority: return "priority";
      case PoolPolicy::kEdf: return "edf";
    }
    return "unknown";
}

namespace {

std::uint64_t
ms_to_ns(double ms)
{
    return static_cast<std::uint64_t>(std::llround(ms * 1e6));
}

DispatchCore::Config
dispatch_config(const PoolConfig &config)
{
    DispatchCore::Config core;
    core.num_dies = config.num_dies;
    core.policy = config.policy;
    core.aging_ticks = config.aging_ms > 0.0 ? ms_to_ns(config.aging_ms) : 0;
    core.easy_backfill = config.easy_backfill;
    core.enable_preemption = config.enable_preemption;
    core.preempt_priority_gap = config.preempt_priority_gap;
    return core;
}

} // namespace

/** One admitted job: immutable inputs (prepared sample, plan, opts)
 * plus mutable dispatch/completion state guarded by the scheduler
 * mutex. Each task writes only its own results slot, so slices of one
 * job can run on many dies without further synchronization. */
struct PoolScheduler::Job {
    enum class Deliver { kRun, kSharded };

    bool sharded_path = false; ///< admitted via submit_sharded*
    Deliver deliver = Deliver::kRun;
    JobSpec spec;
    /** Admission order: the dispatch key and the trace label. */
    std::uint64_t id = 0;
    /** estimated_task_cycles in dispatch ticks, or kNever. */
    std::uint64_t est_ticks = DispatchCore::kNever;
    std::uint64_t enq_ns = 0;   ///< admit instant on the trace clock
    GraphSample prepared;
    /** Ghost-mode job: layers are exchange-synchronous, so the slices
     * cannot be scheduled independently. The job is one indivisible
     * task — run_ghost_plan threads its modeled dies internally — and
     * occupies one host die for its duration. */
    bool ghost = false;
    GhostPlan ghost_plan;
    ShardedRunResult ghost_result;
    ShardPlan plan;
    LinkConfig link{};
    RunOptions opts;
    std::vector<RunResult> results; ///< one slot per slice
    /** Per-task layer-boundary checkpoints (engine tasks). */
    std::vector<LayerCheckpoint> task_ckpts;
    /** Ghost jobs: the functional pass's resume state. */
    GhostResumeState ghost_resume;
    std::exception_ptr error;
    std::chrono::steady_clock::time_point enqueued{};
    std::promise<RunResult> run_promise;
    std::promise<ShardedRunResult> sharded_promise;
};

PoolScheduler::PoolScheduler(const Model &model, EngineConfig engine_config,
                             PoolConfig config)
    : model_(model),
      config_(config),
      pool_(model, engine_config, config.num_dies),
      epoch_(std::chrono::steady_clock::now()),
      core_(dispatch_config(config)),
      metrics_(config.metrics
                   ? config.metrics
                   : std::make_shared<obs::MetricsRegistry>()),
      jobs_ctr_(metrics_->counter("pool.jobs_total")),
      completed_ctr_(metrics_->counter("pool.completed_total")),
      failed_ctr_(metrics_->counter("pool.failed_total")),
      rejected_ctr_(metrics_->counter("pool.rejected_total")),
      busy_dies_gauge_(metrics_->gauge("pool.busy_dies")),
      queue_depth_gauge_(metrics_->gauge("pool.queue_depth")),
      queue_delay_hist_(metrics_->histogram("pool.queue_delay_ms")),
      deadline_miss_ctr_(metrics_->counter("pool.deadline_misses_total")),
      preempt_ctr_(metrics_->counter("pool.preemptions_total")),
      active_dies_gauge_(metrics_->gauge("pool.active_dies")),
      lateness_hist_(metrics_->histogram("pool.lateness_ms"))
{
    // Fail fast: a malformed config must never reach die threads.
    config_.validate();
    config_.run_options.validate();

    active_dies_gauge_.set(static_cast<double>(pool_.size()));
    die_tokens_.reserve(pool_.size());
    for (std::size_t d = 0; d < pool_.size(); ++d)
        die_tokens_.push_back(std::make_unique<PreemptToken>());

    started_ = !config_.start_paused;
    die_threads_.reserve(pool_.size());
    for (std::size_t d = 0; d < pool_.size(); ++d)
        die_threads_.emplace_back([this, d] { die_loop(d); });
}

PoolScheduler::~PoolScheduler() { shutdown(); }

void
PoolScheduler::start()
{
    {
        MutexLock lock(&mutex_);
        if (started_)
            return;
        started_ = true;
    }
    // Utilization should measure the serving interval, not the parked
    // prefix tests use to build deterministic backlogs.
    pool_.reset_epoch();
    unpark_.notify_all();
}

std::uint64_t
PoolScheduler::now_ticks() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

void
PoolScheduler::die_loop(std::size_t die)
{
    obs::TraceSession *named_for = nullptr; // row named once per session
    UniqueLock lock(&mutex_);
    unpark_.wait(lock, [&]() FLOWGNN_REQUIRES(mutex_) {
        return started_ || shutdown_;
    });

    for (;;) {
        DispatchCore::Pick pick;
        bool picked = false;
        work_.wait(lock, [&]() FLOWGNN_REQUIRES(mutex_) {
            return shutdown_ || (picked = core_.pick(now_ticks(), pick));
        });
        if (!picked)
            return; // shutdown

        // ---- Dispatch pick.task of its job onto this die. ----
        obs::TraceSession *session = obs::TraceSession::current();
        const JobPtr jobp = jobs_.at(pick.key);
        Job &job = *jobp;
        const std::size_t task = pick.task;
        if (pick.first) {
            queue_delay_hist_.record(ms_between(
                job.enqueued, std::chrono::steady_clock::now()));
            // The request's time-in-queue, on its own timeline.
            if (session && job.enq_ns != 0)
                session->span(obs::Track::kPool, "queue-wait",
                              job.enq_ns, session->now_ns());
        }
        // The estimated finish feeds EASY reservations.
        const std::uint64_t finish = job.est_ticks == DispatchCore::kNever
            ? DispatchCore::kNever
            : now_ticks() + job.est_ticks;
        if (core_.start(die, pick, finish)) {
            // Fully dispatched: leaves the pending set (freeing
            // admission capacity) while its tasks finish on the dies.
            admit_.notify_one();
        }
        // Other idle dies may now have work (e.g. the rest of a
        // gang-started job's tasks).
        work_.notify_all();
        pool_.lease(die);
        busy_dies_gauge_.set(static_cast<double>(core_.tasks_running()));
        queue_depth_gauge_.set(static_cast<double>(core_.pending_jobs()));
        std::uint64_t lease_start_ns = 0;
        if (session) {
            if (session != named_for) {
                char row[24];
                std::snprintf(row, sizeof row, "die %zu", die);
                session->name_thread(obs::Track::kPool, row);
                named_for = session;
            }
            session->counter(obs::Track::kPool, "busy dies",
                             static_cast<double>(core_.tasks_running()));
            lease_start_ns = session->now_ns();
        }
        lock.unlock();

        bool ok = true;
        bool preempted = false;
        RunResult result;
        std::exception_ptr error;
        PreemptToken &token = *die_tokens_[die];
        try {
            Engine &engine = pool_.engine(die);
            if (job.ghost) {
                if (config_.enable_preemption) {
                    RunOptions popts = job.opts;
                    popts.preempt = &token;
                    job.ghost_result = run_ghost_plan(
                        model_, engine.config(),
                        SampleRef(job.prepared),
                        std::move(job.ghost_plan), popts, job.link,
                        &job.ghost_resume, 1);
                    if (job.ghost_resume.preempted) {
                        preempted = true;
                        job.ghost_plan =
                            std::move(job.ghost_resume.plan);
                    }
                } else {
                    job.ghost_result = run_ghost_plan(
                        model_, engine.config(), job.prepared,
                        std::move(job.ghost_plan), job.opts,
                        job.link);
                }
            } else {
                RunWorkspace &ws = pool_.workspace(die);
                if (config_.enable_preemption) {
                    RunOptions popts = job.opts;
                    popts.preempt = &token;
                    const GraphSample &g = job.plan.sharded
                        ? job.plan.slices[task].sub
                        : job.prepared;
                    preempted =
                        engine.run_resumable(
                            SampleRef(g), popts, ws,
                            job.task_ckpts[task], result,
                            std::size_t(-1),
                            1) == SegmentOutcome::kPreempted;
                } else {
                    result = job.plan.sharded
                        ? engine.run_prepared(
                              job.plan.slices[task].sub, job.opts,
                              ws)
                        : engine.run_prepared(job.prepared, job.opts,
                                              ws);
                }
            }
        } catch (...) {
            ok = false;
            error = std::current_exception();
        }
        token.reset(); // never leak a request into the next lease
        pool_.release(die);
        if (session) {
            char nm[48];
            if (job.ghost)
                std::snprintf(nm, sizeof nm,
                              "lease: job %llu (ghost)",
                              static_cast<unsigned long long>(job.id));
            else if (job.plan.sharded)
                std::snprintf(nm, sizeof nm,
                              "lease: job %llu slice %zu/%zu",
                              static_cast<unsigned long long>(job.id),
                              task, job.results.size());
            else
                std::snprintf(nm, sizeof nm, "lease: job %llu",
                              static_cast<unsigned long long>(job.id));
            session->span(obs::Track::kPool, nm, lease_start_ns,
                          session->now_ns());
        }

        lock.lock();
        const bool job_done = core_.release(die, preempted);
        busy_dies_gauge_.set(static_cast<double>(core_.tasks_running()));
        if (session)
            session->counter(obs::Track::kPool, "busy dies",
                             static_cast<double>(core_.tasks_running()));
        // A die freed up: gang starts that did not fit may fit now,
        // and a yielded task may go to whoever is more urgent now.
        work_.notify_all();
        if (preempted) {
            // Yielded at a layer boundary: the checkpoint lives in the
            // job, and the core requeued the task.
            preempt_ctr_.add(1);
            queue_depth_gauge_.set(
                static_cast<double>(core_.pending_jobs()));
            continue;
        }
        job.results[task] = std::move(result);
        if (!ok && !job.error)
            job.error = error;
        if (job_done) {
            jobs_.erase(job.id);
            lock.unlock();
            finalize(jobp); // merge is real work; never under the lock
            lock.lock();
        }
    }
}

void
PoolScheduler::finalize(const JobPtr &jobp)
{
    Job &job = *jobp;
    bool ok = !job.error;
    ShardedRunResult merged;
    if (ok) {
        try {
            merged = job.ghost
                ? std::move(job.ghost_result)
                : merge_shard_results(model_, job.prepared,
                                      std::move(job.plan),
                                      std::move(job.results),
                                      job.link);
        } catch (...) {
            ok = false;
            job.error = std::current_exception();
        }
    }

    // Count the completion BEFORE fulfilling the promise, so a caller
    // that checks stats() right after future.get() sees it.
    completed_ctr_.add(ok);
    failed_ctr_.add(!ok);
    if (job.spec.deadline_ms > 0.0) {
        // Lateness vs the admission-relative deadline, clamped at 0
        // so the histogram's quantiles read "how late are the late
        // ones" over ALL deadline jobs.
        const double lateness =
            ms_between(job.enqueued, std::chrono::steady_clock::now()) -
            job.spec.deadline_ms;
        lateness_hist_.record(std::max(0.0, lateness));
        if (lateness > 0.0)
            deadline_miss_ctr_.add(1);
    }
    {
        MutexLock lock(&mutex_);
        PoolPathStats &path = job.sharded_path ? sharded_ : fast_;
        path.completed += ok;
        path.failed += !ok;
    }
    idle_.notify_all();

    if (job.deliver == Job::Deliver::kSharded) {
        if (ok)
            job.sharded_promise.set_value(std::move(merged));
        else
            job.sharded_promise.set_exception(job.error);
    } else {
        if (ok) {
            RunResult run;
            run.embeddings = std::move(merged.embeddings);
            run.prediction = merged.prediction;
            run.stats = std::move(merged.stats);
            job.run_promise.set_value(std::move(run));
        } else {
            job.run_promise.set_exception(job.error);
        }
    }
}

void
PoolScheduler::admit(const JobPtr &job)
{
    {
        UniqueLock lock(&mutex_);
        // Select the path tally under the lock (fast_/sharded_ are
        // guarded; job->sharded_path is immutable once admitted).
        PoolPathStats &path = job->sharded_path ? sharded_ : fast_;
        if (closed_)
            throw std::logic_error(
                "PoolScheduler: submit after shutdown");
        if (config_.admission == AdmissionPolicy::kReject) {
            if (core_.pending_jobs() >= config_.queue_capacity) {
                ++path.rejected;
                rejected_ctr_.add(1);
                throw ServiceOverloaded();
            }
        } else if (core_.pending_jobs() >= config_.queue_capacity) {
            ++blocked_producers_;
            admit_.wait(lock, [&]() FLOWGNN_REQUIRES(mutex_) {
                return closed_ ||
                       core_.pending_jobs() < config_.queue_capacity;
            });
            --blocked_producers_;
            if (closed_)
                throw std::logic_error(
                    "PoolScheduler: submit after shutdown");
        }
        ++path.submitted;
        job->id = next_job_id_++;
        job->enqueued = std::chrono::steady_clock::now();
        if (obs::TraceSession *session = obs::TraceSession::current())
            job->enq_ns = session->now_ns();
        DispatchCore::JobDesc desc;
        desc.key = job->id;
        desc.width = job->results.size();
        desc.priority = job->spec.priority;
        desc.arrival = now_ticks();
        if (job->spec.deadline_ms > 0.0)
            desc.deadline = desc.arrival + ms_to_ns(job->spec.deadline_ms);
        if (job->spec.estimated_task_cycles > 0) // cycles / MHz = us
            desc.task_ticks = static_cast<std::uint64_t>(std::llround(
                static_cast<double>(job->spec.estimated_task_cycles) *
                1e3 / pool_.engine(0).config().clock_mhz));
        job->est_ticks = desc.task_ticks;
        core_.admit(desc);
        jobs_.emplace(job->id, job);
        jobs_ctr_.add(1);
        queue_depth_gauge_.set(static_cast<double>(core_.pending_jobs()));
        core_.preempt_for(job->id, [&](std::size_t die) {
            die_tokens_[die]->request();
            return true;
        });
    }
    work_.notify_all();
}

std::future<RunResult>
PoolScheduler::enqueue_fast(GraphSample sample, const RunOptions &opts,
                            const JobSpec &spec)
{
    opts.validate();
    auto job = std::make_shared<Job>();
    job->spec = spec;
    job->opts = opts;
    // Preparing on the submitting thread keeps dies lease-time pure
    // compute; run_prepared(prepare(s)) is exactly Engine::run(s), so
    // the fast path stays bit-identical to a sequential engine loop.
    job->prepared = model_.prepare(sample);
    if (!job->prepared.consistent())
        throw std::invalid_argument("PoolScheduler: inconsistent sample");
    ShardConfig whole;
    whole.num_shards = 1;
    job->plan = make_shard_plan(model_, job->prepared, whole);
    job->results.resize(job->plan.slices.size());
    job->task_ckpts.resize(job->results.size());
    std::future<RunResult> future = job->run_promise.get_future();
    admit(job);
    return future;
}

std::future<RunResult>
PoolScheduler::submit(GraphSample sample, int priority)
{
    JobSpec spec;
    spec.priority = priority;
    return enqueue_fast(std::move(sample), config_.run_options, spec);
}

std::future<RunResult>
PoolScheduler::submit(GraphSample sample, const RunOptions &opts,
                      int priority)
{
    JobSpec spec;
    spec.priority = priority;
    return enqueue_fast(std::move(sample), opts, spec);
}

std::future<RunResult>
PoolScheduler::submit(GraphSample sample, const RunOptions &opts,
                      const JobSpec &spec)
{
    return enqueue_fast(std::move(sample), opts, spec);
}

std::future<ShardedRunResult>
PoolScheduler::submit_sharded(GraphSample sample, const ShardConfig &shard,
                              int priority)
{
    return submit_sharded(std::move(sample), shard,
                          config_.run_options, priority);
}

namespace {

/** A job can never be wider than the pool (a gang that needs more
 * dies than exist would deadlock kFifoGang). */
ShardConfig
clamp_to_pool(const ShardConfig &shard, std::size_t num_dies)
{
    ShardConfig clamped = shard;
    clamped.validate();
    clamped.num_shards = static_cast<std::uint32_t>(std::min<std::size_t>(
        clamped.num_shards, num_dies));
    return clamped;
}

} // namespace

PoolScheduler::JobPtr
PoolScheduler::make_sharded_job(GraphSample sample,
                                const ShardConfig &shard,
                                const RunOptions &opts,
                                const JobSpec &spec,
                                bool deliver_sharded)
{
    opts.validate();
    ShardConfig clamped = clamp_to_pool(shard, pool_.size());
    auto job = std::make_shared<Job>();
    job->sharded_path = true;
    job->deliver = deliver_sharded ? Job::Deliver::kSharded
                                   : Job::Deliver::kRun;
    job->spec = spec;
    job->opts = opts;
    job->link = clamped.link;
    job->prepared = model_.prepare(sample);
    if (!job->prepared.consistent())
        throw std::invalid_argument("PoolScheduler: inconsistent sample");
    char span_name[32];
    std::snprintf(span_name, sizeof span_name, "plan %s P=%u",
                  clamped.mode == ShardMode::kGhostExchange ? "ghost"
                                                            : "halo",
                  clamped.num_shards);
    obs::Span plan_span(obs::Track::kShard, span_name);
    if (clamped.mode == ShardMode::kGhostExchange) {
        job->ghost = true;
        job->ghost_plan = make_ghost_plan(model_, job->prepared, clamped);
        job->results.resize(1); // one indivisible task
    } else {
        job->plan = make_shard_plan(model_, job->prepared, clamped);
        job->results.resize(job->plan.slices.size());
    }
    job->task_ckpts.resize(job->results.size());
    return job;
}

std::future<ShardedRunResult>
PoolScheduler::submit_sharded(GraphSample sample, const ShardConfig &shard,
                              const RunOptions &opts, int priority)
{
    JobSpec spec;
    spec.priority = priority;
    return submit_sharded(std::move(sample), shard, opts, spec);
}

std::future<ShardedRunResult>
PoolScheduler::submit_sharded(GraphSample sample, const ShardConfig &shard,
                              const RunOptions &opts, const JobSpec &spec)
{
    JobPtr job = make_sharded_job(std::move(sample), shard, opts,
                                  spec, /*deliver_sharded=*/true);
    std::future<ShardedRunResult> future =
        job->sharded_promise.get_future();
    admit(job);
    return future;
}

std::future<RunResult>
PoolScheduler::submit_sharded_as_run(GraphSample sample,
                                     const ShardConfig &shard,
                                     const RunOptions &opts, int priority)
{
    JobSpec spec;
    spec.priority = priority;
    JobPtr job = make_sharded_job(std::move(sample), shard, opts,
                                  spec, /*deliver_sharded=*/false);
    std::future<RunResult> future = job->run_promise.get_future();
    admit(job);
    return future;
}

void
PoolScheduler::set_active_dies(std::size_t n)
{
    {
        MutexLock lock(&mutex_);
        const std::size_t active =
            std::min(std::max<std::size_t>(n, 1), pool_.size());
        core_.set_active(active);
        active_dies_gauge_.set(static_cast<double>(active));
    }
    // Scaling up frees capacity parked dies can pick up immediately.
    work_.notify_all();
}

std::size_t
PoolScheduler::active_dies() const
{
    MutexLock lock(&mutex_);
    return core_.active();
}

void
PoolScheduler::drain()
{
    start(); // a paused pool would otherwise never become idle
    UniqueLock lock(&mutex_);
    idle_.wait(lock, [&]() FLOWGNN_REQUIRES(mutex_) {
        return fast_.completed + fast_.failed == fast_.submitted &&
               sharded_.completed + sharded_.failed ==
                   sharded_.submitted;
    });
}

void
PoolScheduler::shutdown()
{
    {
        MutexLock lock(&mutex_);
        if (closed_)
            return;
        closed_ = true;
    }
    admit_.notify_all(); // blocked producers observe closed_ and throw
    drain();
    {
        MutexLock lock(&mutex_);
        shutdown_ = true;
    }
    work_.notify_all();
    unpark_.notify_all();
    for (std::thread &die : die_threads_)
        die.join();
}

PoolStats
PoolScheduler::stats() const
{
    PoolStats out;
    {
        MutexLock lock(&mutex_);
        out.fast = fast_;
        out.sharded = sharded_;
        out.jobs_pending = core_.pending_jobs();
        out.tasks_running = core_.tasks_running();
        out.blocked_producers = blocked_producers_;
        out.queue_capacity = config_.queue_capacity;
        out.active_dies = core_.active();
    }
    out.deadline_misses =
        static_cast<std::size_t>(deadline_miss_ctr_.value());
    out.preemptions = static_cast<std::size_t>(preempt_ctr_.value());
    {
        obs::HistogramSnapshot lateness = lateness_hist_.snapshot();
        out.lateness_p50_ms = lateness.quantile(0.50);
        out.lateness_p99_ms = lateness.quantile(0.99);
    }
    // Full-lifetime delay percentiles from the shared log-bucket
    // histogram (~1% relative error; see obs/metrics.h). Lock-free,
    // so a polling monitor never stalls dispatch.
    obs::HistogramSnapshot delays = queue_delay_hist_.snapshot();
    out.queue_delay_p50_ms = delays.quantile(0.50);
    out.queue_delay_p95_ms = delays.quantile(0.95);
    out.queue_delay_p99_ms = delays.quantile(0.99);
    out.uptime_ms = pool_.uptime_ms();
    out.peak_busy_dies = pool_.peak_busy();
    out.dies = pool_.die_stats();
    out.occupancy = pool_.occupancy_timeline();
    return out;
}

} // namespace flowgnn
