#include "pool/scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
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
    core.enable_preemption = config.enable_preemption;
    core.preempt_priority_gap = config.preempt_priority_gap;
    return core;
}

} // namespace

/** One admitted job: immutable inputs plus mutable dispatch and
 * completion state guarded by the scheduler mutex. A whole-graph job
 * is its raw sample, prepared in place by the die that first runs it.
 * A sharded job carries its ghost plan; whichever of its dies runs
 * the plan writes the job's one result. Either kind's RunResult goes
 * straight to the one promise. */
struct PoolScheduler::Job {
    /** What only sharded jobs carry: the plan, the link and the gang
     * state. */
    struct Sharded {
        GhostPlan plan;
        LinkConfig link{};
        /** Dies of the job holding a lease for the current run, or
         * for the next one while the gang forms. */
        std::size_t holding = 0;
        /** A die of the job is running the plan right now. */
        bool running = false;
        /** The plan ran to completion (or threw). */
        bool done = false;
        /** Runs ended so far; a holder follows the run it waited on. */
        std::uint64_t runs_ended = 0;
    };

    JobSpec spec;
    /** Admission order: the trace label. */
    std::uint64_t id = 0;
    std::uint64_t enq_ns = 0; ///< admit instant on the trace clock
    std::chrono::steady_clock::time_point enqueued{};
    /** Whole-graph jobs: raw until the first dispatch prepares it.
     * Sharded jobs: prepared at submit. */
    GraphSample sample;
    RunOptions opts;
    std::unique_ptr<Sharded> sharded; ///< null for whole-graph jobs
    RunResult result;
    LayerCheckpoint ckpt; ///< layer-boundary resume, both job kinds
    std::exception_ptr error;
    std::promise<RunResult> promise;
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
      latency_hist_(metrics_->histogram("pool.latency_ms")),
      deadline_miss_ctr_(metrics_->counter("pool.deadline_misses_total")),
      preempt_ctr_(metrics_->counter("pool.preemptions_total")),
      active_dies_gauge_(metrics_->gauge("pool.active_dies")),
      lateness_hist_(metrics_->histogram("pool.lateness_ms"))
{
    // Fail fast: a malformed config must never reach die threads.
    config_.validate();

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

    // Wake-ups are targeted: pick() does not depend on which idle die
    // asks, so one waiter is woken whenever a task may be pickable,
    // and a die that picks wakes the next while tasks remain pending.
    // A woken die that finds nothing proves no other idle die would.
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
        Job &job = *reinterpret_cast<Job *>(
            static_cast<std::uintptr_t>(pick.key));
        if (pick.first) {
            queue_delay_hist_.record(ms_between(
                job.enqueued, std::chrono::steady_clock::now()));
            // The request's time-in-queue, on its own timeline.
            if (session && job.enq_ns != 0)
                session->span(obs::Track::kPool, "queue-wait",
                              job.enq_ns, session->now_ns());
        }
        if (core_.start(die, pick, DispatchCore::kNever)) {
            // Fully dispatched: leaves the pending set (freeing
            // admission capacity) while its tasks finish on the dies.
            admit_.notify_one();
        }
        if (core_.pending_jobs() > 0)
            work_.notify_one(); // e.g. the rest of a gang's tasks
        if (holders_ > 0)
            held_.notify_all(); // a forming gang may have to start now
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
        std::exception_ptr error;
        try {
            preempted = job.sharded ? run_sharded(die, job)
                                    : run_whole(die, job, pick.first);
        } catch (...) {
            ok = false;
            error = std::current_exception();
        }
        die_tokens_[die]->reset(); // never leak a request into the next lease
        pool_.release(die);
        if (session) {
            char nm[32];
            std::snprintf(nm, sizeof nm, "lease: job %llu",
                          static_cast<unsigned long long>(job.id));
            session->span(obs::Track::kPool, nm, lease_start_ns,
                          session->now_ns());
            // The engine's cycle-domain unit trace, anchored at the
            // instant this die started the modeled run.
            if (ok && !preempted && !job.sharded &&
                !job.result.stats.trace.empty())
                session->add_cycle_trace(
                    job.result.stats.trace,
                    obs::CycleClockMap{lease_start_ns,
                                       job.result.stats.clock_mhz},
                    static_cast<std::uint32_t>(die));
        }

        lock.lock();
        const bool job_done = core_.release(die, preempted);
        if (holders_ > 0)
            held_.notify_all(); // a forming gang may have to start now
        busy_dies_gauge_.set(static_cast<double>(core_.tasks_running()));
        if (session)
            session->counter(obs::Track::kPool, "busy dies",
                             static_cast<double>(core_.tasks_running()));
        // A die freed up: gang starts that did not fit may fit now,
        // and a yielded task may go to whoever is more urgent now.
        // This die re-checks by itself once it loops back.
        if (core_.pending_jobs() > 0)
            work_.notify_one();
        if (preempted) {
            // Yielded at a layer boundary: the checkpoint lives in the
            // job, and the core requeued the task.
            preempt_ctr_.add(1);
            queue_depth_gauge_.set(
                static_cast<double>(core_.pending_jobs()));
            continue;
        }
        if (!ok && !job.error)
            job.error = error;
        if (job_done) {
            // The core forgot the job: this die owns it now.
            lock.unlock();
            finalize(JobPtr(&job));
            lock.lock();
        }
    }
}

bool
PoolScheduler::run_whole(std::size_t die, Job &job, bool first)
{
    RunOptions opts = job.opts;
    if (config_.enable_preemption)
        opts.preempt = die_tokens_[die].get();
    if (first) {
        // Exactly Engine::run's preparation, on the die's own time.
        job.sample = model_.prepare(job.sample);
    }
    return pool_.engine(die).run_resumable(
               SampleRef(job.sample), opts, pool_.workspace(die),
               job.ckpt, job.result, std::size_t(-1),
               1) == SegmentOutcome::kPreempted;
}

bool
PoolScheduler::run_sharded(std::size_t die, Job &job)
{
    Job::Sharded &sh = *job.sharded;
    const std::size_t width = sh.plan.shards.size();
    {
        UniqueLock lock(&mutex_);
        if (sh.done)
            return false; // a holder that starts after the job is done
        // Until a run starts the gang forms, and the die that completes
        // it runs the plan, so every die of the job leases before the
        // run starts. A gang waits only while a free die may still be
        // dispatched; once none can be, it runs on the dies it holds,
        // so no die waits on a run that cannot start. Once a run has
        // started, hold this die until it ends and follow its outcome.
        // Either way a die yields alone when it is asked to.
        const std::uint64_t run = sh.runs_ended;
        ++sh.holding;
        DispatchCore::Pick probe; // pick() only asks; start() commits
        ++holders_;
        held_.wait(lock, [&]() FLOWGNN_REQUIRES(mutex_) {
            return sh.runs_ended != run || die_tokens_[die]->requested() ||
                   (!sh.running && (sh.holding == width ||
                                    !core_.pick(now_ticks(), probe)));
        });
        --holders_;
        if (sh.runs_ended != run)
            return !sh.done; // the run this die held for ended
        if (die_tokens_[die]->requested()) {
            --sh.holding;
            return true;
        }
        sh.running = true;
    }

    RunOptions opts = job.opts;
    if (config_.enable_preemption)
        opts.preempt = die_tokens_[die].get();
    bool yielded = false;
    std::exception_ptr error;
    try {
        yielded = run_ghost_plan(model_, pool_.engine(die).config(),
                                 SampleRef(job.sample), sh.plan, opts,
                                 sh.link, job.ckpt, job.result,
                                 std::size_t(-1),
                                 1) == SegmentOutcome::kPreempted;
    } catch (...) {
        error = std::current_exception();
    }
    {
        MutexLock lock(&mutex_);
        sh.running = false;
        sh.done = !yielded;
        sh.holding = 0; // the run's end releases its holders
        ++sh.runs_ended;
    }
    held_.notify_all();
    if (error)
        std::rethrow_exception(error);
    return yielded;
}

void
PoolScheduler::finalize(JobPtr jobp)
{
    Job &job = *jobp;
    const bool ok = !job.error;

    // Count the completion BEFORE fulfilling the promise, so a caller
    // that checks stats() right after future.get() sees it.
    const double latency_ms =
        ms_between(job.enqueued, std::chrono::steady_clock::now());
    latency_hist_.record(latency_ms);
    completed_ctr_.add(ok);
    failed_ctr_.add(!ok);
    if (job.spec.deadline_ms > 0.0) {
        // Lateness vs the admission-relative deadline, clamped at 0
        // so the histogram's quantiles read "how late are the late
        // ones" over ALL deadline jobs.
        const double lateness = latency_ms - job.spec.deadline_ms;
        lateness_hist_.record(std::max(0.0, lateness));
        if (lateness > 0.0)
            deadline_miss_ctr_.add(1);
    }
    {
        MutexLock lock(&mutex_);
        PoolPathStats &path = job.sharded ? sharded_ : fast_;
        path.completed += ok;
        path.failed += !ok;
    }
    idle_.notify_all();

    if (!ok)
        job.promise.set_exception(job.error);
    else
        job.promise.set_value(std::move(job.result));
}

void
PoolScheduler::admit(JobPtr job)
{
    bool wake_holders = false;
    {
        UniqueLock lock(&mutex_);
        // Select the path tally under the lock (fast_/sharded_ are
        // guarded; job->sharded is immutable once admitted).
        PoolPathStats &path = job->sharded ? sharded_ : fast_;
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
        desc.key = reinterpret_cast<std::uintptr_t>(job.get());
        // A sharded job takes its plan's effective P dies.
        desc.width = job->sharded ? job->sharded->plan.shards.size() : 1;
        desc.priority = job->spec.priority;
        desc.arrival = now_ticks();
        if (job->spec.deadline_ms > 0.0)
            desc.deadline = desc.arrival + ms_to_ns(job->spec.deadline_ms);
        core_.admit(desc);
        job.release(); // the core holds it now
        jobs_ctr_.add(1);
        peak_pending_ = std::max(peak_pending_, core_.pending_jobs());
        queue_depth_gauge_.set(static_cast<double>(core_.pending_jobs()));
        core_.preempt_for(desc.key, [&](std::size_t die) {
            die_tokens_[die]->request();
            return true;
        });
        // A victim may be a holding die, and the new job may take
        // the pick a forming gang waits on.
        wake_holders = holders_ > 0;
    }
    work_.notify_one();
    if (wake_holders)
        held_.notify_all();
}

std::future<RunResult>
PoolScheduler::submit(GraphSample sample, const RunOptions &opts,
                      const JobSpec &spec)
{
    opts.validate();
    auto job = std::make_unique<Job>();
    job->spec = spec;
    job->opts = opts;
    job->sample = std::move(sample);
    std::future<RunResult> future = job->promise.get_future();
    admit(std::move(job));
    return future;
}

std::future<RunResult>
PoolScheduler::submit_sharded(GraphSample sample, const ShardConfig &shard,
                              const RunOptions &opts, const JobSpec &spec)
{
    opts.validate();
    // A job can never be wider than the pool (a gang that needs more
    // dies than exist would deadlock kFifoGang).
    ShardConfig clamped = shard;
    clamped.validate();
    clamped.num_shards = static_cast<std::uint32_t>(std::min<std::size_t>(
        clamped.num_shards, pool_.size()));
    auto job = std::make_unique<Job>();
    job->sharded = std::make_unique<Job::Sharded>();
    Job::Sharded &sh = *job->sharded;
    job->spec = spec;
    job->opts = opts;
    sh.link = clamped.link;
    job->sample = model_.prepare(sample);
    {
        char span_name[32];
        std::snprintf(span_name, sizeof span_name, "plan ghost P=%u",
                      clamped.num_shards);
        obs::Span plan_span(obs::Track::kShard, span_name);
        sh.plan = make_ghost_plan(model_, job->sample, clamped, 1);
    }
    std::future<RunResult> future = job->promise.get_future();
    admit(std::move(job));
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
    // Scaling up frees capacity parked dies can pick up immediately;
    // scaling down may leave a forming gang no die to wait for.
    work_.notify_all();
    held_.notify_all();
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
        out.queue_peak_occupancy = peak_pending_;
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
    obs::HistogramSnapshot latency = latency_hist_.snapshot();
    out.latency_p50_ms = latency.quantile(0.50);
    out.latency_p95_ms = latency.quantile(0.95);
    out.latency_p99_ms = latency.quantile(0.99);
    out.uptime_ms = pool_.uptime_ms();
    out.peak_busy_dies = pool_.peak_busy();
    out.dies = pool_.die_stats();
    out.occupancy = pool_.occupancy_timeline();
    return out;
}

} // namespace flowgnn
