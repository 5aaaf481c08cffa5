/**
 * @file
 * flowgnn::pool — DispatchCore: the pool's dispatch decision, once.
 *
 * A pure state machine with no threads, clock, engine or mutex. It
 * holds the pending jobs in admission order, what each die runs and
 * the active-die cap, and it takes every pick (which task goes on a
 * free die) and every victim choice (which running tasks yield to an
 * urgent admission). Times are uint64_t ticks in the caller's unit:
 * PoolScheduler passes nanoseconds since its epoch, and
 * simulate_pool_schedule passes modeled cycles, so the live pool and
 * the simulator share every policy rule by construction.
 *
 * The active-die cap (the autoscaler's target raised to the widest
 * pending job) is re-evaluated at each admission, release and
 * set_active(), not per dispatch: a gang that raised the cap starts
 * all its tasks before the cap can fall back under it.
 */
#ifndef FLOWGNN_POOL_DISPATCH_H
#define FLOWGNN_POOL_DISPATCH_H

#include <cstdint>
#include <list>
#include <vector>

namespace flowgnn {

/** How pending tasks are matched to free dies. */
enum class PoolPolicy {
    /** Jobs start strictly in admission order, each only when its full
     * width is free at once (gang). A wide head idles the dies behind
     * it unless EASY backfill (see DispatchCore::pick) fills them. */
    kFifoGang,
    /** Work-conserving: tasks dispatch in job-FIFO order as dies free,
     * so later jobs backfill dies the head cannot use. */
    kSpaceShare,
    /** Like kSpaceShare, from the highest effective priority, which
     * ages upward while a job waits; ties break by admission order,
     * which a preempted job keeps. */
    kPriority,
    /** Gang starts in earliest-absolute-deadline order (arrival +
     * relative deadline; none sorts last), ties FIFO — so equal
     * deadlines everywhere IS kFifoGang. */
    kEdf,
};

class DispatchCore
{
  public:
    /** No deadline / estimate / reservation / known finish. */
    static constexpr std::uint64_t kNever = ~0ULL;

    struct Config {
        std::size_t num_dies = 1;
        PoolPolicy policy = PoolPolicy::kSpaceShare;
        /** kPriority: one priority step per this many ticks waited;
         * 0 disables aging. */
        std::uint64_t aging_ticks = 0;
        bool easy_backfill = false;     ///< kFifoGang
        bool enable_preemption = false; ///< kPriority / kEdf
        int preempt_priority_gap = 1;
    };

    /** A job at admission. */
    struct JobDesc {
        std::uint64_t key = 0; ///< the caller's handle, unique while held
        std::size_t width = 1; ///< tasks, one die each
        int priority = 0;
        std::uint64_t arrival = 0;
        std::uint64_t deadline = kNever; ///< absolute
        /** Longest task's estimated duration; kNever = unknown, and an
         * unknown job never backfills. */
        std::uint64_t task_ticks = kNever;
        bool preemptible = true;
    };

  private:
    struct Job {
        JobDesc desc;
        std::size_t next_task = 0;
        std::vector<std::size_t> requeued; ///< preempted tasks, LIFO
        std::size_t running = 0;
        bool started = false;
        std::uint64_t reservation = kNever;

        std::size_t
        remaining() const
        {
            return desc.width - next_task + requeued.size();
        }
    };
    using JobIt = std::list<Job>::iterator;

  public:
    /** A dispatch decision; commit it with start(). */
    class Pick
    {
      public:
        std::uint64_t key = 0;
        std::size_t task = 0;
        bool first = false; ///< the job's first dispatch (its start)
        /** The job's recorded EASY reservation, or kNever. */
        std::uint64_t reservation = kNever;

      private:
        friend class DispatchCore;
        JobIt job_{};
    };

    struct DieSlot {
        bool busy = false;
        std::uint64_t key = 0;
        std::size_t task = 0;
        std::uint64_t finish = kNever; ///< estimated; kNever = unknown
        bool preempt_pending = false;  ///< chosen as a victim already
    };

    explicit DispatchCore(const Config &config);

    void admit(const JobDesc &job);

    /**
     * The policy's next dispatch at tick `now`; false when the cap is
     * reached or the rule holds everything back. EASY backfill: a
     * blocked gang head records its reservation, the need-th soonest
     * running finish (need = head width − idle dies). A later job with
     * a known estimate that fits the idle dies jumps the head iff it
     * ends by the reservation (finish-before rule) or fits in the dies
     * the head will not need even then (extra-dies rule). A running
     * task with an unknown finish makes the reservation unknowable.
     */
    bool pick(std::uint64_t now, Pick &out);

    /** Commits `pick` onto idle `die`. True when its job has no
     * pending task left. */
    bool start(std::size_t die, const Pick &pick, std::uint64_t finish);

    /** `die` stopped. A yielded task requeues on its job, which keeps
     * its admission place. True when a completion was the job's last
     * task; the core then forgets the job. */
    bool release(std::size_t die, bool yielded);

    /**
     * Victims for the just-admitted job `key`, when preemption is on,
     * every die under the cap is busy, and running tasks are strictly
     * less urgent (priority gap >= preempt_priority_gap, or an earlier
     * deadline under kEdf). Candidates are preemptible running dies
     * without a pending request, least urgent first, ties by die
     * index. `yield(die)` asks the caller to stop that die at a layer
     * boundary and returns false when it cannot. Up to the job's
     * pending width of dies are chosen.
     */
    template <class Yield>
    void
    preempt_for(std::uint64_t key, Yield &&yield)
    {
        std::size_t want = victim_candidates(key);
        for (std::size_t d : victims_) {
            if (want == 0)
                break;
            if (yield(d)) {
                dies_[d].preempt_pending = true;
                --want;
            }
        }
    }

    void set_active(std::size_t n);
    std::size_t active() const { return active_; }
    /** Jobs with at least one task waiting for a die. */
    std::size_t pending_jobs() const { return pending_; }
    std::size_t tasks_running() const { return tasks_running_; }
    const DieSlot &die(std::size_t d) const { return dies_[d]; }

  private:
    std::size_t cap();
    JobIt pick_gang(std::uint64_t now, std::size_t idle);
    /** Fills victims_; returns the dies the job wants (0 = none). */
    std::size_t victim_candidates(std::uint64_t key);

    Config config_;
    std::list<Job> jobs_; ///< pending or running, admission order
    std::vector<DieSlot> dies_;
    std::vector<JobIt> die_jobs_;
    std::size_t pending_ = 0;
    std::size_t tasks_running_ = 0;
    std::size_t active_;
    std::size_t cap_ = 0;
    bool cap_stale_ = true;
    /** Buffers reused so a pick never allocates. */
    std::vector<std::uint64_t> finishes_;
    std::vector<std::size_t> victims_;
};

} // namespace flowgnn

#endif // FLOWGNN_POOL_DISPATCH_H
