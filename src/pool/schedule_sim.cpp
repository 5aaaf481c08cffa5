#include "pool/schedule_sim.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace flowgnn {

double
SimResult::utilization() const
{
    if (makespan == 0 || die_busy.empty())
        return 0.0;
    std::uint64_t busy = 0;
    for (std::uint64_t b : die_busy)
        busy += b;
    return static_cast<double>(busy) /
           (static_cast<double>(die_busy.size()) *
            static_cast<double>(makespan));
}

SimResult
simulate_pool_schedule(const std::vector<SimJob> &jobs,
                       const SimOptions &options)
{
    const std::uint32_t num_dies = options.num_dies;
    if (num_dies == 0)
        throw std::invalid_argument(
            "simulate_pool_schedule: num_dies must be >= 1");
    for (const SimJob &job : jobs) {
        if (job.task_cycles.empty())
            throw std::invalid_argument(
                "simulate_pool_schedule: job with no tasks");
        if (job.task_cycles.size() > num_dies)
            throw std::invalid_argument(
                "simulate_pool_schedule: job wider than the pool");
    }
    if (options.autoscaler != nullptr && options.window_cycles == 0)
        throw std::invalid_argument(
            "simulate_pool_schedule: autoscaler needs window_cycles");

    SimResult out;
    out.die_busy.assign(num_dies, 0);
    out.start_.assign(jobs.size(), 0);
    out.finish_.assign(jobs.size(), 0);
    out.reservation_.assign(jobs.size(), SimResult::kNoReservation);
    out.lateness_.assign(jobs.size(), 0);

    DispatchCore::Config config;
    config.num_dies = num_dies;
    config.policy = options.policy;
    config.aging_ticks = options.aging_cycles;
    config.easy_backfill = options.easy_backfill;
    config.enable_preemption = options.enable_preemption;
    config.preempt_priority_gap = options.preempt_priority_gap;
    DispatchCore core(config);
    constexpr std::uint64_t kNever = DispatchCore::kNever;

    // Cycles still owed per task; grows by the checkpoint overhead on
    // each preemption.
    std::vector<std::vector<std::uint64_t>> owed;
    for (const SimJob &job : jobs)
        owed.push_back(job.task_cycles);

    // free_at[d]: the cycle die d finishes (or yields) its current
    // task; started[d]: when it began (meaningful only while busy).
    std::vector<std::uint64_t> free_at(num_dies, 0);
    std::vector<std::uint64_t> started(num_dies, 0);

    // Admission order = arrival order (stable for equal arrivals).
    std::vector<std::size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return jobs[a].arrival < jobs[b].arrival;
                     });
    std::size_t admitted = 0;
    auto admit_arrivals = [&](std::uint64_t now) {
        for (; admitted < order.size() &&
             jobs[order[admitted]].arrival <= now;
             ++admitted) {
            const std::size_t j = order[admitted];
            DispatchCore::JobDesc desc;
            desc.key = j;
            desc.width = jobs[j].task_cycles.size();
            desc.priority = jobs[j].priority;
            desc.arrival = jobs[j].arrival;
            if (jobs[j].deadline > 0)
                desc.deadline = jobs[j].arrival + jobs[j].deadline;
            desc.task_ticks = *std::max_element(
                jobs[j].task_cycles.begin(), jobs[j].task_cycles.end());
            desc.preemptible = jobs[j].boundary_cycles > 0;
            core.admit(desc);
        }
    };

    // Elastic capacity: the autoscaler's target caps concurrency.
    std::size_t cap_target =
        options.autoscaler ? options.autoscaler->target() : num_dies;
    if (options.autoscaler) {
        out.active_timeline.emplace_back(0, cap_target);
        core.set_active(cap_target);
    }
    std::uint64_t window_area = 0; // busy-dies x cycles this window
    std::uint64_t next_window =
        options.autoscaler ? options.window_cycles : kNever;

    std::uint64_t now = 0;
    std::size_t done_jobs = 0;
    admit_arrivals(now);
    while (done_jobs < jobs.size()) {
        // ---- Dispatch everything the core picks at `now`, each task
        // onto the lowest-numbered idle die. ----
        DispatchCore::Pick pick;
        while (core.pick(now, pick)) {
            if (pick.first) {
                out.start_[pick.key] = now;
                out.reservation_[pick.key] = pick.reservation;
            }
            std::uint32_t die = 0;
            while (core.die(die).busy)
                ++die;
            free_at[die] = now + owed[pick.key][pick.task];
            started[die] = now;
            core.start(die, pick, free_at[die]);
        }

        // ---- Advance to the next event: a die completing/yielding,
        // the next arrival, or an autoscaler window boundary. ----
        std::uint64_t next = kNever;
        for (std::uint32_t d = 0; d < num_dies; ++d)
            if (core.die(d).busy)
                next = std::min(next, free_at[d]);
        if (admitted < order.size())
            next = std::min(next, jobs[order[admitted]].arrival);
        if (next == kNever)
            throw std::logic_error(
                "simulate_pool_schedule: stalled schedule");
        next = std::min(next, next_window);
        window_area += core.tasks_running() * (next - now);
        now = next;

        for (std::uint32_t d = 0; d < num_dies; ++d) {
            const DispatchCore::DieSlot slot = core.die(d);
            if (!slot.busy || free_at[d] > now)
                continue;
            out.die_busy[d] += free_at[d] - started[d];
            if (slot.preempt_pending) {
                // Layer-boundary yield: requeue the remainder plus
                // the checkpoint round-trip.
                std::uint64_t &rest = owed[slot.key][slot.task];
                rest = rest - (free_at[d] - started[d]) +
                    options.preempt_overhead_cycles;
                core.release(d, /*yielded=*/true);
                ++out.preemptions;
                continue;
            }
            if (!core.release(d, /*yielded=*/false))
                continue;
            const std::size_t j = slot.key;
            out.finish_[j] = free_at[d];
            out.makespan = std::max(out.makespan, free_at[d]);
            const std::uint64_t due = jobs[j].arrival + jobs[j].deadline;
            if (jobs[j].deadline > 0 && free_at[d] > due) {
                out.lateness_[j] = free_at[d] - due;
                ++out.deadline_misses;
            }
            ++done_jobs;
        }
        admit_arrivals(now);

        // ---- Autoscaler window boundary: exact windowed inputs. ----
        if (options.autoscaler != nullptr && now == next_window) {
            AutoscalerWindow w;
            w.busy_dies = static_cast<double>(window_area) /
                static_cast<double>(options.window_cycles);
            w.queue_depth = static_cast<double>(core.pending_jobs());
            const std::size_t target = options.autoscaler->step(w);
            if (target != cap_target) {
                cap_target = target;
                out.active_timeline.emplace_back(now, cap_target);
            }
            core.set_active(cap_target);
            window_area = 0;
            next_window += options.window_cycles;
        }

        // ---- Preemption: each job arriving exactly now asks the core
        // for victims; a victim yields at its next layer boundary
        // unless it would finish first anyway. ----
        std::size_t first_now = admitted;
        while (first_now > 0 && jobs[order[first_now - 1]].arrival == now)
            --first_now;
        for (std::size_t i = first_now; i < admitted; ++i)
            core.preempt_for(order[i], [&](std::size_t d) {
                const std::uint64_t b =
                    jobs[core.die(d).key].boundary_cycles;
                const std::uint64_t yield_at =
                    started[d] + ((now - started[d]) / b + 1) * b;
                if (yield_at >= free_at[d])
                    return false;
                free_at[d] = yield_at;
                return true;
            });
    }
    return out;
}

} // namespace flowgnn
