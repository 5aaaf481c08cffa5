#include "pool/dispatch.h"

#include <algorithm>
#include <tuple>

namespace flowgnn {

DispatchCore::DispatchCore(const Config &config)
    : config_(config),
      dies_(config.num_dies),
      die_jobs_(config.num_dies),
      active_(config.num_dies)
{
    finishes_.reserve(config.num_dies);
    victims_.reserve(config.num_dies);
}

void
DispatchCore::admit(const JobDesc &job)
{
    jobs_.emplace_back().desc = job;
    ++pending_;
    cap_stale_ = true;
}

void
DispatchCore::set_active(std::size_t n)
{
    active_ = n;
    cap_stale_ = true;
}

std::size_t
DispatchCore::cap()
{
    // The autoscaler's cap, raised to the widest pending job so a gang
    // wider than a shrunk pool can still start (scaling down must
    // never deadlock a job whose width admission already clamped).
    if (cap_stale_) {
        std::size_t cap = active_;
        for (const Job &job : jobs_)
            cap = std::max(cap, job.remaining());
        cap_ = std::min(cap, config_.num_dies);
        cap_stale_ = false;
    }
    return cap_;
}

DispatchCore::JobIt
DispatchCore::pick_gang(std::uint64_t now, std::size_t idle)
{
    // Jobs start strictly in order, each only when its full width is
    // free at once. A started job's remaining tasks go first; an
    // unstarted head that does not fit blocks the scan — unless EASY
    // backfill proves a later job cannot delay it.
    JobIt head = jobs_.end();
    std::uint64_t reservation = kNever;
    for (JobIt it = jobs_.begin(); it != jobs_.end(); ++it) {
        const std::size_t width = it->remaining();
        if (width == 0)
            continue;
        if (it->started)
            return it;
        if (head == jobs_.end()) {
            if (idle >= width)
                return it;
            if (!config_.easy_backfill)
                return jobs_.end();
            head = it;
            continue;
        }
        if (width > idle || it->desc.task_ticks == kNever)
            continue;
        const std::size_t head_width = head->remaining();
        if (reservation == kNever) {
            // The instant the (head width - idle)-th soonest running
            // task frees its die. An unknown finish, or too few dies
            // ever freeing, leaves no proof: plain gang.
            finishes_.clear();
            for (const DieSlot &slot : dies_) {
                if (slot.busy && slot.finish == kNever)
                    return jobs_.end();
                if (slot.busy)
                    finishes_.push_back(slot.finish);
            }
            const std::size_t need = head_width - idle;
            if (finishes_.size() < need)
                return jobs_.end();
            std::sort(finishes_.begin(), finishes_.end());
            reservation = finishes_[need - 1];
            if (head->reservation == kNever)
                head->reservation = reservation;
        }
        std::size_t freed_by_then = 0;
        for (std::uint64_t f : finishes_)
            freed_by_then += f <= reservation;
        const std::size_t extra = idle + freed_by_then - head_width;
        if (now + it->desc.task_ticks <= reservation || width <= extra)
            return it;
    }
    return jobs_.end();
}

bool
DispatchCore::pick(std::uint64_t now, Pick &out)
{
    if (pending_ == 0)
        return false;
    const std::size_t limit = cap();
    if (tasks_running_ >= limit)
        return false; // scaled down: leave the die parked
    const std::size_t idle = limit - tasks_running_;

    JobIt chosen = jobs_.end();
    switch (config_.policy) {
      case PoolPolicy::kSpaceShare:
        chosen = std::find_if(jobs_.begin(), jobs_.end(),
                              [](const Job &j) { return j.remaining() > 0; });
        break;
      case PoolPolicy::kFifoGang:
        chosen = pick_gang(now, idle);
        break;
      case PoolPolicy::kPriority: {
        std::int64_t best = 0;
        for (JobIt it = jobs_.begin(); it != jobs_.end(); ++it) {
            if (it->remaining() == 0)
                continue;
            std::int64_t eff = it->desc.priority;
            if (config_.aging_ticks > 0 && now > it->desc.arrival)
                eff += static_cast<std::int64_t>(
                    (now - it->desc.arrival) / config_.aging_ticks);
            // Strict > keeps admission order among ties.
            if (chosen == jobs_.end() || eff > best) {
                chosen = it;
                best = eff;
            }
        }
        break;
      }
      case PoolPolicy::kEdf: {
        for (JobIt it = jobs_.begin(); it != jobs_.end(); ++it)
            if (it->remaining() > 0 &&
                (chosen == jobs_.end() ||
                 it->desc.deadline < chosen->desc.deadline))
                chosen = it;
        if (chosen != jobs_.end() && !chosen->started &&
            idle < chosen->remaining())
            chosen = jobs_.end(); // gang width rule
        break;
      }
    }
    if (chosen == jobs_.end())
        return false;
    out.job_ = chosen;
    out.key = chosen->desc.key;
    out.task = chosen->requeued.empty() ? chosen->next_task
                                        : chosen->requeued.back();
    out.first = !chosen->started;
    out.reservation = chosen->reservation;
    return true;
}

bool
DispatchCore::start(std::size_t die, const Pick &pick, std::uint64_t finish)
{
    Job &job = *pick.job_;
    job.started = true;
    if (!job.requeued.empty())
        job.requeued.pop_back(); // resuming a preempted task
    else
        ++job.next_task;
    ++job.running;
    ++tasks_running_;
    dies_[die] = DieSlot{true, job.desc.key, pick.task, finish, false};
    die_jobs_[die] = pick.job_;
    const bool drained = job.remaining() == 0;
    if (drained)
        --pending_;
    return drained;
}

bool
DispatchCore::release(std::size_t die, bool yielded)
{
    const JobIt it = die_jobs_[die];
    Job &job = *it;
    --job.running;
    --tasks_running_;
    cap_stale_ = true;
    if (yielded) {
        if (job.remaining() == 0)
            ++pending_;
        job.requeued.push_back(dies_[die].task);
    }
    dies_[die] = DieSlot{};
    die_jobs_[die] = JobIt{};
    if (yielded || job.remaining() > 0 || job.running > 0)
        return false;
    jobs_.erase(it);
    return true;
}

std::size_t
DispatchCore::victim_candidates(std::uint64_t key)
{
    victims_.clear();
    const bool edf = config_.policy == PoolPolicy::kEdf;
    if (!config_.enable_preemption ||
        (!edf && config_.policy != PoolPolicy::kPriority))
        return 0;
    if (tasks_running_ < cap())
        return 0; // a die is (about to be) free; no need to evict
    // Admission just appended the job: search from the back.
    auto urgent = std::find_if(
        jobs_.rbegin(), jobs_.rend(),
        [key](const Job &j) { return j.desc.key == key; });
    if (urgent == jobs_.rend())
        return 0;
    // Only strictly less urgent victims, so preemption can only
    // shorten the newcomer's wait.
    const JobDesc &u = urgent->desc;
    for (std::size_t d = 0; d < dies_.size(); ++d) {
        if (!dies_[d].busy || dies_[d].preempt_pending)
            continue;
        const JobDesc &v = die_jobs_[d]->desc;
        if (v.preemptible &&
            (edf ? u.deadline < v.deadline
                 : u.priority - v.priority >= config_.preempt_priority_gap))
            victims_.push_back(d);
    }
    // Least urgent first; ties by die index, so the order is stable.
    auto rank = [&](std::size_t d) {
        const JobDesc &v = die_jobs_[d]->desc;
        return std::tuple(edf ? ~v.deadline : 0, edf ? 0 : v.priority, d);
    };
    std::sort(victims_.begin(), victims_.end(),
              [&](std::size_t a, std::size_t b) { return rank(a) < rank(b); });
    return urgent->remaining();
}

} // namespace flowgnn
