/**
 * @file
 * Bounded FIFO with occupancy statistics: a full queue refuses the push
 * (backpressure) and the queue records its peak occupancy and pushes.
 * The test suite's per-cycle timing oracle models the engine's
 * adapter-to-MP queues with it. The engine's phase model itself keeps
 * those queues in fixed ring buffers (core/phase_model.cpp) with the
 * same semantics.
 *
 * Concurrency contract: this type is deliberately unsynchronized — it
 * carries no thread-safety annotations because it has no locks.
 */
#ifndef FLOWGNN_CORE_FIFO_H
#define FLOWGNN_CORE_FIFO_H

#include <cstdint>
#include <deque>
#include <utility>

namespace flowgnn {

/** Bounded FIFO with backpressure and occupancy statistics. */
template <typename T>
class Fifo
{
  public:
    explicit Fifo(std::size_t capacity = 8) : capacity_(capacity) {}

    bool empty() const { return items_.empty(); }
    bool full() const { return items_.size() >= capacity_; }
    std::size_t size() const { return items_.size(); }
    std::size_t capacity() const { return capacity_; }

    /** Pushes if space is available; returns false (backpressure) if not. */
    bool
    push(const T &item)
    {
        if (full())
            return false;
        items_.push_back(item);
        record_push();
        return true;
    }

    /** Move push, for element types that are move-only (e.g. the serve
     * subsystem's jobs, which carry a std::promise). */
    bool
    push(T &&item)
    {
        if (full())
            return false;
        items_.push_back(std::move(item));
        record_push();
        return true;
    }

    /** Pops the oldest item; call only when !empty(). */
    T
    pop()
    {
        T item = std::move(items_.front());
        items_.pop_front();
        return item;
    }

    const T &front() const { return items_.front(); }

    /** Lifetime statistics for queue-sizing studies. */
    std::uint64_t total_pushes() const { return total_pushes_; }
    std::size_t peak_occupancy() const { return peak_occupancy_; }

  private:
    void
    record_push()
    {
        ++total_pushes_;
        if (items_.size() > peak_occupancy_)
            peak_occupancy_ = items_.size();
    }

    std::size_t capacity_;
    std::deque<T> items_;
    std::uint64_t total_pushes_ = 0;
    std::size_t peak_occupancy_ = 0;
};

} // namespace flowgnn

#endif // FLOWGNN_CORE_FIFO_H
