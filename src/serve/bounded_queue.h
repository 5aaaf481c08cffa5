/**
 * @file
 * Thread-safe bounded submission queue for the inference service: a
 * Fifo (core/fifo.h) behind a mutex, with the same semantics (bounded
 * capacity, backpressure when full, occupancy statistics) extended
 * with blocking waits and a close() protocol for shutdown. Producers choose between blocking push (backpressure) and
 * try_push (admission control / load shedding).
 */
#ifndef FLOWGNN_SERVE_BOUNDED_QUEUE_H
#define FLOWGNN_SERVE_BOUNDED_QUEUE_H

#include <optional>
#include <utility>

#include "core/fifo.h"
#include "core/sync.h"

namespace flowgnn {

/** Bounded multi-producer multi-consumer queue over a Fifo. */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity) : fifo_(capacity) {}

    /**
     * Blocks while the queue is full (backpressure), then enqueues.
     * Returns false only if the queue was closed.
     */
    bool
    push(T item)
    {
        UniqueLock lock(&mutex_);
        if (!closed_ && fifo_.full()) {
            ++waiting_producers_;
            not_full_.wait(lock, [&]() FLOWGNN_REQUIRES(mutex_) {
                return closed_ || !fifo_.full();
            });
            --waiting_producers_;
        }
        if (closed_)
            return false;
        fifo_.push(std::move(item));
        lock.unlock();
        not_empty_.notify_one();
        return true;
    }

    /** Non-blocking push: false on a full or closed queue (the item
     * is left intact so the caller can reject the request). */
    bool
    try_push(T &&item)
    {
        {
            MutexLock lock(&mutex_);
            if (closed_ || !fifo_.push(std::move(item)))
                return false;
        }
        not_empty_.notify_one();
        return true;
    }

    /**
     * Blocks until an item is available or the queue is closed and
     * drained; nullopt signals the consumer to exit.
     */
    std::optional<T>
    pop()
    {
        UniqueLock lock(&mutex_);
        not_empty_.wait(lock, [&]() FLOWGNN_REQUIRES(mutex_) {
            return closed_ || !fifo_.empty();
        });
        if (fifo_.empty())
            return std::nullopt;
        std::optional<T> item(fifo_.pop());
        lock.unlock();
        not_full_.notify_one();
        return item;
    }

    /** Wakes all waiters; subsequent pushes fail, pops drain then end. */
    void
    close()
    {
        {
            MutexLock lock(&mutex_);
            closed_ = true;
        }
        not_full_.notify_all();
        not_empty_.notify_all();
    }

    std::size_t
    size() const
    {
        MutexLock lock(&mutex_);
        return fifo_.size();
    }

    std::size_t
    capacity() const
    {
        MutexLock lock(&mutex_);
        return fifo_.capacity();
    }

    /** Highest occupancy ever observed (queue-sizing studies). */
    std::size_t
    peak_occupancy() const
    {
        MutexLock lock(&mutex_);
        return fifo_.peak_occupancy();
    }

    /**
     * Producers currently blocked in push() waiting for space —
     * backpressure telemetry, and the deterministic synchronization
     * point tests use instead of sleeping ("wait until the producer
     * is provably blocked" rather than "sleep and hope").
     */
    std::size_t
    waiting_producers() const
    {
        MutexLock lock(&mutex_);
        return waiting_producers_;
    }

  private:
    mutable Mutex mutex_;
    CondVar not_full_;
    CondVar not_empty_;
    Fifo<T> fifo_ FLOWGNN_GUARDED_BY(mutex_);
    bool closed_ FLOWGNN_GUARDED_BY(mutex_) = false;
    std::size_t waiting_producers_ FLOWGNN_GUARDED_BY(mutex_) = 0;
};

} // namespace flowgnn

#endif // FLOWGNN_SERVE_BOUNDED_QUEUE_H
