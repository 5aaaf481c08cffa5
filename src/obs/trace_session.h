/**
 * @file
 * flowgnn::obs — span tracing: one wall-clock timeline from request
 * arrival to merged result, across every subsystem.
 *
 * A TraceSession owns per-thread span buffers and exports Chrome
 * trace-event JSON (open in Perfetto / chrome://tracing). Each
 * subsystem is a *process* row (Track), each recording thread (or
 * explicitly-addressed unit) a *thread* row inside it, so a single
 * view shows: io open/parse/plan stages, serve submit + queue-wait,
 * pool die leases, per-slice shard execution, per-layer ghost
 * exchanges — and, merged onto the same timeline through a cycle→µs
 * CycleClockMap, the engine's cycle-domain unit trace.
 *
 * Recording discipline:
 *  - Instrumented code never holds a session pointer; it asks
 *    TraceSession::current() (one relaxed atomic load). With no
 *    session installed a Span is two branches and no clock read —
 *    the disabled-path cost bench_obs_overhead gates at < 2%.
 *  - Each recording thread appends to its own fixed-capacity buffer:
 *    no shared write contention, and slots are written exactly once
 *    before being published by a release-store of the buffer's count
 *    (single-writer, so the exporter's acquire-read of published
 *    slots is race-free even while other threads keep recording).
 *    A full buffer drops new records and counts the drops — tracing
 *    never blocks or reallocates on the hot path.
 *  - Span names are copied into the record (48-byte inline buffer,
 *    truncating); callers may pass stack-formatted strings.
 *
 * Clock domains: wall spans use steady_clock ns since the session
 * epoch. Cycle-domain events (engine unit traces, the ghost
 * executor's modeled per-die timeline) are mapped with
 * CycleClockMap{anchor_ns, clock_mhz}: cycle c lands at
 * anchor_ns + c / clock_mhz µs, where the anchor is the wall instant
 * the modeled run started — so modeled rows line up under the wall
 * spans that produced them.
 */
#ifndef FLOWGNN_OBS_TRACE_SESSION_H
#define FLOWGNN_OBS_TRACE_SESSION_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/sync.h"
#include "core/trace.h"

namespace flowgnn {
namespace obs {

/** Subsystem timeline: one Chrome-trace process row each. */
enum class Track : std::uint8_t {
    kHost = 0, ///< driver / bench stages (open, features, ...)
    kIo,       ///< graph ingestion: mmap, checksum, parse
    kServe,    ///< host serving spans outside the pool
    kPool,     ///< PoolScheduler/DiePool: queue-wait, die leases
    kShard,    ///< halo sharding: planning, per-slice execution
    kGhost,    ///< ghost exchange: planning, pricing, modeled timeline
    kEngine,   ///< cycle-domain engine unit trace (mapped to µs)
};
constexpr std::size_t kNumTracks = 7;

/** Display name of a track ("serve", "pool", ...). */
const char *track_name(Track track);

/** Maps modeled kernel cycles onto the session's wall timeline. */
struct CycleClockMap {
    std::uint64_t anchor_ns = 0; ///< wall instant of cycle 0
    double clock_mhz = 300.0;

    /** Cycle c in session-ns: anchor + c/mhz µs. */
    std::uint64_t
    to_ns(std::uint64_t cycle) const
    {
        return anchor_ns + static_cast<std::uint64_t>(
                               static_cast<double>(cycle) * 1e3 /
                               clock_mhz);
    }
};

/** Tuning knobs for a TraceSession. */
struct TraceOptions {
    /** Per-thread record capacity; records past it are dropped (and
     * counted) rather than blocking or reallocating. */
    std::size_t buffer_capacity = 1 << 16;
};

/**
 * One tracing capture. Construct, install(), run the workload,
 * write_chrome_trace(), destroy. Instrumented code records through
 * TraceSession::current(); uninstalled sessions record nothing.
 * Destruction uninstalls automatically. Only one session can be
 * installed at a time (latest install wins).
 */
class TraceSession
{
  public:
    explicit TraceSession(TraceOptions options = {});
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /** Makes this the process-wide recording target. */
    void install();
    /** Stops recording into this session (idempotent). */
    void uninstall();
    /** The installed session, or nullptr (one relaxed atomic load —
     * the whole disabled-path cost of instrumentation). */
    static TraceSession *current();

    /** Nanoseconds since the session epoch (steady clock). */
    std::uint64_t now_ns() const;

    /** Records one complete span on the calling thread's row. */
    void span(Track track, std::string_view name,
              std::uint64_t start_ns, std::uint64_t end_ns);

    /** Records a span on an explicitly-addressed row (modeled units,
     * dies). Explicit tids live in a separate namespace from thread
     * rows: use kExplicitTidBase + your unit index. */
    void span_on(Track track, std::uint32_t tid, std::string_view name,
                 std::uint64_t start_ns, std::uint64_t end_ns);

    /** Records a counter sample (gauge timeline: queue depth, busy
     * dies, RSS) at the current instant. Rendered by Perfetto as a
     * stacked counter track on the Track's process row. */
    void counter(Track track, std::string_view name, double value);

    /** Names the calling thread's row on `track` (e.g. "die 3").
     * Idempotent and cheap enough to call per dispatch. */
    void name_thread(Track track, std::string_view name);

    /** Names an explicitly-addressed row. */
    void name_row(Track track, std::uint32_t tid,
                  std::string_view name);

    /**
     * Merges a cycle-domain engine unit trace onto the timeline:
     * every TraceEvent becomes a span on Track::kEngine, with NT
     * unit u as row `die*kUnitsPerDie + u`, MP unit u offset by
     * kMpRowOffset, timestamps through `map`. Rows are named
     * "die D · NT u" / "die D · MP u".
     */
    void add_cycle_trace(const std::vector<TraceEvent> &events,
                         const CycleClockMap &map,
                         std::uint32_t die = 0);

    /** Chrome trace-event JSON: process/thread metadata + all
     * recorded spans and counters. Safe to call while other threads
     * are still recording (they keep appending; the export sees a
     * consistent prefix of each buffer). */
    void write_chrome_trace(std::ostream &os) const;

    /** Records accepted across all thread buffers. */
    std::size_t recorded() const;
    /** Records dropped because a thread buffer filled up. */
    std::size_t dropped() const;

    /** Explicit row ids must start here; lower tids are assigned to
     * recording threads in registration order. */
    static constexpr std::uint32_t kExplicitTidBase = 1000;
    /** Engine-track row layout for add_cycle_trace. */
    static constexpr std::uint32_t kUnitsPerDie = 200;
    static constexpr std::uint32_t kMpRowOffset = 100;

  private:
    struct Record {
        std::uint64_t start_ns;
        std::uint64_t end_ns; ///< counter: value bit-cast to u64
        std::uint32_t tid;
        Track track;
        std::uint8_t kind; ///< 0 = span, 1 = counter
        char name[46];
    };

    struct ThreadBuffer {
        explicit ThreadBuffer(std::size_t capacity)
            : records(capacity)
        {
        }
        std::vector<Record> records;
        std::atomic<std::size_t> published{0};
        std::atomic<std::uint64_t> dropped{0};
        std::uint32_t tid = 0;
    };

    ThreadBuffer &buffer_for_this_thread();
    void push(ThreadBuffer &buf, Track track, std::uint32_t tid,
              std::uint8_t kind, std::string_view name,
              std::uint64_t start_ns, std::uint64_t end_ns);

    TraceOptions options_;
    std::chrono::steady_clock::time_point epoch_;

    // mutex_ guards the buffer *list* and row names only; the
    // ThreadBuffer contents are single-writer lock-free (records
    // published by a release-store of `published`, read with acquire —
    // see the recording-discipline note above), so they stay
    // un-annotated by design.
    mutable Mutex mutex_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_
        FLOWGNN_GUARDED_BY(mutex_);
    std::uint32_t next_tid_ FLOWGNN_GUARDED_BY(mutex_) = 1;
    std::map<std::pair<std::uint8_t, std::uint32_t>, std::string>
        row_names_ FLOWGNN_GUARDED_BY(mutex_);
};

/**
 * RAII span: records [construction, destruction) on `track` when a
 * session is installed, nothing otherwise. The name is captured at
 * construction (temporaries are safe). finish() ends it early.
 */
class Span
{
  public:
    Span(Track track, std::string_view name)
        : session_(TraceSession::current())
    {
        if (session_) {
            track_ = track;
            std::size_t n = std::min(name.size(), sizeof(name_) - 1);
            std::memcpy(name_, name.data(), n);
            name_[n] = '\0';
            start_ns_ = session_->now_ns();
        }
    }

    ~Span() { finish(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void
    finish()
    {
        if (session_) {
            session_->span(track_, name_, start_ns_,
                           session_->now_ns());
            session_ = nullptr;
        }
    }

  private:
    TraceSession *session_;
    Track track_{};
    std::uint64_t start_ns_ = 0;
    char name_[48];
};

} // namespace obs
} // namespace flowgnn

#endif // FLOWGNN_OBS_TRACE_SESSION_H
