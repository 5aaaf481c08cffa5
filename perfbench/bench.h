/**
 * @file
 * Shared pieces of the repository benchmark: run options, the report
 * a workload fills in, the span recorder behind the per-layer metrics,
 * and the layer probes every traced run uses.
 *
 * Spans are recorded only from the benchmark's own files, around its
 * calls into the library's public functions. Each span goes to the
 * installed obs::TraceSession (written out as a Chrome trace at the
 * end of a traced run) and to an in-memory copy from which the
 * per-layer metrics are computed.
 */
#ifndef FLOWGNN_PERFBENCH_BENCH_H
#define FLOWGNN_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <mutex>
#include <thread>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "obs/trace_session.h"
#include "pool/scheduler.h"
#include "serve/service.h"
#include "shard/shard_plan.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/**
 * Deadlines of the two pool job classes, relative to the due time: a
 * latency factor times the class's service time, measured once on a
 * 4-vCPU x86 host and frozen here (never measured at run time). An
 * interactive job (Cora-sized GCN-16 run) took ~17 ms; a batch job
 * (plan + ghost run of the 1/64 Reddit graph, P=2) ~0.5 s. See
 * README.md, "Offered load and limits".
 */
inline constexpr double kInteractiveDeadlineMs = 5.0 * 17.0;
inline constexpr double kBatchDeadlineMs = 2.0 * 500.0;

/** Command-line options of one run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Self-test size: every input shrunk so a run takes ~1 s. */
    bool tiny = false;
    /** Directory for generated files and the Chrome trace. */
    std::string work_dir = ".";
    /** Busy compute threads allowed: threads=, replicas or dies. */
    unsigned cores = 3;
};

/** One named metric. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload hands back to main(). */
struct Report {
    std::size_t attempted = 0;
    /** Failed, shed or wrong results. */
    std::size_t failed = 0;
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    /** Run record: key -> JSON literal. */
    std::vector<std::pair<std::string, std::string>> record;

    void e2e(std::string name, double value, std::string unit);
    void layer(std::string name, double value, std::string unit);
    void note(std::string key, double value);
    void note(std::string key, const std::string &text);
};

/** Seconds elapsed since `t0`. */
double seconds_since(Clock::time_point t0);

/** Nearest-rank percentile, q in (0, 1]; 0 for an empty sample. */
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double> &values);

/** Derives an independent 64-bit seed for one input stream. */
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/** Relative-to-one difference used by the differential checks. */
bool within_tolerance(double got, double want, double tol = 1e-4);

/** Largest absolute element difference (infinity on shape mismatch). */
double max_abs_diff(const flowgnn::Matrix &a, const flowgnn::Matrix &b);

/** VmHWM of this process, MiB. */
double peak_rss_mb();

/**
 * Span recorder. Disabled (no session) it only runs the callable, with
 * no clock read. Enabled, every span is recorded on Track::kHost of the
 * session and kept in memory by name, in recording order.
 */
class Spans
{
  public:
    explicit Spans(flowgnn::obs::TraceSession *session)
        : session_(session)
    {
    }

    bool on() const { return session_ != nullptr; }

    /** Session clock, ns (0 when disabled). */
    std::uint64_t now_ns() const
    {
        return session_ ? session_->now_ns() : 0;
    }

    /** Session-clock instant of a steady_clock time point. */
    std::uint64_t to_ns(Clock::time_point t) const;

    /** Records [start_ns, end_ns) under `name`. */
    void record(std::string_view name, std::uint64_t start_ns,
                std::uint64_t end_ns);

    /** Runs fn inside a span called `name`; returns fn's result. */
    template <typename Fn>
    decltype(auto)
    time(std::string_view name, Fn &&fn)
    {
        struct Guard {
            Spans *spans;
            std::string_view name;
            std::uint64_t start;
            ~Guard()
            {
                if (spans->on())
                    spans->record(name, start, spans->now_ns());
            }
        } guard{this, name, now_ns()};
        return fn();
    }

    /** Durations of every span called `name`, seconds, in order. */
    std::vector<double> seconds(const std::string &name) const;
    /** Median duration of `name`, seconds (0 when none). */
    double median_s(const std::string &name) const;

  private:
    flowgnn::obs::TraceSession *session_;
    mutable std::mutex mutex_;
    std::map<std::string, std::vector<double>, std::less<>> durations_;
};

/**
 * Peak VmRSS growth (MiB) while fn runs: VmRSS is sampled every 2 ms
 * on a helper thread, and the result is the highest sample minus the
 * level before fn started.
 */
double peak_rss_growth_mb(const std::function<void()> &fn);

/** The large-graph chain: FGNB file -> ghost-sharded result. */
struct ChainInput {
    const flowgnn::Model *model = nullptr;
    std::string fgnb_path;
    /** Features generated when the file stores none. */
    std::size_t feature_dim = 16;
    std::uint64_t feature_seed = 0;
    flowgnn::ShardConfig shard;
    unsigned threads = 1;
};

/** One pass of the chain. */
struct ChainOutput {
    flowgnn::ShardedRunResult result;
    double seconds = 0.0; ///< open -> result
    std::size_t nodes = 0;
    std::size_t edges = 0;
};

/**
 * Open -> features -> make_ghost_plan -> run_ghost_plan. With spans on,
 * the four calls are spans ("io.open", "io.features", "ghost.plan",
 * "ghost.run") inside a "graph" span, and the layer extras run after
 * it on the same view: "graph.partition" (shard_plan_assignment),
 * "engine.functional" (the unsliced kNonPipelined pass run_ghost_plan
 * performs), "engine.stage<k>" (that pass sliced one stage per
 * run_resumable call), and the peak RSS growth of plan and run.
 */
ChainOutput run_chain(const ChainInput &in, Spans &spans,
                      std::vector<double> *mem_plan_mb = nullptr,
                      std::vector<double> *mem_run_mb = nullptr);

/**
 * Per-layer metrics of the chain spans recorded by run_chain. Returns
 * trace.attributed_share: the share of the median "graph" span that
 * the named layer spans (open, features, plan, run) account for.
 */
double chain_layer_metrics(const ChainInput &in, const Spans &spans,
                           const ChainOutput &last,
                           const std::vector<double> &mem_plan_mb,
                           const std::vector<double> &mem_run_mb,
                           Report &report);

/**
 * Single-thread Engine::run per sample, in the default mode
 * ("engine.run") and in kNonPipelined mode ("engine.functional"), plus
 * Model::prepare ("nn.prepare"). Emits engine.run_ms_p50,
 * engine.functional_ms_p50, engine.timing_ms_p50, nn.prepare_ms_p50
 * and engine.gmacs_per_s. Returns each sample's default-mode run
 * seconds (the service wait subtracts them).
 */
std::vector<double> probe_engine(const flowgnn::Model &model,
                                 const std::vector<flowgnn::GraphSample> &samples,
                                 Spans &spans, Report &report);

/**
 * Closed burst through an InferenceService: every sample is submitted
 * at once and awaited. Emits serve.submit_us_p99, serve.wait_ms_p99
 * (submit -> result minus the sample's engine.run) and
 * serve.replica_util. Returns the number of wrong results.
 */
std::size_t probe_serve(const flowgnn::Model &model,
                        const std::vector<flowgnn::GraphSample> &samples,
                        const std::vector<float> &want,
                        const std::vector<double> &run_s,
                        std::size_t replicas, Spans &spans, Report &report);

/**
 * Closed burst through a PoolScheduler (kEdf, preemption, `dies`
 * dies): the small samples as deadline whole-graph jobs, then the
 * large one as a ghost job. Emits the pool.* per-layer metrics.
 * Returns the number of wrong results.
 */
std::size_t probe_pool(const flowgnn::Model &model,
                       const std::vector<flowgnn::GraphSample> &small,
                       const std::vector<float> &small_want,
                       const flowgnn::GraphSample &large, float large_want,
                       const flowgnn::ShardConfig &shard, std::uint32_t dies,
                       Spans &spans, Report &report);

/** The pool.* per-layer metrics from the submit spans and the
 * scheduler's final stats. */
void pool_layer_metrics(const Spans &spans, const flowgnn::PoolStats &stats,
                        Report &report);

/**
 * Requests in flight on an open loop. F is a future, or any type with
 * a future's wait_for(). poll() stamps every future that has become
 * ready with the instant it was seen ready, waiting at most `budget`
 * (on the oldest) first, so a completion is observed within `budget`
 * of when it happened. With nothing in flight it just sleeps for
 * `budget`.
 */
template <typename F>
class Inflight
{
  public:
    void
    add(std::size_t id, F future)
    {
        pending_.push_back({id, std::move(future)});
    }

    bool empty() const { return pending_.empty(); }

    /** done(id, F&, Clock::time_point) is called per ready one. */
    template <typename Fn>
    void
    poll(Clock::duration budget, Fn &&done)
    {
        if (pending_.empty()) {
            std::this_thread::sleep_for(budget);
            return;
        }
        pending_.front().future.wait_for(budget);
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (it->future.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                done(it->id, it->future, Clock::now());
                it = pending_.erase(it);
            } else {
                ++it;
            }
        }
    }

  private:
    struct Item {
        std::size_t id;
        F future;
    };
    std::list<Item> pending_;
};

/** Outcome of an open loop. */
struct LoadResult {
    std::size_t attempted = 0;
    std::size_t failed = 0;         ///< shed, thrown or wrong
    std::vector<double> latency_ms; ///< due -> result, correct ones
    std::vector<double> cycles;     ///< modeled cycles, correct ones
    std::vector<std::size_t> ids;   ///< request index, correct ones
};

/**
 * Replays requests open loop on the calling thread: request i is due
 * `due_s[i]` (ascending) seconds after `start`, its payload is made by
 * make(i) before the wait, and submit(i, payload, late_ms) sends it
 * (late_ms: how late the send started) and returns its future F.
 * check(i, F&) takes the result and returns {correct, modeled cycles};
 * a throw counts as a failure. Latency runs from the due time to when
 * the result was seen ready. Spans: "loadgen.lag" (due -> send) and
 * "request" (due -> result); submit() times its own call.
 */
template <typename F, typename Make, typename Submit, typename Check>
LoadResult
open_loop(Spans &spans, Clock::time_point start,
          const std::vector<double> &due_s, Make &&make, Submit &&submit,
          Check &&check)
{
    using Ms = std::chrono::duration<double, std::milli>;
    constexpr auto kPollBudget = std::chrono::microseconds(250);
    LoadResult out;
    Inflight<F> inflight;
    std::vector<Clock::time_point> due(due_s.size());
    auto done = [&](std::size_t i, F &f, Clock::time_point now) {
        std::pair<bool, std::uint64_t> verdict{false, 0};
        try {
            verdict = check(i, f);
        } catch (const std::exception &) {
        }
        if (!verdict.first) {
            ++out.failed;
            return;
        }
        spans.record("request", spans.to_ns(due[i]), spans.to_ns(now));
        out.latency_ms.push_back(Ms(now - due[i]).count());
        out.cycles.push_back(double(verdict.second));
        out.ids.push_back(i);
    };
    for (std::size_t i = 0; i < due_s.size(); ++i) {
        auto payload = make(i);
        due[i] = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(due_s[i]));
        for (auto now = Clock::now(); now < due[i]; now = Clock::now())
            inflight.poll(
                std::min<Clock::duration>(due[i] - now, kPollBudget), done);
        const auto sent = Clock::now();
        spans.record("loadgen.lag", spans.to_ns(due[i]), spans.to_ns(sent));
        ++out.attempted;
        try {
            inflight.add(
                i, submit(i, std::move(payload), Ms(sent - due[i]).count()));
        } catch (const flowgnn::ServiceOverloaded &) {
            ++out.failed;
        }
    }
    while (!inflight.empty())
        inflight.poll(kPollBudget, done);
    return out;
}

/** The workloads. Each fills `report`; exceptions mean a broken run. */
void run_reddit_ghost(const Options &opt, Spans &spans, Report &report);
void run_hep_stream(const Options &opt, Spans &spans, Report &report);
void run_pool_mixed(const Options &opt, Spans &spans, Report &report);

} // namespace perfbench

#endif // FLOWGNN_PERFBENCH_BENCH_H
