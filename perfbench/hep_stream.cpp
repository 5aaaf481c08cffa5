/**
 * @file
 * hep-stream: the paper's real-time trigger case. Open loop: Poisson
 * arrivals at a fixed rate of pre-generated HEP kNN events (50 nodes,
 * ~800 edges, edge features), served by an InferenceService running
 * GAT on 3 replicas.
 */
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>

#include "bench.h"
#include "datasets/dataset.h"
#include "io/graph_file.h"

namespace perfbench {

using namespace flowgnn;

namespace {

constexpr std::size_t kEvents = 512;
constexpr std::size_t kTinyEvents = 32;
constexpr std::size_t kReplicas = 3;
constexpr std::size_t kQueueCapacity = 1024;
/** Single-thread Engine::run per event (the traced engine.run_ms_p50),
 * measured once on a 4-vCPU x86 host and frozen here: the rate and the
 * limit are never derived from a time measured at run time, so faster
 * code is not offered more load. */
constexpr double kServiceMs = 3.4;
/** Offered load, events per second: a third of the replicas' capacity
 * at kServiceMs, so a trigger's latency stays near its service time. */
constexpr double kRatePerS = kReplicas / 3.0 / (kServiceMs / 1e3);
/** An event slower than this, due -> result, misses its limit. */
constexpr double kLimitMs = 3.0 * kServiceMs;
constexpr int kSetupReps = 3;
constexpr std::size_t kPoolProbeEvents = 16;

struct Arrival {
    double t_s;        ///< due time after the window opens
    std::size_t event; ///< index into the event set
};

} // namespace

void
run_hep_stream(const Options &opt, Spans &spans, Report &report)
{
    const DatasetSpec &spec = dataset_spec(DatasetKind::kHep);
    const Model model =
        make_model(ModelKind::kGat, spec.node_dim, spec.edge_dim);
    const std::size_t num_events = opt.tiny ? kTinyEvents : kEvents;
    const std::size_t replicas =
        std::min<std::size_t>(kReplicas, opt.cores);

    // ---- set-up: events + references, arrivals, service ----
    std::vector<double> setup_s;
    std::vector<GraphSample> events;
    std::vector<float> want;
    std::vector<Arrival> arrivals;
    std::unique_ptr<InferenceService> service;
    std::uint64_t digest = 0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        service.reset();
        const auto t0 = Clock::now();
        Rng pick(derive_seed(opt.seed, 1));
        events.clear();
        want.clear();
        for (std::size_t i = 0; i < num_events; ++i) {
            events.push_back(make_sample(
                DatasetKind::kHep, pick.uniform_index(spec.num_graphs)));
            want.push_back(model.predict(events.back()));
        }
        Rng gaps(derive_seed(opt.seed, 2));
        arrivals.clear();
        for (double t = 0.0;;) {
            t += -std::log(1.0 - gaps.uniform()) / kRatePerS;
            if (t >= opt.seconds)
                break;
            arrivals.push_back({t, gaps.uniform_index(num_events)});
        }
        ServiceConfig sc;
        sc.replicas = replicas;
        sc.queue_capacity = kQueueCapacity;
        sc.admission = AdmissionPolicy::kReject;
        service = std::make_unique<InferenceService>(model, EngineConfig{},
                                                     sc);
        setup_s.push_back(seconds_since(t0));
    }
    for (const Arrival &a : arrivals) {
        const std::uint64_t words[2] = {
            std::uint64_t(std::llround(a.t_s * 1e9)), a.event};
        digest = io::fnv1a64(words, sizeof words, digest ^ 0xCBF29CE4u);
    }

    // Warm-up: every event once through the service, not measured.
    {
        std::vector<std::future<RunResult>> warm;
        for (const GraphSample &e : events)
            warm.push_back(service->submit(e));
        for (auto &f : warm)
            f.get();
    }

    // ---- measured open loop ----
    std::vector<double> due_s;
    for (const Arrival &a : arrivals)
        due_s.push_back(a.t_s);
    std::vector<std::uint64_t> first_cycles(num_events, 0);
    const LoadResult load = open_loop<std::future<RunResult>>(
        spans, Clock::now(), due_s,
        [&](std::size_t i) { return events[arrivals[i].event]; },
        [&](std::size_t, GraphSample &&sample, double) {
            return spans.time("serve.submit", [&] {
                return service->submit(std::move(sample));
            });
        },
        [&](std::size_t i, std::future<RunResult> &f) {
            const RunResult r = f.get();
            const std::size_t e = arrivals[i].event;
            std::uint64_t &first = first_cycles[e];
            if (first == 0)
                first = r.stats.total_cycles;
            return std::pair<bool, std::uint64_t>{
                within_tolerance(r.prediction, want[e]) &&
                    r.stats.total_cycles == first,
                r.stats.total_cycles};
        });
    const ServiceStats st = service->stats();
    service.reset();
    report.attempted += load.attempted;
    report.failed += load.failed;
    const std::vector<double> &latency_ms = load.latency_ms;
    const auto on_time = std::count_if(latency_ms.begin(), latency_ms.end(),
                                       [](double ms) { return ms <= kLimitMs; });

    report.e2e("setup_s", median(setup_s), "s");
    // One class of requests: graph_s_p50 is latency_ms_p50 in seconds.
    report.e2e("graph_s_p50", median(latency_ms) / 1e3, "s");
    report.e2e("latency_ms_p50", median(latency_ms), "ms");
    report.e2e("goodput",
               double(on_time) /
                   double(std::max<std::size_t>(load.attempted, 1)),
               "ratio");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    report.e2e("modeled_cycles_mean", mean(load.cycles), "cycles");

    report.note("threads", double(replicas + 1));
    report.note("replicas", double(replicas));
    report.note("rate_per_s", kRatePerS);
    report.note("events", double(num_events));
    report.note("setup_reps", double(kSetupReps));
    report.note("latency_samples", double(latency_ms.size()));
    report.note("latency_ms_p90", percentile(latency_ms, 0.90));
    report.note("latency_ms_p99", percentile(latency_ms, 0.99));
    report.note("latency_limit_ms", kLimitMs);
    report.note("input_digest", double(digest >> 11));

    if (!spans.on())
        return;
    report.layer("loadgen.lag_ms_p99",
                 percentile(spans.seconds("loadgen.lag"), 0.99) * 1e3, "ms");
    report.layer("serve.submit_us_p99",
                 percentile(spans.seconds("serve.submit"), 0.99) * 1e6, "us");
    std::vector<double> util;
    for (const ReplicaStats &r : st.replicas)
        util.push_back(r.utilization);
    report.layer("serve.replica_util", mean(util), "ratio");
    const std::vector<double> run_s =
        probe_engine(model, events, spans, report);
    std::vector<double> wait_ms;
    for (std::size_t k = 0; k < load.ids.size(); ++k)
        wait_ms.push_back(latency_ms[k] -
                          run_s[arrivals[load.ids[k]].event] * 1e3);
    report.layer("serve.wait_ms_p99", percentile(wait_ms, 0.99), "ms");

    // Layers this workload bypasses, called directly on its largest
    // event.
    std::size_t largest = 0;
    for (std::size_t i = 1; i < events.size(); ++i)
        if (events[i].num_edges() > events[largest].num_edges())
            largest = i;
    const GraphSample &big = events[largest];
    ChainInput in;
    in.model = &model;
    in.fgnb_path = opt.work_dir + "/hep-stream-" +
                   std::to_string(opt.seed) + ".fgnb";
    in.shard.num_shards = 4;
    in.shard.strategy = ShardStrategy::kFennel;
    in.shard.mode = ShardMode::kGhostExchange;
    in.shard.restream_passes = 3;
    in.threads = opt.cores;
    GraphFile::save(in.fgnb_path, big, {.threads = opt.cores});
    const Matrix big_want = model.reference_embeddings(model.prepare(big));
    std::vector<double> mem_plan_mb;
    std::vector<double> mem_run_mb;
    ChainOutput last;
    for (int it = 0; it < 5; ++it) {
        last = run_chain(in, spans, &mem_plan_mb, &mem_run_mb);
        ++report.attempted;
        if (max_abs_diff(last.result.embeddings, big_want) > 1e-4)
            ++report.failed;
    }
    std::filesystem::remove(in.fgnb_path);
    chain_layer_metrics(in, spans, last, mem_plan_mb, mem_run_mb, report);

    const std::size_t k = std::min(kPoolProbeEvents, events.size());
    const std::vector<GraphSample> small(events.begin(), events.begin() + k);
    const std::vector<float> small_want(want.begin(), want.begin() + k);
    ShardConfig batch = in.shard;
    batch.num_shards = 2;
    report.attempted += k + 1;
    report.failed += probe_pool(model, small, small_want, big, want[largest],
                                batch, std::uint32_t(replicas), spans,
                                report);
}

} // namespace perfbench
