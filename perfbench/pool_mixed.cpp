/**
 * @file
 * pool-mixed: seeded pool/arrivals traces replayed in wall time
 * through a live PoolScheduler (GCN-16, 3 dies, kEdf, preemption).
 * Interactive jobs are whole-graph runs on Cora-sized BA graphs with a
 * tight deadline; batch jobs are submit_sharded ghost jobs on a
 * 1/64-scale Reddit-class graph (P=2), planned on the submitting
 * thread, with a loose deadline. One load-generator thread sends both
 * classes, so the dies plus the sender never outnumber four CPUs, and
 * a batch job's planning delays the interactive sends due behind it.
 */
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>

#include "bench.h"
#include "graph/generators.h"
#include "io/graph_file.h"
#include "pool/arrivals.h"

namespace perfbench {

using namespace flowgnn;

namespace {

constexpr std::uint32_t kDies = 3;
constexpr std::size_t kNodeDim = 64;
constexpr std::size_t kInteractiveGraphs = 16;
/** Cora-sized: 2,700-3,300 nodes, BA m=6 (~17 ms per run). */
constexpr NodeId kInteractiveNodesMin = 2700;
constexpr NodeId kInteractiveNodesSpan = 600;
constexpr std::uint32_t kInteractiveAttach = 6;
/** Table IV Reddit at 1/64 scale. */
constexpr NodeId kBatchNodes = 232965 / 64;
constexpr std::uint32_t kBatchAttach = 246;
constexpr NodeId kTinyBatchNodes = 600;
constexpr std::uint32_t kTinyBatchAttach = 40;
constexpr NodeId kTinyInteractiveNodes = 300;
/** Offered load, jobs per second: constants, never derived from a
 * measured job time. At the job times behind kInteractiveDeadlineMs
 * and kBatchDeadlineMs the interactive class alone fills about a
 * quarter of one die, three quarters inside the burst, where its rate
 * triples; a batch job holds two of the three dies. */
constexpr double kInteractiveRate = 15.0;
constexpr double kBatchRate = 0.5;
constexpr double kDiurnalAmplitude = 0.5;
constexpr double kBurstFactor = 3.0;
constexpr double kBurstStart = 0.4; ///< share of the window
constexpr double kBurstLen = 0.15;
constexpr std::size_t kQueueCapacity = 256;
constexpr int kSetupReps = 3;
/** Arrival traces are in cycles; one cycle replays as one µs. */
constexpr double kCyclesPerSecond = 1e6;

ShardConfig
batch_shard()
{
    ShardConfig cfg;
    cfg.num_shards = 2;
    cfg.strategy = ShardStrategy::kFennel;
    cfg.mode = ShardMode::kGhostExchange;
    cfg.restream_passes = 3;
    return cfg;
}

std::vector<double>
arrival_times(double rate, double seconds, bool burst, std::uint64_t seed)
{
    ArrivalPattern p;
    p.horizon_cycles = std::uint64_t(seconds * kCyclesPerSecond);
    p.base_rate_per_mcycle = rate * 1e6 / kCyclesPerSecond;
    p.diurnal_amplitude = kDiurnalAmplitude;
    p.diurnal_period_cycles = p.horizon_cycles;
    p.burst_factor = kBurstFactor;
    p.burst_start_cycles = std::uint64_t(kBurstStart * double(p.horizon_cycles));
    p.burst_len_cycles =
        burst ? std::uint64_t(kBurstLen * double(p.horizon_cycles)) : 0;
    p.seed = seed;
    std::vector<double> out;
    for (std::uint64_t c : generate_arrivals(p))
        out.push_back(double(c) / kCyclesPerSecond);
    return out;
}

/** One arrival of either class. */
struct Job {
    double t_s;        ///< due time after the window opens
    bool batch;        ///< batch ghost job, else interactive
    std::size_t graph; ///< interactive graph index (0 for batch)
};

/** A job of either class in flight; wait_for() as a future's. */
struct PoolFuture {
    std::future<RunResult> interactive;
    std::future<ShardedRunResult> batch;

    std::future_status
    wait_for(Clock::duration d) const
    {
        return interactive.valid() ? interactive.wait_for(d)
                                   : batch.wait_for(d);
    }
};

GraphSample
ba_sample(NodeId nodes, std::uint32_t attach, std::uint64_t seed)
{
    Rng rng(seed);
    GraphSample s;
    s.graph = make_barabasi_albert(nodes, attach, rng);
    s.node_features = gaussian_features(nodes, kNodeDim, seed ^ 0xFEA7);
    return s;
}

} // namespace

void
run_pool_mixed(const Options &opt, Spans &spans, Report &report)
{
    const Model model = make_model(ModelKind::kGcn16, kNodeDim, 0);
    const std::uint32_t dies = std::min<std::uint32_t>(kDies, opt.cores);
    const ShardConfig shard = batch_shard();

    // ---- set-up: graphs + references, two arrival traces, the pool --
    std::vector<double> setup_s;
    std::vector<GraphSample> small;
    std::vector<float> small_want;
    GraphSample batch;
    float batch_want = 0.0f;
    std::vector<Job> jobs; ///< both classes, by due time
    std::unique_ptr<PoolScheduler> pool;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        pool.reset();
        const auto t0 = Clock::now();
        Rng pick(derive_seed(opt.seed, 1));
        small.clear();
        small_want.clear();
        for (std::size_t i = 0; i < kInteractiveGraphs; ++i) {
            const NodeId n =
                opt.tiny ? kTinyInteractiveNodes
                         : kInteractiveNodesMin +
                               NodeId(pick.uniform_index(kInteractiveNodesSpan));
            small.push_back(ba_sample(n, kInteractiveAttach, pick.next_u64()));
            small_want.push_back(model.predict(small.back()));
        }
        batch = ba_sample(opt.tiny ? kTinyBatchNodes : kBatchNodes,
                          opt.tiny ? kTinyBatchAttach : kBatchAttach,
                          derive_seed(opt.seed, 2));
        batch_want = model.predict(batch);

        jobs.clear();
        for (double t : arrival_times(kInteractiveRate, opt.seconds, true,
                                      derive_seed(opt.seed, 3)))
            jobs.push_back({t, false, pick.uniform_index(small.size())});
        for (double t : arrival_times(kBatchRate, opt.seconds, false,
                                      derive_seed(opt.seed, 4)))
            jobs.push_back({t, true, 0});
        std::stable_sort(jobs.begin(), jobs.end(),
                         [](const Job &a, const Job &b) { return a.t_s < b.t_s; });

        PoolConfig pc;
        pc.num_dies = dies;
        pc.policy = PoolPolicy::kEdf;
        pc.enable_preemption = true;
        pc.queue_capacity = kQueueCapacity;
        pc.admission = AdmissionPolicy::kReject;
        pool = std::make_unique<PoolScheduler>(model, EngineConfig{}, pc);
        setup_s.push_back(seconds_since(t0));
    }
    std::uint64_t digest = 0;
    for (const Job &j : jobs) {
        const std::uint64_t words[3] = {
            std::uint64_t(std::llround(j.t_s * 1e9)), j.batch, j.graph};
        digest = io::fnv1a64(words, sizeof words, digest ^ 0xCBF29CE4u);
    }

    // Warm-up, not measured: a batch job on every die at once (each die
    // thread grows its allocator arena), then each interactive graph
    // one at a time so the pool's queue-delay statistics stay clean.
    {
        std::vector<std::future<ShardedRunResult>> warm;
        for (std::uint32_t d = 0; d < dies; ++d)
            warm.push_back(
                pool->submit_sharded(batch, shard, RunOptions{}, JobSpec{}));
        for (auto &f : warm)
            f.get();
    }
    for (const GraphSample &g : small)
        pool->submit(g, RunOptions{}, JobSpec{}).get();

    // ---- measured open loop: one sender for both classes ----
    // Deadlines run from the due time; the pool counts them from
    // admission, so a late send hands it the remainder.
    auto deadline_ms = [&](std::size_t i) {
        return jobs[i].batch ? kBatchDeadlineMs : kInteractiveDeadlineMs;
    };
    std::vector<double> due_s;
    for (const Job &j : jobs)
        due_s.push_back(j.t_s);
    std::vector<std::uint64_t> first_cycles(small.size() + 1, 0);
    const LoadResult load = open_loop<PoolFuture>(
        spans, Clock::now(), due_s,
        [&](std::size_t i) {
            return jobs[i].batch ? batch : small[jobs[i].graph];
        },
        [&](std::size_t i, GraphSample &&g, double late_ms) {
            JobSpec spec;
            spec.deadline_ms = std::max(1.0, deadline_ms(i) - late_ms);
            PoolFuture f;
            if (jobs[i].batch)
                f.batch = spans.time("pool.submit.batch", [&] {
                    return pool->submit_sharded(std::move(g), shard,
                                                RunOptions{}, spec);
                });
            else
                f.interactive = spans.time("pool.submit.interactive", [&] {
                    return pool->submit(std::move(g), RunOptions{}, spec);
                });
            return f;
        },
        [&](std::size_t i, PoolFuture &f) {
            float prediction = 0.0f;
            float want = 0.0f;
            std::uint64_t cycles = 0;
            // Slot small.size() holds the batch graph's first cycles.
            std::size_t g = small.size();
            if (jobs[i].batch) {
                const ShardedRunResult r = f.batch.get();
                prediction = r.prediction;
                cycles = r.stats.total_cycles;
                want = batch_want;
            } else {
                const RunResult r = f.interactive.get();
                prediction = r.prediction;
                cycles = r.stats.total_cycles;
                g = jobs[i].graph;
                want = small_want[g];
            }
            if (first_cycles[g] == 0)
                first_cycles[g] = cycles;
            return std::pair<bool, std::uint64_t>{
                within_tolerance(prediction, want) && cycles == first_cycles[g],
                cycles};
        });
    pool->drain();
    const PoolStats st = pool->stats();
    pool.reset();
    report.attempted += load.attempted;
    report.failed += load.failed;
    std::vector<double> small_ms;
    std::vector<double> small_cycles;
    std::vector<double> batch_ms;
    std::size_t on_time = 0;
    for (std::size_t k = 0; k < load.ids.size(); ++k) {
        const std::size_t i = load.ids[k];
        (jobs[i].batch ? batch_ms : small_ms).push_back(load.latency_ms[k]);
        if (!jobs[i].batch)
            small_cycles.push_back(load.cycles[k]);
        if (load.latency_ms[k] <= deadline_ms(i))
            ++on_time;
    }

    report.e2e("setup_s", median(setup_s), "s");
    report.e2e("graph_s_p50", median(batch_ms) / 1e3, "s");
    report.e2e("latency_ms_p50", median(small_ms), "ms");
    report.e2e("goodput",
               double(on_time) /
                   double(std::max<std::size_t>(load.attempted, 1)),
               "ratio");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    report.e2e("modeled_cycles_mean", mean(small_cycles), "cycles");

    report.note("threads", double(dies + 1));
    report.note("dies", double(dies));
    report.note("interactive_rate_per_s", kInteractiveRate);
    report.note("batch_rate_per_s", kBatchRate);
    report.note("setup_reps", double(kSetupReps));
    report.note("latency_samples", double(small_ms.size()));
    report.note("latency_ms_p90", percentile(small_ms, 0.90));
    report.note("latency_ms_p99", percentile(small_ms, 0.99));
    report.note("batch_samples", double(batch_ms.size()));
    report.note("input_digest", double(digest >> 11));

    if (!spans.on())
        return;
    pool_layer_metrics(spans, st, report);
    report.layer("loadgen.lag_ms_p99",
                 percentile(spans.seconds("loadgen.lag"), 0.99) * 1e3, "ms");
    const std::vector<double> run_s =
        probe_engine(model, small, spans, report);

    // Layers this workload bypasses or hides inside the pool, called
    // directly on its batch graph and interactive graphs.
    ChainInput in;
    in.model = &model;
    in.fgnb_path =
        opt.work_dir + "/pool-mixed-" + std::to_string(opt.seed) + ".fgnb";
    in.feature_dim = kNodeDim;
    in.feature_seed = 0;
    in.shard = shard;
    in.threads = 1; // the pool runs ghost jobs single-threaded
    GraphFile::save(in.fgnb_path, batch, {.threads = opt.cores});
    const Matrix batch_emb = model.reference_embeddings(model.prepare(batch));
    std::vector<double> mem_plan_mb;
    std::vector<double> mem_run_mb;
    ChainOutput last;
    for (int it = 0; it < 3; ++it) {
        last = run_chain(in, spans, &mem_plan_mb, &mem_run_mb);
        ++report.attempted;
        if (!(last.result.embeddings == batch_emb))
            ++report.failed;
    }
    std::filesystem::remove(in.fgnb_path);
    chain_layer_metrics(in, spans, last, mem_plan_mb, mem_run_mb, report);
    report.attempted += small.size();
    report.failed +=
        probe_serve(model, small, small_want, run_s, dies, spans, report);
}

} // namespace perfbench
