#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "ghost/ghost_engine.h"
#include "io/graph_view.h"

namespace perfbench {

using namespace flowgnn;

namespace {

/** Multiply-accumulates of stage k over a graph, summed the way
 * Model::macs sums them. */
double
stage_macs(const Model &model, std::size_t k, std::size_t nodes,
           std::size_t edges)
{
    const Layer &layer = model.stage(k);
    double macs = double(nodes) * double(layer.transform_macs());
    if (layer.msg_dim() > 0)
        macs += double(edges) * double(layer.message_macs()) *
                double(layer.mp_rounds());
    return macs;
}

} // namespace

ChainOutput
run_chain(const ChainInput &in, Spans &spans, std::vector<double> *mem_plan_mb,
          std::vector<double> *mem_run_mb)
{
    const Model &model = *in.model;
    ChainOutput out;
    const auto t0 = Clock::now();
    const std::uint64_t graph_start = spans.now_ns();

    std::unique_ptr<io::GraphView> view;
    spans.time("io.open", [&] {
        view = std::make_unique<io::GraphView>(
            in.fgnb_path, io::GraphViewOptions{.threads = in.threads});
    });
    SampleRef sample = view->sample();
    Matrix generated;
    spans.time("io.features", [&] {
        if (sample.node_dim == 0) {
            generated = gaussian_features(view->num_nodes(), in.feature_dim,
                                          in.feature_seed);
            sample.node_features = generated.data();
            sample.node_dim = in.feature_dim;
        }
    });

    GhostPlan plan;
    auto plan_call = [&] {
        plan = make_ghost_plan(model, sample, in.shard, in.threads);
    };
    auto run_call = [&] {
        out.result = run_ghost_plan(model, EngineConfig{}, sample,
                                    std::move(plan), RunOptions{},
                                    in.shard.link, in.threads);
    };
    if (mem_plan_mb)
        mem_plan_mb->push_back(spans.time(
            "ghost.plan", [&] { return peak_rss_growth_mb(plan_call); }));
    else
        spans.time("ghost.plan", plan_call);
    if (mem_run_mb)
        mem_run_mb->push_back(spans.time(
            "ghost.run", [&] { return peak_rss_growth_mb(run_call); }));
    else
        spans.time("ghost.run", run_call);
    out.seconds = seconds_since(t0);
    spans.record("graph", graph_start, spans.now_ns());
    out.nodes = view->num_nodes();
    out.edges = view->num_edges();
    if (!spans.on())
        return out;

    // Layer extras, outside the "graph" span, on the same view.
    spans.time("graph.partition", [&] {
        return shard_plan_assignment(sample.graph, in.shard, in.threads);
    });
    EngineConfig func_cfg;
    func_cfg.mode = PipelineMode::kNonPipelined;
    const Engine func(model, func_cfg);
    {
        RunWorkspace ws;
        spans.time("engine.functional", [&] {
            return func.run_prepared(sample, RunOptions{}, ws, in.threads);
        });
    }
    {
        RunWorkspace ws;
        LayerCheckpoint ckpt;
        RunResult result;
        for (std::size_t k = 0;; ++k) {
            char name[32];
            std::snprintf(name, sizeof name, "engine.stage%zu", k);
            const SegmentOutcome seg = spans.time(name, [&] {
                return func.run_resumable(sample, RunOptions{}, ws, ckpt,
                                          result, 1, in.threads);
            });
            if (seg == SegmentOutcome::kComplete)
                break;
        }
    }
    return out;
}

double
chain_layer_metrics(const ChainInput &in, const Spans &spans,
                    const ChainOutput &last,
                    const std::vector<double> &mem_plan_mb,
                    const std::vector<double> &mem_run_mb, Report &report)
{
    const double graph = spans.median_s("graph");
    const double open = spans.median_s("io.open");
    const double features = spans.median_s("io.features");
    const double partition = spans.median_s("graph.partition");
    const double plan = spans.median_s("ghost.plan");
    const double run = spans.median_s("ghost.run");
    const double functional = spans.median_s("engine.functional");
    report.layer("io.open_s", open, "s");
    report.layer("io.features_s", features, "s");
    report.layer("graph.partition_s", partition, "s");
    report.layer("ghost.plan_s", plan - partition, "s");
    report.layer("ghost.run_s", run, "s");
    report.layer("engine.functional_s", functional, "s");
    report.layer("ghost.pricing_s", run - functional, "s");
    // Named layers' share of the chain: open + features + partition +
    // (plan - partition) + functional + (run - functional).
    const double share =
        graph > 0.0 ? (open + features + plan + run) / graph : 0.0;
    report.layer("trace.attributed_share", share, "ratio");

    const std::vector<double> plans = spans.seconds("ghost.plan");
    const std::vector<double> runs = spans.seconds("ghost.run");
    std::vector<double> jobs;
    for (std::size_t i = 0; i < std::min(plans.size(), runs.size()); ++i)
        jobs.push_back(plans[i] + runs[i]);
    report.layer("ghost.job_s_p50", median(jobs), "s");

    // The first three stages exist in every model the workloads use.
    for (std::size_t k = 0; k < 3; ++k) {
        const std::string name = "engine.stage" + std::to_string(k);
        const double secs = spans.median_s(name);
        const double macs =
            k < in.model->num_stages()
                ? stage_macs(*in.model, k, last.nodes, last.edges)
                : 0.0;
        report.layer(name + ".functional_s", secs, "s");
        report.layer(name + ".gmacs_per_s",
                     secs > 0.0 ? macs / secs / 1e9 : 0.0, "GMAC/s");
    }

    const ShardedRunResult &r = last.result;
    const double edges = double(std::max<std::size_t>(last.edges, 1));
    report.layer("graph.cut_fraction", double(r.cut_edges) / edges,
                 "ratio");
    report.layer("ghost.replication", r.replication_factor, "ratio");
    std::vector<double> dies(r.stats.die_cycles.begin(),
                             r.stats.die_cycles.end());
    if (dies.empty())
        dies.push_back(double(r.stats.total_cycles));
    const double die_max = *std::max_element(dies.begin(), dies.end());
    report.layer("ghost.die_cycles_max", die_max, "cycles");
    report.layer("ghost.die_imbalance", die_max / mean(dies), "ratio");
    report.layer("ghost.comm_cycles", double(r.stats.comm_cycles),
                 "cycles");
    report.layer("mem.plan_mb", median(mem_plan_mb), "MiB");
    report.layer("mem.run_mb", median(mem_run_mb), "MiB");
    return share;
}

std::vector<double>
probe_engine(const Model &model, const std::vector<GraphSample> &samples,
             Spans &spans, Report &report)
{
    const Engine engine(model);
    EngineConfig func_cfg;
    func_cfg.mode = PipelineMode::kNonPipelined;
    const Engine func(model, func_cfg);
    RunWorkspace ws_run;
    RunWorkspace ws_func;
    std::vector<double> macs;
    for (const GraphSample &s : samples) {
        const GraphSample prepared =
            spans.time("nn.prepare", [&] { return model.prepare(s); });
        macs.push_back(double(model.macs(prepared)));
        spans.time("engine.request.run",
                   [&] { return engine.run(s, RunOptions{}, ws_run); });
        spans.time("engine.request.functional",
                   [&] { return func.run(s, RunOptions{}, ws_func); });
    }
    const std::vector<double> run = spans.seconds("engine.request.run");
    const std::vector<double> functional =
        spans.seconds("engine.request.functional");
    std::vector<double> timing;
    std::vector<double> gmacs;
    for (std::size_t i = 0; i < run.size(); ++i) {
        timing.push_back(run[i] - functional[i]);
        gmacs.push_back(functional[i] > 0.0
                            ? macs[i] / functional[i] / 1e9
                            : 0.0);
    }
    report.layer("engine.run_ms_p50", median(run) * 1e3, "ms");
    report.layer("engine.functional_ms_p50", median(functional) * 1e3,
                 "ms");
    report.layer("engine.timing_ms_p50", median(timing) * 1e3, "ms");
    report.layer("nn.prepare_ms_p50", spans.median_s("nn.prepare") * 1e3,
                 "ms");
    report.layer("engine.gmacs_per_s", median(gmacs), "GMAC/s");
    return run;
}

std::size_t
probe_serve(const Model &model, const std::vector<GraphSample> &samples,
            const std::vector<float> &want, const std::vector<double> &run_s,
            std::size_t replicas, Spans &spans, Report &report)
{
    ServiceConfig sc;
    sc.replicas = replicas;
    sc.queue_capacity = std::max<std::size_t>(samples.size(), 1);
    InferenceService service(model, EngineConfig{}, sc);
    Inflight<std::future<RunResult>> inflight;
    std::vector<Clock::time_point> sent(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        GraphSample copy = samples[i];
        sent[i] = Clock::now();
        inflight.add(i, spans.time("serve.submit", [&] {
            return service.submit(std::move(copy));
        }));
    }
    std::size_t wrong = 0;
    std::vector<double> wait_ms;
    while (!inflight.empty())
        inflight.poll(std::chrono::microseconds(250),
                      [&](std::size_t i, std::future<RunResult> &f,
                          Clock::time_point now) {
                          const RunResult r = f.get();
                          if (!within_tolerance(r.prediction, want[i]))
                              ++wrong;
                          const double lat =
                              std::chrono::duration<double>(now - sent[i])
                                  .count();
                          wait_ms.push_back((lat - run_s[i]) * 1e3);
                      });
    service.shutdown();
    std::vector<double> util;
    for (const ReplicaStats &r : service.stats().replicas)
        util.push_back(r.utilization);
    report.layer("serve.submit_us_p99",
                 percentile(spans.seconds("serve.submit"), 0.99) * 1e6, "us");
    report.layer("serve.wait_ms_p99", percentile(wait_ms, 0.99), "ms");
    report.layer("serve.replica_util", mean(util), "ratio");
    return wrong;
}

std::size_t
probe_pool(const Model &model, const std::vector<GraphSample> &small,
           const std::vector<float> &small_want, const GraphSample &large,
           float large_want, const ShardConfig &shard, std::uint32_t dies,
           Spans &spans, Report &report)
{
    PoolConfig pc;
    pc.num_dies = dies;
    pc.policy = PoolPolicy::kEdf;
    pc.enable_preemption = true;
    pc.queue_capacity = small.size() + 1;
    PoolScheduler pool(model, EngineConfig{}, pc);

    // The ghost job goes first so the deadline jobs behind it can
    // preempt it.
    JobSpec batch_spec;
    batch_spec.deadline_ms = kBatchDeadlineMs;
    GraphSample large_copy = large;
    std::future<ShardedRunResult> batch = spans.time("pool.submit.batch", [&] {
        return pool.submit_sharded(std::move(large_copy), shard, RunOptions{},
                                   batch_spec);
    });
    JobSpec spec;
    spec.deadline_ms = kInteractiveDeadlineMs;
    std::vector<std::future<RunResult>> futures;
    for (const GraphSample &s : small) {
        GraphSample copy = s;
        futures.push_back(spans.time("pool.submit.interactive", [&] {
            return pool.submit(std::move(copy), RunOptions{}, spec);
        }));
    }
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < futures.size(); ++i)
        if (!within_tolerance(futures[i].get().prediction, small_want[i]))
            ++wrong;
    if (!within_tolerance(batch.get().prediction, large_want))
        ++wrong;
    pool.drain();
    pool_layer_metrics(spans, pool.stats(), report);
    pool.shutdown();
    return wrong;
}

void
pool_layer_metrics(const Spans &spans, const PoolStats &stats,
                   Report &report)
{
    std::vector<double> util;
    for (const DieStats &d : stats.dies)
        util.push_back(d.utilization);
    report.layer("pool.submit_ms_p50.interactive",
                 spans.median_s("pool.submit.interactive") * 1e3, "ms");
    report.layer("pool.submit_ms_p50.batch",
                 spans.median_s("pool.submit.batch") * 1e3, "ms");
    report.layer("pool.queue_delay_ms_p99", stats.queue_delay_p99_ms, "ms");
    report.layer("pool.preemptions", double(stats.preemptions), "count");
    report.layer("pool.deadline_misses", double(stats.deadline_misses),
                 "count");
    report.layer("pool.die_util", mean(util), "ratio");
}

} // namespace perfbench
