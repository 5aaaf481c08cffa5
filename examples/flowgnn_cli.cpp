/**
 * @file
 * flowgnn_cli — command-line driver for the accelerator simulator.
 *
 * Spins up a flowgnn::serve InferenceService (a PoolScheduler preset:
 * N engine replicas behind a bounded queue), streams graphs through
 * it, and prints latency, utilization, and service telemetry; with
 * --dse it instead searches for the fastest configuration that fits
 * the Alveo U50; with --graph-file it runs one sharded-from-disk graph
 * through a PoolScheduler ghost-exchange job.
 *
 * Observability: --trace FILE captures the whole run as a Chrome
 * trace (open in Perfetto: every subsystem is a process row, with
 * the engine's cycle-domain unit trace merged onto the same wall
 * timeline); --metrics FILE dumps the shared metrics registry, as
 * Prometheus text when FILE ends in .prom, JSON otherwise.
 *
 * Examples:
 *   flowgnn_cli --model gin --dataset molhiv --graphs 100
 *   flowgnn_cli --model gat --dataset hep --pnode 4 --pedge 8
 *   flowgnn_cli --model gcn --dataset molhiv --replicas 4
 *   flowgnn_cli --model pna --dataset molhiv --dse
 *   flowgnn_cli --model gcn16 --graph-file g.fgnb --shards 4 \
 *       --trace run.json --metrics run.prom
 */
#include <charconv>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>

#include <fstream>
#include <future>
#include <vector>

#include "serve/stream.h"
#include "core/trace.h"
#include "io/load.h"
#include "obs/stage_profile.h"
#include "obs/trace_session.h"
#include "perf/dse.h"
#include "pool/scheduler.h"
#include "serve/service.h"

using namespace flowgnn;

namespace {

struct CliOptions {
    ModelKind model = ModelKind::kGin;
    DatasetKind dataset = DatasetKind::kMolHiv;
    std::size_t graphs = 32;
    EngineConfig config;
    ServiceConfig service;
    bool run_dse = false;
    bool balanced_banks = false;
    std::string trace_path;
    std::string metrics_path;
    std::string graph_file;
    std::uint32_t shards = 4;
};

/** Dumps the shared registry: Prometheus text for .prom, else JSON. */
void
write_metrics(const std::string &path)
{
    obs::MetricsSnapshot snap = obs::MetricsRegistry::global()->snapshot();
    std::ofstream os(path);
    if (path.size() >= 5 &&
        path.compare(path.size() - 5, 5, ".prom") == 0)
        snap.write_prometheus(os);
    else
        snap.write_json(os);
    std::printf("metrics written to %s\n", path.c_str());
}

void
write_trace(const obs::TraceSession &session, const std::string &path)
{
    std::ofstream os(path);
    session.write_chrome_trace(os);
    std::printf("Chrome trace written to %s (%zu records, %zu "
                "dropped) — open in ui.perfetto.dev\n",
                path.c_str(), session.recorded(), session.dropped());
}

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --model <gcn|gin|gin-vn|gat|pna|dgn|sage|sgc|gcn16>\n"
        "  --dataset <molhiv|molpcba|hep|cora|citeseer|pubmed|reddit>\n"
        "  --graphs N          graphs to stream (default 32)\n"
        "  --pnode/--pedge/--papply/--pscatter N\n"
        "  --mode <flowgnn|baseline|fixed|nonpipelined>\n"
        "  --queue-depth N     adapter FIFO depth (default 8)\n"
        "  --replicas N        service engine replicas (default 2)\n"
        "  --queue-capacity N  service submission queue (default 64)\n"
        "  --balanced-banks    greedy-balanced MP banking ablation\n"
        "  --trace FILE        capture the whole run as a Chrome trace\n"
        "                      (all subsystems + engine cycle rows)\n"
        "  --metrics FILE      dump the metrics registry (.prom ->\n"
        "                      Prometheus text, else JSON)\n"
        "  --graph-file PATH   run one on-disk graph sharded from disk\n"
        "                      (pool + ghost exchange) instead of a\n"
        "                      synthetic dataset stream\n"
        "  --shards N          dies for --graph-file (default 4)\n"
        "  --dse               search the best U50-fitting config\n",
        argv0);
    std::exit(2);
}

ModelKind
parse_model(const std::string &s, const char *argv0)
{
    if (s == "gcn") return ModelKind::kGcn;
    if (s == "gin") return ModelKind::kGin;
    if (s == "gin-vn") return ModelKind::kGinVn;
    if (s == "gat") return ModelKind::kGat;
    if (s == "pna") return ModelKind::kPna;
    if (s == "dgn") return ModelKind::kDgn;
    if (s == "sage") return ModelKind::kSage;
    if (s == "sgc") return ModelKind::kSgc;
    if (s == "gcn16") return ModelKind::kGcn16;
    std::printf("unknown model '%s'\n", s.c_str());
    usage(argv0);
}

DatasetKind
parse_dataset(const std::string &s, const char *argv0)
{
    if (s == "molhiv") return DatasetKind::kMolHiv;
    if (s == "molpcba") return DatasetKind::kMolPcba;
    if (s == "hep") return DatasetKind::kHep;
    if (s == "cora") return DatasetKind::kCora;
    if (s == "citeseer") return DatasetKind::kCiteSeer;
    if (s == "pubmed") return DatasetKind::kPubMed;
    if (s == "reddit") return DatasetKind::kReddit;
    std::printf("unknown dataset '%s'\n", s.c_str());
    usage(argv0);
}

PipelineMode
parse_mode(const std::string &s, const char *argv0)
{
    if (s == "flowgnn") return PipelineMode::kFlowGnn;
    if (s == "baseline") return PipelineMode::kBaselineDataflow;
    if (s == "fixed") return PipelineMode::kFixedPipeline;
    if (s == "nonpipelined") return PipelineMode::kNonPipelined;
    std::printf("unknown mode '%s'\n", s.c_str());
    usage(argv0);
}

/**
 * Parses a flag's value as a plain decimal that fits T: no sign, no
 * whitespace, no trailing characters. Anything else prints the usage.
 */
template <typename T>
T
parse_unsigned(const std::string &flag, const std::string &s,
               const char *argv0)
{
    T value = 0;
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, value);
    if (s.empty() || ec != std::errc() || ptr != end) {
        std::printf("invalid value '%s' for %s\n", s.c_str(),
                    flag.c_str());
        usage(argv0);
    }
    return value;
}

CliOptions
parse_args(int argc, char **argv)
{
    CliOptions opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        auto number = [&](auto &field) {
            field = parse_unsigned<std::remove_reference_t<decltype(field)>>(
                arg, next(), argv[0]);
        };
        if (arg == "--model") {
            opt.model = parse_model(next(), argv[0]);
        } else if (arg == "--dataset") {
            opt.dataset = parse_dataset(next(), argv[0]);
        } else if (arg == "--graphs") {
            number(opt.graphs);
        } else if (arg == "--pnode") {
            number(opt.config.p_node);
        } else if (arg == "--pedge") {
            number(opt.config.p_edge);
        } else if (arg == "--papply") {
            number(opt.config.p_apply);
        } else if (arg == "--pscatter") {
            number(opt.config.p_scatter);
        } else if (arg == "--mode") {
            opt.config.mode = parse_mode(next(), argv[0]);
        } else if (arg == "--queue-depth") {
            number(opt.config.queue_depth);
        } else if (arg == "--replicas") {
            number(opt.service.replicas);
        } else if (arg == "--queue-capacity") {
            number(opt.service.queue_capacity);
        } else if (arg == "--balanced-banks") {
            opt.balanced_banks = true;
        } else if (arg == "--trace") {
            opt.trace_path = next();
        } else if (arg == "--metrics") {
            opt.metrics_path = next();
        } else if (arg == "--graph-file") {
            opt.graph_file = next();
        } else if (arg == "--shards") {
            number(opt.shards);
        } else if (arg == "--dse") {
            opt.run_dse = true;
        } else {
            usage(argv[0]);
        }
    }
    if (opt.balanced_banks)
        opt.config.bank_policy = BankPolicy::kGreedyBalanced;
    return opt;
}

int
run_dse(const CliOptions &opt)
{
    GraphSample probe = make_sample(opt.dataset, 0);
    Model model =
        make_model(opt.model, probe.node_dim(), probe.edge_dim());
    std::printf("Exploring the design space for %s on %s...\n\n",
                model_name(opt.model), dataset_spec(opt.dataset).name);
    auto points = explore_design_space(model, probe);
    std::printf("%-16s | %8s | %10s | %6s | %5s | %s\n", "config",
                "cycles", "ms", "DSP", "BRAM", "fits U50");
    int shown = 0;
    for (const auto &pt : points) {
        if (++shown > 10)
            break;
        std::printf("Pn%u Pe%u Pa%u Ps%-3u | %8llu | %10.4f | %6u | %5u | %s\n",
                    pt.config.p_node, pt.config.p_edge,
                    pt.config.p_apply, pt.config.p_scatter,
                    static_cast<unsigned long long>(pt.cycles),
                    pt.latency_ms(), pt.resources.dsp, pt.resources.bram,
                    pt.fits ? "yes" : "NO");
    }
    DsePoint best = best_fitting_config(model, probe);
    std::printf("\nRecommended: Pnode=%u Pedge=%u Papply=%u Pscatter=%u "
                "(%.4f ms, %u DSPs)\n",
                best.config.p_node, best.config.p_edge,
                best.config.p_apply, best.config.p_scatter,
                best.latency_ms(), best.resources.dsp);
    return 0;
}

} // namespace

int
run_service(const CliOptions &opt)
{
    std::unique_ptr<obs::TraceSession> session;
    if (!opt.trace_path.empty()) {
        session = std::make_unique<obs::TraceSession>();
        session->install();
    }

    GraphSample probe = make_sample(opt.dataset, 0);
    Model model =
        make_model(opt.model, probe.node_dim(), probe.edge_dim());
    ServiceConfig service_config = opt.service;
    service_config.metrics = obs::MetricsRegistry::global();
    InferenceService service(model, opt.config, service_config);

    if (session) {
        // Graph 0 with unit-trace capture: the pool die merges the
        // engine's cycle rows onto the session timeline.
        RunOptions trace_opts;
        trace_opts.capture_trace = true;
        service.submit(probe, trace_opts).get();
    }

    std::printf("%s on %s, %s, Pnode=%u Pedge=%u Papply=%u Pscatter=%u, "
                "queue depth %zu, %zu replicas\n",
                model_name(opt.model), dataset_spec(opt.dataset).name,
                pipeline_mode_name(opt.config.mode), opt.config.p_node,
                opt.config.p_edge, opt.config.p_apply,
                opt.config.p_scatter, opt.config.queue_depth,
                service.replica_count());

    SampleStream stream(opt.dataset, opt.graphs);
    std::size_t count = std::max<std::size_t>(stream.size(), 1);
    std::vector<std::future<RunResult>> futures;
    futures.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        futures.push_back(service.submit(stream.next()));

    double latency = 0.0, nt_util = 0.0, mp_util = 0.0, imb = 0.0;
    for (auto &future : futures) {
        RunResult r = future.get();
        latency += r.latency_ms();
        double nu = 0.0, mu = 0.0;
        for (const auto &u : r.stats.nt_units)
            nu += u.utilization();
        for (const auto &u : r.stats.mp_units)
            mu += u.utilization();
        nt_util += nu / r.stats.nt_units.size();
        mp_util += mu / r.stats.mp_units.size();
        imb += r.stats.observed_mp_imbalance();
    }
    std::printf("\nGraphs streamed:      %zu (batch size 1, zero "
                "pre-processing)\n",
                count);
    std::printf("Avg latency:          %.4f ms\n", latency / count);
    std::printf("Avg NT utilization:   %.1f%%\n",
                100.0 * nt_util / count);
    std::printf("Avg MP utilization:   %.1f%%\n",
                100.0 * mp_util / count);
    std::printf("Avg MP imbalance:     %.2f%%\n", 100.0 * imb / count);

    StreamRunner runner(service);
    SampleStream stream2(opt.dataset, opt.graphs);
    StreamRunStats st = runner.run(stream2, count);
    std::printf("Stream throughput:    %.0f graphs/s (load/compute "
                "overlap %.2fx)\n",
                st.graphs_per_second(opt.config.clock_mhz),
                st.throughput_speedup());

    ServiceStats svc = service.stats();
    std::printf("\nService: %zu submitted, %zu completed, %zu rejected; "
                "host throughput %.0f graphs/s\n",
                svc.submitted, svc.completed, svc.rejected,
                svc.throughput_gps);
    std::printf("Service latency:      p50 %.3f ms | p95 %.3f ms | "
                "p99 %.3f ms (wall, submit->done)\n",
                svc.p50_ms, svc.p95_ms, svc.p99_ms);
    std::printf("Submission queue:     peak %zu / %zu\n",
                svc.queue_peak_occupancy, svc.queue_capacity);
    for (std::size_t r = 0; r < svc.replicas.size(); ++r)
        std::printf("Replica %zu:            %zu graphs, %.1f%% busy\n",
                    r, svc.replicas[r].completed,
                    100.0 * svc.replicas[r].utilization);

    service.drain();
    if (session)
        write_trace(*session, opt.trace_path);
    if (!opt.metrics_path.empty())
        write_metrics(opt.metrics_path);
    return 0;
}

/**
 * One on-disk graph, sharded from disk: io load -> pool admission
 * (queue wait) -> die lease -> ghost-exchange job (functional pass,
 * per-die pricing, per-layer boundary exchanges). With --trace the
 * whole chain lands on a single Perfetto timeline.
 */
int
run_sharded_file(const CliOptions &opt)
{
    std::unique_ptr<obs::TraceSession> session;
    if (!opt.trace_path.empty()) {
        session = std::make_unique<obs::TraceSession>();
        session->install();
        session->name_thread(obs::Track::kHost, "driver");
        session->name_thread(obs::Track::kIo, "driver");
    }
    auto registry = obs::MetricsRegistry::global();
    obs::StageProfiler profiler(registry);
    obs::Sampler sampler(registry, std::chrono::milliseconds(5));
    sampler.add_rss_probe();
    sampler.start();

    GraphSample sample;
    profiler.stage("load", [&] {
        LoadOptions lo;
        lo.node_dim = 16;
        sample = load_graph_sample(opt.graph_file, lo);
    });

    Model model =
        make_model(opt.model, sample.node_dim(), sample.edge_dim());
    PoolConfig pool_config;
    pool_config.num_dies = opt.shards;
    pool_config.metrics = registry;
    PoolScheduler pool(model, opt.config, pool_config);

    ShardConfig shard;
    shard.num_shards = opt.shards;

    RunResult result;
    profiler.stage("run", [&] {
        result = pool.submit_sharded(std::move(sample), shard).get();
    });
    sampler.stop();

    std::printf("%s on %s: %u dies (ghost exchange)\n",
                model_name(opt.model), opt.graph_file.c_str(),
                static_cast<std::uint32_t>(result.shards.size()));
    std::printf("cut edges %zu  replication %.3f  cycles %llu  "
                "latency %.4f ms  prediction %.6f\n",
                result.cut_edges, result.replication_factor,
                static_cast<unsigned long long>(
                    result.stats.total_cycles),
                result.stats.latency_ms(), result.prediction);
    for (const obs::StageProfile &s : profiler.stages())
        std::printf("%-6s %9.3f s   rss %8.1f MB   peak %8.1f MB\n",
                    s.name.c_str(), s.seconds,
                    static_cast<double>(s.rss_kb) / 1024.0,
                    static_cast<double>(s.hwm_kb) / 1024.0);
    PoolStats ps = pool.stats();
    std::printf("pool: %zu jobs, queue delay p50 %.3f ms\n",
                ps.submitted(), ps.queue_delay_p50_ms);

    pool.shutdown();
    if (session)
        write_trace(*session, opt.trace_path);
    if (!opt.metrics_path.empty())
        write_metrics(opt.metrics_path);
    return 0;
}

int
main(int argc, char **argv)
{
    try {
        const CliOptions opt = parse_args(argc, argv);
        if (opt.run_dse)
            return run_dse(opt);
        if (!opt.graph_file.empty())
            return run_sharded_file(opt);
        return run_service(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
