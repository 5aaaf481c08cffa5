/**
 * @file
 * SLO serving study: response-time p99 vs the deadline, goodput, and
 * die provisioning for an open-loop arrival trace with a diurnal
 * rhythm and a 10x burst window, replayed through the cycle-domain
 * schedule simulator under three policies — FIFO gang with EASY
 * backfill, space sharing, and EDF with layer-boundary preemption —
 * each with the elastic autoscaler off (static 8-die pool) and on
 * (2 dies growing to 8 under queue pressure).
 *
 * Everything downstream of the one measured engine run is exact cycle
 * arithmetic: the arrival trace is seeded Lewis-Shedler thinning and
 * the simulator is deterministic, so the emitted JSON is bit-stable
 * across runs and machines — CI tracks it as an artifact without
 * timing noise.
 *
 *   ./bench_slo_serving [--scale N] [--json PATH]
 *
 * --scale multiplies the per-job graph size (default 1 keeps CI
 * fast); the arrival rate is derived from the measured job duration,
 * so the offered load shape is scale-invariant.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ghost/ghost_engine.h"
#include "pool/arrivals.h"
#include "pool/pool_energy.h"
#include "pool/schedule_sim.h"

namespace {

using namespace flowgnn;

struct ServingPoint {
    std::string label;
    bool elastic = false;
    std::uint64_t p50_cycles = 0; ///< interactive response percentile
    std::uint64_t p99_cycles = 0; ///< interactive response percentile
    double goodput = 0.0;       ///< fraction of jobs meeting their SLO
    double goodput_inter = 0.0; ///< interactive class only
    double goodput_batch = 0.0; ///< batch class only
    std::size_t misses = 0;
    std::size_t preemptions = 0;
    std::uint64_t makespan = 0;
    double provisioned_die_mcycles = 0.0;
    double idle_energy_mj = 0.0;
};

std::uint64_t
percentile(std::vector<std::uint64_t> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t idx = std::min(
        v.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(v.size())));
    return v[idx];
}

/** Integral of the active-die cap over [0, makespan), in die-cycles. */
double
provisioned_die_cycles(const SimResult &r, std::size_t static_dies)
{
    if (r.active_timeline.empty())
        return static_cast<double>(static_dies) *
               static_cast<double>(r.makespan);
    double area = 0.0;
    for (std::size_t i = 0; i < r.active_timeline.size(); ++i) {
        const std::uint64_t t0 = r.active_timeline[i].first;
        const std::uint64_t t1 = i + 1 < r.active_timeline.size()
            ? r.active_timeline[i + 1].first
            : r.makespan;
        if (t1 > t0)
            area += static_cast<double>(r.active_timeline[i].second) *
                static_cast<double>(t1 - t0);
    }
    return area;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint32_t scale = 1;
    std::string json_path;
    for (int a = 1; a < argc; ++a) {
        if (!std::strcmp(argv[a], "--scale") && a + 1 < argc)
            scale = static_cast<std::uint32_t>(std::atoi(argv[++a]));
        else if (!std::strcmp(argv[a], "--json") && a + 1 < argc)
            json_path = argv[++a];
    }
    if (scale == 0)
        scale = 1;

    constexpr std::uint32_t kDies = 8;
    constexpr std::size_t kStaticBase = 2; // elastic pool's start
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    EngineConfig cfg;
    cfg.p_node = 1;

    // ---- One measured job: everything else is derived cycles. ----
    GraphSample unit =
        bench::make_lattice_workload(3000 * scale, 16, 0x510);
    Engine engine(model, cfg);
    const std::uint64_t job_cycles =
        engine.run(unit).stats.total_cycles;
    GraphSample wide_sample =
        bench::make_lattice_workload(6000 * scale, 16, 0x511);
    ShardConfig two;
    two.num_shards = 2;
    RunResult wide_run =
        ShardedEngine(model, cfg, two).run(wide_sample);
    // Exchange-synchronous dies are busy or waiting for the whole
    // composed chain: P tasks of the run's total each.
    const std::vector<std::uint64_t> wide_cycles(
        wide_run.shards.size(), wide_run.stats.total_cycles);

    // Two service classes: interactive singles with a tight SLO (6x
    // the isolated latency — queueing headroom, not burst headroom)
    // and 2-wide batch jobs with a loose one. EDF has something to
    // trade during the spike: it lets batch lateness absorb the
    // backlog and preempts running batch work at GCN-16's 16 layer
    // boundaries when an interactive deadline is tighter.
    const std::uint64_t slo = 6 * job_cycles;
    const std::uint64_t batch_slo = 60 * job_cycles;
    const std::uint64_t boundary = job_cycles / 16;

    // ---- Open-loop arrivals: base load is ~50% of the 2-die static
    // pool; the middle-tenth burst offers 5x that pool's capacity. ----
    ArrivalPattern pattern;
    pattern.horizon_cycles = 400 * job_cycles;
    pattern.base_rate_per_mcycle = 0.5 *
        static_cast<double>(kStaticBase) * 1e6 /
        static_cast<double>(job_cycles);
    pattern.diurnal_amplitude = 0.4;
    pattern.diurnal_period_cycles = pattern.horizon_cycles / 2;
    pattern.burst_factor = 10.0;
    pattern.burst_start_cycles = pattern.horizon_cycles * 45 / 100;
    pattern.burst_len_cycles = pattern.horizon_cycles / 10;
    pattern.seed = 0x510;
    const std::vector<std::uint64_t> arrivals =
        generate_arrivals(pattern);

    std::vector<SimJob> trace;
    trace.reserve(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        SimJob job;
        if (i % 6 == 5) {
            job.task_cycles = wide_cycles; // 2-wide batch job
            job.deadline = batch_slo;
        } else {
            job.task_cycles = {job_cycles};
            job.deadline = slo;
        }
        job.arrival = arrivals[i];
        job.boundary_cycles = boundary;
        trace.push_back(std::move(job));
    }
    auto interactive = [&](std::size_t j) { return j % 6 != 5; };

    bench::banner(
        "SLO serving — p99 vs deadline under a 10x burst",
        "Open-loop diurnal arrivals with a mid-trace 10x spike, "
        "replayed in the cycle-domain simulator: FIFO-gang+backfill "
        "vs space-share vs EDF+preemption, with the elastic "
        "autoscaler off (static 8 dies) and on (2 -> 8 dies under "
        "queue pressure). Deterministic: seeded arrivals, modeled "
        "cycles.");
    std::printf("job: %llu cycles (x%u scale), interactive SLO %llu / "
                "batch SLO %llu cycles, %zu arrivals over %llu "
                "Mcycles (10x burst in [45%%, 55%%))\n\n",
                static_cast<unsigned long long>(job_cycles), scale,
                static_cast<unsigned long long>(slo),
                static_cast<unsigned long long>(batch_slo),
                trace.size(),
                static_cast<unsigned long long>(
                    pattern.horizon_cycles / 1'000'000));

    struct PolicyCase {
        const char *label;
        PoolPolicy policy;
        bool backfill;
        bool preempt;
    };
    const PolicyCase cases[] = {
        {"fifo-gang+bf", PoolPolicy::kFifoGang, true, false},
        {"space-share", PoolPolicy::kSpaceShare, false, false},
        {"edf+preempt", PoolPolicy::kEdf, false, true},
    };

    std::vector<ServingPoint> points;
    for (const PolicyCase &pc : cases) {
        for (bool elastic : {false, true}) {
            SimOptions opt;
            opt.num_dies = kDies;
            opt.policy = pc.policy;
            opt.easy_backfill = pc.backfill;
            opt.enable_preemption = pc.preempt;
            opt.preempt_overhead_cycles = boundary / 8;
            AutoscalerPolicy scaler(
                [] {
                    AutoscalerConfig ac;
                    ac.min_dies = kStaticBase;
                    ac.max_dies = kDies;
                    ac.step_up = 2;
                    ac.step_down = 1;
                    ac.cooldown_windows = 1;
                    ac.scale_up_queue_per_die = 1.0;
                    ac.scale_down_util = 0.4;
                    return ac;
                }(),
                kStaticBase);
            if (elastic) {
                opt.autoscaler = &scaler;
                opt.window_cycles = 2 * job_cycles;
            }
            SimResult r = simulate_pool_schedule(trace, opt);

            ServingPoint p;
            p.label = pc.label;
            p.elastic = elastic;
            std::vector<std::uint64_t> response;
            response.reserve(trace.size());
            std::size_t met = 0, met_i = 0, met_b = 0;
            std::size_t n_i = 0, n_b = 0;
            for (std::size_t j = 0; j < trace.size(); ++j) {
                const bool ok = r.lateness(j) == 0;
                met += ok;
                if (interactive(j)) {
                    response.push_back(r.job_finish(j) -
                                       trace[j].arrival);
                    ++n_i;
                    met_i += ok;
                } else {
                    ++n_b;
                    met_b += ok;
                }
            }
            p.p50_cycles = percentile(response, 0.50);
            p.p99_cycles = percentile(response, 0.99);
            p.goodput = static_cast<double>(met) /
                static_cast<double>(trace.size());
            p.goodput_inter =
                static_cast<double>(met_i) / static_cast<double>(n_i);
            p.goodput_batch =
                static_cast<double>(met_b) / static_cast<double>(n_b);
            p.misses = r.deadline_misses;
            p.preemptions = r.preemptions;
            p.makespan = r.makespan;
            p.provisioned_die_mcycles =
                provisioned_die_cycles(r, kDies) / 1e6;
            p.idle_energy_mj =
                pool_schedule_energy(r, cfg.clock_mhz).idle_mj;
            points.push_back(std::move(p));
        }
    }

    std::printf("%-14s %-8s %9s %9s %7s %7s %7s %7s %6s %12s\n",
                "policy", "scaler", "p50/SLO", "p99/SLO", "inter%",
                "batch%", "total%", "misses", "preempt",
                "die-Mcycles");
    bench::rule(98);
    for (const ServingPoint &p : points)
        std::printf("%-14s %-8s %8.2fx %8.2fx %6.1f%% %6.1f%% "
                    "%6.1f%% %7zu %6zu %12.1f\n",
                    p.label.c_str(), p.elastic ? "elastic" : "static",
                    static_cast<double>(p.p50_cycles) /
                        static_cast<double>(slo),
                    static_cast<double>(p.p99_cycles) /
                        static_cast<double>(slo),
                    100.0 * p.goodput_inter, 100.0 * p.goodput_batch,
                    100.0 * p.goodput, p.misses, p.preemptions,
                    p.provisioned_die_mcycles);
    bench::rule(98);
    std::printf("static pools hold 8 dies for the whole trace; the "
                "elastic rows buy burst capacity only while queue "
                "pressure lasts.\n");

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        os << "{\n  \"bench\": \"slo_serving\",\n"
           << "  \"scale\": " << scale << ",\n"
           << "  \"dies\": " << kDies << ",\n"
           << "  \"job_cycles\": " << job_cycles << ",\n"
           << "  \"slo_cycles\": " << slo << ",\n"
           << "  \"batch_slo_cycles\": " << batch_slo << ",\n"
           << "  \"arrivals\": " << trace.size() << ",\n"
           << "  \"burst_factor\": " << pattern.burst_factor << ",\n"
           << "  \"points\": [\n";
        for (std::size_t i = 0; i < points.size(); ++i) {
            const ServingPoint &p = points[i];
            os << "    {\"policy\": \"" << p.label
               << "\", \"autoscaler\": "
               << (p.elastic ? "true" : "false")
               << ", \"p50_cycles\": " << p.p50_cycles
               << ", \"p99_cycles\": " << p.p99_cycles
               << ", \"goodput\": " << p.goodput
               << ", \"goodput_interactive\": " << p.goodput_inter
               << ", \"goodput_batch\": " << p.goodput_batch
               << ", \"deadline_misses\": " << p.misses
               << ", \"preemptions\": " << p.preemptions
               << ", \"makespan\": " << p.makespan
               << ", \"provisioned_die_mcycles\": "
               << p.provisioned_die_mcycles
               << ", \"idle_energy_mj\": " << p.idle_energy_mj << "}"
               << (i + 1 < points.size() ? "," : "") << "\n";
        }
        os << "  ]\n}\n";
        std::printf("\nwrote %s\n", json_path.c_str());
    }
    return 0;
}
