/**
 * @file
 * Die-pool scheduling study: makespan and die utilization of a mixed
 * job trace (wide sharded jobs + single-die jobs) under each pool
 * policy, reported two ways per policy:
 *
 *  - modeled: the deterministic cycle-domain schedule simulator
 *    replaying the policy over each task's measured engine cycles —
 *    the number CI can track without timing noise;
 *  - wall clock: the live PoolScheduler running the same trace on
 *    host threads (paused start, so the backlog shape is identical).
 *
 * The trace is built so gang scheduling's head-of-line blocking
 * shows: a 2-wide job leaves dies free that a 3-wide job behind it
 * cannot gang onto, stalling the singles queued after it. Space
 * sharing backfills all of it.
 *
 *   ./bench_pool_scheduling [--scale N] [--json PATH]
 *
 * --json writes a machine-readable record (consumed by CI as a
 * workflow artifact, so the scheduling trajectory is tracked).
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "ghost/ghost_engine.h"
#include "pool/schedule_sim.h"

namespace {

using namespace flowgnn;

GraphSample
make_workload(NodeId nodes, std::uint64_t seed)
{
    return bench::make_lattice_workload(nodes, 16, seed);
}

struct TraceJob {
    GraphSample sample;
    std::uint32_t width = 1; ///< shards (1 = fast-path single)
};

struct PolicyPoint {
    const char *policy;
    std::uint64_t modeled_makespan = 0;
    double modeled_utilization = 0.0;
    double wall_ms = 0.0;
    std::size_t peak_busy_dies = 0;
    double queue_delay_p95_ms = 0.0;
};

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

    constexpr std::uint32_t kDies = 4;
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    EngineConfig cfg;
    cfg.p_node = 1;

    // The mixed trace: one 2-wide job (leaves 2 dies free), one 3-wide
    // job (cannot gang onto 2), and two singles stalled behind it
    // under FIFO.
    std::vector<TraceJob> trace;
    trace.push_back({make_workload(36000 * scale, 0x111), 2});
    trace.push_back({make_workload(3000 * scale, 0x222), 3});
    trace.push_back({make_workload(12000 * scale, 0x333), 1});
    trace.push_back({make_workload(12000 * scale, 0x444), 1});

    bench::banner(
        "die-pool scheduling — mixed trace, FIFO-gang vs space-share",
        "Modeled makespan from the cycle-domain schedule simulator "
        "over measured task cycles; wall clock from the live pool. "
        "Gang scheduling idles dies behind a head-of-line job that "
        "does not fit; space sharing backfills them.");

    // ---- Measured task cycles (isolated runs, also the answers'
    // reference) feed the simulator. ----
    Engine single(model, cfg);
    std::vector<SimJob> sim_trace;
    std::size_t total_tasks = 0;
    for (const TraceJob &job : trace) {
        SimJob sim;
        if (job.width == 1) {
            sim.task_cycles.push_back(
                single.run(job.sample).stats.total_cycles);
        } else {
            ShardConfig shard;
            shard.num_shards = job.width;
            RunResult r =
                ShardedEngine(model, cfg, shard).run(job.sample);
            // Exchange-synchronous dies are busy or waiting for the
            // whole composed chain.
            sim.task_cycles.assign(r.shards.size(),
                                   r.stats.total_cycles);
        }
        total_tasks += sim.task_cycles.size();
        sim_trace.push_back(std::move(sim));
    }
    std::printf("trace: %zu jobs / %zu tasks on %u dies\n\n",
                trace.size(), total_tasks, kDies);

    const PoolPolicy policies[] = {PoolPolicy::kFifoGang,
                                   PoolPolicy::kSpaceShare,
                                   PoolPolicy::kPriority};
    std::vector<PolicyPoint> points;
    for (PoolPolicy policy : policies) {
        PolicyPoint p;
        p.policy = pool_policy_name(policy);

        SimOptions sim_opts;
        sim_opts.num_dies = kDies;
        sim_opts.policy = policy;
        SimResult sim = simulate_pool_schedule(sim_trace, sim_opts);
        p.modeled_makespan = sim.makespan;
        p.modeled_utilization = sim.utilization();

        PoolConfig pool;
        pool.num_dies = kDies;
        pool.policy = policy;
        pool.start_paused = true;
        PoolScheduler scheduler(model, cfg, pool);
        std::vector<std::future<RunResult>> sharded;
        std::vector<std::future<RunResult>> singles;
        for (const TraceJob &job : trace) {
            if (job.width == 1) {
                singles.push_back(scheduler.submit(job.sample));
            } else {
                ShardConfig shard;
                shard.num_shards = job.width;
                sharded.push_back(
                    scheduler.submit_sharded(job.sample, shard));
            }
        }
        auto begin = std::chrono::steady_clock::now();
        scheduler.start();
        scheduler.drain();
        auto end = std::chrono::steady_clock::now();
        p.wall_ms =
            std::chrono::duration<double, std::milli>(end - begin)
                .count();
        PoolStats st = scheduler.stats();
        p.peak_busy_dies = st.peak_busy_dies;
        p.queue_delay_p95_ms = st.queue_delay_p95_ms;
        for (auto &f : sharded)
            f.get();
        for (auto &f : singles)
            f.get();
        points.push_back(p);
    }

    std::printf("%-12s %18s %10s %10s %6s %12s\n", "policy",
                "modeled makespan", "die util", "wall ms", "peak",
                "qdelay p95");
    bench::rule(74);
    for (const PolicyPoint &p : points)
        std::printf("%-12s %18llu %9.1f%% %10.1f %6zu %10.2fms\n",
                    p.policy,
                    static_cast<unsigned long long>(p.modeled_makespan),
                    100.0 * p.modeled_utilization, p.wall_ms,
                    p.peak_busy_dies, p.queue_delay_p95_ms);
    bench::rule(74);
    double speedup =
        static_cast<double>(points[0].modeled_makespan) /
        static_cast<double>(points[1].modeled_makespan);
    std::printf("space-share vs fifo-gang: %.2fx modeled makespan, "
                "%.2fx wall clock\n",
                speedup, points[0].wall_ms / points[1].wall_ms);
    if (std::thread::hardware_concurrency() < kDies)
        std::printf("note: %u host core(s) timeshare the %u die "
                    "threads — wall clock tracks total work, not "
                    "schedule shape; trust the modeled column here.\n",
                    std::thread::hardware_concurrency(), kDies);

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        os << "{\n  \"bench\": \"pool_scheduling\",\n"
           << "  \"dies\": " << kDies << ",\n"
           << "  \"jobs\": " << trace.size() << ",\n"
           << "  \"tasks\": " << total_tasks << ",\n"
           << "  \"points\": [\n";
        for (std::size_t i = 0; i < points.size(); ++i) {
            const PolicyPoint &p = points[i];
            os << "    {\"policy\": \"" << p.policy
               << "\", \"modeled_makespan\": " << p.modeled_makespan
               << ", \"modeled_utilization\": "
               << p.modeled_utilization
               << ", \"wall_ms\": " << p.wall_ms
               << ", \"peak_busy_dies\": " << p.peak_busy_dies
               << ", \"queue_delay_p95_ms\": " << p.queue_delay_p95_ms
               << "}" << (i + 1 < points.size() ? "," : "") << "\n";
        }
        os << "  ]\n}\n";
        std::printf("\nwrote %s\n", json_path.c_str());
    }
    return 0;
}
