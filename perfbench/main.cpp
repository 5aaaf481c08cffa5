/**
 * @file
 * perfbench — the repository benchmark binary (run it through run.py).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--work-dir DIR] [--tiny]
 *
 * Workloads: reddit-ghost, hep-stream, pool-mixed. The workload makes
 * its inputs from --seed, measures for --seconds and checks every
 * output. stdout gets two JSON lines: the run record, then the result
 * {"correct", "attempted", "failed", "metrics"} — end-to-end metrics
 * with --trace 0, per-layer metrics (from the benchmark's own spans)
 * with --trace 1, which also writes DIR/<workload>-<seed>.trace.json.
 * Exit status: 0 when every output was correct, 3 when some were not,
 * 1 (and no result) when the run could not be made.
 */
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>

#include "bench.h"

namespace {

using namespace perfbench;

/** CPUs this process may run on (what nproc prints). */
unsigned
available_cpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
metrics_json(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    char buf[96];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::snprintf(buf, sizeof buf, "%.17g", m.value);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               (std::isfinite(m.value) ? buf : "null") + ", \"unit\": \"" +
               m.unit + "\"}";
    }
    return out + "}";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload reddit-ghost|hep-stream|"
                 "pool-mixed --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR] [--tiny]\n");
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int a = 1; a < argc; ++a) {
        const bool has_value = a + 1 < argc;
        if (!std::strcmp(argv[a], "--workload") && has_value)
            opt.workload = argv[++a];
        else if (!std::strcmp(argv[a], "--seed") && has_value)
            opt.seed = std::strtoull(argv[++a], nullptr, 10);
        else if (!std::strcmp(argv[a], "--seconds") && has_value)
            opt.seconds = std::atof(argv[++a]);
        else if (!std::strcmp(argv[a], "--trace") && has_value)
            opt.trace = std::atoi(argv[++a]) != 0;
        else if (!std::strcmp(argv[a], "--work-dir") && has_value)
            opt.work_dir = argv[++a];
        else if (!std::strcmp(argv[a], "--tiny"))
            opt.tiny = true;
        else
            return usage();
    }
    void (*workload)(const Options &, Spans &, Report &) = nullptr;
    if (opt.workload == "reddit-ghost")
        workload = run_reddit_ghost;
    else if (opt.workload == "hep-stream")
        workload = run_hep_stream;
    else if (opt.workload == "pool-mixed")
        workload = run_pool_mixed;
    if (!workload || !(opt.seconds > 0.0))
        return usage();

    const unsigned cpus = available_cpus();
    // Busy threads (threads=, replicas, dies) stay one below the CPU
    // count, at most three: on a shared 4-vCPU host, four busy threads
    // run at half speed at random moments while three run steadily.
    // The mostly idle load generator is the one thread left over.
    opt.cores = std::max(1u, std::min(3u, cpus - 1));

    std::unique_ptr<flowgnn::obs::TraceSession> session;
    if (opt.trace) {
        session = std::make_unique<flowgnn::obs::TraceSession>();
        session->install();
    }
    Spans spans(session.get());
    Report report;
    try {
        workload(opt, spans, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    report.note("workload", opt.workload);
    report.note("seed", double(opt.seed));
    report.note("seconds", opt.seconds);
    report.note("trace", double(opt.trace));
    report.note("tiny", double(opt.tiny));
    report.note("host_cores", double(cpus));
    report.note("cores_used", double(opt.cores));
    if (session) {
        session->uninstall();
        const std::string path = opt.work_dir + "/" + opt.workload + "-" +
                                 std::to_string(opt.seed) + ".trace.json";
        std::ofstream os(path);
        session->write_chrome_trace(os);
        report.note("trace_file", path);
        report.note("trace_records", double(session->recorded()));
        report.note("trace_dropped", double(session->dropped()));
    }

    std::string record = "{\"record\": {";
    for (std::size_t i = 0; i < report.record.size(); ++i)
        record += (i ? ", \"" : "\"") + report.record[i].first +
                  "\": " + report.record[i].second;
    if (opt.trace)
        record += ", \"end_to_end\": " + metrics_json(report.end_to_end);
    record += "}}";
    std::printf("%s\n", record.c_str());

    const bool correct = report.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", report.attempted, report.failed,
                metrics_json(opt.trace ? report.per_layer : report.end_to_end)
                    .c_str());
    std::fflush(stdout);
    return correct ? 0 : 3;
}
