/**
 * @file
 * Energy-efficiency model (paper Table VI / Table VIII EE columns).
 *
 * The paper measures board power; we use calibrated platform power
 * draws (the paper notes the FPGA runs at roughly 4x less power than
 * the GPU baseline) and convert latency to graphs per kilojoule:
 *
 *   EE [graphs/kJ] = 1e6 / (power_W * latency_ms)
 */
#ifndef FLOWGNN_PERF_ENERGY_H
#define FLOWGNN_PERF_ENERGY_H

#include <cstdint>
#include <vector>

namespace flowgnn {

/** Execution platforms compared in the paper. */
enum class Platform {
    kCpu,  ///< Xeon Gold 6226R
    kGpu,  ///< RTX A6000
    kFpga, ///< Alveo U50 running FlowGNN
};

/** Calibrated average power draw during inference, in watts. */
double platform_power_w(Platform platform);

/** Energy per graph in millijoules. */
double energy_per_graph_mj(Platform platform, double latency_ms);

/** Energy efficiency in graphs per kilojoule (Table VI metric). */
double graphs_per_kj(Platform platform, double latency_ms);

/**
 * Per-component energy of one multi-die sharded run — the scale-out
 * extension of Table VI. Compute charges every die for the full
 * makespan (dies in the same chassis draw power while waiting at the
 * final exchange); the inter-die link charges per word moved; the
 * ghost copies charge the extra feature storage each run must write
 * beyond what a single die would hold.
 */
struct MultiDieEnergy {
    double compute_mj = 0.0; ///< busy_mj + idle_mj
    /** Active-draw share: each die at full platform power for the
     * wall time it actually computes. Equals compute_mj when no
     * per-die busy times are supplied. */
    double busy_mj = 0.0;
    /** Static-draw share: dies that finished early (or never got
     * work) still burn leakage + clock-tree power until the final
     * exchange releases the chassis. */
    double idle_mj = 0.0;
    double link_mj = 0.0;    ///< exchange traffic over the serial links
    double ghost_mj = 0.0;   ///< ghost-copy feature storage
    double total_mj = 0.0;
    double graphs_per_kj = 0.0; ///< 1e6 / total_mj
};

/**
 * @param dies               dies used by the run
 * @param latency_ms         composed multi-die makespan
 * @param link_words         total 4-byte words moved over inter-die
 *                           links (sum of ShardInfo::exchange_send_words)
 * @param replication_factor average copies of each node across dies,
 *                           owned plus ghost (>= 1)
 * @param graph_nodes        nodes in the full graph
 * @param node_dim           feature width (words per node)
 * @param die_busy_ms        optional per-die busy wall time; a die is
 *                           charged full platform power while busy and
 *                           only static power for the rest of the
 *                           makespan. Entries are clamped to the
 *                           makespan; dies beyond the list (and the
 *                           default empty list's behaviour for none)
 *                           are fully idle. Pass empty to keep the
 *                           historical model: every die at full power
 *                           for the whole makespan.
 */
MultiDieEnergy multi_die_energy(std::uint32_t dies, double latency_ms,
                                std::uint64_t link_words,
                                double replication_factor,
                                std::size_t graph_nodes,
                                std::size_t node_dim,
                                const std::vector<double> &die_busy_ms = {});

/** Static (idle) power draw of one FPGA die, in watts — leakage plus
 * the always-on clock/SLR infrastructure, ~1/3 of the active draw. */
double platform_idle_power_w(Platform platform);

} // namespace flowgnn

#endif // FLOWGNN_PERF_ENERGY_H
