#include "perf/energy.h"

#include <algorithm>
#include <stdexcept>

namespace flowgnn {

double
platform_power_w(Platform platform)
{
    switch (platform) {
      case Platform::kCpu: return 105.0;
      case Platform::kGpu: return 140.0;
      case Platform::kFpga: return 27.0;
    }
    throw std::invalid_argument("platform_power_w: unknown platform");
}

double
energy_per_graph_mj(Platform platform, double latency_ms)
{
    return platform_power_w(platform) * latency_ms;
}

double
graphs_per_kj(Platform platform, double latency_ms)
{
    if (latency_ms <= 0.0)
        throw std::invalid_argument("graphs_per_kj: latency must be > 0");
    return 1e6 / (platform_power_w(platform) * latency_ms);
}

namespace {

/** Serial die-to-die links burn ~10 pJ/bit (SerDes-class transceiver
 * energy), i.e. 0.32 nJ per 32-bit word moved. */
constexpr double kLinkNjPerWord = 0.32;

/** Writing one ghost-copy word into a die's local buffers costs one
 * HBM-class access, ~0.06 nJ/word (~15 pJ/byte). */
constexpr double kGhostWriteNjPerWord = 0.06;

} // namespace

double
platform_idle_power_w(Platform platform)
{
    switch (platform) {
      case Platform::kCpu: return 36.0;
      case Platform::kGpu: return 22.0;
      case Platform::kFpga: return 9.0;
    }
    throw std::invalid_argument(
        "platform_idle_power_w: unknown platform");
}

MultiDieEnergy
multi_die_energy(std::uint32_t dies, double latency_ms,
                 std::uint64_t link_words, double replication_factor,
                 std::size_t graph_nodes, std::size_t node_dim,
                 const std::vector<double> &die_busy_ms)
{
    if (dies == 0)
        throw std::invalid_argument(
            "multi_die_energy: dies must be >= 1");
    if (latency_ms <= 0.0)
        throw std::invalid_argument(
            "multi_die_energy: latency must be > 0");
    if (replication_factor < 1.0)
        throw std::invalid_argument(
            "multi_die_energy: replication_factor must be >= 1");

    if (die_busy_ms.size() > dies)
        throw std::invalid_argument(
            "multi_die_energy: more busy times than dies");

    MultiDieEnergy out;
    if (die_busy_ms.empty()) {
        // Historical model: the whole chassis at full draw for the
        // whole makespan (no busy/idle split available).
        out.busy_mj = static_cast<double>(dies) *
                      platform_power_w(Platform::kFpga) * latency_ms;
    } else {
        const double full_w = platform_power_w(Platform::kFpga);
        const double idle_w = platform_idle_power_w(Platform::kFpga);
        double busy_total_ms = 0.0;
        for (double busy : die_busy_ms)
            busy_total_ms += std::min(std::max(busy, 0.0), latency_ms);
        out.busy_mj = full_w * busy_total_ms;
        // Every die — including ones the run never touched — sits at
        // static draw whenever it is not computing.
        out.idle_mj =
            idle_w * (static_cast<double>(dies) * latency_ms -
                      busy_total_ms);
    }
    out.compute_mj = out.busy_mj + out.idle_mj;
    out.link_mj =
        static_cast<double>(link_words) * kLinkNjPerWord * 1e-6;
    double replicated_words = (replication_factor - 1.0) *
                              static_cast<double>(graph_nodes) *
                              static_cast<double>(node_dim);
    out.ghost_mj = replicated_words * kGhostWriteNjPerWord * 1e-6;
    out.total_mj = out.compute_mj + out.link_mj + out.ghost_mj;
    out.graphs_per_kj = 1e6 / out.total_mj;
    return out;
}

} // namespace flowgnn
