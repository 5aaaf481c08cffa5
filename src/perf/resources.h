/**
 * @file
 * FPGA resource estimator (paper Table III).
 *
 * Without Vitis we cannot place-and-route, so this module models the
 * U50 resource cost of a FlowGNN kernel from first principles:
 *
 *  - DSPs: fp32 MAC lanes instantiated by the NT units (Papply inputs
 *    wide, output-dim deep, folded), the MP units (Pscatter lanes per
 *    unit times the message-function cost), attention exp/div units,
 *    and the head.
 *  - BRAM: node-embedding buffer (banked), ping-pong message buffers
 *    sized by the aggregator state, and the edge-attribute table.
 *  - LUT/FF: per-unit control plus per-DSP-lane datapath glue.
 *
 * Constants are calibrated so the six paper models land near Table III
 * and preserve its ordering (PNA/GAT DSP-heavy, PNA BRAM-heavy, GCN
 * lightest).
 */
#ifndef FLOWGNN_PERF_RESOURCES_H
#define FLOWGNN_PERF_RESOURCES_H

#include <cstdint>

#include "core/config.h"
#include "nn/model.h"

namespace flowgnn {

/** Resource usage estimate for one compiled kernel. */
struct ResourceUsage {
    std::uint32_t dsp = 0;
    std::uint32_t lut = 0;
    std::uint32_t ff = 0;
    std::uint32_t bram = 0; ///< BRAM36 blocks
};

/** Alveo U50 available resources (Table III header row). */
inline constexpr ResourceUsage kAlveoU50{5952, 872000, 1743000, 1344};

/**
 * Estimates the resources of a model compiled with the given engine
 * configuration.
 *
 * @param max_nodes on-chip buffer sizing (nodes per graph supported)
 */
ResourceUsage estimate_resources(const Model &model,
                                 const EngineConfig &config,
                                 std::uint32_t max_nodes = 512);

/** True if the kernel fits on the U50. */
bool fits_u50(const ResourceUsage &usage);

} // namespace flowgnn

#endif // FLOWGNN_PERF_RESOURCES_H
