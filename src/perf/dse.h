/**
 * @file
 * Design-space exploration: jointly searches the four parallelism
 * parameters (the Fig. 10 sweep) under a resource budget (the
 * Table III estimator), returning candidates sorted by measured
 * latency. This is the tool a FlowGNN user runs to pick a
 * configuration for a new model before synthesis.
 */
#ifndef FLOWGNN_PERF_DSE_H
#define FLOWGNN_PERF_DSE_H

#include <vector>

#include "core/engine.h"
#include "perf/resources.h"

namespace flowgnn {

/** One evaluated design point. */
struct DsePoint {
    EngineConfig config;
    ResourceUsage resources;
    std::uint64_t cycles = 0; ///< measured on the probe sample
    bool fits = false;        ///< within the given budget

    double
    latency_ms() const
    {
        return static_cast<double>(cycles) / (config.clock_mhz * 1e3);
    }
};

/** Candidate grid for the four parallelism parameters. */
struct DseGrid {
    std::vector<std::uint32_t> p_node = {1, 2, 4};
    std::vector<std::uint32_t> p_edge = {1, 2, 4};
    std::vector<std::uint32_t> p_apply = {1, 2, 4};
    std::vector<std::uint32_t> p_scatter = {1, 2, 4, 8};
};

/**
 * Evaluates every grid point on the probe sample and returns all
 * points sorted by (fits-budget first, then cycles ascending).
 * Candidates are measured with one Engine run of the probe each,
 * evaluated in parallel across host cores; cycle counts stay
 * deterministic per configuration.
 *
 * @param model  the GNN to configure
 * @param probe  a representative workload sample
 * @param grid   candidate parallelism values
 * @param budget resource ceiling (defaults to the Alveo U50)
 */
std::vector<DsePoint>
explore_design_space(const Model &model, const GraphSample &probe,
                     const DseGrid &grid = {},
                     const ResourceUsage &budget = kAlveoU50);

/**
 * Returns the fastest configuration that fits the budget.
 * Throws std::runtime_error if nothing fits.
 */
DsePoint best_fitting_config(const Model &model, const GraphSample &probe,
                             const DseGrid &grid = {},
                             const ResourceUsage &budget = kAlveoU50);

} // namespace flowgnn

#endif // FLOWGNN_PERF_DSE_H
