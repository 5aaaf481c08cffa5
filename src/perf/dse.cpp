#include "perf/dse.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

namespace flowgnn {

namespace {

bool
within(const ResourceUsage &usage, const ResourceUsage &budget)
{
    return usage.dsp <= budget.dsp && usage.lut <= budget.lut &&
           usage.ff <= budget.ff && usage.bram <= budget.bram;
}

} // namespace

std::vector<DsePoint>
explore_design_space(const Model &model, const GraphSample &probe,
                     const DseGrid &grid, const ResourceUsage &budget)
{
    std::vector<DsePoint> points;
    points.reserve(grid.p_node.size() * grid.p_edge.size() *
                   grid.p_apply.size() * grid.p_scatter.size());
    for (std::uint32_t pn : grid.p_node) {
        for (std::uint32_t pe : grid.p_edge) {
            for (std::uint32_t pa : grid.p_apply) {
                for (std::uint32_t ps : grid.p_scatter) {
                    DsePoint pt;
                    pt.config.p_node = pn;
                    pt.config.p_edge = pe;
                    pt.config.p_apply = pa;
                    pt.config.p_scatter = ps;
                    pt.resources =
                        estimate_resources(model, pt.config);
                    pt.fits = within(pt.resources, budget);
                    points.push_back(pt);
                }
            }
        }
    }

    // Measure every candidate with one engine run of the probe on the
    // evaluator thread. Evaluator threads work-steal point indices, so a core that finishes a cheap
    // config immediately picks up the next one — no barrier waiting
    // on the slowest config of a batch — while each measurement stays
    // the deterministic cycle count of that config. The sweep's only
    // shared mutable state is this atomic claim counter (documented
    // lock-free: each thread writes only the result slot it claimed),
    // so there is no mutex to annotate here.
    std::atomic<std::size_t> next{0};
    auto evaluate_points = [&] {
        for (std::size_t i = next++; i < points.size(); i = next++) {
            points[i].cycles = Engine(model, points[i].config)
                                   .run(probe)
                                   .stats.total_cycles;
        }
    };
    std::size_t evaluators =
        std::min<std::size_t>(points.size(),
                              std::max(1u,
                                       std::thread::hardware_concurrency()));
    std::vector<std::thread> pool;
    pool.reserve(evaluators);
    for (std::size_t t = 0; t < evaluators; ++t)
        pool.emplace_back(evaluate_points);
    for (std::thread &t : pool)
        t.join();

    std::sort(points.begin(), points.end(),
              [](const DsePoint &a, const DsePoint &b) {
                  if (a.fits != b.fits)
                      return a.fits;
                  return a.cycles < b.cycles;
              });
    return points;
}

DsePoint
best_fitting_config(const Model &model, const GraphSample &probe,
                    const DseGrid &grid, const ResourceUsage &budget)
{
    auto points = explore_design_space(model, probe, grid, budget);
    if (points.empty() || !points.front().fits)
        throw std::runtime_error(
            "best_fitting_config: no configuration fits the budget");
    return points.front();
}

} // namespace flowgnn
