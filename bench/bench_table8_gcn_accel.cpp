/**
 * @file
 * Reproduces paper Table VIII: FlowGNN vs the published I-GCN and
 * AWB-GCN results on Cora, CiteSeer, PubMed, and Reddit with their
 * experiment configuration — a 2-layer GCN, embedding dim 16, no edge
 * embeddings — normalized by DSP count.
 *
 * Reddit is simulated at 1/64 scale with the same average degree; its
 * cycle count is rescaled by 64 (both NT and MP work scale linearly in
 * nodes and edges), as documented in docs/DESIGN.md.
 *
 * I-GCN/AWB-GCN consume the raw sparse node features (~1% dense), so
 * their effective input dimension is ~tens of nonzeros; we model that
 * by truncating our dense stand-in features to 16 dims for this
 * experiment ("pre-encoded features" substitution, see docs/DESIGN.md).
 */
#include "bench_common.h"
#include "perf/accelerators.h"
#include "perf/energy.h"
#include "perf/resources.h"

using namespace flowgnn;

namespace {

/** Truncates node features to the first `dim` columns. */
GraphSample
truncate_features(const GraphSample &s, std::size_t dim)
{
    GraphSample out = s;
    out.node_features = Matrix(s.num_nodes(), dim);
    for (NodeId n = 0; n < s.num_nodes(); ++n)
        for (std::size_t c = 0; c < dim; ++c)
            out.node_features(n, c) = s.node_features(n, c);
    return out;
}

} // namespace

int
main()
{
    bench::banner(
        "Table VIII — comparison with I-GCN / AWB-GCN (2-layer GCN-16)",
        "Latency normalized by DSPs (x dsps / 4096). The paper's "
        "747-DSP kernel achieves 1.26x avg speedup over I-GCN; our "
        "conservative fp32 DSP model keeps the comparison within an "
        "order of magnitude (rescale notes in docs/DESIGN.md).");

    // Moderate-parallelism config for the small-dim GCN kernel,
    // sized near the paper's 747-DSP operating point.
    EngineConfig cfg;
    cfg.p_node = 4;
    cfg.p_edge = 8;
    cfg.p_apply = 8;
    cfg.p_scatter = 8;

    const DatasetKind datasets[] = {
        DatasetKind::kCora, DatasetKind::kCiteSeer, DatasetKind::kPubMed,
        DatasetKind::kReddit};

    std::printf("%-9s | %-8s | %12s | %6s | %12s | %10s | %12s\n",
                "Dataset", "Accel", "latency(us)", "DSPs",
                "norm.latency", "EE(g/kJ)", "vs FlowGNN");
    bench::rule(92);

    double speedup_sum = 0.0, ee_ratio_sum = 0.0;
    int rows = 0;

    for (DatasetKind d : datasets) {
        GraphSample s = truncate_features(make_sample(d, 0), 16);
        Model gcn16 =
            make_model(ModelKind::kGcn16, s.node_dim(), s.edge_dim());
        Engine engine(gcn16, cfg);
        RunResult r = engine.run(s);
        double scale = dataset_spec(d).scale;
        double fg_us = r.latency_ms() * 1e3 * scale;
        std::uint32_t fg_dsps =
            estimate_resources(gcn16, cfg, /*max_nodes=*/4096).dsp;
        double fg_norm = dsp_normalized_latency(fg_us, fg_dsps);
        double fg_ee = graphs_per_kj(Platform::kFpga,
                                     r.latency_ms() * scale);

        const PublishedResult &awb = awbgcn_published(d);
        const PublishedResult &igcn = igcn_published(d);

        std::printf("%-9s | %-8s | %12.3g | %6u | %12.4g | %10.2e | %s\n",
                    dataset_spec(d).name, awb.accelerator,
                    awb.latency_us, awb.dsps,
                    dsp_normalized_latency(awb.latency_us, awb.dsps),
                    awb.ee_graphs_per_kj, "");
        std::printf("%-9s | %-8s | %12.3g | %6u | %12.4g | %10.2e | %s\n",
                    "", igcn.accelerator, igcn.latency_us, igcn.dsps,
                    dsp_normalized_latency(igcn.latency_us, igcn.dsps),
                    igcn.ee_graphs_per_kj, "");

        double speedup = normalized_speedup(fg_us, fg_dsps,
                                            igcn.latency_us, igcn.dsps);
        double ee_ratio = fg_ee / igcn.ee_graphs_per_kj;
        speedup_sum += speedup;
        ee_ratio_sum += ee_ratio;
        ++rows;
        std::printf("%-9s | %-8s | %12.3g | %6u | %12.4g | %10.2e | "
                    "%.2fx faster, %.2fx EE vs I-GCN\n",
                    "", "FlowGNN", fg_us, fg_dsps, fg_norm, fg_ee,
                    speedup, ee_ratio);
        bench::rule(92);
    }
    std::printf("Average DSP-normalized speedup over I-GCN: %.2fx "
                "(paper: 1.26x); average EE ratio: %.2fx (paper: "
                "1.55x).\n",
                speedup_sum / rows, ee_ratio_sum / rows);
    std::printf("Note: Reddit simulated at 1/64 scale, latency "
                "rescaled x64.\n");
    return 0;
}
