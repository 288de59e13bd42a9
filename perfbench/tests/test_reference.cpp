/**
 * @file
 * Test of the benchmark's independent reference forward: on small
 * models at every dtype the program's forward agrees with it within
 * the stated tolerance, and a prediction computed from a perturbed
 * weight or embedding row falls outside it. Exits nonzero on failure.
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "core/dlrm.hpp"
#include "reference.hpp"
#include "trace/generator.hpp"

namespace core = dlrmopt::core;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

core::ModelConfig
smallModel()
{
    core::ModelConfig m = core::rm1();
    m.name = "small";
    m.rows = 4096;
    m.tables = 6;
    m.dim = 32;
    m.lookups = 12;
    m.bottomMlp = {48, 64, 32};
    m.topMlp = {40, 1};
    return m;
}

/** Largest |forward - reference| over every sample of one batch. */
double
maxError(const core::DlrmModel& model, core::EmbDtype dt,
         const core::Tensor& dense, const core::SparseBatch& sparse)
{
    core::DlrmWorkspace ws;
    model.forward(dense, sparse, ws, {}, dt);
    double worst = 0.0;
    for (std::size_t b = 0; b < sparse.batchSize; ++b) {
        const double ref =
            perfbench::referencePredict(model, dt, dense, sparse, b);
        worst = std::max(worst, std::abs(ws.pred.data()[b] - ref));
    }
    return worst;
}

} // namespace

int
main()
{
    const core::ModelConfig cfg = smallModel();
    auto tc = dlrmopt::traces::TraceConfig::forModel(
        cfg, dlrmopt::traces::Hotness::Medium, 3);
    tc.batchSize = 16;
    const core::SparseBatch sparse =
        dlrmopt::traces::TraceGenerator(tc).batch(0);
    core::Tensor dense(16, cfg.denseDim());
    for (std::size_t i = 0; i < dense.size(); ++i)
        dense.data()[i] = static_cast<float>((i * 37) % 101) / 101.0f;

    const auto store = core::EmbeddingStore::create(cfg, 9);
    for (core::EmbDtype dt : {core::EmbDtype::Fp32, core::EmbDtype::Bf16,
                              core::EmbDtype::Int8}) {
        core::DlrmModel model(cfg, store, 9);
        if (dt != core::EmbDtype::Fp32)
            model.attachQuantizedStore(
                core::EmbeddingStore::create(cfg, 9, 256, dt));
        const double err = maxError(model, dt, dense, sparse);
        const double tol = perfbench::referenceTolerance(dt).maxAbs;
        std::printf("%-5s max |forward - reference| = %.3g (tolerance %g)\n",
                    core::embDtypeName(dt).c_str(), err, tol);
        expect(err <= tol, "forward agrees with the reference");
    }

    // A model whose top-MLP output bias is shifted must be caught: the
    // reference reads the same weights, so compare a shifted model's
    // forward against the unshifted model's reference.
    {
        core::DlrmModel model(cfg, store, 9);
        const core::Mlp& top = model.topMlp();
        std::vector<core::Tensor> w;
        std::vector<std::vector<float>> bias;
        for (std::size_t l = 0; l < top.numLayers(); ++l) {
            w.push_back(top.layerWeights(l));
            bias.push_back(top.layerBias(l));
        }
        bias.back()[0] += 0.05f;
        core::DlrmModel shifted(cfg, store, model.bottomMlp(),
                                core::Mlp(top.dims(), w, bias));
        core::DlrmWorkspace ws;
        shifted.forward(dense, sparse, ws);
        double worst = 0.0;
        for (std::size_t b = 0; b < sparse.batchSize; ++b) {
            worst = std::max(
                worst, std::abs(ws.pred.data()[b] -
                                perfbench::referencePredict(
                                    model, core::EmbDtype::Fp32, dense,
                                    sparse, b)));
        }
        expect(worst > perfbench::referenceTolerance(core::EmbDtype::Fp32).maxAbs,
               "a shifted output bias is outside the fp32 tolerance");
    }

    // One wrong embedding row in the bag must be caught too.
    {
        core::DlrmModel model(cfg, store, 9);
        core::SparseBatch moved = sparse;
        moved.indices[2][moved.offsets[2][5]] =
            (moved.indices[2][moved.offsets[2][5]] + 1) %
            static_cast<dlrmopt::RowIndex>(cfg.rows);
        core::DlrmWorkspace ws;
        model.forward(dense, moved, ws);
        const double ref = perfbench::referencePredict(
            model, core::EmbDtype::Fp32, dense, sparse, 5);
        expect(std::abs(ws.pred.data()[5] - ref) >
                   perfbench::referenceTolerance(core::EmbDtype::Fp32).maxAbs,
               "a bag with one wrong row is outside the fp32 tolerance");
    }

    if (failures) {
        std::fprintf(stderr, "%d reference test(s) failed\n", failures);
        return 1;
    }
    std::printf("reference tests passed\n");
    return 0;
}
