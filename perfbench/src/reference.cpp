#include "reference.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace perfbench
{

using dlrmopt::core::DlrmModel;
using dlrmopt::core::EmbDtype;
using dlrmopt::core::EmbeddingTable;
using dlrmopt::core::Mlp;

namespace
{

/** y = W x + b per layer, ReLU on every layer but the last. */
std::vector<double>
mlpForward(const Mlp& mlp, std::vector<double> x)
{
    for (std::size_t l = 0; l < mlp.numLayers(); ++l) {
        const auto& w = mlp.layerWeights(l); // [out x in]
        const auto& bias = mlp.layerBias(l);
        if (w.cols() != x.size())
            throw std::logic_error("reference: MLP shape mismatch");
        std::vector<double> y(w.rows());
        for (std::size_t o = 0; o < w.rows(); ++o) {
            const float *row = w.row(o);
            double acc = bias[o];
            for (std::size_t i = 0; i < x.size(); ++i)
                acc += static_cast<double>(row[i]) * x[i];
            y[o] = (l + 1 < mlp.numLayers() && acc < 0.0) ? 0.0 : acc;
        }
        x = std::move(y);
    }
    return x;
}

/** Adds row @p r of @p t, widened to double, into @p acc. */
void
addRow(const EmbeddingTable& t, std::size_t r, std::vector<double>& acc)
{
    const std::size_t dim = t.dim();
    const auto idx = static_cast<dlrmopt::RowIndex>(r);
    switch (t.dtype()) {
      case EmbDtype::Bf16: {
        const std::uint16_t *q = t.bf16Row(idx);
        for (std::size_t d = 0; d < dim; ++d) {
            const std::uint32_t bits = static_cast<std::uint32_t>(q[d]) << 16;
            float v;
            std::memcpy(&v, &bits, sizeof(v));
            acc[d] += v;
        }
        return;
      }
      case EmbDtype::Int8: {
        const std::uint8_t *q = t.int8Row(idx);
        const auto qp = t.int8Params(r);
        for (std::size_t d = 0; d < dim; ++d)
            acc[d] += static_cast<double>(q[d]) * qp.scale + qp.bias;
        return;
      }
      default: {
        const float *row = t.rowPtr(idx);
        for (std::size_t d = 0; d < dim; ++d)
            acc[d] += row[d];
        return;
      }
    }
}

double
dot(const std::vector<double>& a, const std::vector<double>& b)
{
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        s += a[i] * b[i];
    return s;
}

} // namespace

double
referencePredict(const DlrmModel& model, EmbDtype dtype,
                 const dlrmopt::core::Tensor& dense,
                 const dlrmopt::core::SparseBatch& sparse, std::size_t b)
{
    const auto& cfg = model.config();
    if (b >= sparse.batchSize || dense.rows() < sparse.batchSize ||
        dense.cols() != cfg.denseDim() || sparse.numTables() != cfg.tables)
        throw std::invalid_argument("referencePredict: input shape");

    std::vector<double> x(dense.cols());
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = dense.row(b)[i];
    const std::vector<double> bottom = mlpForward(model.bottomMlp(), x);

    const auto& store = model.storeFor(dtype);
    std::vector<std::vector<double>> emb(cfg.tables,
                                         std::vector<double>(cfg.dim, 0.0));
    for (std::size_t t = 0; t < cfg.tables; ++t) {
        const auto& off = sparse.offsets[t];
        for (auto s = off[b]; s < off[b + 1]; ++s) {
            addRow(store.table(t),
                   static_cast<std::size_t>(sparse.indices[t][s]), emb[t]);
        }
    }

    // Dot interaction: the bottom output, then for each table i its
    // dot with the bottom output and with every earlier table.
    std::vector<double> inter(bottom);
    for (std::size_t i = 0; i < cfg.tables; ++i) {
        inter.push_back(dot(emb[i], bottom));
        for (std::size_t j = 0; j < i; ++j)
            inter.push_back(dot(emb[i], emb[j]));
    }

    const std::vector<double> logit = mlpForward(model.topMlp(), inter);
    return 1.0 / (1.0 + std::exp(-logit.at(0)));
}

Tolerance
referenceTolerance(EmbDtype dtype)
{
    if (dtype == EmbDtype::Int8)
        return {0.15, 0.03};
    return {1e-4, 1e-4};
}

} // namespace perfbench
