#include "linalg/sampled_svd.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "linalg/svd_telemetry.h"
#include "obs/metrics.h"

namespace lsi::linalg {

Result<SvdResult> SampledSvd(const SparseMatrix& a, std::size_t k,
                             const SampledSvdOptions& options) {
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  if (n == 0 || m == 0) {
    return Status::InvalidArgument("SampledSvd requires a nonempty matrix");
  }
  if (k == 0 || k > std::min(n, m)) {
    return Status::InvalidArgument(
        "SampledSvd requires 1 <= k <= min(rows, cols)");
  }

  // Column squared lengths -> length-squared sampling distribution.
  std::vector<double> col_norm_sq(m, 0.0);
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_indices();
  const auto& values = a.values();
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t p = offsets[t]; p < offsets[t + 1]; ++p) {
      col_norm_sq[cols[p]] += values[p] * values[p];
    }
  }
  double total_sq = 0.0;
  for (double v : col_norm_sq) total_sq += v;
  if (total_sq <= 0.0) {
    return Status::InvalidArgument("SampledSvd: zero matrix");
  }

  std::size_t s = options.sample_size;
  if (s == 0) s = std::max<std::size_t>(4 * k + 20, 50);
  s = std::min(s, m);
  if (s < k) s = k;

  // Sample s column indices via the cumulative distribution.
  std::vector<double> cdf(m);
  double acc = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    acc += col_norm_sq[j] / total_sq;
    cdf[j] = acc;
  }
  cdf[m - 1] = 1.0;

  Rng rng(options.seed);
  std::vector<std::size_t> sampled(s);
  for (std::size_t t = 0; t < s; ++t) {
    double u = rng.NextDouble();
    sampled[t] = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  }

  // C: n x s with column t = a_{j_t} / sqrt(s * p_{j_t}), so that
  // E[C C^T] = A A^T. Fill all sampled columns in one CSR pass.
  std::vector<double> scale_of_column(m, 0.0);
  std::vector<std::vector<std::size_t>> slots_of_column(m);
  for (std::size_t t = 0; t < s; ++t) {
    std::size_t j = sampled[t];
    double p_j = col_norm_sq[j] / total_sq;
    if (p_j <= 0.0) continue;  // Zero column: cannot be drawn, guard anyway.
    scale_of_column[j] = 1.0 / std::sqrt(static_cast<double>(s) * p_j);
    slots_of_column[j].push_back(t);
  }
  DenseMatrix c(n, s, 0.0);
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t p = offsets[row]; p < offsets[row + 1]; ++p) {
      std::size_t j = cols[p];
      if (slots_of_column[j].empty()) continue;
      double scaled = values[p] * scale_of_column[j];
      for (std::size_t t : slots_of_column[j]) c(row, t) = scaled;
    }
  }

  // Top-k left singular vectors of the small matrix C. The inner
  // Lanczos solve reports its own telemetry; capture it so the sampled
  // backend's counters reflect the real iteration work.
  obs::SolverStats inner_stats;
  LanczosSvdOptions inner_options;
  inner_options.stats = &inner_stats;
  LSI_ASSIGN_OR_RETURN(SvdResult small, LanczosSvd(c, k, inner_options));

  // Complete the triplets against A: sigma_i = |A^T u_i|,
  // v_i = A^T u_i / sigma_i.
  SparseOperator op(a);
  SvdResult out;
  out.u = small.u;  // n x k.
  out.singular_values = DenseVector(k);
  out.v = DenseMatrix(m, k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    DenseVector atu = op.ApplyTranspose(small.u.Column(i));
    double sigma = atu.Norm();
    out.singular_values[i] = sigma;
    if (sigma > 0.0) {
      for (std::size_t j = 0; j < m; ++j) out.v(j, i) = atu[j] / sigma;
    }
  }

  obs::MetricsRegistry::Global()
      .GetGauge("lsi.svd.sampled.sample_size")
      .Set(static_cast<double>(s));
  obs::SolverStats stats;
  stats.solver = "sampled";
  stats.iterations = inner_stats.iterations;
  stats.reorth_passes = inner_stats.reorth_passes;
  // Inner-solve products on C plus the k completions A^T u_i above.
  stats.matvecs = inner_stats.matvecs + k;
  internal::FinishSolverStats(op, out, std::move(stats), options.stats);
  return out;
}

}  // namespace lsi::linalg
