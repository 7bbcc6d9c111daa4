// Order statistics over raw samples for the end-to-end benchmark.
//
// Percentiles are exact nearest-rank order statistics: the q-quantile of
// n samples is the ceil(q * n)-th smallest sample, so every reported
// value is one that was actually measured and always lies in
// [min, max].  (The library's fixed-bucket histogram_quantile
// interpolates inside buckets and can report values outside that range,
// which is why it is not used here.)
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace e2ebench {

/// Nearest-rank index of the q-quantile among n sorted samples.
[[nodiscard]] inline std::size_t rank_index(std::size_t n, double q) {
    if (n == 0) throw std::invalid_argument("rank_index: no samples");
    if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("rank_index: q outside [0, 1]");
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    return rank == 0 ? 0 : std::min(rank, n) - 1;
}

/// The q-quantile of `samples` (any order) as an exact order statistic.
[[nodiscard]] inline double percentile(std::vector<double> samples, double q) {
    const std::size_t i = rank_index(samples.size(), q);
    std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(i),
                     samples.end());
    return samples[i];
}

/// Samples strictly beyond the q-quantile's rank: how many measurements
/// back a tail percentile (the benchmark wants at least ten).
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double q) {
    return n - 1 - rank_index(n, q);
}

}  // namespace e2ebench
