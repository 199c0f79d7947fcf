#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

std::optional<double>
percentile(std::vector<double> samples, double q)
{
    const std::size_t n = samples.size();
    if (n == 0)
        return std::nullopt;
    // 1-based nearest rank: the smallest sample with at least q*n
    // samples at or below it.
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    if (n - rank < kMinBeyond)
        return std::nullopt;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<long>(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

std::optional<double>
median(std::vector<double> samples)
{
    if (samples.empty())
        return std::nullopt;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

std::size_t
admittedIn(const RoundObservation &r)
{
    const std::size_t in = r.pendingBefore + r.submitted + r.preempted;
    return in > r.pendingAfter ? in - r.pendingAfter : 0;
}

} // namespace perfbench
