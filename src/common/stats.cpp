#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "error.hpp"

namespace erms {

void
StreamingStats::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
StreamingStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    // Floating-point cancellation in the Welford/Chan updates can leave
    // m2_ a tiny negative value (or -0.0) for near-constant streams;
    // clamp so variance is never negative and stddev never NaN.
    return std::max(0.0, m2_) / static_cast<double>(n_ - 1);
}

double
StreamingStats::stddev() const
{
    return std::sqrt(variance());
}

void
StreamingStats::merge(const StreamingStats &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
SampleSet::add(double x)
{
    samples_.push_back(x);
    sorted_ = false;
}

void
SampleSet::addAll(const std::vector<double> &xs)
{
    samples_.insert(samples_.end(), xs.begin(), xs.end());
    sorted_ = false;
}

void
SampleSet::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
SampleSet::quantile(double q) const
{
    ERMS_ASSERT(q >= 0.0 && q <= 1.0);
    if (samples_.empty())
        return 0.0;
    if (samples_.size() == 1)
        return samples_[0];
    const double pos = q * static_cast<double>(samples_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    double vlo, vhi;
    if (!sorted_ && samples_.size() >= kSelectThreshold) {
        // One O(n) selection instead of an O(n log n) sort: the
        // simulator's minute boundary queries a single quantile over a
        // minute's worth of samples (millions at benchmark load), and
        // full sorting there dominated the whole minute's bookkeeping.
        // nth_element yields the exact lo-th order statistic, and the
        // (lo+1)-th is the minimum of the upper partition, so the
        // interpolated value is bit-identical to the sorted path.
        std::nth_element(samples_.begin(),
                         samples_.begin() + static_cast<std::ptrdiff_t>(lo),
                         samples_.end());
        vlo = samples_[lo];
        vhi = hi == lo ? vlo
                       : *std::min_element(samples_.begin() +
                                               static_cast<std::ptrdiff_t>(lo + 1),
                                           samples_.end());
    } else {
        ensureSorted();
        vlo = samples_[lo];
        vhi = samples_[hi];
    }
    return vlo * (1.0 - frac) + vhi * frac;
}

double
SampleSet::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : samples_)
        sum += x;
    return sum / static_cast<double>(samples_.size());
}

double
SampleSet::min() const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    return samples_.front();
}

double
SampleSet::max() const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    return samples_.back();
}

double
SampleSet::fractionAbove(double threshold) const
{
    if (samples_.empty())
        return 0.0;
    // Counting needs no order: an unsorted set is scanned once instead
    // of sorted. The count is an exact integer, so the result is
    // bit-identical to the sorted path.
    const auto above = static_cast<double>(
        sorted_ ? samples_.end() - std::upper_bound(samples_.begin(),
                                                     samples_.end(),
                                                     threshold)
                : std::count_if(samples_.begin(), samples_.end(),
                                [threshold](double x) {
                                    return x > threshold;
                                }));
    return above / static_cast<double>(samples_.size());
}

std::vector<double>
SampleSet::cdfAt(const std::vector<double> &points) const
{
    std::vector<double> out(points.size(), 0.0);
    if (samples_.empty())
        return out;
    ensureSorted();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto it =
            std::upper_bound(samples_.begin(), samples_.end(), points[i]);
        out[i] = static_cast<double>(it - samples_.begin()) /
                 static_cast<double>(samples_.size());
    }
    return out;
}

std::vector<std::pair<double, double>>
SampleSet::cdfSeries() const
{
    std::vector<std::pair<double, double>> series;
    if (samples_.empty())
        return series;
    ensureSorted();
    const double n = static_cast<double>(samples_.size());
    for (std::size_t i = 0; i < samples_.size(); ++i) {
        const bool last_of_value =
            i + 1 == samples_.size() || samples_[i + 1] != samples_[i];
        if (last_of_value)
            series.emplace_back(samples_[i],
                                static_cast<double>(i + 1) / n);
    }
    return series;
}

void
SampleSet::clear()
{
    samples_.clear();
    sorted_ = true;
}

const SampleSet WindowedSamples::kEmpty;

void
WindowedSamples::add(std::uint64_t window, double x)
{
    for (auto &entry : windows_) {
        if (entry.first == window) {
            entry.second.add(x);
            return;
        }
    }
    windows_.emplace_back(window, SampleSet{});
    windows_.back().second.add(x);
}

std::vector<std::uint64_t>
WindowedSamples::windowIndices() const
{
    std::vector<std::uint64_t> indices;
    indices.reserve(windows_.size());
    for (const auto &entry : windows_)
        indices.push_back(entry.first);
    std::sort(indices.begin(), indices.end());
    return indices;
}

const SampleSet &
WindowedSamples::window(std::uint64_t index) const
{
    for (const auto &entry : windows_) {
        if (entry.first == index)
            return entry.second;
    }
    return kEmpty;
}

double
pearsonCorrelation(const std::vector<double> &x, const std::vector<double> &y)
{
    if (x.size() != y.size() || x.size() < 2)
        return 0.0;
    const double n = static_cast<double>(x.size());
    double sx = 0.0, sy = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sx += x[i];
        sy += y[i];
    }
    const double mx = sx / n;
    const double my = sy / n;
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double dx = x[i] - mx;
        const double dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx <= 0.0 || syy <= 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

} // namespace erms
