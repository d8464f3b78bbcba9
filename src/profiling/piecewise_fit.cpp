#include "piecewise_fit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/error.hpp"
#include "common/linalg.hpp"

namespace erms {

namespace {

/** OLS of latency on [C*gamma, M*gamma, gamma, 1] -> IntervalParams. */
IntervalParams
fitInterval(const std::vector<const ProfilingSample *> &samples)
{
    std::vector<double> x;
    std::vector<double> y;
    x.reserve(samples.size() * 4);
    y.reserve(samples.size());
    for (const ProfilingSample *s : samples) {
        x.push_back(s->cpuUtil * s->gamma);
        x.push_back(s->memUtil * s->gamma);
        x.push_back(s->gamma);
        x.push_back(1.0);
        y.push_back(s->latencyMs);
    }
    // Latency must not decrease with workload anywhere in the operating
    // range. Fit with an active-set non-negativity scheme on the slope
    // coefficients (alpha, beta, c): whenever the unconstrained fit
    // yields a negative coefficient, clamp the most negative one to zero
    // and refit on the remaining features. (Dropping interference
    // coupling wholesale instead invites Simpson's-paradox flat fits
    // when interference and workload are anti-correlated in the data.)
    bool active[3] = {true, true, true}; // C*gamma, M*gamma, gamma
    IntervalParams params;
    for (int round = 0; round < 4; ++round) {
        std::vector<std::size_t> features;
        for (std::size_t f = 0; f < 3; ++f) {
            if (active[f])
                features.push_back(f);
        }
        const std::size_t cols = features.size() + 1;
        std::vector<double> x;
        std::vector<double> y;
        x.reserve(samples.size() * cols);
        y.reserve(samples.size());
        for (const ProfilingSample *s : samples) {
            const double raw[3] = {s->cpuUtil * s->gamma,
                                   s->memUtil * s->gamma, s->gamma};
            for (std::size_t f : features)
                x.push_back(raw[f]);
            x.push_back(1.0);
            y.push_back(s->latencyMs);
        }
        const auto w = leastSquares(x, y, cols, 1e-6);
        double coeff[3] = {0.0, 0.0, 0.0};
        for (std::size_t k = 0; k < features.size(); ++k)
            coeff[features[k]] = w[k];
        params.alpha = coeff[0];
        params.beta = coeff[1];
        params.c = coeff[2];
        params.b = w[cols - 1];

        // Find the most negative active slope coefficient.
        int worst = -1;
        double worst_value = -1e-12;
        for (int f = 0; f < 3; ++f) {
            if (active[f] && coeff[f] < worst_value) {
                worst_value = coeff[f];
                worst = f;
            }
        }
        if (worst < 0)
            break;
        active[worst] = false;
        params.alpha = params.beta = 0.0;
        params.c = 1e-9; // in case everything gets clamped
    }
    if (params.alpha < 0.0)
        params.alpha = 0.0;
    if (params.beta < 0.0)
        params.beta = 0.0;
    if (params.c < 0.0)
        params.c = 1e-9;
    return params;
}

} // namespace

std::vector<double>
predictAll(const PiecewiseLatencyModel &model,
           const std::vector<ProfilingSample> &samples)
{
    std::vector<double> out;
    out.reserve(samples.size());
    for (const ProfilingSample &s : samples)
        out.push_back(
            model.latency(s.gamma, Interference{s.cpuUtil, s.memUtil}));
    return out;
}

PiecewiseFitResult
fitPiecewiseModel(const std::vector<ProfilingSample> &samples,
                  const PiecewiseFitConfig &config)
{
    ERMS_ASSERT_MSG(samples.size() >= 2 * config.minIntervalSamples,
                    "not enough samples to fit a piecewise model");

    // Initial cutoff: median workload.
    std::vector<double> gammas;
    gammas.reserve(samples.size());
    for (const ProfilingSample &s : samples)
        gammas.push_back(s.gamma);
    std::sort(gammas.begin(), gammas.end());
    double initial_cutoff = gammas[gammas.size() / 2];
    if (initial_cutoff <= 0.0)
        initial_cutoff = 1.0;

    auto tree = std::make_shared<DecisionTreeRegressor>(config.cutoffTree);
    IntervalParams below, above;

    // Degenerate workload coverage: if the observed per-container loads
    // barely vary (a microservice that never approaches its knee during
    // the sweep), a two-interval fit would extrapolate garbage. Fit one
    // line over everything and place the cutoff beyond the observed
    // range so both intervals agree.
    const double g_min = gammas.front();
    const double g_max = gammas.back();
    const bool degenerate_range = g_max < 1.5 * std::max(g_min, 1.0);

    // Current cutoff prediction: tree when trained, constant before.
    const auto cutoff_of = [&](double cpu, double mem) {
        if (tree->trained())
            return std::max(1.0, tree->predict({cpu, mem}));
        return initial_cutoff;
    };

    bool single_interval = degenerate_range;
    for (int iter = 0; iter < config.iterations && !single_interval;
         ++iter) {
        // Step 1: interval assignment under the current cutoff.
        std::vector<const ProfilingSample *> lows, highs;
        for (const ProfilingSample &s : samples) {
            if (s.gamma <= cutoff_of(s.cpuUtil, s.memUtil))
                lows.push_back(&s);
            else
                highs.push_back(&s);
        }
        // Degenerate assignment: fall back to a median split by gamma.
        if (lows.size() < config.minIntervalSamples ||
            highs.size() < config.minIntervalSamples) {
            lows.clear();
            highs.clear();
            const double median = gammas[gammas.size() / 2];
            for (const ProfilingSample &s : samples) {
                if (s.gamma <= median)
                    lows.push_back(&s);
                else
                    highs.push_back(&s);
            }
            if (lows.size() < config.minIntervalSamples ||
                highs.size() < config.minIntervalSamples) {
                single_interval = true;
                break;
            }
        }

        // Step 2: linear fit per interval.
        below = fitInterval(lows);
        above = fitInterval(highs);

        // Step 3: per-interference-bucket optimal split, then tree fit.
        std::map<std::pair<long, long>, std::vector<const ProfilingSample *>>
            buckets;
        for (const ProfilingSample &s : samples) {
            const long cb = std::lround(s.cpuUtil / config.bucketWidth);
            const long mb = std::lround(s.memUtil / config.bucketWidth);
            buckets[{cb, mb}].push_back(&s);
        }

        std::vector<std::vector<double>> tree_x;
        std::vector<double> tree_y;
        std::vector<double> tree_w;
        for (auto &[key, bucket] : buckets) {
            if (bucket.size() < 6)
                continue;
            std::sort(bucket.begin(), bucket.end(),
                      [](const ProfilingSample *a, const ProfilingSample *b) {
                          return a->gamma < b->gamma;
                      });
            // Bucket-local knee search: fit a free line on each side of
            // every candidate split (closed-form 1-D regression via
            // prefix sums) and keep the split minimizing total SSE among
            // candidates where the right side is steeper than the left
            // (a knee, not an arbitrary cut).
            const std::size_t n = bucket.size();
            std::vector<double> sg(n + 1, 0.0), sgg(n + 1, 0.0),
                sl(n + 1, 0.0), sgl(n + 1, 0.0), sll(n + 1, 0.0);
            for (std::size_t i = 0; i < n; ++i) {
                const double g = bucket[i]->gamma;
                const double l = bucket[i]->latencyMs;
                sg[i + 1] = sg[i] + g;
                sgg[i + 1] = sgg[i] + g * g;
                sl[i + 1] = sl[i] + l;
                sgl[i + 1] = sgl[i] + g * l;
                sll[i + 1] = sll[i] + l * l;
            }
            // Regression of L on gamma over [lo, hi): returns
            // {slope, sse}; a degenerate span fits a constant.
            const auto segment = [&](std::size_t lo, std::size_t hi) {
                const double count = static_cast<double>(hi - lo);
                const double sum_g = sg[hi] - sg[lo];
                const double sum_gg = sgg[hi] - sgg[lo];
                const double sum_l = sl[hi] - sl[lo];
                const double sum_gl = sgl[hi] - sgl[lo];
                const double sum_ll = sll[hi] - sll[lo];
                const double var_g = sum_gg - sum_g * sum_g / count;
                double slope = 0.0;
                if (var_g > 1e-9)
                    slope = (sum_gl - sum_g * sum_l / count) / var_g;
                const double intercept =
                    (sum_l - slope * sum_g) / count;
                const double sse = sum_ll - 2.0 * slope * sum_gl -
                                   2.0 * intercept * sum_l +
                                   slope * slope * sum_gg +
                                   2.0 * slope * intercept * sum_g +
                                   intercept * intercept * count;
                return std::pair<double, double>(slope, sse);
            };
            double best_err = std::numeric_limits<double>::infinity();
            double best_split = -1.0;
            for (std::size_t i = 3; i + 3 <= n; ++i) {
                const auto [slope_l, sse_l] = segment(0, i);
                const auto [slope_r, sse_r] = segment(i, n);
                if (slope_r <= slope_l)
                    continue; // not a knee
                const double err = sse_l + sse_r;
                if (err < best_err) {
                    best_err = err;
                    best_split =
                        (bucket[i - 1]->gamma + bucket[i]->gamma) / 2.0;
                }
            }
            if (best_split <= 0.0)
                continue; // no knee visible in this bucket
            double cpu_sum = 0.0, mem_sum = 0.0;
            for (const ProfilingSample *s : bucket) {
                cpu_sum += s->cpuUtil;
                mem_sum += s->memUtil;
            }
            tree_x.push_back({cpu_sum / static_cast<double>(n),
                              mem_sum / static_cast<double>(n)});
            tree_y.push_back(best_split);
            tree_w.push_back(static_cast<double>(n));
        }
        if (tree_x.size() >= 2) {
            // Physical prior: the knee moves *forward* (to lower
            // workloads) as interference grows. Enforce a non-increasing
            // split sequence along total utilization with weighted
            // pool-adjacent-violators before fitting the tree, so noisy
            // buckets cannot invert the ordering.
            std::vector<std::size_t> order(tree_x.size());
            for (std::size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          return tree_x[a][0] + tree_x[a][1] <
                                 tree_x[b][0] + tree_x[b][1];
                      });
            struct Block
            {
                double value;
                double weight;
                std::size_t count;
            };
            std::vector<Block> blocks;
            for (std::size_t i : order) {
                blocks.push_back({tree_y[i], tree_w[i], 1});
                // Non-increasing: later blocks must not exceed earlier.
                while (blocks.size() >= 2 &&
                       blocks[blocks.size() - 2].value <
                           blocks.back().value) {
                    Block merged = blocks.back();
                    blocks.pop_back();
                    Block &prev = blocks.back();
                    const double total = prev.weight + merged.weight;
                    prev.value = (prev.value * prev.weight +
                                  merged.value * merged.weight) /
                                 total;
                    prev.weight = total;
                    prev.count += merged.count;
                }
            }
            std::size_t cursor = 0;
            for (const Block &block : blocks) {
                for (std::size_t k = 0; k < block.count; ++k)
                    tree_y[order[cursor++]] = block.value;
            }
            tree->fit(tree_x, tree_y, tree_w);
        } else if (!tree_y.empty()) {
            initial_cutoff = tree_y.front();
        }
    }

    if (single_interval) {
        std::vector<const ProfilingSample *> all;
        all.reserve(samples.size());
        for (const ProfilingSample &s : samples)
            all.push_back(&s);
        below = fitInterval(all);
        above = below;
        initial_cutoff = 2.0 * g_max;
        tree = std::make_shared<DecisionTreeRegressor>(config.cutoffTree);
    }

    PiecewiseFitResult result;
    result.below = below;
    result.above = above;
    result.cutoffTree = tree;
    result.cutoffFallback = initial_cutoff;
    const double fallback = initial_cutoff;
    auto shared_tree = tree;
    result.model = PiecewiseLatencyModel(
        below, above, [shared_tree, fallback](const Interference &itf) {
            if (shared_tree->trained()) {
                return std::max(1.0, shared_tree->predict(
                                         {itf.cpuUtil, itf.memUtil}));
            }
            return fallback;
        });

    const auto predictions = predictAll(result.model, samples);
    std::vector<double> actual;
    actual.reserve(samples.size());
    for (const ProfilingSample &s : samples)
        actual.push_back(s.latencyMs);
    result.trainAccuracy = profilingAccuracy(predictions, actual);
    return result;
}

} // namespace erms
