#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

namespace perfbench {

namespace {

std::atomic<SpanRecorder *> g_recorder{nullptr};

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<int> t_stack;

} // namespace

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

void
SpanRecorder::install(SpanRecorder *recorder)
{
    g_recorder.store(recorder, std::memory_order_release);
}

SpanRecorder *
SpanRecorder::active()
{
    return g_recorder.load(std::memory_order_acquire);
}

double
SpanRecorder::now() const
{
    const std::chrono::duration<double> since =
        std::chrono::steady_clock::now() - origin_;
    return since.count();
}

int
SpanRecorder::open(const char *name, const char *layer)
{
    const double start = now();
    std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.name = name;
    span.layer = layer;
    span.start = start;
    span.end = start;
    span.parent = t_stack.empty() ? workerParent_ : t_stack.back();
    span.run = run_;
    spans_.push_back(std::move(span));
    const int id = static_cast<int>(spans_.size()) - 1;
    t_stack.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    const double end = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = end;
    if (!t_stack.empty() && t_stack.back() == id)
        t_stack.pop_back();
}

void
SpanRecorder::adoptWorkers(int parent)
{
    std::lock_guard<std::mutex> lock(mutex_);
    workerParent_ = parent;
}

void
SpanRecorder::setRun(int run)
{
    std::lock_guard<std::mutex> lock(mutex_);
    run_ = run;
}

std::vector<Span>
SpanRecorder::spansOfRun(int run) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Parent indices are rebased so the returned vector is
    // self-contained (a run's spans are contiguous and parents never
    // cross runs).
    std::vector<Span> out;
    int first = -1;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].run != run)
            continue;
        if (first < 0)
            first = static_cast<int>(i);
        Span span = spans_[i];
        span.parent = span.parent >= first ? span.parent - first : -1;
        out.push_back(std::move(span));
    }
    return out;
}

ScopedSpan::ScopedSpan(const char *name, const char *layer)
    : recorder_(SpanRecorder::active())
{
    if (recorder_ != nullptr)
        id_ = recorder_->open(name, layer);
}

ScopedSpan::~ScopedSpan()
{
    if (recorder_ != nullptr)
        recorder_->close(id_);
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &span : spans) {
        if (span.parent < 0)
            continue;
        const Span &parent = spans[static_cast<std::size_t>(span.parent)];
        const double lo = std::max(span.start, parent.start);
        const double hi = std::min(span.end, parent.end);
        if (hi > lo)
            children[static_cast<std::size_t>(span.parent)].emplace_back(lo,
                                                                          hi);
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &intervals = children[i];
        std::sort(intervals.begin(), intervals.end());
        double covered = 0.0;
        double cur_lo = 0.0;
        double cur_hi = -1.0;
        for (const auto &[lo, hi] : intervals) {
            if (lo > cur_hi) {
                if (cur_hi > cur_lo)
                    covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo)
            covered += cur_hi - cur_lo;
        self[i] = std::max(0.0, spans[i].duration() - covered);
    }
    return self;
}

std::map<std::string, double>
layerSelfTimes(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, double> layers;
    for (std::size_t i = 0; i < spans.size(); ++i)
        layers[spans[i].layer] += self[i];
    return layers;
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

TailPercentile
tailPercentile(std::vector<double> samples)
{
    static const double kLadder[] = {99.99, 99.9, 99.0, 95.0,
                                     90.0,  75.0, 50.0};
    TailPercentile out;
    out.samples = samples.size();
    const double n = static_cast<double>(samples.size());
    for (double p : kLadder) {
        // Samples strictly beyond the p-th percentile: n * (1 - p/100).
        if (n * (100.0 - p) / 100.0 + 1e-9 >= 10.0) {
            out.percentile = p;
            out.value = quantile(std::move(samples), p / 100.0);
            return out;
        }
    }
    return out;
}

} // namespace perfbench
