/**
 * @file
 * Span recording for the benchmark's traced runs. Spans are opened only
 * by the benchmark's own code (its calls into the library's public
 * functions and its decorators), kept in memory, and analysed after the
 * run: each span's self time is its duration minus the part of it that
 * child spans cover, and a layer's self time is the sum over its spans.
 *
 * Recording is off unless a SpanRecorder is installed; an inactive
 * ScopedSpan costs one pointer test.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** One closed span; times are seconds since the recorder's origin. */
struct Span
{
    std::string name;
    /** Library layer the span's self time is charged to. */
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    /** Index of the parent span in the recorder, -1 for a root. */
    int parent = -1;
    /** Pipeline repetition (or set-up repetition) the span belongs to. */
    int run = 0;

    double duration() const { return end - start; }
};

/**
 * Thread-safe span store. Parents follow a per-thread stack; spans
 * opened on a thread with an empty stack (runner workers) attach to the
 * adopted parent the main thread published with adoptWorkers().
 */
class SpanRecorder
{
  public:
    SpanRecorder();

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Install as the process-wide recorder (nullptr uninstalls). */
    static void install(SpanRecorder *recorder);
    static SpanRecorder *active();

    int open(const char *name, const char *layer);
    void close(int id);

    /** Spans opened on threads without an open span get this parent
     *  (-1 to stop adopting). */
    void adoptWorkers(int parent);

    void setRun(int run);

    const std::vector<Span> &spans() const { return spans_; }
    std::vector<Span> spansOfRun(int run) const;

  private:
    double now() const;

    std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    int workerParent_ = -1;
    int run_ = 0;
};

/** RAII span on the installed recorder (no-op when none). */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *layer);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Index of the span, -1 when recording is off. */
    int id() const { return id_; }

  private:
    SpanRecorder *recorder_;
    int id_ = -1;
};

/**
 * Self time of every span: duration minus the measure of the union of
 * its children's intervals clipped to the span. Children may overlap
 * (concurrent workers), so the union, not the sum, is subtracted.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Sum of self times per layer. */
std::map<std::string, double> layerSelfTimes(const std::vector<Span> &spans);

/**
 * Reporting rule for a latency distribution: the highest percentile of
 * a fixed ladder that still has at least 10 samples beyond it, with the
 * sample count. percentile == 0 when no rung qualifies (fewer than 20
 * samples).
 */
struct TailPercentile
{
    double percentile = 0.0;
    double value = 0.0;
    std::size_t samples = 0;
};

TailPercentile tailPercentile(std::vector<double> samples);

/** Linear-interpolation quantile (q in [0, 1]) of unsorted samples. */
double quantile(std::vector<double> samples, double q);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
