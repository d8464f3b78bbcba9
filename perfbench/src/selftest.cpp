#include "selftest.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Checker
{
    int failures = 0;

    void
    expect(bool ok, const std::string &what)
    {
        if (!ok) {
            ++failures;
            std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
        }
    }

    void
    near(double got, double want, const std::string &what)
    {
        expect(std::fabs(got - want) < 1e-9,
               what + " (got " + std::to_string(got) + ", want " +
                   std::to_string(want) + ")");
    }
};

std::vector<double>
ramp(int n)
{
    std::vector<double> xs;
    for (int i = n; i >= 1; --i)
        xs.push_back(static_cast<double>(i));
    return xs;
}

void
testPercentileRule(Checker &c)
{
    TailPercentile t = tailPercentile(ramp(19));
    c.expect(t.percentile == 0.0 && t.samples == 19,
             "19 samples leave no percentile with 10 beyond it");
    t = tailPercentile(ramp(20));
    c.expect(t.percentile == 50.0, "20 samples report the median");
    c.near(t.value, 10.5, "median of 1..20");
    t = tailPercentile(ramp(100));
    c.expect(t.percentile == 90.0 && t.samples == 100,
             "100 samples report p90");
    c.near(t.value, 90.1, "p90 of 1..100");
    t = tailPercentile(ramp(999));
    c.expect(t.percentile == 95.0, "999 samples stop short of p99");
    t = tailPercentile(ramp(1000));
    c.expect(t.percentile == 99.0, "1000 samples report p99");
    c.near(quantile({3.0, 1.0, 2.0}, 0.5), 2.0, "quantile of unsorted");
    c.near(quantile({}, 0.5), 0.0, "quantile of nothing");
}

Span
span(const char *layer, double start, double end, int parent)
{
    Span s;
    s.name = layer;
    s.layer = layer;
    s.start = start;
    s.end = end;
    s.parent = parent;
    return s;
}

void
testSelfTime(Checker &c)
{
    // root [0,10] with overlapping children A [1,4] and B [3,6] (union
    // 5), a child C [9,12] that overruns the root (clipped to 1), and a
    // grandchild under A.
    const std::vector<Span> spans = {
        span("root", 0.0, 10.0, -1), span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),      span("c", 9.0, 12.0, 0),
        span("a", 2.0, 3.0, 1),      span("b", 20.0, 21.0, -1),
    };
    const std::vector<double> self = selfTimes(spans);
    c.near(self[0], 4.0, "root self time subtracts the union of children");
    c.near(self[1], 2.0, "nested child subtracts its own child");
    c.near(self[2], 3.0, "overlap does not reduce a sibling's self time");
    c.near(self[3], 3.0, "overrunning child keeps its full self time");
    c.near(self[4], 1.0, "leaf self time is its duration");
    const std::map<std::string, double> layers = layerSelfTimes(spans);
    c.near(layers.at("a"), 3.0, "layer a sums its spans' self times");
    c.near(layers.at("b"), 4.0, "layer b sums its spans' self times");

    // Recorder: parents follow the thread's stack.
    SpanRecorder recorder;
    SpanRecorder::install(&recorder);
    recorder.setRun(7);
    {
        ScopedSpan outer("outer", "x");
        ScopedSpan inner("inner", "y");
    }
    SpanRecorder::install(nullptr);
    const std::vector<Span> recorded = recorder.spansOfRun(7);
    c.expect(recorded.size() == 2 && recorded[0].parent == -1 &&
                 recorded[1].parent == 0 &&
                 recorded[1].end <= recorded[0].end,
             "recorder nests spans by the thread's stack");
}

void
testDecoratorTransparency(Checker &c)
{
    const std::string plain = transparencyDigest(false);
    SpanRecorder recorder;
    SpanRecorder::install(&recorder);
    const std::string decorated = transparencyDigest(true);
    SpanRecorder::install(nullptr);
    c.expect(plain == decorated,
             "decorated run is byte-identical to the undecorated run");
    std::map<std::string, int> counts;
    for (const Span &s : recorder.spans())
        ++counts[s.name];
    c.expect(counts["telemetry.query"] > 0,
             "the TelemetryView decorator saw the controller's queries");
    c.expect(counts["provision.place"] > 0,
             "the PlacementPolicy decorator saw placements");
    c.expect(counts["control.cycle"] > 0,
             "the minute-callback wrapper saw control cycles");
}

} // namespace

int
runSelfTests()
{
    Checker c;
    testPercentileRule(c);
    testSelfTime(c);
    testDecoratorTransparency(c);
    return c.failures;
}

} // namespace perfbench
