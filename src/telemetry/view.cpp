#include "view.hpp"

#include <limits>

namespace erms::telemetry {

ScrapedTelemetryView::ScrapedTelemetryView(const SimMonitor &monitor)
    : monitor_(&monitor)
{
}

const TelemetrySnapshot *
SnapshotTelemetryView::latest() const
{
    const auto &snaps = visibleSnapshots();
    return snaps.empty() ? nullptr : &snaps.back();
}

double
SnapshotTelemetryView::observedRate(ServiceId service) const
{
    const auto &snaps = visibleSnapshots();
    const TelemetrySnapshot *now =
        snaps.empty() ? nullptr : &snaps.back();
    const TelemetrySnapshot *prev =
        snaps.size() < 2 ? nullptr : &snaps[snaps.size() - 2];
    if (now == nullptr || prev == nullptr || now->at <= prev->at)
        return 0.0;
    const Labels labels{{"service", std::to_string(service)}};
    const SeriesSnapshot *cur_s = now->find("erms_requests_total", labels);
    if (cur_s == nullptr)
        return 0.0;
    const SeriesSnapshot *prev_s =
        prev->find("erms_requests_total", labels);
    const std::uint64_t before = prev_s ? prev_s->counterValue : 0;
    if (cur_s->counterValue <= before)
        return 0.0; // no arrivals, or a counter regression (reset)
    const double window_min =
        toMillis(now->at - prev->at) / (60.0 * 1000.0);
    return static_cast<double>(cur_s->counterValue - before) / window_min;
}

Interference
SnapshotTelemetryView::clusterInterference() const
{
    Interference avg;
    const TelemetrySnapshot *now = latest();
    if (now == nullptr)
        return avg;
    double cpu = 0.0, mem = 0.0;
    std::size_t hosts = 0;
    for (const SeriesSnapshot &s : now->series) {
        if (s.name == "erms_host_cpu_util") {
            cpu += s.gaugeValue;
            ++hosts;
        } else if (s.name == "erms_host_mem_util") {
            mem += s.gaugeValue;
        }
    }
    if (hosts == 0)
        return avg;
    avg.cpuUtil = cpu / static_cast<double>(hosts);
    avg.memUtil = mem / static_cast<double>(hosts);
    return avg;
}

double
SnapshotTelemetryView::histogramDeltaQuantile(const std::string &name,
                                              const Labels &labels,
                                              double q) const
{
    const auto &snaps = visibleSnapshots();
    const TelemetrySnapshot *now =
        snaps.empty() ? nullptr : &snaps.back();
    if (now == nullptr)
        return 0.0;
    const SeriesSnapshot *cur_s = now->find(name, labels);
    if (cur_s == nullptr || cur_s->bucketCounts.empty() ||
        cur_s->boundaries.empty() ||
        cur_s->bucketCounts.size() != cur_s->boundaries.size() + 1)
        return 0.0;
    std::vector<std::uint64_t> delta = cur_s->bucketCounts;
    const TelemetrySnapshot *prev =
        snaps.size() < 2 ? nullptr : &snaps[snaps.size() - 2];
    if (prev != nullptr) {
        const SeriesSnapshot *prev_s = prev->find(name, labels);
        if (prev_s != nullptr &&
            prev_s->bucketCounts.size() == delta.size()) {
            // Clamp bucket regressions to an empty delta instead of
            // letting the subtraction wrap: a perturbed pipeline can
            // report fewer cumulative observations than the previous
            // scrape (partial scrape, restarted exporter), and a wrapped
            // uint64 would turn into an astronomically heavy bucket.
            for (std::size_t i = 0; i < delta.size(); ++i)
                delta[i] -= std::min(delta[i], prev_s->bucketCounts[i]);
        }
    }
    return histogramQuantile(cur_s->boundaries, delta, q);
}

double
SnapshotTelemetryView::serviceP95Ms(ServiceId service) const
{
    return histogramDeltaQuantile(
        "erms_request_latency_ms",
        {{"service", std::to_string(service)}}, 0.95);
}

double
SnapshotTelemetryView::microserviceTailMs(MicroserviceId ms) const
{
    return histogramDeltaQuantile(
        "erms_ms_latency_ms",
        {{"microservice", std::to_string(ms)}}, 0.95);
}

int
SnapshotTelemetryView::containerCount(MicroserviceId ms) const
{
    const TelemetrySnapshot *now = latest();
    if (now == nullptr)
        return -1;
    const SeriesSnapshot *s = now->find(
        "erms_containers", {{"microservice", std::to_string(ms)}});
    if (s == nullptr)
        return -1;
    return static_cast<int>(s->gaugeValue);
}

double
SnapshotTelemetryView::stalenessMs(SimTime now) const
{
    const TelemetrySnapshot *snap = latest();
    if (snap == nullptr)
        return std::numeric_limits<double>::max();
    return snap->at >= now ? 0.0 : toMillis(now - snap->at);
}

} // namespace erms::telemetry
