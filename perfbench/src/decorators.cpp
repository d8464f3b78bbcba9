#include "decorators.hpp"

#include <utility>

#include "trace.hpp"

namespace perfbench {

using erms::Interference;
using erms::MicroserviceId;
using erms::ServiceId;
using erms::SimTime;

TimedTelemetryView::TimedTelemetryView(
    std::shared_ptr<const erms::telemetry::TelemetryView> inner)
    : inner_(std::move(inner))
{
}

double
TimedTelemetryView::observedRate(ServiceId service) const
{
    ScopedSpan span("telemetry.query", "telemetry");
    return inner_->observedRate(service);
}

Interference
TimedTelemetryView::clusterInterference() const
{
    ScopedSpan span("telemetry.query", "telemetry");
    return inner_->clusterInterference();
}

double
TimedTelemetryView::serviceP95Ms(ServiceId service) const
{
    ScopedSpan span("telemetry.query", "telemetry");
    return inner_->serviceP95Ms(service);
}

double
TimedTelemetryView::microserviceTailMs(MicroserviceId ms) const
{
    ScopedSpan span("telemetry.query", "telemetry");
    return inner_->microserviceTailMs(ms);
}

int
TimedTelemetryView::containerCount(MicroserviceId ms) const
{
    ScopedSpan span("telemetry.query", "telemetry");
    return inner_->containerCount(ms);
}

double
TimedTelemetryView::stalenessMs(SimTime now) const
{
    ScopedSpan span("telemetry.query", "telemetry");
    return inner_->stalenessMs(now);
}

TimedPlacementPolicy::TimedPlacementPolicy(
    std::shared_ptr<erms::PlacementPolicy> inner)
    : inner_(std::move(inner))
{
}

std::size_t
TimedPlacementPolicy::placeContainer(const std::vector<erms::HostView> &hosts,
                                     double cpu_request_cores,
                                     double mem_request_mb)
{
    ScopedSpan span("provision.place", "provision");
    return inner_->placeContainer(hosts, cpu_request_cores, mem_request_mb);
}

std::size_t
TimedPlacementPolicy::evictContainer(
    const std::vector<erms::HostView> &hosts,
    const std::vector<std::size_t> &candidates, double cpu_request_cores,
    double mem_request_mb)
{
    ScopedSpan span("provision.evict", "provision");
    return inner_->evictContainer(hosts, candidates, cpu_request_cores,
                                  mem_request_mb);
}

MinuteCallback
timedMinuteCallback(MinuteCallback inner)
{
    return [inner = std::move(inner)](erms::Simulation &sim, int minute) {
        ScopedSpan span("control.cycle", "core");
        inner(sim, minute);
    };
}

} // namespace perfbench
