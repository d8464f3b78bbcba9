/**
 * @file
 * Decorators the benchmark owns, for timing calls that happen inside
 * the library: each forwards every call unchanged to the wrapped
 * object and records a span around it. They draw no randomness and keep
 * no state the wrapped object sees, so a run with them is byte-identical
 * to a run without (the self-test pins this).
 */

#ifndef PERFBENCH_DECORATORS_HPP
#define PERFBENCH_DECORATORS_HPP

#include <functional>
#include <memory>

#include "sim/placement.hpp"
#include "sim/simulation.hpp"
#include "telemetry/view.hpp"

namespace perfbench {

/** Span "telemetry.query" around every controller observation. */
class TimedTelemetryView : public erms::telemetry::TelemetryView
{
  public:
    explicit TimedTelemetryView(
        std::shared_ptr<const erms::telemetry::TelemetryView> inner);

    double observedRate(erms::ServiceId service) const override;
    erms::Interference clusterInterference() const override;
    double serviceP95Ms(erms::ServiceId service) const override;
    double microserviceTailMs(erms::MicroserviceId ms) const override;
    int containerCount(erms::MicroserviceId ms) const override;
    double stalenessMs(erms::SimTime now) const override;

  private:
    std::shared_ptr<const erms::telemetry::TelemetryView> inner_;
};

/** Spans "provision.place" / "provision.evict" around a policy. */
class TimedPlacementPolicy : public erms::PlacementPolicy
{
  public:
    explicit TimedPlacementPolicy(
        std::shared_ptr<erms::PlacementPolicy> inner);

    std::size_t placeContainer(const std::vector<erms::HostView> &hosts,
                               double cpu_request_cores,
                               double mem_request_mb) override;
    std::size_t
    evictContainer(const std::vector<erms::HostView> &hosts,
                   const std::vector<std::size_t> &candidates,
                   double cpu_request_cores, double mem_request_mb) override;

  private:
    std::shared_ptr<erms::PlacementPolicy> inner_;
};

using MinuteCallback = std::function<void(erms::Simulation &, int)>;

/** Span "control.cycle" around every invocation of a minute callback. */
MinuteCallback timedMinuteCallback(MinuteCallback inner);

} // namespace perfbench

#endif // PERFBENCH_DECORATORS_HPP
