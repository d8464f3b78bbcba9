/**
 * @file
 * OracleTelemetryView — what a controller observes through when it is
 * given no view: the simulator's ground truth for the minute that just
 * ended, behind the same TelemetryView interface as scraped telemetry,
 * so every controller body has one observation path. Rates,
 * interference and container counts are the Simulation accessors; the
 * latency answers are 0 when the minute has no end-to-end samples
 * (serviceP95Ms) or no profiling record (microserviceTailMs); ground
 * truth is never stale.
 */

#ifndef ERMS_CORE_ORACLE_VIEW_HPP
#define ERMS_CORE_ORACLE_VIEW_HPP

#include "sim/simulation.hpp"
#include "telemetry/view.hpp"

namespace erms {

/** TelemetryView over a live Simulation inside its minute callback
 *  for `minute`; build one per callback. */
class OracleTelemetryView : public telemetry::TelemetryView
{
  public:
    OracleTelemetryView(const Simulation &sim, int minute)
        : sim_(&sim), minute_(static_cast<std::uint64_t>(minute))
    {
    }

    double observedRate(ServiceId service) const override
    {
        return sim_->observedRate(service);
    }
    Interference clusterInterference() const override
    {
        return sim_->clusterInterference();
    }
    double serviceP95Ms(ServiceId service) const override;
    double microserviceTailMs(MicroserviceId ms) const override;
    int containerCount(MicroserviceId ms) const override
    {
        return sim_->containerCount(ms);
    }
    double stalenessMs(SimTime) const override { return 0.0; }

  private:
    const Simulation *sim_;
    std::uint64_t minute_;
};

} // namespace erms

#endif // ERMS_CORE_ORACLE_VIEW_HPP
