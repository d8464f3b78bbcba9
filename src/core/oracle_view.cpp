#include "oracle_view.hpp"

namespace erms {

double
OracleTelemetryView::serviceP95Ms(ServiceId service) const
{
    const auto &windows = sim_->metrics().endToEndByMinute;
    const auto it = windows.find(service);
    // An empty window's p95() is 0, the "no samples" answer.
    return it == windows.end() ? 0.0 : it->second.window(minute_).p95();
}

double
OracleTelemetryView::microserviceTailMs(MicroserviceId ms) const
{
    // Records are appended in minute order, so this minute's block is
    // the tail of the history: walk back from the end and stop at the
    // first older record.
    const auto &records = sim_->metrics().profiling;
    for (auto it = records.rbegin();
         it != records.rend() && it->minute >= minute_; ++it) {
        if (it->minute == minute_ && it->microservice == ms)
            return it->tailLatencyMs;
    }
    return 0.0;
}

} // namespace erms
