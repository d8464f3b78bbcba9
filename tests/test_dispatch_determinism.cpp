/**
 * @file
 * Dispatch-refactor regression suite for the dense-SoA / batched
 * dispatch hot path. The randomized fuzz workloads (random tree
 * graphs, rates, container counts, with mid-run scale events, faults
 * and resilience policies) come from the golden harness, whose
 * dispatch_fuzz table pins their 20-seed digests byte for byte.
 *
 *  - repeat-run determinism pins the same digest across back-to-back
 *    runs of one configuration;
 *  - a pool-lifetime churn test floods the stale-queue-entry path
 *    (timeouts + hedges abandoning attempts whose jobs sit queued on
 *    draining/crashing containers) so AddressSanitizer can prove the
 *    queue-scan removal in dequeueAttempt and the stale-id skips in
 *    popQueuedJob/reassignQueue never double-release a pooled
 *    CallContext (scripts/check.sh runs this binary under ASan);
 *  - a concurrent-scrape test hammers Simulation::clusterSnapshot()
 *    from reader threads while run() executes, exercising the
 *    double-buffered snapshot swap (scripts/check.sh runs this binary
 *    under TSan).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "fault/fault.hpp"
#include "golden_scenarios.hpp"
#include "sim/simulation.hpp"

namespace erms {
namespace {

using golden::buildFuzzWorkload;
using golden::dispatchFuzzDigest;
using golden::FuzzWorkload;

/** Back-to-back runs of one configuration must be byte-identical —
 *  catches any residual dependence on unordered-container iteration
 *  order or reused-allocation addresses. */
TEST(DispatchDeterminism, RepeatRunsAreByteIdentical)
{
    const std::string first = dispatchFuzzDigest(7);
    const std::string second = dispatchFuzzDigest(7);
    EXPECT_EQ(first, second);
}

/**
 * Pool-lifetime churn (the ASan pin for the stale-queue-entry hazard):
 * tight timeouts and hedges abandon attempts whose jobs are still
 * queued on containers that scale-in concurrently drains, so queues
 * accumulate stale (ctx, attempt) entries that popQueuedJob /
 * reassignQueue must skip via the slotOf(...) < 0 check — and must
 * never re-release. MinuteScratch::releaseCtx asserts on double
 * release, and under ASan (scripts/check.sh) any touch of a recycled
 * context beyond the pool's own storage faults immediately.
 */
TEST(PoolLifetime, StaleQueueEntriesSurviveScaleChurn)
{
    const FuzzWorkload w = buildFuzzWorkload(42);

    SimConfig config;
    config.hostCount = 4;
    config.horizonMinutes = 4;
    config.warmupMinutes = 0;
    config.containerStartupMs = 800.0;
    config.seed = 42;
    Simulation sim(w.catalog, config);

    FaultConfig faults;
    faults.crashesPerMinute = 4.0; // crashed containers drop queues
    faults.restartDelayMs = 1000.0;
    sim.setFaultConfig(faults);

    ResilienceConfig resilience;
    resilience.maxRetries = 2;
    resilience.timeoutMs = 4.0;   // abandon queued attempts aggressively
    resilience.hedgeDelayMs = 2.0; // duplicate attempts race everywhere
    sim.setResilienceConfig(resilience);

    for (std::size_t i = 0; i < w.graphs.size(); ++i) {
        ServiceWorkload svc;
        svc.id = w.serviceIds[i];
        svc.graph = w.graphs[i].get();
        svc.rate = 6000.0; // saturate the pools so queues stay deep
        sim.addService(svc);
    }
    for (MicroserviceId ms : w.microservices)
        sim.setContainerCount(ms, 2);

    // Whipsaw scaling: collapse to one container (drains with a full
    // queue → reassignQueue walks stale entries) then re-expand.
    sim.setMinuteCallback([ids = w.microservices](Simulation &s, int m) {
        for (MicroserviceId ms : ids)
            s.setContainerCount(ms, m % 2 == 0 ? 1 : 4);
    });

    sim.run();

    const SimMetrics &metrics = sim.metrics();
    EXPECT_GT(metrics.requestsCompleted, 0u);
    // The hazard paths must actually have fired for this pin to mean
    // anything: abandoned attempts, hedges, and crash-dropped queues.
    EXPECT_GT(metrics.faults.callTimeouts, 0u);
    EXPECT_GT(metrics.faults.hedgesLaunched, 0u);
    EXPECT_GT(metrics.faults.containerCrashes, 0u);
}

/**
 * Double-buffered snapshot path under concurrent readers (the TSan
 * target in scripts/check.sh): reader threads copy the published
 * front buffer while the simulation thread fills the back buffer and
 * swaps at minute boundaries. Sequence numbers must be monotone from
 * any single reader's perspective, and readers must never observe a
 * torn buffer (hosts vector sized to the cluster).
 */
TEST(SnapshotThreads, ConcurrentScrapesDuringRun)
{
    const FuzzWorkload w = buildFuzzWorkload(11);

    SimConfig config;
    config.hostCount = 4;
    config.horizonMinutes = 3;
    config.warmupMinutes = 0;
    config.seed = 11;
    Simulation sim(w.catalog, config);

    for (std::size_t i = 0; i < w.graphs.size(); ++i) {
        ServiceWorkload svc;
        svc.id = w.serviceIds[i];
        svc.graph = w.graphs[i].get();
        svc.rate = w.rates[i];
        sim.addService(svc);
    }
    for (MicroserviceId ms : w.microservices)
        sim.setContainerCount(ms, 2);
    sim.setMinuteCallback([ids = w.microservices](Simulation &s, int m) {
        for (MicroserviceId ms : ids)
            s.setContainerCount(ms, 1 + (m + static_cast<int>(ms)) % 3);
    });

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> lastSequence{0};
    std::atomic<bool> torn{false};
    auto reader = [&] {
        std::uint64_t prev = 0;
        while (!done.load(std::memory_order_acquire)) {
            const ClusterSnapshot snap = sim.clusterSnapshot();
            if (snap.sequence < prev)
                torn.store(true, std::memory_order_relaxed);
            prev = snap.sequence;
            if (snap.sequence > 0 &&
                snap.hosts.size() !=
                    static_cast<std::size_t>(config.hostCount))
                torn.store(true, std::memory_order_relaxed);
        }
        std::uint64_t seen = lastSequence.load();
        while (prev > seen &&
               !lastSequence.compare_exchange_weak(seen, prev)) {
        }
    };

    std::thread r1(reader), r2(reader);
    sim.run();
    done.store(true, std::memory_order_release);
    r1.join();
    r2.join();

    EXPECT_FALSE(torn.load());
    // run() publishes at every minute boundary, so readers racing a
    // 3-minute run must have observed at least one published snapshot.
    EXPECT_GE(sim.clusterSnapshot().sequence, 1u);
    EXPECT_GE(lastSequence.load(), 1u);
}

} // namespace
} // namespace erms
