/**
 * @file
 * Tests for the sharded execution layer (src/shard): partition
 * correctness and determinism, telemetry/cluster-snapshot/metrics
 * merging against whole-cluster references, coordinated minute
 * stepping, and the sharded coordinator's determinism contracts
 * (K=1 byte-identity, worker-count invariance, repeat-run identity).
 * The ShardCoordinator*Concurrent* tests also serve as the TSan target
 * for the coordinator's merge path (scripts/check.sh).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "apps/applications.hpp"
#include "common/rng.hpp"
#include "model/catalog.hpp"
#include "shard/merge.hpp"
#include "shard/partition.hpp"
#include "shard/sharded_sim.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/view.hpp"

namespace erms {
namespace {

using shard::ShardedSimConfig;
using shard::ShardedSimulation;
using shard::ShardPlan;
using shard::ShardSpec;

MicroserviceId
addSimpleMs(MicroserviceCatalog &catalog, const std::string &name,
            double base_ms = 5.0, int threads = 4)
{
    MicroserviceProfile profile;
    profile.name = name;
    profile.baseServiceMs = base_ms;
    profile.threadsPerContainer = threads;
    profile.serviceCv = 0.3;
    profile.cpuSlowdown = 1.0;
    profile.memSlowdown = 1.0;
    profile.networkMs = 0.1;
    return catalog.add(profile);
}

/** Three independent applications -> three partition components. */
struct ThreeComponentFixture
{
    MicroserviceCatalog catalog;
    Application hotel;
    Application shared;
    Application chain;
    std::vector<ServiceWorkload> services;

    ThreeComponentFixture()
        : hotel(makeHotelReservation(catalog, 0)),
          shared(makeMotivationShared(catalog, 100)),
          chain(makeMotivationChain(catalog, 200))
    {
        for (const Application *app : {&hotel, &shared, &chain}) {
            for (const DependencyGraph &graph : app->graphs) {
                ServiceWorkload svc;
                svc.id = graph.service();
                svc.graph = &graph;
                svc.slaMs = 50.0;
                svc.rate = 600.0;
                services.push_back(svc);
            }
        }
    }
};

// --------------------------------------------------------------------
// partition
// --------------------------------------------------------------------

TEST(ShardPartition, CoLocatesServicesSharingMicroservices)
{
    ThreeComponentFixture fx;
    const ShardPlan plan =
        shard::planShards(fx.services, 12, 3, /*base_seed=*/7);
    ASSERT_EQ(plan.shardCount, 3);

    // Every service pair sharing a microservice must map to one shard.
    for (const ServiceWorkload &a : fx.services) {
        for (const ServiceWorkload &b : fx.services) {
            bool share = false;
            for (MicroserviceId ms : a.graph->nodes())
                if (b.graph->contains(ms))
                    share = true;
            if (share) {
                EXPECT_EQ(plan.shardOfService.at(a.id),
                          plan.shardOfService.at(b.id));
            }
        }
    }
    // Hotel's four services form one component.
    const int hotel_shard =
        plan.shardOfService.at(fx.hotel.graphs[0].service());
    for (const DependencyGraph &graph : fx.hotel.graphs)
        EXPECT_EQ(plan.shardOfService.at(graph.service()), hotel_shard);
}

TEST(ShardPartition, HostSplitCoversFleetContiguously)
{
    ThreeComponentFixture fx;
    const ShardPlan plan = shard::planShards(fx.services, 17, 3, 7);
    int total = 0;
    int expected_offset = 0;
    for (const ShardSpec &spec : plan.shards) {
        EXPECT_GE(spec.hostCount, 1);
        EXPECT_EQ(spec.hostOffset, expected_offset);
        expected_offset += spec.hostCount;
        total += spec.hostCount;
    }
    EXPECT_EQ(total, 17);
}

TEST(ShardPartition, ClampsShardCountToComponents)
{
    ThreeComponentFixture fx;
    const ShardPlan plan = shard::planShards(fx.services, 16, 8, 7);
    EXPECT_EQ(plan.shardCount, 3); // only three components exist
    for (const ShardSpec &spec : plan.shards)
        EXPECT_FALSE(spec.services.empty());
}

TEST(ShardPartition, SeedRuleKeepsBaseForSingleShardDerivesOtherwise)
{
    ThreeComponentFixture fx;
    const ShardPlan single = shard::planShards(fx.services, 8, 1, 42);
    ASSERT_EQ(single.shardCount, 1);
    EXPECT_EQ(single.shards[0].seed, 42u);

    const ShardPlan multi = shard::planShards(fx.services, 8, 3, 42);
    ASSERT_EQ(multi.shardCount, 3);
    for (int k = 0; k < 3; ++k)
        EXPECT_EQ(multi.shards[k].seed,
                  deriveRunSeed(42, static_cast<std::uint64_t>(k)));
}

TEST(ShardPartition, PlanIsDeterministic)
{
    ThreeComponentFixture fx;
    const ShardPlan a = shard::planShards(fx.services, 12, 3, 7);
    const ShardPlan b = shard::planShards(fx.services, 12, 3, 7);
    ASSERT_EQ(a.shardCount, b.shardCount);
    for (int k = 0; k < a.shardCount; ++k) {
        EXPECT_EQ(a.shards[k].services, b.shards[k].services);
        EXPECT_EQ(a.shards[k].microservices, b.shards[k].microservices);
        EXPECT_EQ(a.shards[k].hostCount, b.shards[k].hostCount);
        EXPECT_EQ(a.shards[k].hostOffset, b.shards[k].hostOffset);
        EXPECT_EQ(a.shards[k].seed, b.shards[k].seed);
    }
}

TEST(ShardPartition, ShardsRequestedReadsEnvironment)
{
    unsetenv("ERMS_SHARDS");
    EXPECT_EQ(shard::shardsRequested(), 0);
    setenv("ERMS_SHARDS", "4", 1);
    EXPECT_EQ(shard::shardsRequested(), 4);
    setenv("ERMS_SHARDS", "0", 1);
    EXPECT_EQ(shard::shardsRequested(), 0);
    setenv("ERMS_SHARDS", "garbage", 1);
    EXPECT_EQ(shard::shardsRequested(), 0);
    unsetenv("ERMS_SHARDS");
}

// --------------------------------------------------------------------
// telemetry merge vs whole-cluster reference
// --------------------------------------------------------------------

/** Hand-built partition geometry for synthetic merge tests. */
ShardPlan
syntheticPlan(int shard_count, int hosts_per_shard)
{
    ShardPlan plan;
    plan.shardCount = shard_count;
    plan.shards.resize(shard_count);
    for (int k = 0; k < shard_count; ++k) {
        plan.shards[k].index = k;
        plan.shards[k].hostCount = hosts_per_shard;
        plan.shards[k].hostOffset = k * hosts_per_shard;
    }
    return plan;
}

/**
 * Record one randomized observation batch into a whole-cluster monitor
 * and, identically, into K shard monitors (hosts shard-local, services
 * and microservices routed to their owner). The merged shard snapshot
 * must equal the whole-cluster snapshot exactly.
 */
void
recordRandomObservations(Rng &rng, telemetry::SimMonitor &whole,
                         std::vector<telemetry::SimMonitor> &parts,
                         const ShardPlan &plan, int services_per_shard)
{
    const int shard_count = plan.shardCount;
    for (int k = 0; k < shard_count; ++k) {
        for (int s = 0; s < services_per_shard; ++s) {
            const ServiceId svc =
                static_cast<ServiceId>(k * services_per_shard + s);
            const MicroserviceId ms = static_cast<MicroserviceId>(svc);
            const int arrivals = 1 + static_cast<int>(rng.next() % 40);
            for (int a = 0; a < arrivals; ++a) {
                whole.onRequestArrival(svc);
                parts[k].onRequestArrival(svc);
                const double latency = 1.0 + 80.0 * rng.uniform();
                const bool violated = latency > 40.0;
                const bool sampled = (rng.next() & 3) == 0;
                whole.onRequestComplete(svc, latency, violated, sampled);
                parts[k].onRequestComplete(svc, latency, violated,
                                           sampled);
                whole.onMicroserviceLatency(ms, latency * 0.5, sampled);
                parts[k].onMicroserviceLatency(ms, latency * 0.5,
                                               sampled);
            }
            whole.recordDeployment(ms, 2 + s, arrivals % 5, s);
            parts[k].recordDeployment(ms, 2 + s, arrivals % 5, s);
        }
        for (int h = 0; h < plan.shards[k].hostCount; ++h) {
            const double cpu = rng.uniform();
            const double mem = rng.uniform();
            const HostId global =
                static_cast<HostId>(plan.shards[k].hostOffset + h);
            whole.recordHostUtil(global, cpu, mem);
            parts[k].recordHostUtil(static_cast<HostId>(h), cpu, mem);
        }
    }
}

TEST(ShardMerge, MergedSnapshotEqualsWholeClusterSnapshot)
{
    // 20 randomized catalogs: the merge must reproduce the snapshot a
    // single monitor observing every shard would have taken.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const ShardPlan plan = syntheticPlan(3, 4);
        telemetry::SimMonitor whole;
        std::vector<telemetry::SimMonitor> parts(3);
        Rng rng(seed);
        recordRandomObservations(rng, whole, parts, plan, 2);

        const SimTime at = 30'000'000;
        whole.takeSnapshot(at);
        std::vector<telemetry::TelemetrySnapshot> generation;
        for (auto &part : parts) {
            part.takeSnapshot(at);
            generation.push_back(part.snapshots().back());
        }
        const telemetry::TelemetrySnapshot merged =
            shard::mergeTelemetrySnapshots(generation, plan);
        EXPECT_EQ(merged, whole.snapshots().back())
            << "seed " << seed;
    }
}

TEST(ShardMerge, MergedViewAnswersMatchWholeViewAcrossShardCounts)
{
    // The same observation stream split into K in {2, 3} partitions
    // must give controllers identical merged answers — the shard count
    // is invisible in the merged view.
    for (int shard_count : {2, 3}) {
        const int hosts_per_shard = 12 / shard_count;
        const ShardPlan plan = syntheticPlan(shard_count, hosts_per_shard);
        const int services_per_shard = 6 / shard_count;
        telemetry::SimMonitor whole;
        std::vector<telemetry::SimMonitor> parts(shard_count);
        Rng rng(99);

        shard::ShardedTelemetryView merged_view;
        for (int scrape = 0; scrape < 3; ++scrape) {
            recordRandomObservations(rng, whole, parts, plan,
                                     services_per_shard);
            const SimTime at =
                static_cast<SimTime>(scrape + 1) * 30'000'000;
            whole.takeSnapshot(at);
            std::vector<telemetry::TelemetrySnapshot> generation;
            for (auto &part : parts) {
                part.takeSnapshot(at);
                generation.push_back(part.snapshots().back());
            }
            merged_view.append(
                shard::mergeTelemetrySnapshots(generation, plan));
        }

        const telemetry::ScrapedTelemetryView whole_view(whole);
        for (ServiceId svc = 0; svc < 6; ++svc) {
            EXPECT_EQ(merged_view.observedRate(svc),
                      whole_view.observedRate(svc));
            EXPECT_EQ(merged_view.serviceP95Ms(svc),
                      whole_view.serviceP95Ms(svc));
            EXPECT_EQ(merged_view.microserviceTailMs(svc),
                      whole_view.microserviceTailMs(svc));
            EXPECT_EQ(merged_view.containerCount(svc),
                      whole_view.containerCount(svc));
        }
        EXPECT_EQ(merged_view.clusterInterference().cpuUtil,
                  whole_view.clusterInterference().cpuUtil);
        EXPECT_EQ(merged_view.clusterInterference().memUtil,
                  whole_view.clusterInterference().memUtil);
        EXPECT_EQ(merged_view.stalenessMs(120'000'000),
                  whole_view.stalenessMs(120'000'000));
    }
}

TEST(ShardMerge, MetricsMergeAddsDisjointShards)
{
    SimMetrics a;
    a.endToEndMs[1].add(10.0);
    a.endToEndMs[1].add(20.0);
    a.requestsGenerated = 5;
    a.requestsCompleted = 4;
    a.eventsDispatched = 100;
    a.faults.containerCrashes = 2;
    SimMetrics b;
    b.endToEndMs[2].add(30.0);
    b.requestsGenerated = 7;
    b.requestsCompleted = 6;
    b.eventsDispatched = 50;
    b.faults.containerCrashes = 1;

    const SimMetrics merged = shard::mergeMetrics({&a, &b});
    EXPECT_EQ(merged.requestsGenerated, 12u);
    EXPECT_EQ(merged.requestsCompleted, 10u);
    EXPECT_EQ(merged.eventsDispatched, 150u);
    EXPECT_EQ(merged.faults.containerCrashes, 3u);
    EXPECT_EQ(merged.endToEndMs.at(1).count(), 2u);
    EXPECT_EQ(merged.endToEndMs.at(2).count(), 1u);
}

// --------------------------------------------------------------------
// coordinated stepping (Simulation-level)
// --------------------------------------------------------------------

struct SoloScenario
{
    MicroserviceCatalog catalog;
    MicroserviceId ms;
    DependencyGraph graph;

    SoloScenario() : ms(addSimpleMs(catalog, "solo")), graph(0, ms) {}

    void
    attach(Simulation &sim) const
    {
        ServiceWorkload svc;
        svc.id = 0;
        svc.graph = &graph;
        svc.slaMs = 40.0;
        svc.rate = 900.0;
        sim.addService(svc);
        sim.setContainerCount(ms, 2);
    }
};

SimConfig
soloConfig()
{
    SimConfig config;
    config.hostCount = 4;
    config.horizonMinutes = 4;
    config.warmupMinutes = 1;
    config.seed = 11;
    return config;
}

TEST(CoordinatedStepping, PausesEveryMinuteThenReportsHorizon)
{
    SoloScenario scenario;
    Simulation sim(scenario.catalog, soloConfig());
    scenario.attach(sim);
    sim.setCoordinatedPause(true);
    sim.beginRun();
    EXPECT_EQ(sim.pausedMinute(), -1);

    std::vector<int> pauses;
    while (true) {
        const int minute = sim.advanceToMinuteBoundary();
        if (minute < 0)
            break;
        EXPECT_EQ(sim.pausedMinute(), minute);
        pauses.push_back(minute);
    }
    EXPECT_EQ(pauses, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(sim.pausedMinute(), -1);
}

TEST(CoordinatedStepping, SteppedRunMatchesPlainRunByteForByte)
{
    SoloScenario scenario;
    Simulation plain(scenario.catalog, soloConfig());
    scenario.attach(plain);
    plain.run();

    Simulation stepped(scenario.catalog, soloConfig());
    scenario.attach(stepped);
    stepped.setCoordinatedPause(true);
    stepped.beginRun();
    while (stepped.advanceToMinuteBoundary() >= 0) {
    }

    EXPECT_EQ(plain.metrics().requestsGenerated,
              stepped.metrics().requestsGenerated);
    EXPECT_EQ(plain.metrics().requestsCompleted,
              stepped.metrics().requestsCompleted);
    EXPECT_EQ(plain.metrics().eventsDispatched,
              stepped.metrics().eventsDispatched);
    EXPECT_EQ(plain.metrics().p95(0), stepped.metrics().p95(0));
}

TEST(CoordinatedStepping, DeferredCallbackLandsAtInlinePosition)
{
    // A minute callback that rescales mid-run must produce the same
    // bytes whether it runs inline (plain run) or deferred to the
    // coordinator's resume (coordinated stepping) — the event-sequence
    // position of controller actions is part of the K=1 contract.
    SoloScenario scenario;
    const MicroserviceId ms = scenario.ms;
    auto controller = [ms](Simulation &sim, int minute) {
        if (minute == 1)
            sim.setContainerCount(ms, 4);
    };

    Simulation plain(scenario.catalog, soloConfig());
    scenario.attach(plain);
    plain.setMinuteCallback(controller);
    plain.run();

    Simulation stepped(scenario.catalog, soloConfig());
    scenario.attach(stepped);
    stepped.setMinuteCallback(controller);
    stepped.setCoordinatedPause(true);
    stepped.beginRun();
    while (stepped.advanceToMinuteBoundary() >= 0) {
    }

    EXPECT_EQ(plain.metrics().requestsGenerated,
              stepped.metrics().requestsGenerated);
    EXPECT_EQ(plain.metrics().requestsCompleted,
              stepped.metrics().requestsCompleted);
    EXPECT_EQ(plain.metrics().eventsDispatched,
              stepped.metrics().eventsDispatched);
    EXPECT_EQ(plain.metrics().p95(0), stepped.metrics().p95(0));
    EXPECT_EQ(plain.containerCount(ms), stepped.containerCount(ms));
}

// --------------------------------------------------------------------
// sharded coordinator
// --------------------------------------------------------------------

ShardedSimConfig
fixtureConfig(int shards, int workers = 0)
{
    ShardedSimConfig config;
    config.base.hostCount = 12;
    config.base.horizonMinutes = 4;
    config.base.warmupMinutes = 1;
    config.base.seed = 21;
    config.shards = shards;
    config.runner.workers = workers;
    return config;
}

void
deployAll(const ThreeComponentFixture &fx, ShardedSimulation &sim)
{
    for (const ServiceWorkload &svc : fx.services)
        sim.addService(svc);
    for (const ServiceWorkload &svc : fx.services)
        for (MicroserviceId ms : svc.graph->nodes())
            sim.setContainerCount(ms, 2);
}

/** Observable digest of one sharded run for bitwise comparison. */
std::vector<double>
runDigest(const ThreeComponentFixture &fx, const SimMetrics &metrics)
{
    std::vector<double> digest;
    for (const ServiceWorkload &svc : fx.services) {
        digest.push_back(metrics.p95(svc.id));
        digest.push_back(metrics.violationRate(svc.id, svc.slaMs));
    }
    digest.push_back(static_cast<double>(metrics.requestsGenerated));
    digest.push_back(static_cast<double>(metrics.requestsCompleted));
    return digest;
}

TEST(ShardCoordinator, SingleShardMatchesUnshardedByteForByte)
{
    ThreeComponentFixture fx;

    SimConfig direct_config = fixtureConfig(1).base;
    Simulation direct(fx.catalog, direct_config);
    for (const ServiceWorkload &svc : fx.services)
        direct.addService(svc);
    for (const ServiceWorkload &svc : fx.services)
        for (MicroserviceId ms : svc.graph->nodes())
            direct.setContainerCount(ms, 2);
    direct.run();

    ThreeComponentFixture fx2;
    ShardedSimulation sharded(fx2.catalog, fixtureConfig(1));
    deployAll(fx2, sharded);
    sharded.run();

    EXPECT_EQ(direct.metrics().requestsGenerated,
              sharded.metrics().requestsGenerated);
    EXPECT_EQ(direct.metrics().requestsCompleted,
              sharded.metrics().requestsCompleted);
    EXPECT_EQ(direct.metrics().eventsDispatched,
              sharded.eventsDispatched());
    for (const ServiceWorkload &svc : fx.services)
        EXPECT_EQ(direct.metrics().p95(svc.id),
                  sharded.metrics().p95(svc.id));
}

TEST(ShardCoordinator, MergedResultInvariantAcrossWorkerCounts)
{
    ThreeComponentFixture fx1, fx3;
    ShardedSimulation serial(fx1.catalog, fixtureConfig(3, 1));
    deployAll(fx1, serial);
    serial.run();

    ShardedSimulation parallel(fx3.catalog, fixtureConfig(3, 3));
    deployAll(fx3, parallel);
    parallel.run();

    EXPECT_EQ(runDigest(fx1, serial.metrics()),
              runDigest(fx3, parallel.metrics()));
    EXPECT_EQ(serial.eventsDispatched(), parallel.eventsDispatched());
}

TEST(ShardCoordinator, RepeatRunsAreByteIdentical)
{
    ThreeComponentFixture fx1, fx2;
    ShardedSimulation first(fx1.catalog, fixtureConfig(3));
    deployAll(fx1, first);
    first.run();
    ShardedSimulation second(fx2.catalog, fixtureConfig(3));
    deployAll(fx2, second);
    second.run();
    EXPECT_EQ(runDigest(fx1, first.metrics()),
              runDigest(fx2, second.metrics()));
    EXPECT_EQ(first.eventsDispatched(), second.eventsDispatched());
}

TEST(ShardCoordinator, MergedClusterSnapshotCoversAllHostsAndDeployments)
{
    ThreeComponentFixture fx;
    ShardedSimulation sim(fx.catalog, fixtureConfig(3));
    deployAll(fx, sim);
    sim.run();

    const ClusterSnapshot snap = sim.clusterSnapshot();
    EXPECT_GT(snap.sequence, 0u);
    ASSERT_EQ(snap.hosts.size(), 12u);
    for (std::size_t h = 0; h < snap.hosts.size(); ++h)
        EXPECT_EQ(snap.hosts[h].id, static_cast<HostId>(h));
    std::size_t distinct = 0;
    for (const ServiceWorkload &svc : fx.services)
        distinct += svc.graph->nodes().size();
    // Deployments cover every deployed microservice exactly once.
    std::vector<MicroserviceId> seen;
    for (const auto &dep : snap.deployments) {
        EXPECT_GT(dep.live, 0);
        seen.push_back(dep.ms);
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) ==
                seen.end());
}

TEST(ShardCoordinator, ShardControllersScaleOwnedMicroservices)
{
    ThreeComponentFixture fx;
    ShardedSimulation sim(fx.catalog, fixtureConfig(3));
    deployAll(fx, sim);

    // Each shard's controller doubles its first owned root at minute 1.
    std::vector<MicroserviceId> roots;
    for (int k = 0; k < sim.shardCount(); ++k) {
        const ShardSpec &spec = sim.shardPlan().shards[k];
        const MicroserviceId root =
            fx.services[spec.services.front()].graph->root();
        roots.push_back(root);
        sim.setShardMinuteController(
            k, [root](Simulation &shard_sim, int minute) {
                if (minute == 1)
                    shard_sim.setContainerCount(root, 4);
            });
    }
    sim.run();
    for (MicroserviceId root : roots)
        EXPECT_EQ(sim.containerCount(root), 4);
}

/**
 * TSan target: shard minute controllers on concurrent workers all read
 * the shared merged telemetry view while the coordinator grows it
 * between rounds. Any missing synchronization in the merge path or the
 * view surfaces as a data-race report under scripts/check.sh's TSan
 * pass.
 */
TEST(ShardCoordinator, ConcurrentControllersReadMergedViewSafely)
{
    ThreeComponentFixture fx;
    ShardedSimConfig config = fixtureConfig(3, 3);
    config.telemetry = true;
    ShardedSimulation sim(fx.catalog, config);
    deployAll(fx, sim);

    auto view = sim.mergedView();
    ASSERT_NE(view, nullptr);
    std::vector<double> observed(sim.shardCount(), 0.0);
    for (int k = 0; k < sim.shardCount(); ++k) {
        const ShardSpec &spec = sim.shardPlan().shards[k];
        const ServiceId svc = fx.services[spec.services.front()].id;
        double *sink = &observed[k];
        sim.setShardMinuteController(
            k, [view, svc, sink](Simulation &shard_sim, int) {
                *sink += view->observedRate(svc);
                *sink += view->clusterInterference().cpuUtil;
                *sink += view->stalenessMs(shard_sim.now());
            });
    }
    sim.run();
    for (double value : observed)
        EXPECT_GT(value, 0.0); // staleness alone is positive
}

TEST(ShardCoordinator, MergedTelemetryViewSeesEveryShardsTraffic)
{
    ThreeComponentFixture fx;
    ShardedSimConfig config = fixtureConfig(3);
    config.telemetry = true;
    ShardedSimulation sim(fx.catalog, config);
    deployAll(fx, sim);
    auto view = sim.mergedView();
    sim.run();

    // After the run the merged view must report a positive observed
    // rate for a service of EVERY shard — cross-shard visibility.
    for (int k = 0; k < sim.shardCount(); ++k) {
        const ShardSpec &spec = sim.shardPlan().shards[k];
        const ServiceId svc = fx.services[spec.services.front()].id;
        EXPECT_GT(view->observedRate(svc), 0.0)
            << "shard " << k << " traffic missing from merged view";
    }
}

} // namespace
} // namespace erms
