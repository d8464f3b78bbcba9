/**
 * @file
 * Chaos-campaign suite (docs/chaos_campaigns.md): determinism and
 * distinctness of the correlated AZ-event schedule, the one-schedule
 * correlation contract between the data and telemetry fault planes,
 * per-series corruption semantics (only the targeted service's counter
 * series lie), the FaultyTelemetryView cache-idempotence regression,
 * campaign run determinism, archive -> replay byte-identity, and the
 * clean-stream equivalence of guarded baseline controllers.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "apps/applications.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/controllers.hpp"
#include "core/erms.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "fault/telemetry_fault.hpp"
#include "sim/simulation.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/view.hpp"

namespace erms {
namespace {

using telemetry::SeriesSnapshot;
using telemetry::SimMonitor;
using telemetry::TelemetrySnapshot;

constexpr SimTime kSecondUs = 1000ULL * 1000ULL;
constexpr SimTime kMinuteUs = 60ULL * kSecondUs;

/** Bit-pattern double equality (NaN-proof, distinguishes -0.0). */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/** Bit-exact equality of two campaign trajectory rows. */
bool
sameMinute(const CampaignMinute &a, const CampaignMinute &b)
{
    return a.minute == b.minute && a.containers == b.containers &&
           sameBits(a.violationPct, b.violationPct) &&
           sameBits(a.worstP95Ms, b.worstP95Ms) &&
           a.guardMode == b.guardMode;
}

/** Monitor fixture: scrapes of a two-service cluster with counters,
 *  histograms, and host gauges all advancing. */
void
fillBusyMonitor(SimMonitor &monitor, int scrapes = 6)
{
    std::uint64_t spans = 0;
    for (int scrape = 0; scrape < scrapes; ++scrape) {
        for (int i = 0; i < 200 + 40 * scrape; ++i) {
            monitor.onRequestArrival(0);
            monitor.onRequestArrival(1);
            const bool sampled = ++spans % 10 == 0;
            monitor.onRequestComplete(0, 15.0 + scrape, false, sampled);
            monitor.onRequestComplete(1, 60.0 + scrape, false, sampled);
            monitor.onMicroserviceLatency(3, 8.0 + scrape, sampled);
        }
        monitor.recordHostUtil(0, 0.3 + 0.01 * scrape, 0.4);
        monitor.recordHostUtil(1, 0.5, 0.6);
        monitor.recordDeployment(3, 10 + scrape, 2, 8);
        monitor.takeSnapshot(static_cast<SimTime>(scrape) * 30 *
                             kSecondUs);
    }
}

/** Is this series a counter of the given service (the corruptor's
 *  targeting rule)? */
bool
isServiceCounter(const SeriesSnapshot &s, ServiceId service)
{
    if (s.kind != telemetry::MetricKind::Counter)
        return false;
    const std::string target = std::to_string(service);
    for (const auto &[key, value] : s.labels)
        if (key == "service")
            return value == target;
    return false;
}

/**
 * A shrunk battery arm for fast in-suite runs: same fault planes and
 * corruption as the named intensity, smaller population and horizon.
 * runCampaign is a pure function of the config, so every contract the
 * suite pins on the quick arm holds verbatim for the full-size one.
 */
CampaignConfig
quickArm(const std::string &intensity, const std::string &controller,
         bool guarded)
{
    CampaignConfig config = makeCampaignArm(intensity, controller, guarded);
    config.horizonMinutes = 6;
    config.hostCount = 10;
    config.trace.microserviceCount = 24;
    config.trace.serviceCount = 2;
    config.trace.workloadLow = 30000.0;
    config.trace.workloadHigh = 40000.0;
    return config;
}

// ---------------------------------------------------------------------
// Correlated AZ-event schedule
// ---------------------------------------------------------------------

TEST(CampaignAzSchedule, DeterministicAndDistinctOver20Seeds)
{
    const SimTime horizon = 10 * kMinuteUs;
    std::set<std::vector<SimTime>> distinct;
    for (std::uint64_t i = 0; i < 20; ++i) {
        AzEventConfig config;
        config.seed = deriveRunSeed(0xa25e, i);
        config.eventsPerMinute = 0.7;
        config.eventDurationMs = 100000.0;
        config.scrapeDropProbability = 0.8;

        const std::vector<AzEvent> a = buildAzEventSchedule(config, horizon);
        const std::vector<AzEvent> b = buildAzEventSchedule(config, horizon);
        ASSERT_EQ(a.size(), b.size());
        std::vector<SimTime> starts;
        for (std::size_t e = 0; e < a.size(); ++e) {
            EXPECT_EQ(a[e].start, b[e].start);
            EXPECT_EQ(a[e].end, b[e].end);
            EXPECT_EQ(a[e].az, b[e].az);
            EXPECT_LT(a[e].start, horizon);
            EXPECT_GT(a[e].end, a[e].start);
            EXPECT_GE(a[e].az, 0);
            EXPECT_LT(a[e].az, config.azCount);
            starts.push_back(a[e].start);
        }
        distinct.insert(starts);
    }
    EXPECT_GT(distinct.size(), 15u);
}

TEST(CampaignAzSchedule, BothFaultPlanesShareOneSchedule)
{
    // One AzEventConfig assigned verbatim to both planes yields the
    // same (start, end, host) windows on each — host stragglers on the
    // data plane, gauge blackouts on the telemetry plane — even though
    // the two planes use unrelated plane seeds.
    const int hosts = 12;
    const SimTime horizon = 8 * kMinuteUs;
    AzEventConfig az;
    az.seed = deriveRunSeed(0xa25e, 3);
    az.eventsPerMinute = 0.8;
    az.eventDurationMs = 90000.0;
    az.scrapeDropProbability = 0.5;

    FaultConfig data;
    data.seed = 111; // unrelated plane seeds on purpose
    data.azEvents = az;
    TelemetryFaultConfig scrape;
    scrape.seed = 222;
    scrape.azEvents = az;

    const FaultSchedule data_schedule =
        buildFaultSchedule(data, hosts, horizon);
    const TelemetryFaultSchedule scrape_schedule =
        buildTelemetryFaultSchedule(scrape, hosts, horizon);

    const std::vector<AzEvent> events = buildAzEventSchedule(az, horizon);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(scrape_schedule.azEvents.size(), events.size());

    using Window = std::tuple<SimTime, SimTime, HostId>;
    std::set<Window> expected;
    for (const AzEvent &event : events)
        for (HostId host = 0; host < hosts; ++host)
            if (azOfHost(host, az.azCount) == event.az)
                expected.insert({event.start, event.end, host});

    std::set<Window> data_windows;
    for (const SlowdownWindow &w : data_schedule.slowdowns)
        data_windows.insert({w.start, w.end, w.host});
    std::set<Window> scrape_windows;
    for (const BlackoutWindow &w : scrape_schedule.blackouts)
        scrape_windows.insert({w.start, w.end, w.host});

    EXPECT_EQ(data_windows, expected);
    EXPECT_EQ(scrape_windows, expected);
}

// ---------------------------------------------------------------------
// Per-series corruption
// ---------------------------------------------------------------------

TEST(CampaignCorruption, OnlyTargetServiceCounterSeriesLie)
{
    SimMonitor monitor;
    fillBusyMonitor(monitor);
    const std::vector<TelemetrySnapshot> &honest = monitor.snapshots();
    ASSERT_FALSE(honest.empty());

    // The fixture must actually contain target and bystander counters,
    // or the test would pass vacuously.
    std::size_t targeted = 0, bystanders = 0;
    for (const SeriesSnapshot &s : honest.back().series) {
        if (isServiceCounter(s, 0))
            ++targeted;
        else
            ++bystanders;
    }
    ASSERT_GT(targeted, 0u);
    ASSERT_GT(bystanders, 0u);

    for (const auto mode : {SeriesCorruptionConfig::Mode::Scaled,
                            SeriesCorruptionConfig::Mode::Frozen,
                            SeriesCorruptionConfig::Mode::Negated}) {
        SeriesCorruptionConfig config;
        config.mode = mode;
        config.service = 0;
        config.scale = 0.5;
        const SeriesCorruptor corruptor(config);
        const std::vector<TelemetrySnapshot> lying =
            corruptor.corrupt(honest);
        ASSERT_EQ(lying.size(), honest.size());

        for (std::size_t i = 0; i < honest.size(); ++i) {
            ASSERT_EQ(lying[i].series.size(), honest[i].series.size());
            EXPECT_EQ(lying[i].at, honest[i].at);
            for (std::size_t s = 0; s < honest[i].series.size(); ++s) {
                const SeriesSnapshot &truth = honest[i].series[s];
                const SeriesSnapshot &seen = lying[i].series[s];
                if (!isServiceCounter(truth, 0)) {
                    // Bystanders — every other series of every other
                    // service — stay bit-identical.
                    EXPECT_TRUE(seen == truth);
                    continue;
                }
                const std::uint64_t anchor =
                    honest.front().series[s].counterValue;
                switch (mode) {
                case SeriesCorruptionConfig::Mode::Scaled:
                    EXPECT_EQ(seen.counterValue,
                              static_cast<std::uint64_t>(
                                  static_cast<double>(truth.counterValue) *
                                  0.5));
                    break;
                case SeriesCorruptionConfig::Mode::Frozen:
                    EXPECT_EQ(seen.counterValue, anchor);
                    break;
                case SeriesCorruptionConfig::Mode::Negated: {
                    const std::uint64_t progress =
                        truth.counterValue - anchor;
                    EXPECT_EQ(seen.counterValue,
                              anchor > progress ? anchor - progress : 0u);
                    break;
                }
                case SeriesCorruptionConfig::Mode::None:
                    break;
                }
            }
        }
    }

    // Mode::None passes the stream through untouched.
    const SeriesCorruptor none{SeriesCorruptionConfig{}};
    const std::vector<TelemetrySnapshot> passthrough =
        none.corrupt(honest);
    ASSERT_EQ(passthrough.size(), honest.size());
    for (std::size_t i = 0; i < honest.size(); ++i)
        EXPECT_TRUE(passthrough[i] == honest[i]);
}

// ---------------------------------------------------------------------
// FaultyTelemetryView cache idempotence (regression)
// ---------------------------------------------------------------------

TEST(CampaignFaultyViewCache, IdempotentAndQueryPatternIndependent)
{
    // The perturbed-snapshot cache is keyed on the monitor's scrape
    // count alone. Two views over the same monitor — one queried at
    // every intermediate scrape generation, one never queried until
    // the end — must expose bit-identical perturbed histories, and
    // re-querying the same generation must return identical bits.
    TelemetryFaultConfig faults;
    faults.seed = deriveRunSeed(0x0b5e, 9);
    faults.scrapeDropProbability = 0.3;
    faults.scrapeDelayProbability = 0.3;
    faults.counterDropProbability = 0.25;
    faults.outlierProbability = 0.25;
    faults.blackoutsPerMinute = 2.0;
    SeriesCorruptionConfig corruption;
    corruption.mode = SeriesCorruptionConfig::Mode::Frozen;
    corruption.service = 1;

    SimMonitor monitor;
    const FaultyTelemetryView chatty(monitor, faults, 4, 10 * kMinuteUs,
                                     corruption);
    const FaultyTelemetryView quiet(monitor, faults, 4, 10 * kMinuteUs,
                                    corruption);

    for (int scrape = 1; scrape <= 8; ++scrape) {
        fillBusyMonitor(monitor, 1);
        // Hammer the chatty view at every generation — twice, so the
        // second query replays the cached generation.
        const double rate_once = chatty.observedRate(0);
        const double rate_twice = chatty.observedRate(0);
        EXPECT_TRUE(sameBits(rate_once, rate_twice));
        chatty.serviceP95Ms(1);
        chatty.microserviceTailMs(3);
        chatty.stalenessMs(static_cast<SimTime>(scrape) * kMinuteUs);
    }

    const std::vector<TelemetrySnapshot> &warm = chatty.perturbedHistory();
    const std::vector<TelemetrySnapshot> &cold = quiet.perturbedHistory();
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < warm.size(); ++i)
        EXPECT_TRUE(warm[i] == cold[i]) << "scrape " << i;

    // Idempotence at the final generation as well.
    EXPECT_TRUE(chatty.perturbedHistory() == chatty.perturbedHistory());
}

// ---------------------------------------------------------------------
// Battery arms
// ---------------------------------------------------------------------

TEST(CampaignArms, SeedsDeriveFromIntensityAlone)
{
    // Every controller arm of one intensity faces the identical
    // workload and fault schedule: seeds never depend on the
    // controller name or the guarded flag.
    const CampaignConfig a = makeCampaignArm("med", "erms", false);
    const CampaignConfig b = makeCampaignArm("med", "rhythm", true);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.faults.seed, b.faults.seed);
    EXPECT_EQ(a.telemetryFaults.seed, b.telemetryFaults.seed);
    EXPECT_EQ(a.faults.azEvents.seed, b.faults.azEvents.seed);
    EXPECT_EQ(a.trace.seed, b.trace.seed);
    EXPECT_EQ(b.controller, "rhythm");
    EXPECT_TRUE(b.guarded);

    // The correlation contract: one AzEventConfig on both planes.
    EXPECT_EQ(a.faults.azEvents.seed, a.telemetryFaults.azEvents.seed);
    EXPECT_TRUE(a.faults.azEvents.active());

    const CampaignConfig high = makeCampaignArm("high", "erms", false);
    EXPECT_NE(high.seed, a.seed);
    EXPECT_NE(high.faults.azEvents.seed, a.faults.azEvents.seed);

    const CampaignConfig off = makeCampaignArm("off", "grandslam", true);
    EXPECT_FALSE(off.faults.anyFaults());
    EXPECT_FALSE(off.telemetryFaults.anyFaults());
    EXPECT_FALSE(off.corruption.active());

    EXPECT_THROW(makeCampaignArm("extreme", "erms", false), ErmsError);
}

// ---------------------------------------------------------------------
// Campaign determinism and archive -> replay
// ---------------------------------------------------------------------

TEST(CampaignRun, DeterministicAcrossReruns)
{
    const CampaignConfig config = quickArm("med", "erms", true);
    const CampaignResult a = runCampaign(config);
    const CampaignResult b = runCampaign(config);

    ASSERT_EQ(a.minutes.size(), b.minutes.size());
    ASSERT_EQ(a.minutes.size(),
              static_cast<std::size_t>(config.horizonMinutes));
    for (std::size_t i = 0; i < a.minutes.size(); ++i)
        EXPECT_TRUE(sameMinute(a.minutes[i], b.minutes[i]))
            << "minute " << i;
    EXPECT_TRUE(sameBits(a.violationPct, b.violationPct));
    EXPECT_TRUE(sameBits(a.containerMinutes, b.containerMinutes));
    ASSERT_EQ(a.perturbedHistory.size(), b.perturbedHistory.size());
    for (std::size_t i = 0; i < a.perturbedHistory.size(); ++i)
        EXPECT_TRUE(a.perturbedHistory[i] == b.perturbedHistory[i]);
}

TEST(CampaignArchive, ReplayIsByteIdenticalFromTheArtifactAlone)
{
    const CampaignConfig config = quickArm("med", "erms", true);
    const CampaignResult result = runCampaign(config);
    const std::string archive = archiveCampaign(config, result);

    const CampaignReplay replay = replayCampaign(archive);
    EXPECT_EQ(replay.config.controller, "erms");
    EXPECT_TRUE(replay.config.guarded);
    EXPECT_EQ(replay.config.seed, config.seed);
    EXPECT_EQ(replay.config.corruption.mode, config.corruption.mode);
    ASSERT_EQ(replay.archivedMinutes.size(), result.minutes.size());
    EXPECT_EQ(replay.archivedScrapes, result.perturbedHistory.size());
    EXPECT_TRUE(replay.minutesIdentical);
    EXPECT_TRUE(replay.historyIdentical);
    EXPECT_TRUE(replay.identical());
}

TEST(CampaignArchive, ReplayCoversHighIntensityNaiveBaselines)
{
    // "high" sets every telemetry-fault knob the archive serializes
    // (counter drops, outliers, blackouts, Frozen corruption), so this
    // round trip exercises the full config schema on a naive baseline.
    const CampaignConfig config = quickArm("high", "grandslam", false);
    const CampaignResult result = runCampaign(config);
    const CampaignReplay replay = replayCampaign(
        archiveCampaign(config, result));
    EXPECT_EQ(replay.config.controller, "grandslam");
    EXPECT_FALSE(replay.config.guarded);
    EXPECT_EQ(replay.config.telemetryFaults.blackoutsPerMinute,
              config.telemetryFaults.blackoutsPerMinute);
    EXPECT_TRUE(replay.identical());
}

TEST(CampaignArchive, MalformedDocumentThrows)
{
    EXPECT_THROW(replayCampaign("not json at all"), ErmsError);
    EXPECT_THROW(replayCampaign("{\"campaign\": {}}"), ErmsError);
}

// ---------------------------------------------------------------------
// Guarded baselines: clean-stream equivalence
// ---------------------------------------------------------------------

struct BaselineRunResult
{
    std::uint64_t requestsCompleted = 0;
    std::vector<double> latencies;
    std::vector<int> containerTrajectory;
};

/** Smooth 4-minute scenario: honest scrapes, steady workload. Any
 *  guard intervention here would be a transparency bug. */
BaselineRunResult
runBaselineDynamic(const MicroserviceCatalog &catalog,
                   const Application &app, const std::string &name,
                   bool guarded, std::uint64_t seed)
{
    SimConfig config;
    config.horizonMinutes = 4;
    config.warmupMinutes = 1;
    config.seed = seed;
    Simulation sim(catalog, config);
    auto monitor = std::make_shared<SimMonitor>();
    sim.setMonitor(monitor.get());
    auto base =
        std::make_shared<telemetry::ScrapedTelemetryView>(*monitor);

    std::vector<ServiceSpec> services;
    std::vector<MicroserviceId> managed;
    for (const auto &graph : app.graphs) {
        ServiceWorkload svc;
        svc.id = graph.service();
        svc.graph = &graph;
        svc.slaMs = 300.0;
        svc.rate = 6000.0;
        sim.addService(svc);
        ServiceSpec spec;
        spec.id = graph.service();
        spec.graph = &graph;
        spec.slaMs = 300.0;
        spec.workload = 6000.0;
        services.push_back(spec);
        for (MicroserviceId id : graph.nodes())
            managed.push_back(id);
    }
    const ErmsController planner(catalog, ErmsConfig{});
    sim.applyPlan(planner.plan(services, Interference{0.2, 0.2}));

    std::function<void(Simulation &, int)> scaling;
    if (guarded) {
        auto guard =
            std::make_shared<telemetry::GuardedTelemetryView>(base);
        scaling = makeGuardedController(
            makeControllerByName(name, catalog, services, guard), guard,
            managed);
    } else {
        scaling = makeControllerByName(name, catalog, services, base);
    }

    BaselineRunResult result;
    sim.setMinuteCallback([&](Simulation &s, int minute) {
        scaling(s, minute);
        int total = 0;
        for (MicroserviceId id : managed)
            total += s.containerCount(id);
        result.containerTrajectory.push_back(total);
    });
    sim.run();

    result.requestsCompleted = sim.metrics().requestsCompleted;
    for (const auto &graph : app.graphs) {
        auto it = sim.metrics().endToEndMs.find(graph.service());
        if (it == sim.metrics().endToEndMs.end())
            continue;
        result.latencies.insert(result.latencies.end(),
                                it->second.samples().begin(),
                                it->second.samples().end());
    }
    return result;
}

TEST(CampaignBaselineTransparency, GuardedMatchesNaiveOnCalendarEngine)
{
    MicroserviceCatalog catalog;
    const Application app = makeMotivationShared(catalog, 0);
    for (const std::string name : {"grandslam", "rhythm", "firm"}) {
        const BaselineRunResult naive =
            runBaselineDynamic(catalog, app, name, false, 4242);
        const BaselineRunResult guarded =
            runBaselineDynamic(catalog, app, name, true, 4242);
        EXPECT_EQ(naive.requestsCompleted, guarded.requestsCompleted)
            << name;
        EXPECT_EQ(naive.containerTrajectory, guarded.containerTrajectory)
            << name;
        ASSERT_EQ(naive.latencies.size(), guarded.latencies.size())
            << name;
        for (std::size_t i = 0; i < naive.latencies.size(); ++i)
            ASSERT_TRUE(sameBits(naive.latencies[i], guarded.latencies[i]))
                << name << " sample " << i;
    }
}

} // namespace
} // namespace erms
