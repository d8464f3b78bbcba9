/**
 * @file
 * Tests for the telemetry subsystem: registry semantics (counters,
 * gauges, histograms, deterministic snapshot ordering), quantile
 * estimation against exact sorted samples, scraped-view staleness and
 * rate computation, exporter round-trips, deterministic span sampling,
 * and OracleTelemetryView answering exactly as the simulator accessors
 * it mirrors (including the Firm controller's root fallback).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <thread>

#include "apps/applications.hpp"
#include "common/stats.hpp"
#include "core/controllers.hpp"
#include "core/erms.hpp"
#include "core/oracle_view.hpp"
#include "sim/simulation.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/view.hpp"
#include "trace/span.hpp"

namespace erms {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::Labels;
using telemetry::MetricKind;
using telemetry::MetricsRegistry;
using telemetry::TelemetrySnapshot;

// ---------------------------------------------------------------------
// Registry primitives
// ---------------------------------------------------------------------

TEST(TelemetryCounter, AccumulatesAcrossShardsAndThreads)
{
    Counter counter;
    EXPECT_EQ(counter.value(), 0u);
    counter.inc();
    counter.add(4);
    EXPECT_EQ(counter.value(), 5u);

    // Concurrent increments from many threads must all land: the
    // sharding is a performance detail, not a semantic one.
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (int i = 0; i < kPerThread; ++i)
                counter.inc();
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(counter.value(), 5u + kThreads * kPerThread);
}

TEST(TelemetryGauge, LastWriteWins)
{
    Gauge gauge;
    EXPECT_EQ(gauge.value(), 0.0);
    gauge.set(3.5);
    EXPECT_EQ(gauge.value(), 3.5);
    gauge.set(-0.25);
    EXPECT_EQ(gauge.value(), -0.25);
}

TEST(TelemetryHistogram, BucketBoundariesAreUpperBoundsPlusInf)
{
    Histogram h({1.0, 2.0, 5.0});
    // Boundary values land in the bucket they bound (le semantics).
    h.observe(0.5);
    h.observe(1.0);
    h.observe(1.5);
    h.observe(5.0);
    h.observe(100.0); // +inf bucket
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 5.0 + 100.0);
    const auto counts = h.bucketCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 2u); // 0.5, 1.0
    EXPECT_EQ(counts[1], 1u); // 1.5
    EXPECT_EQ(counts[2], 1u); // 5.0
    EXPECT_EQ(counts[3], 1u); // 100.0
}

TEST(TelemetryHistogram, QuantileTracksExactSamplesWithinBucketWidth)
{
    // Uniformly spread samples: the interpolated estimate must stay
    // within one bucket width of the exact sorted-sample quantile.
    std::vector<double> boundaries;
    for (double b = 10.0; b <= 500.0; b += 10.0)
        boundaries.push_back(b);
    Histogram h(boundaries);
    SampleSet exact;
    for (int i = 0; i < 5000; ++i) {
        const double x = 0.1 * static_cast<double>(i % 4800);
        h.observe(x);
        exact.add(x);
    }
    for (double q : {0.5, 0.9, 0.95, 0.99}) {
        const double est = h.quantile(q);
        const double ref = exact.quantile(q);
        EXPECT_NEAR(est, ref, 10.0) << "q=" << q;
    }
}

TEST(TelemetryHistogram, QuantileEdgeCases)
{
    Histogram h({1.0, 2.0});
    EXPECT_EQ(h.quantile(0.95), 0.0); // empty
    h.observe(10.0);                  // only the +inf bucket
    // Nothing finer than the last finite boundary is known.
    EXPECT_DOUBLE_EQ(h.quantile(0.95), 2.0);
}

TEST(TelemetryHistogram, NonFiniteObservationsCannotPoisonTheSum)
{
    Histogram h({1.0, 2.0});
    h.observe(std::numeric_limits<double>::quiet_NaN());
    h.observe(std::numeric_limits<double>::infinity());
    h.observe(-std::numeric_limits<double>::infinity());
    h.observe(0.5);
    // Corrupt observations count in the +inf overflow bucket (NaN would
    // otherwise land in the *smallest* bucket via lower_bound) and are
    // excluded from the cumulative sum, which one NaN poisons forever.
    EXPECT_EQ(h.count(), 4u);
    const auto counts = h.bucketCounts();
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[2], 3u);
    EXPECT_TRUE(std::isfinite(h.sum()));
    EXPECT_DOUBLE_EQ(h.sum(), 0.5);
    EXPECT_TRUE(std::isfinite(h.quantile(0.95)));
}

TEST(TelemetryHistogram, QuantileGuardsDegenerateInputs)
{
    // Empty bucket ladders and non-finite ranks answer "no estimate"
    // instead of reading boundaries.back() of nothing.
    EXPECT_EQ(telemetry::histogramQuantile({}, {5}, 0.95), 0.0);
    EXPECT_EQ(telemetry::histogramQuantile(
                  {1.0}, {1, 0},
                  std::numeric_limits<double>::quiet_NaN()),
              0.0);
}

TEST(TelemetryHistogram, MergeAddsBucketCountsExactly)
{
    Histogram a({1.0, 2.0});
    Histogram b({1.0, 2.0});
    a.observe(0.5);
    a.observe(3.0);
    b.observe(1.5);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    const auto counts = a.bucketCounts();
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_DOUBLE_EQ(a.sum(), 0.5 + 3.0 + 1.5);
}

TEST(TelemetryRegistry, RegistrationIsIdempotentAndSnapshotOrdered)
{
    MetricsRegistry registry;
    Counter &c1 = registry.counter("zeta_total", {{"svc", "1"}});
    Counter &c2 = registry.counter("zeta_total", {{"svc", "1"}});
    EXPECT_EQ(&c1, &c2);
    registry.counter("alpha_total");
    registry.gauge("mid_gauge", {{"svc", "2"}});
    registry.counter("zeta_total", {{"svc", "0"}});
    EXPECT_EQ(registry.seriesCount(), 4u);

    const TelemetrySnapshot snap = registry.snapshot(123);
    EXPECT_EQ(snap.at, 123u);
    ASSERT_EQ(snap.series.size(), 4u);
    // Deterministic (name, labels) order regardless of registration
    // order.
    EXPECT_EQ(snap.series[0].name, "alpha_total");
    EXPECT_EQ(snap.series[1].name, "mid_gauge");
    EXPECT_EQ(snap.series[2].name, "zeta_total");
    EXPECT_EQ(snap.series[2].labels,
              (Labels{{"svc", "0"}}));
    EXPECT_EQ(snap.series[3].labels,
              (Labels{{"svc", "1"}}));
}

TEST(TelemetryRegistry, SnapshotEqualityIsNaNAware)
{
    telemetry::SeriesSnapshot a;
    a.kind = MetricKind::Gauge;
    a.gaugeValue = std::numeric_limits<double>::quiet_NaN();
    telemetry::SeriesSnapshot b = a;
    // Bit-pattern equality: identical NaNs compare equal, so exporter
    // round-trip checks stay meaningful on non-finite captures.
    EXPECT_TRUE(a == b);
    b.gaugeValue = 1.0;
    EXPECT_FALSE(a == b);
}

TEST(TelemetryRegistry, SnapshotFreezesValues)
{
    MetricsRegistry registry;
    Counter &c = registry.counter("c_total");
    c.add(7);
    const TelemetrySnapshot before = registry.snapshot(1);
    c.add(3);
    const TelemetrySnapshot after = registry.snapshot(2);
    EXPECT_EQ(before.find("c_total", {})->counterValue, 7u);
    EXPECT_EQ(after.find("c_total", {})->counterValue, 10u);
    EXPECT_EQ(before.find("missing", {}), nullptr);
}

// ---------------------------------------------------------------------
// Span sampling
// ---------------------------------------------------------------------

TEST(TelemetrySampling, HashSamplingIsDeterministicAndProportional)
{
    int sampled = 0;
    for (RequestId id = 0; id < 20000; ++id) {
        const bool a = hashSampleRequest(id, 0.10);
        const bool b = hashSampleRequest(id, 0.10);
        EXPECT_EQ(a, b);
        sampled += a;
    }
    // 10% +- 1 percentage point over 20k requests.
    EXPECT_NEAR(sampled / 20000.0, 0.10, 0.01);
    EXPECT_TRUE(hashSampleRequest(17, 1.0));
    EXPECT_FALSE(hashSampleRequest(17, 0.0));
}

TEST(TelemetrySampling, SubsetPropertyAcrossProbabilities)
{
    // A request sampled at p stays sampled at every p' > p (head
    // sampling compares one hash against a threshold).
    for (RequestId id = 0; id < 2000; ++id) {
        if (hashSampleRequest(id, 0.05)) {
            EXPECT_TRUE(hashSampleRequest(id, 0.20)) << id;
        }
    }
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

std::vector<TelemetrySnapshot>
makeExportFixture()
{
    MetricsRegistry registry;
    registry.counter("erms_requests_total", {{"service", "0"}}).add(42);
    registry.gauge("erms_host_cpu_util", {{"host", "3"}})
        .set(0.1234567890123456789);
    Histogram &h = registry.histogram(
        "erms_request_latency_ms", {{"service", "0"}}, {1.0, 2.5, 10.0});
    h.observe(0.7);
    h.observe(3.14159265358979);
    h.observe(1000.0);
    std::vector<TelemetrySnapshot> snaps;
    snaps.push_back(registry.snapshot(0));
    registry.counter("erms_requests_total", {{"service", "0"}}).add(13);
    snaps.push_back(registry.snapshot(30000000));
    return snaps;
}

TEST(TelemetryExporters, CsvRoundTripIsExact)
{
    const auto snaps = makeExportFixture();
    const std::string csv = telemetry::toCsv(snaps);
    const auto parsed = telemetry::fromCsv(csv);
    ASSERT_EQ(parsed.size(), snaps.size());
    for (std::size_t i = 0; i < snaps.size(); ++i)
        EXPECT_TRUE(parsed[i] == snaps[i]) << "snapshot " << i;
}

TEST(TelemetryExporters, JsonRoundTripIsExact)
{
    const auto snaps = makeExportFixture();
    const std::string json = telemetry::toJson(snaps);
    const auto parsed = telemetry::fromJson(json);
    ASSERT_EQ(parsed.size(), snaps.size());
    for (std::size_t i = 0; i < snaps.size(); ++i)
        EXPECT_TRUE(parsed[i] == snaps[i]) << "snapshot " << i;
}

TEST(TelemetryExporters, EmptyDocuments)
{
    EXPECT_TRUE(telemetry::fromCsv(telemetry::toCsv({})).empty());
    EXPECT_TRUE(telemetry::fromJson(telemetry::toJson({})).empty());
}

TEST(TelemetryExporters, NonFiniteValuesRoundTripExactly)
{
    std::vector<TelemetrySnapshot> snaps(1);
    snaps[0].at = 42;
    telemetry::SeriesSnapshot nan_gauge;
    nan_gauge.name = "g_nan";
    nan_gauge.kind = MetricKind::Gauge;
    nan_gauge.gaugeValue = std::numeric_limits<double>::quiet_NaN();
    telemetry::SeriesSnapshot inf_gauge;
    inf_gauge.name = "g_inf";
    inf_gauge.kind = MetricKind::Gauge;
    inf_gauge.gaugeValue = std::numeric_limits<double>::infinity();
    telemetry::SeriesSnapshot hist;
    hist.name = "h";
    hist.kind = MetricKind::Histogram;
    hist.count = 2;
    hist.sum = -std::numeric_limits<double>::infinity();
    hist.boundaries = {1.0, 2.0};
    hist.bucketCounts = {1, 1, 0};
    snaps[0].series = {nan_gauge, inf_gauge, hist};

    const auto via_csv = telemetry::fromCsv(telemetry::toCsv(snaps));
    const auto via_json = telemetry::fromJson(telemetry::toJson(snaps));
    ASSERT_EQ(via_csv.size(), 1u);
    ASSERT_EQ(via_json.size(), 1u);
    EXPECT_TRUE(via_csv[0] == snaps[0]);
    EXPECT_TRUE(via_json[0] == snaps[0]);
    // The spellings are the explicit Python-json-style tokens, not
    // whatever printf produces for a NaN on this libc.
    EXPECT_NE(telemetry::toJson(snaps).find("NaN"), std::string::npos);
    EXPECT_NE(telemetry::toJson(snaps).find("-Infinity"),
              std::string::npos);
}

TEST(TelemetryExporters, EmptySnapshotSurvivesRoundTrip)
{
    // A scrape that captured zero series must not vanish from the
    // stream: CSV writes a marker row, JSON an empty series array.
    std::vector<TelemetrySnapshot> snaps(2);
    snaps[0].at = 7;
    snaps[1] = makeExportFixture()[0];
    snaps[1].at = 99;

    const auto via_csv = telemetry::fromCsv(telemetry::toCsv(snaps));
    const auto via_json = telemetry::fromJson(telemetry::toJson(snaps));
    ASSERT_EQ(via_csv.size(), 2u);
    ASSERT_EQ(via_json.size(), 2u);
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        EXPECT_TRUE(via_csv[i] == snaps[i]) << "csv snapshot " << i;
        EXPECT_TRUE(via_json[i] == snaps[i]) << "json snapshot " << i;
    }
}

// ---------------------------------------------------------------------
// Scraped view semantics
// ---------------------------------------------------------------------

TEST(TelemetryView, RatesComeFromCounterDeltas)
{
    telemetry::SimMonitor monitor;
    telemetry::ScrapedTelemetryView view(monitor);
    EXPECT_EQ(view.observedRate(0), 0.0); // no scrapes yet

    for (int i = 0; i < 10; ++i)
        monitor.onRequestArrival(0);
    monitor.takeSnapshot(0);
    EXPECT_EQ(view.observedRate(0), 0.0); // one scrape: no delta yet

    for (int i = 0; i < 300; ++i)
        monitor.onRequestArrival(0);
    monitor.takeSnapshot(30 * 1000000); // 30 s later
    // 300 arrivals over half a minute -> 600 requests/minute.
    EXPECT_DOUBLE_EQ(view.observedRate(0), 600.0);
}

TEST(TelemetryView, StalenessGrowsBetweenScrapes)
{
    telemetry::SimMonitor monitor;
    telemetry::ScrapedTelemetryView view(monitor);
    EXPECT_GT(view.stalenessMs(0), 1e12); // nothing scraped yet
    monitor.takeSnapshot(1000000);
    EXPECT_DOUBLE_EQ(view.stalenessMs(1000000), 0.0);
    EXPECT_DOUBLE_EQ(view.stalenessMs(31 * 1000000), 30000.0);
}

TEST(TelemetryView, ServiceP95FromIntervalBucketDeltas)
{
    telemetry::SimMonitor monitor;
    telemetry::ScrapedTelemetryView view(monitor);
    // First interval: fast requests only.
    for (int i = 0; i < 100; ++i)
        monitor.onRequestComplete(0, 10.0, false, true);
    monitor.takeSnapshot(0);
    // Second interval: slow requests. The interval estimate must
    // reflect only the new observations, not the whole history.
    for (int i = 0; i < 100; ++i)
        monitor.onRequestComplete(0, 400.0, true, true);
    monitor.takeSnapshot(30 * 1000000);
    EXPECT_GT(view.serviceP95Ms(0), 200.0);
}

TEST(TelemetryView, ContainerGaugeWithAbsenceSentinel)
{
    telemetry::SimMonitor monitor;
    telemetry::ScrapedTelemetryView view(monitor);
    EXPECT_EQ(view.containerCount(7), -1);
    monitor.recordDeployment(7, 12, 3, 40);
    monitor.takeSnapshot(0);
    EXPECT_EQ(view.containerCount(7), 12);
    EXPECT_EQ(view.containerCount(8), -1);
}

// ---------------------------------------------------------------------
// OracleTelemetryView: the view controllers observe through when given
// none. Every answer must equal the simulator accessor it mirrors.
// ---------------------------------------------------------------------

/** The minute's profiling tail latency by a full-history scan; 0 when
 *  the microservice has no record that minute. */
double
referenceTailMs(const Simulation &sim, MicroserviceId ms, int minute)
{
    for (const ProfilingRecord &record : sim.metrics().profiling)
        if (record.minute == static_cast<std::uint64_t>(minute) &&
            record.microservice == ms)
            return record.tailLatencyMs;
    return 0.0;
}

/** P95 of the service's end-to-end window for the minute; 0 when the
 *  window is empty or the service was never observed. */
double
referenceP95Ms(const Simulation &sim, ServiceId service, int minute)
{
    const auto &windows = sim.metrics().endToEndByMinute;
    const auto it = windows.find(service);
    if (it == windows.end())
        return 0.0;
    const SampleSet &window =
        it->second.window(static_cast<std::uint64_t>(minute));
    return window.empty() ? 0.0 : window.p95();
}

TEST(OracleTelemetryView, AnswersMirrorSimulatorAccessors)
{
    MicroserviceCatalog catalog;
    // Application factories attach bootstrap analytic latency models,
    // so the controller can plan without an offline profiling pass.
    const Application app = makeMotivationShared(catalog, 0);
    ErmsController controller(catalog, ErmsConfig{});
    constexpr ServiceId kUnknownService = 4242;
    constexpr MicroserviceId kUnknownMs = 4242;

    for (std::uint64_t seed : {3u, 19u}) {
        SimConfig config;
        config.horizonMinutes = 4;
        config.warmupMinutes = 1;
        config.seed = seed;
        Simulation sim(catalog, config);
        std::vector<ServiceSpec> services;
        std::vector<MicroserviceId> microservices;
        for (const auto &graph : app.graphs) {
            ServiceWorkload svc;
            svc.id = graph.service();
            svc.graph = &graph;
            svc.slaMs = 300.0;
            svc.rate = 8000.0;
            sim.addService(svc);
            ServiceSpec spec;
            spec.id = graph.service();
            spec.graph = &graph;
            spec.slaMs = 300.0;
            spec.workload = 8000.0;
            services.push_back(spec);
            for (MicroserviceId id : graph.nodes())
                microservices.push_back(id);
        }
        sim.applyPlan(controller.plan(services, Interference{0.2, 0.2}));

        int minutes_checked = 0, records_found = 0, windows_found = 0;
        sim.setMinuteCallback([&](Simulation &s, int minute) {
            ++minutes_checked;
            // The ended minute, and the next one (no samples or records
            // exist for it yet, so every latency answer must be 0).
            for (int m : {minute, minute + 1}) {
                const OracleTelemetryView view(s, m);
                EXPECT_EQ(view.stalenessMs(s.now()), 0.0);
                const Interference itf = view.clusterInterference();
                EXPECT_EQ(itf.cpuUtil, s.clusterInterference().cpuUtil);
                EXPECT_EQ(itf.memUtil, s.clusterInterference().memUtil);
                for (const ServiceSpec &svc : services) {
                    EXPECT_EQ(view.observedRate(svc.id),
                              s.observedRate(svc.id));
                    const double p95 = referenceP95Ms(s, svc.id, m);
                    EXPECT_EQ(view.serviceP95Ms(svc.id), p95);
                    windows_found += m == minute && p95 > 0.0;
                    if (m != minute) {
                        EXPECT_EQ(view.serviceP95Ms(svc.id), 0.0);
                    }
                }
                for (MicroserviceId id : microservices) {
                    EXPECT_EQ(view.containerCount(id), s.containerCount(id));
                    const double tail = referenceTailMs(s, id, m);
                    EXPECT_EQ(view.microserviceTailMs(id), tail);
                    records_found += m == minute && tail > 0.0;
                    if (m != minute) {
                        EXPECT_EQ(view.microserviceTailMs(id), 0.0);
                    }
                }
                EXPECT_EQ(view.observedRate(kUnknownService), 0.0);
                EXPECT_EQ(view.serviceP95Ms(kUnknownService), 0.0);
                EXPECT_EQ(view.microserviceTailMs(kUnknownMs), 0.0);
            }
        });
        sim.run();

        EXPECT_EQ(minutes_checked, config.horizonMinutes) << "seed " << seed;
        EXPECT_GT(windows_found, 0) << "seed " << seed;
        EXPECT_GT(records_found, 0) << "seed " << seed;
    }
}

TEST(OracleTelemetryView, FirmBumpsRootWhenNoMicroserviceWasProfiled)
{
    // The Firm spec for service 0 carries a graph that receives no
    // traffic: the service's P95 (from the live graph) violates the
    // SLA, but none of the spec graph's microservices has a profiling
    // record that minute, so the critical-component search must fall
    // back to the spec graph's root.
    MicroserviceCatalog catalog;
    const auto add = [&catalog](const std::string &name) {
        MicroserviceProfile profile;
        profile.name = name;
        return catalog.add(profile);
    };
    const MicroserviceId live_root = add("live_root");
    const MicroserviceId idle_root = add("idle_root");
    const MicroserviceId idle_a = add("idle_a");
    const MicroserviceId idle_b = add("idle_b");
    DependencyGraph live(0, live_root);
    DependencyGraph idle(0, idle_root);
    idle.addCall(idle_root, idle_a, 0);
    idle.addCall(idle_root, idle_b, 1);

    SimConfig config;
    config.horizonMinutes = 3;
    config.warmupMinutes = 0;
    Simulation sim(catalog, config);
    ServiceWorkload svc;
    svc.id = 0;
    svc.graph = &live;
    svc.rate = 600.0;
    sim.addService(svc);
    sim.setContainerCount(live_root, 2);
    for (MicroserviceId id : idle.nodes())
        sim.setContainerCount(id, 10);

    ServiceSpec spec;
    spec.id = 0;
    spec.graph = &idle;
    spec.slaMs = 1e-6; // every observed P95 violates
    auto firm = makeFirmReactiveController(catalog, {spec});

    int bumps = 0;
    sim.setMinuteCallback([&](Simulation &s, int minute) {
        const OracleTelemetryView view(s, minute);
        ASSERT_GT(view.serviceP95Ms(0), spec.slaMs);
        std::map<MicroserviceId, int> before;
        for (MicroserviceId id : idle.nodes()) {
            ASSERT_EQ(view.microserviceTailMs(id), 0.0);
            before[id] = s.containerCount(id);
        }
        firm(s, minute);
        for (MicroserviceId id : idle.nodes()) {
            const double step = id == idle_root ? 0.30 : 0.10;
            const int expected =
                before[id] +
                std::max(1, static_cast<int>(std::ceil(step * before[id])));
            EXPECT_EQ(s.containerCount(id), expected)
                << "minute " << minute << " ms " << id;
        }
        ++bumps;
    });
    sim.run();
    EXPECT_EQ(bumps, config.horizonMinutes);
}

} // namespace
} // namespace erms
