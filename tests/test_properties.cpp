/**
 * @file
 * Property-based suites (parameterized sweeps) over randomized inputs:
 * solver invariants on random trees, multiplexing invariants on random
 * service populations, simulator conservation laws, and fitting
 * round-trips across random synthetic models.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "profiling/piecewise_fit.hpp"
#include "scaling/multiplexing.hpp"
#include "sim/simulation.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/registry.hpp"
#include "workload/synth_trace.hpp"

namespace erms {
namespace {

// ---------------------------------------------------------------------
// Solver invariants on random graphs
// ---------------------------------------------------------------------

class SolverProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SolverProperty, InvariantsOnRandomTrees)
{
    SynthTraceConfig config;
    config.microserviceCount = 40;
    config.serviceCount = 4;
    config.minGraphSize = 6;
    config.maxGraphSize = 25;
    config.slaRelativeToKnee = true;
    config.seed = GetParam();
    const SynthTrace trace = makeSynthTrace(config);

    LatencyTargetSolver solver(trace.catalog, ClusterCapacity{});
    const Interference itf{0.3, 0.3};

    for (std::size_t s = 0; s < trace.graphs.size(); ++s) {
        ServiceScalingRequest request;
        request.graph = &trace.graphs[s];
        request.slaMs = trace.slaMs[s];
        request.workload = trace.workloads[s];
        const ServiceAllocation alloc = solver.solve(request, itf);
        if (!alloc.feasible)
            continue; // infeasibility is a legal outcome

        std::unordered_map<MicroserviceId, double> targets;
        std::unordered_map<MicroserviceId, double> predicted;
        for (const auto &[id, a] : alloc.perMicroservice) {
            // Containers positive; workload carried through.
            EXPECT_GE(a.containers, 1);
            EXPECT_GE(a.workload, 0.0);
            targets[id] = a.latencyTargetMs;
            predicted[id] = trace.catalog.model(id).latency(
                a.workload / a.containers, itf);
            // Per-microservice: the model prediction at the deployed
            // allocation never exceeds the assigned target (rounding up
            // and the saturation cap only reduce loads).
            EXPECT_LE(predicted[id], a.latencyTargetMs * 1.0001)
                << trace.catalog.name(id);
        }
        // End-to-end: targets compose to at most the SLA, and the
        // model-predicted latency respects it too (the solver's own
        // validation invariant).
        EXPECT_LE(endToEndLatency(trace.graphs[s], targets),
                  request.slaMs * 1.0001);
        EXPECT_LE(endToEndLatency(trace.graphs[s], predicted),
                  request.slaMs * 1.01 + 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverProperty,
                         ::testing::Values(101u, 102u, 103u, 104u, 105u,
                                           106u));

// ---------------------------------------------------------------------
// Multiplexing invariants on random populations
// ---------------------------------------------------------------------

class MultiplexProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MultiplexProperty, PlanInvariants)
{
    SynthTraceConfig config;
    config.microserviceCount = 60;
    config.serviceCount = 6;
    config.minGraphSize = 8;
    config.maxGraphSize = 20;
    config.popularitySkew = 0.2;
    config.slaRelativeToKnee = true;
    config.seed = GetParam();
    const SynthTrace trace = makeSynthTrace(config);

    std::vector<ServiceSpec> services;
    for (std::size_t i = 0; i < trace.graphs.size(); ++i) {
        ServiceSpec svc;
        svc.id = trace.graphs[i].service();
        svc.graph = &trace.graphs[i];
        svc.slaMs = trace.slaMs[i];
        svc.workload = trace.workloads[i];
        services.push_back(svc);
    }

    MultiplexingPlanner planner(trace.catalog, ClusterCapacity{});
    const Interference itf{0.3, 0.3};
    const GlobalPlan priority =
        planner.plan(services, itf, SharingPolicy::Priority);
    const GlobalPlan fcfs =
        planner.plan(services, itf, SharingPolicy::FcfsSharing);
    const GlobalPlan non_sharing =
        planner.plan(services, itf, SharingPolicy::NonSharing);

    // Every microservice used by any service is deployed.
    for (const ServiceSpec &svc : services) {
        for (MicroserviceId id : svc.graph->nodes()) {
            EXPECT_TRUE(priority.containers.count(id));
            EXPECT_GE(priority.containers.at(id), 1);
        }
    }

    // Priority order covers exactly the shared microservices, each
    // order listing each sharing service once.
    const auto shared = MultiplexingPlanner::sharedMicroservices(services);
    EXPECT_EQ(priority.priorityOrder.size(), shared.size());
    for (const auto &[ms, order] : priority.priorityOrder) {
        ASSERT_TRUE(shared.count(ms));
        EXPECT_EQ(order.size(), shared.at(ms).size());
    }

    if (priority.feasible && fcfs.feasible) {
        // Priority scheduling never *costs* containers vs FCFS (same
        // solver, weakly smaller workloads per service).
        EXPECT_LE(priority.totalContainers, fcfs.totalContainers);
    }
    if (non_sharing.feasible) {
        // Non-sharing partitions at shared microservices are at least
        // the max-combined shared deployment.
        for (const auto &[ms, users] : shared) {
            EXPECT_GE(non_sharing.containers.at(ms),
                      fcfs.containers.count(ms)
                          ? 0 // only compare totals below
                          : 0);
        }
        EXPECT_GE(non_sharing.totalContainers,
                  static_cast<int>(services.size()));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiplexProperty,
                         ::testing::Values(201u, 202u, 203u, 204u, 205u));

// ---------------------------------------------------------------------
// Simulator conservation laws
// ---------------------------------------------------------------------

struct SimSetting
{
    double rate;
    int containers;
    double bg;
};

/** Prints a setting by its fields. gtest's default printer dumps the
 *  raw bytes, including the uninitialised padding after `containers`,
 *  which would make the registered test names differ from run to run. */
void
PrintTo(const SimSetting &s, std::ostream *os)
{
    *os << "rate" << s.rate << "_containers" << s.containers << "_bg"
        << s.bg;
}

class SimProperty : public ::testing::TestWithParam<SimSetting>
{
};

TEST_P(SimProperty, ConservationAndSanity)
{
    const auto [rate, containers, bg] = GetParam();

    MicroserviceCatalog catalog;
    MicroserviceProfile profile;
    profile.name = "a";
    profile.baseServiceMs = 6.0;
    profile.threadsPerContainer = 3;
    const auto a = catalog.add(profile);
    profile.name = "b";
    const auto b = catalog.add(profile);
    DependencyGraph g(0, a);
    g.addCall(a, b, 0);

    SimConfig config;
    config.horizonMinutes = 3;
    config.warmupMinutes = 0;
    config.seed = 11;
    Simulation sim(catalog, config);
    sim.setBackgroundLoadAll(bg, bg);
    ServiceWorkload svc;
    svc.id = 0;
    svc.graph = &g;
    svc.rate = rate;
    sim.addService(svc);
    sim.setContainerCount(a, containers);
    sim.setContainerCount(b, containers);
    sim.run();

    const auto &m = sim.metrics();
    // Completions never exceed arrivals; most requests finish.
    EXPECT_LE(m.requestsCompleted, m.requestsGenerated);
    EXPECT_GT(m.requestsCompleted, m.requestsGenerated * 8 / 10);
    // Arrival count matches the Poisson rate within 5 sigma.
    const double expected = rate * 3.0;
    EXPECT_NEAR(static_cast<double>(m.requestsGenerated), expected,
                5.0 * std::sqrt(expected) + 5.0);
    // Latencies positive and not below a loose service-time floor (two
    // log-normal stages can undershoot their means substantially).
    ASSERT_FALSE(m.endToEndMs.at(0).empty());
    EXPECT_GT(m.endToEndMs.at(0).min(), profile.baseServiceMs * 0.5);
    // Per-minute windows cover the horizon.
    EXPECT_GE(m.endToEndByMinute.at(0).windowCount(), 3u);
    // Interference reading reflects at least the background.
    EXPECT_GE(sim.clusterInterference().cpuUtil, bg - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimProperty,
    ::testing::Values(SimSetting{600.0, 1, 0.0},
                      SimSetting{3000.0, 2, 0.1},
                      SimSetting{9000.0, 4, 0.3},
                      SimSetting{18000.0, 8, 0.5}));

// ---------------------------------------------------------------------
// Piecewise fitting across random models
// ---------------------------------------------------------------------

class FitProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FitProperty, RecoversRandomSyntheticModels)
{
    Rng rng(GetParam());
    SyntheticModelConfig config;
    config.baseLatencyMs = rng.uniform(2.0, 15.0);
    config.slope1 = rng.uniform(0.001, 0.004);
    config.slope2 = config.slope1 * rng.uniform(5.0, 12.0);
    config.cpuSensitivity = rng.uniform(0.5, 2.0);
    config.memSensitivity = rng.uniform(0.5, 2.0);
    config.cutoffAtZero = rng.uniform(2000.0, 6000.0);
    config.cutoffCpuShift = config.cutoffAtZero * rng.uniform(0.3, 0.5);
    config.cutoffMemShift = config.cutoffAtZero * rng.uniform(0.3, 0.5);
    const auto truth = makeSyntheticModel(config);

    const std::vector<std::pair<double, double>> levels{
        {0.05, 0.10}, {0.25, 0.20}, {0.45, 0.35}, {0.60, 0.55}};
    std::vector<ProfilingSample> train, test;
    for (int i = 0; i < 600; ++i) {
        const auto &[c, m] =
            levels[static_cast<std::size_t>(rng.uniformInt(0, 3))];
        ProfilingSample s;
        s.cpuUtil = c;
        s.memUtil = m;
        const double sigma = truth.cutoff({c, m});
        s.gamma = rng.uniform(0.05 * sigma, 2.0 * sigma);
        s.latencyMs = truth.latency(s.gamma, {c, m}) *
                      rng.logNormalMeanCv(1.0, 0.04);
        (i % 4 == 3 ? test : train).push_back(s);
    }

    const auto fit = fitPiecewiseModel(train);
    std::vector<double> actual;
    for (const auto &s : test)
        actual.push_back(s.latencyMs);
    const double accuracy =
        profilingAccuracy(predictAll(fit.model, test), actual);
    EXPECT_GT(accuracy, 0.75) << "seed " << GetParam();

    // The fitted cutoff moves forward with interference (the Fig. 3
    // shape), at least from the calmest to the busiest level.
    EXPECT_GE(fit.model.cutoff({0.05, 0.10}),
              fit.model.cutoff({0.60, 0.55}) * 0.999);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FitProperty,
                         ::testing::Values(301u, 302u, 303u, 304u, 305u,
                                           306u, 307u, 308u));

// ---------------------------------------------------------------------
// StreamingStats: merging accumulators must equal streaming the
// concatenated sample sequence, including the n=0 / n=1 edge cases.
// ---------------------------------------------------------------------

class StatsMergeProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(StatsMergeProperty, MergeEqualsConcatenation)
{
    Rng rng(GetParam());
    // Partition sizes deliberately include empty and single-sample
    // accumulators (the historical NaN/negative-variance edge cases).
    const std::size_t sizes[] = {0, 1, 2, 7, 0, 1, 40, 13};
    StreamingStats merged;
    StreamingStats concatenated;
    std::size_t total = 0;
    for (std::size_t size : sizes) {
        StreamingStats part;
        for (std::size_t i = 0; i < size; ++i) {
            // Large offset + small spread stresses cancellation in the
            // centered second-moment updates.
            const double x = 1e6 + rng.uniform(0.0, 0.01);
            part.add(x);
            concatenated.add(x);
        }
        // Sub-accumulators must already be well-formed.
        EXPECT_GE(part.variance(), 0.0);
        EXPECT_FALSE(std::isnan(part.stddev()));
        merged.merge(part);
        total += size;
    }
    EXPECT_EQ(merged.count(), total);
    EXPECT_EQ(merged.count(), concatenated.count());
    EXPECT_DOUBLE_EQ(merged.min(), concatenated.min());
    EXPECT_DOUBLE_EQ(merged.max(), concatenated.max());
    EXPECT_NEAR(merged.mean(), concatenated.mean(),
                1e-9 * std::abs(concatenated.mean()));
    // Variance agrees to a relative tolerance (different but equally
    // valid summation orders) and is never negative or NaN.
    EXPECT_GE(merged.variance(), 0.0);
    EXPECT_GE(concatenated.variance(), 0.0);
    EXPECT_FALSE(std::isnan(merged.stddev()));
    EXPECT_NEAR(merged.variance(), concatenated.variance(),
                1e-6 * concatenated.variance() + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsMergeProperty,
                         ::testing::Values(401u, 402u, 403u, 404u, 405u,
                                           406u));

TEST(StatsMergeProperty, DegenerateAccumulators)
{
    StreamingStats empty;
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_EQ(empty.variance(), 0.0);
    EXPECT_EQ(empty.stddev(), 0.0);

    StreamingStats one;
    one.add(42.0);
    EXPECT_EQ(one.variance(), 0.0);
    EXPECT_EQ(one.stddev(), 0.0);

    // Constant stream: cancellation must never surface as negative
    // variance or NaN stddev.
    StreamingStats constant;
    for (int i = 0; i < 1000; ++i)
        constant.add(0.1 + 1e9); // non-representable increment
    EXPECT_GE(constant.variance(), 0.0);
    EXPECT_FALSE(std::isnan(constant.stddev()));

    // Merging an empty accumulator is the identity in both directions.
    StreamingStats merged = one;
    merged.merge(empty);
    EXPECT_EQ(merged.count(), 1u);
    EXPECT_DOUBLE_EQ(merged.mean(), 42.0);
    StreamingStats other;
    other.merge(one);
    EXPECT_EQ(other.count(), 1u);
    EXPECT_DOUBLE_EQ(other.mean(), 42.0);
}

// ---------------------------------------------------------------------
// Telemetry histograms: merge is associative and commutative on bucket
// counts (exact integers); sums agree within floating-point tolerance.
// ---------------------------------------------------------------------

class HistogramMergeProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HistogramMergeProperty, MergeAssociativeAndCommutative)
{
    const std::vector<double> boundaries{1.0, 5.0, 20.0, 100.0, 500.0};
    // Three independent sample batches a, b, c.
    telemetry::Histogram a1(boundaries), a2(boundaries), a3(boundaries);
    telemetry::Histogram b1(boundaries), b2(boundaries), b3(boundaries);
    telemetry::Histogram c1(boundaries), c2(boundaries), c3(boundaries);
    {
        Rng ra(GetParam() * 3 + 1), rb(GetParam() * 3 + 2),
            rc(GetParam() * 3 + 3);
        for (int i = 0; i < 200; ++i) {
            const double xa = ra.uniform(0.0, 700.0);
            a1.observe(xa);
            a2.observe(xa);
            a3.observe(xa);
            const double xb = rb.uniform(0.0, 700.0);
            b1.observe(xb);
            b2.observe(xb);
            b3.observe(xb);
            const double xc = rc.uniform(0.0, 700.0);
            c1.observe(xc);
            c2.observe(xc);
            c3.observe(xc);
        }
    }

    // (a + b) + c
    a1.merge(b1);
    a1.merge(c1);
    // a + (b + c)
    b2.merge(c2);
    a2.merge(b2);
    // c + (b + a): commuted order
    b3.merge(a3);
    c3.merge(b3);

    EXPECT_EQ(a1.bucketCounts(), a2.bucketCounts());
    EXPECT_EQ(a1.bucketCounts(), c3.bucketCounts());
    EXPECT_EQ(a1.count(), a2.count());
    EXPECT_EQ(a1.count(), c3.count());
    // Sums are doubles added in different orders: tolerance, not
    // equality.
    EXPECT_NEAR(a1.sum(), a2.sum(), 1e-6);
    EXPECT_NEAR(a1.sum(), c3.sum(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramMergeProperty,
                         ::testing::Values(501u, 502u, 503u, 504u));

// ---------------------------------------------------------------------
// Telemetry transparency: attaching a monitor must not perturb the
// simulation. Same seed with and without telemetry => identical request
// counts and identical end-to-end latency sample sequences.
// ---------------------------------------------------------------------

class TelemetryTransparency : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TelemetryTransparency, MonitoredRunMatchesBareRun)
{
    MicroserviceCatalog catalog;
    MicroserviceProfile profile;
    profile.name = "front";
    profile.baseServiceMs = 5.0;
    profile.threadsPerContainer = 3;
    const auto front = catalog.add(profile);
    profile.name = "back";
    profile.baseServiceMs = 8.0;
    const auto back = catalog.add(profile);
    DependencyGraph g(0, front);
    g.addCall(front, back, 0);

    const auto run = [&](telemetry::SimMonitor *monitor) {
        SimConfig config;
        config.horizonMinutes = 2;
        config.warmupMinutes = 0;
        config.seed = GetParam();
        Simulation sim(catalog, config);
        if (monitor != nullptr)
            sim.setMonitor(monitor);
        sim.setBackgroundLoadAll(0.2, 0.15);
        ServiceWorkload svc;
        svc.id = 0;
        svc.graph = &g;
        svc.slaMs = 60.0;
        svc.rate = 1500.0;
        sim.addService(svc);
        sim.setContainerCount(front, 2);
        sim.setContainerCount(back, 2);
        sim.run();
        return std::make_tuple(sim.metrics().requestsGenerated,
                               sim.metrics().requestsCompleted,
                               sim.metrics().endToEndMs.at(0).samples());
    };

    const auto bare = run(nullptr);
    telemetry::MonitorConfig mc;
    mc.scrapeIntervalSec = 7.0; // deliberately not a divisor of a minute
    telemetry::SimMonitor monitor(mc);
    const auto monitored = run(&monitor);

    EXPECT_EQ(std::get<0>(bare), std::get<0>(monitored));
    EXPECT_EQ(std::get<1>(bare), std::get<1>(monitored));
    // Exact sample-sequence equality: telemetry consumed no randomness
    // and reordered no events.
    EXPECT_EQ(std::get<2>(bare), std::get<2>(monitored));
    // The monitor did observe the run.
    EXPECT_GE(monitor.snapshots().size(), 2u);
}

std::vector<std::uint64_t>
transparencySeeds()
{
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t s = 9000; s < 9050; ++s)
        seeds.push_back(s);
    return seeds;
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, TelemetryTransparency,
                         ::testing::ValuesIn(transparencySeeds()));

} // namespace
} // namespace erms
