/**
 * @file
 * Tests for the top-level ErmsController, the offline profiling
 * pipeline and its process-wide sweep memo, and the closed-loop
 * controllers.
 */

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>

#include "apps/applications.hpp"
#include "core/controllers.hpp"
#include "core/erms.hpp"
#include "core/profiling_pipeline.hpp"
#include "fault/campaign.hpp"
#include "runner/parallel_runner.hpp"

namespace erms {
namespace {

class CoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        app = makeMotivationShared(catalog, 0);
        for (std::size_t i = 0; i < app.graphs.size(); ++i) {
            ServiceSpec svc;
            svc.id = app.graphs[i].service();
            svc.name = app.serviceNames[i];
            svc.graph = &app.graphs[i];
            svc.slaMs = 300.0;
            svc.workload = 30000.0;
            services.push_back(svc);
        }
    }

    MicroserviceCatalog catalog;
    Application app;
    std::vector<ServiceSpec> services;
};

TEST_F(CoreTest, PlanRespectsConfiguredPolicy)
{
    ErmsConfig priority_cfg;
    priority_cfg.policy = SharingPolicy::Priority;
    ErmsController priority(catalog, priority_cfg);
    EXPECT_EQ(priority.plan(services, {0.3, 0.3}).policy,
              SharingPolicy::Priority);

    ErmsConfig fcfs_cfg;
    fcfs_cfg.policy = SharingPolicy::FcfsSharing;
    ErmsController fcfs(catalog, fcfs_cfg);
    EXPECT_EQ(fcfs.plan(services, {0.3, 0.3}).policy,
              SharingPolicy::FcfsSharing);
}

TEST_F(CoreTest, AutoscalerTracksWorkloadChanges)
{
    ErmsController controller(catalog, {});
    SimConfig config;
    config.horizonMinutes = 10;
    config.warmupMinutes = 2;
    Simulation sim(catalog, config);
    sim.setBackgroundLoadAll(0.2, 0.2);

    for (const ServiceSpec &svc : services) {
        ServiceWorkload workload;
        workload.id = svc.id;
        workload.graph = svc.graph;
        workload.slaMs = svc.slaMs;
        // Low -> high step at minute 3 (4x).
        workload.rateSeries = {5000, 5000, 5000, 20000, 20000,
                               20000, 20000, 20000, 20000, 20000};
        sim.addService(workload);
    }
    sim.applyPlan(controller.plan(services, {0.2, 0.2}));

    std::vector<int> container_series;
    auto autoscaler = controller.makeAutoscaler(services);
    sim.setMinuteCallback([&](Simulation &s, int minute) {
        autoscaler(s, minute);
        int total = 0;
        for (const auto &g : app.graphs) {
            for (MicroserviceId id : g.nodes())
                total += s.containerCount(id);
        }
        container_series.push_back(total);
    });
    sim.run();

    ASSERT_GE(container_series.size(), 9u);
    // After the step, the autoscaler deploys clearly more containers.
    EXPECT_GT(container_series[6], container_series[2] * 2);
    // Once the one-minute reaction lag and backlog drain have passed,
    // both services are back within SLA.
    for (const ServiceSpec &svc : services)
        EXPECT_LT(sim.metrics().endToEndByMinute.at(svc.id).window(9).p95(),
                  svc.slaMs);
}

TEST_F(CoreTest, ProfilingPipelineProducesSamplesForAllMicroservices)
{
    std::vector<const DependencyGraph *> graphs;
    for (const auto &g : app.graphs)
        graphs.push_back(&g);

    ProfilingSweepConfig sweep;
    sweep.ratePerService = 20000.0;
    sweep.interferenceLevels = {{0.1, 0.1}, {0.5, 0.4}};
    sweep.minutesPerCell = 2;
    const auto samples = collectProfilingSamples(catalog, graphs, sweep);

    for (const auto &g : app.graphs) {
        for (MicroserviceId id : g.nodes()) {
            ASSERT_TRUE(samples.count(id)) << catalog.name(id);
            EXPECT_GE(samples.at(id).size(), 8u);
        }
    }
}

TEST_F(CoreTest, FittedModelsReplaceBootstrapAndAreUsable)
{
    std::vector<const DependencyGraph *> graphs;
    for (const auto &g : app.graphs)
        graphs.push_back(&g);
    ProfilingSweepConfig sweep;
    sweep.ratePerService = 20000.0;
    sweep.interferenceLevels = {{0.1, 0.1}, {0.35, 0.3}, {0.55, 0.5}};
    sweep.minutesPerCell = 2;
    const auto samples = collectProfilingSamples(catalog, graphs, sweep);
    const auto accuracy = fitAndAttachModels(catalog, samples);
    ASSERT_FALSE(accuracy.empty());
    for (const auto &[id, acc] : accuracy)
        EXPECT_GT(acc, 0.5) << catalog.name(id);

    // The fitted models must be solvable end-to-end.
    ErmsController controller(catalog, {});
    const GlobalPlan plan = controller.plan(services, {0.3, 0.3});
    EXPECT_TRUE(plan.feasible);
    EXPECT_GT(plan.totalContainers, 0);
}

TEST_F(CoreTest, FirmReactiveControllerRespondsToViolations)
{
    SimConfig config;
    config.horizonMinutes = 8;
    config.warmupMinutes = 1;
    Simulation sim(catalog, config);
    for (const ServiceSpec &svc : services) {
        ServiceWorkload workload;
        workload.id = svc.id;
        workload.graph = svc.graph;
        workload.slaMs = 80.0; // tight: violations guaranteed initially
        workload.rate = 30000.0;
        sim.addService(workload);
    }
    // Start under-provisioned.
    for (const auto &g : app.graphs) {
        for (MicroserviceId id : g.nodes())
            sim.setContainerCount(id, 1);
    }
    std::vector<ServiceSpec> tight = services;
    for (auto &svc : tight)
        svc.slaMs = 80.0;
    sim.setMinuteCallback(makeFirmReactiveController(catalog, tight));
    sim.run();

    // The controller must have scaled out beyond the single containers.
    int total = 0;
    for (const auto &g : app.graphs) {
        for (MicroserviceId id : g.nodes())
            total += sim.containerCount(id);
    }
    EXPECT_GT(total, 6);
}

TEST_F(CoreTest, BaselineAutoscalerAppliesPlans)
{
    BaselineContext context;
    context.catalog = &catalog;
    SimConfig config;
    config.horizonMinutes = 4;
    Simulation sim(catalog, config);
    for (const ServiceSpec &svc : services) {
        ServiceWorkload workload;
        workload.id = svc.id;
        workload.graph = svc.graph;
        workload.slaMs = svc.slaMs;
        workload.rate = 20000.0;
        sim.addService(workload);
    }
    sim.setMinuteCallback(makeBaselineAutoscaler(
        std::make_shared<GrandSlamAllocator>(), context, services));
    sim.run();
    // Containers were deployed by the autoscaler.
    const auto idP = catalog.findByName("shr-post-storage");
    EXPECT_GT(sim.containerCount(idP), 1);
}

TEST_F(CoreTest, MediaServicePlansAndValidates)
{
    // The single-service, 38-microservice Media Service end to end:
    // profile, plan, validate.
    MicroserviceCatalog media_catalog;
    const Application media = makeMediaService(media_catalog, 0);
    std::vector<const DependencyGraph *> graphs{&media.graphs[0]};
    ProfilingSweepConfig sweep;
    sweep.ratePerService = 8000.0;
    sweep.interferenceLevels = {{0.1, 0.1}, {0.35, 0.3}};
    sweep.minutesPerCell = 2;
    fitAndAttachModels(media_catalog,
                       collectProfilingSamples(media_catalog, graphs, sweep));

    ServiceSpec svc;
    svc.id = media.graphs[0].service();
    svc.graph = &media.graphs[0];
    svc.slaMs = 600.0; // deep 38-node graph: generous tail-sum budget
    svc.workload = 8000.0;

    const Interference itf{0.3, 0.25};
    ErmsController controller(media_catalog, {});
    const GlobalPlan plan = controller.plan({svc}, itf);
    ASSERT_TRUE(plan.feasible) << plan.infeasibleReason;
    EXPECT_EQ(plan.containers.size(), 38u);

    SimConfig config;
    config.horizonMinutes = 4;
    config.warmupMinutes = 1;
    Simulation sim(media_catalog, config);
    sim.setBackgroundLoadAll(itf.cpuUtil, itf.memUtil);
    ServiceWorkload load;
    load.id = svc.id;
    load.graph = svc.graph;
    load.rate = svc.workload;
    sim.addService(load);
    sim.applyPlan(plan);
    sim.run();
    EXPECT_LT(sim.metrics().p95(svc.id), svc.slaMs * 1.10);
}

TEST_F(CoreTest, HeadroomMustBeAtLeastOne)
{
    ErmsConfig config;
    config.workloadHeadroom = 0.5;
    EXPECT_THROW(ErmsController(catalog, config), std::logic_error);
}

// ---------------------------------------------------------------------
// ProfilingMemo: collectProfilingSamples() consults a process-wide memo
// keyed on the exact bytes of the sweep inputs; detail::sweepUncached()
// is the reference it must reproduce. Stats are process-wide and other
// tests share the memo, so every check compares before/after deltas.
// ---------------------------------------------------------------------

/** Samples as bytes in id order: equal strings mean bit-equal samples. */
std::string
sampleBytes(const ProfilingSamples &samples)
{
    const std::map<MicroserviceId, std::vector<ProfilingSample>> ordered(
        samples.begin(), samples.end());
    std::string bytes;
    for (const auto &[id, list] : ordered) {
        const std::uint64_t count = list.size();
        bytes.append(reinterpret_cast<const char *>(&id), sizeof(id));
        bytes.append(reinterpret_cast<const char *>(&count), sizeof(count));
        for (const ProfilingSample &sample : list)
            for (double v : {sample.latencyMs, sample.gamma, sample.cpuUtil,
                             sample.memUtil})
                bytes.append(reinterpret_cast<const char *>(&v), sizeof(v));
    }
    return bytes;
}

std::vector<const DependencyGraph *>
graphPointers(const std::vector<DependencyGraph> &graphs)
{
    std::vector<const DependencyGraph *> out;
    for (const DependencyGraph &graph : graphs)
        out.push_back(&graph);
    return out;
}

/** A sweep of one short cell: cheap enough to run dozens of times. */
ProfilingSweepConfig
tinySweep(std::uint64_t seed)
{
    ProfilingSweepConfig sweep;
    sweep.loadFractions = {0.5};
    sweep.interferenceLevels = {{0.1, 0.1}};
    sweep.ratePerService = 2000.0;
    sweep.minutesPerCell = 1;
    sweep.hostCount = 4;
    sweep.seed = seed;
    return sweep;
}

/** A small sweep that still visits several cells. */
ProfilingSweepConfig
smallSweep()
{
    ProfilingSweepConfig sweep;
    sweep.loadFractions = {0.5, 1.0};
    sweep.interferenceLevels = {{0.1, 0.1}, {0.4, 0.3}};
    sweep.ratePerService = 8000.0;
    sweep.minutesPerCell = 1;
    return sweep;
}

void
expectMemoMatchesUncached(const MicroserviceCatalog &catalog,
                          const std::vector<const DependencyGraph *> &graphs,
                          const ProfilingSweepConfig &sweep)
{
    const std::string memo =
        sampleBytes(collectProfilingSamples(catalog, graphs, sweep));
    const std::string reference =
        sampleBytes(detail::sweepUncached(catalog, graphs, sweep));
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(memo, reference);
    // A second call is answered from the memo with the same bytes.
    const ProfilingMemoStats before = profilingMemoStats();
    EXPECT_EQ(sampleBytes(collectProfilingSamples(catalog, graphs, sweep)),
              reference);
    EXPECT_EQ(profilingMemoStats().hits, before.hits + 1);
    EXPECT_EQ(profilingMemoStats().misses, before.misses);
}

TEST(ProfilingMemo, MatchesUncachedSweepOnHotelReservation)
{
    MicroserviceCatalog catalog;
    const Application app = makeHotelReservation(catalog, 0);
    expectMemoMatchesUncached(catalog, graphPointers(app.graphs),
                              smallSweep());
}

TEST(ProfilingMemo, MatchesUncachedSweepOnCampaignPopulation)
{
    const SynthTrace trace = makeSynthTrace(campaignTraceConfig());
    // The sweep runCampaign performs, on a shorter grid.
    ProfilingSweepConfig sweep = smallSweep();
    sweep.ratePerService = ProfilingSweepConfig{}.ratePerService;
    sweep.hostCount = CampaignConfig{}.hostCount;
    expectMemoMatchesUncached(trace.catalog, graphPointers(trace.graphs),
                              sweep);
}

TEST(ProfilingMemo, UncachedSweepIsDeterministic)
{
    // Campaign reruns now hit the memo, so sweep determinism is pinned
    // here, on the body itself.
    MicroserviceCatalog catalog;
    const Application app = makeHotelReservation(catalog, 0);
    const auto graphs = graphPointers(app.graphs);
    const std::string first =
        sampleBytes(detail::sweepUncached(catalog, graphs, smallSweep()));
    EXPECT_EQ(first,
              sampleBytes(detail::sweepUncached(catalog, graphs,
                                                smallSweep())));
}

TEST(ProfilingMemo, LatencyModelsAreOutsideTheKey)
{
    // The simulator reads only profiles from the catalog: catalogs that
    // differ only in their attached models share a key and sweep
    // identically.
    MicroserviceCatalog bootstrap;
    const Application app = makeHotelReservation(bootstrap, 0);
    MicroserviceCatalog replaced;
    const Application twin = makeHotelReservation(replaced, 0);
    const PiecewiseLatencyModel flat({0.0, 0.0, 0.01, 1.0},
                                     {0.0, 0.0, 0.05, 0.5},
                                     [](const Interference &) {
                                         return 100.0;
                                     });
    for (MicroserviceId id : replaced.ids())
        replaced.setModel(id, flat);
    const Interference itf{0.3, 0.3};
    ASSERT_NE(bootstrap.model(0).latency(500.0, itf),
              replaced.model(0).latency(500.0, itf));

    const ProfilingSweepConfig sweep = tinySweep(0x30de1);
    EXPECT_EQ(detail::profilingMemoKey(bootstrap, graphPointers(app.graphs),
                                       sweep),
              detail::profilingMemoKey(replaced, graphPointers(twin.graphs),
                                       sweep));
    EXPECT_EQ(sampleBytes(detail::sweepUncached(
                  bootstrap, graphPointers(app.graphs), sweep)),
              sampleBytes(detail::sweepUncached(
                  replaced, graphPointers(twin.graphs), sweep)));
}

TEST(ProfilingMemo, ThrowingSweepLeavesNoEntry)
{
    MicroserviceCatalog catalog;
    makeMotivationShared(catalog, 0);
    // The graph names an id the catalog lacks: the sweep itself throws.
    const DependencyGraph stray(7, static_cast<MicroserviceId>(
                                       catalog.size() + 3));
    const std::vector<const DependencyGraph *> graphs{&stray};
    const ProfilingMemoStats before = profilingMemoStats();
    for (int attempt = 0; attempt < 2; ++attempt)
        EXPECT_THROW(collectProfilingSamples(catalog, graphs,
                                             tinySweep(0xbad)),
                     ErmsError);
    const ProfilingMemoStats after = profilingMemoStats();
    EXPECT_EQ(after.misses, before.misses + 2);
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.entries, before.entries);
}

TEST(ProfilingMemo, ConcurrentCallersShareOneSweep)
{
    MicroserviceCatalog catalog;
    const Application app = makeHotelReservation(catalog, 0);
    const auto graphs = graphPointers(app.graphs);
    const ProfilingSweepConfig sweep = tinySweep(0x5f11);
    const ProfilingMemoStats before = profilingMemoStats();

    RunnerOptions options;
    options.workers = 8;
    ParallelRunner runner(options);
    std::vector<std::function<std::string()>> tasks(8, [&] {
        return sampleBytes(collectProfilingSamples(catalog, graphs, sweep));
    });
    const std::vector<std::string> results =
        runner.runAll<std::string>(std::move(tasks));

    const ProfilingMemoStats after = profilingMemoStats();
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits + 7);
    EXPECT_EQ(after.entries, before.entries + 1);
    ASSERT_FALSE(results[0].empty());
    for (const std::string &bytes : results)
        EXPECT_EQ(bytes, results[0]);
}

// --- key sensitivity ---------------------------------------------------

struct CallSpec
{
    MicroserviceId parent;
    MicroserviceId child;
    int stage;
    double multiplicity;
};

struct GraphSpec
{
    ServiceId service;
    MicroserviceId root;
    std::vector<CallSpec> calls;
};

/** Every sweep input in editable form. */
struct MemoInputs
{
    std::vector<MicroserviceProfile> profiles;
    std::vector<GraphSpec> graphs;
    ProfilingSweepConfig sweep = tinySweep(0x6e7);
};

MemoInputs
baseInputs()
{
    MemoInputs in;
    for (int i = 0; i < 4; ++i) {
        MicroserviceProfile p;
        p.name = "ms-" + std::to_string(i);
        in.profiles.push_back(p);
    }
    in.graphs.push_back({0, 0, {{0, 1, 0, 1.0}, {0, 2, 1, 1.0}}});
    in.graphs.push_back({1, 3, {{3, 2, 0, 1.0}, {3, 1, 0, 1.0}}});
    return in;
}

/** Build the catalog and graphs, run the memo, return the key. */
std::string
sweepThroughMemo(const MemoInputs &in)
{
    MicroserviceCatalog catalog;
    for (const MicroserviceProfile &p : in.profiles)
        catalog.add(p);
    std::vector<DependencyGraph> graphs;
    for (const GraphSpec &spec : in.graphs) {
        graphs.emplace_back(spec.service, spec.root);
        for (const CallSpec &c : spec.calls)
            graphs.back().addCall(c.parent, c.child, c.stage,
                                  c.multiplicity);
    }
    const auto pointers = graphPointers(graphs);
    collectProfilingSamples(catalog, pointers, in.sweep);
    return detail::profilingMemoKey(catalog, pointers, in.sweep);
}

struct KeyEdit
{
    std::string name;
    std::function<void(MemoInputs &)> apply;
};

void
PrintTo(const KeyEdit &edit, std::ostream *os)
{
    *os << edit.name;
}

class ProfilingMemoKey : public ::testing::TestWithParam<KeyEdit>
{
};

TEST_P(ProfilingMemoKey, AnyChangedInputIsAMiss)
{
    const std::string base_key = sweepThroughMemo(baseInputs());
    MemoInputs edited = baseInputs();
    GetParam().apply(edited);
    const ProfilingMemoStats before = profilingMemoStats();
    const std::string edited_key = sweepThroughMemo(edited);
    const ProfilingMemoStats after = profilingMemoStats();
    EXPECT_NE(edited_key, base_key);
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits);
}

const KeyEdit kKeyEdits[] = {
    {"ProfileName", [](MemoInputs &in) { in.profiles[1].name = "other"; }},
    {"ProfileCpuCores",
     [](MemoInputs &in) { in.profiles[1].resources.cpuCores = 0.2; }},
    {"ProfileMemoryMb",
     [](MemoInputs &in) { in.profiles[1].resources.memoryMb = 300.0; }},
    {"ProfileThreads",
     [](MemoInputs &in) { in.profiles[1].threadsPerContainer = 5; }},
    {"ProfileBaseServiceMs",
     [](MemoInputs &in) { in.profiles[1].baseServiceMs = 2.5; }},
    {"ProfileServiceCv",
     [](MemoInputs &in) { in.profiles[1].serviceCv = 0.6; }},
    {"ProfileCpuSlowdown",
     [](MemoInputs &in) { in.profiles[1].cpuSlowdown = 1.3; }},
    {"ProfileMemSlowdown",
     [](MemoInputs &in) { in.profiles[1].memSlowdown = 1.9; }},
    {"ProfileNetworkMs",
     [](MemoInputs &in) { in.profiles[1].networkMs = 0.3; }},
    {"ExtraProfile",
     [](MemoInputs &in) {
         in.profiles.push_back(in.profiles[0]);
         in.profiles.back().name = "ms-4";
     }},
    {"CallCallee", [](MemoInputs &in) { in.graphs[0].calls[0].child = 3; }},
    {"CallStage", [](MemoInputs &in) { in.graphs[0].calls[1].stage = 0; }},
    {"CallMultiplicity",
     [](MemoInputs &in) { in.graphs[0].calls[1].multiplicity = 1.5; }},
    {"CallOrderWithinStage",
     [](MemoInputs &in) {
         // Same tree and stages; only the order of the two parallel
         // calls (and so of the nodes) differs.
         std::swap(in.graphs[1].calls[0], in.graphs[1].calls[1]);
     }},
    {"GraphService", [](MemoInputs &in) { in.graphs[1].service = 5; }},
    {"GraphRoot",
     [](MemoInputs &in) {
         in.graphs[1].root = 0;
         for (CallSpec &call : in.graphs[1].calls)
             call.parent = 0;
     }},
    {"GraphOrder",
     [](MemoInputs &in) { std::swap(in.graphs[0], in.graphs[1]); }},
    {"SweepLoadFraction",
     [](MemoInputs &in) { in.sweep.loadFractions[0] = 0.75; }},
    {"SweepExtraLoadFraction",
     [](MemoInputs &in) { in.sweep.loadFractions.push_back(1.0); }},
    {"SweepRatePerService",
     [](MemoInputs &in) { in.sweep.ratePerService = 2500.0; }},
    {"SweepInterferenceCpu",
     [](MemoInputs &in) { in.sweep.interferenceLevels[0].first = 0.2; }},
    {"SweepInterferenceMem",
     [](MemoInputs &in) { in.sweep.interferenceLevels[0].second = 0.2; }},
    {"SweepMinutesPerCell",
     [](MemoInputs &in) { in.sweep.minutesPerCell = 2; }},
    {"SweepHostCount", [](MemoInputs &in) { in.sweep.hostCount = 5; }},
    {"SweepSeed", [](MemoInputs &in) { in.sweep.seed += 1; }},
};

INSTANTIATE_TEST_SUITE_P(
    Edits, ProfilingMemoKey, ::testing::ValuesIn(kKeyEdits),
    [](const ::testing::TestParamInfo<KeyEdit> &info) {
        return info.param.name;
    });

// --- config validation -------------------------------------------------

struct BadSweep
{
    std::string name;
    std::function<void(ProfilingSweepConfig &)> apply;
};

void
PrintTo(const BadSweep &bad, std::ostream *os)
{
    *os << bad.name;
}

class ProfilingMemoValidation : public ::testing::TestWithParam<BadSweep>
{
};

TEST_P(ProfilingMemoValidation, RejectsBeforeTheLookup)
{
    MicroserviceCatalog catalog;
    const Application app = makeMotivationShared(catalog, 0);
    const auto graphs = graphPointers(app.graphs);
    ProfilingSweepConfig sweep = tinySweep(0x7a1);
    GetParam().apply(sweep);
    const ProfilingMemoStats before = profilingMemoStats();
    EXPECT_THROW(collectProfilingSamples(catalog, graphs, sweep), ErmsError);
    EXPECT_THROW(detail::sweepUncached(catalog, graphs, sweep), ErmsError);
    const ProfilingMemoStats after = profilingMemoStats();
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.entries, before.entries);
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

const BadSweep kBadSweeps[] = {
    {"NoLoadFraction",
     [](ProfilingSweepConfig &s) { s.loadFractions.clear(); }},
    {"ZeroLoadFraction",
     [](ProfilingSweepConfig &s) { s.loadFractions = {0.5, 0.0}; }},
    {"NegativeLoadFraction",
     [](ProfilingSweepConfig &s) { s.loadFractions = {-0.5}; }},
    {"NanLoadFraction",
     [](ProfilingSweepConfig &s) { s.loadFractions = {kNan}; }},
    {"InfiniteLoadFraction",
     [](ProfilingSweepConfig &s) { s.loadFractions = {kInf}; }},
    {"ZeroRate", [](ProfilingSweepConfig &s) { s.ratePerService = 0.0; }},
    {"NanRate", [](ProfilingSweepConfig &s) { s.ratePerService = kNan; }},
    {"InfiniteRate",
     [](ProfilingSweepConfig &s) { s.ratePerService = kInf; }},
    {"ZeroMinutesPerCell",
     [](ProfilingSweepConfig &s) { s.minutesPerCell = 0; }},
    {"ZeroHostCount", [](ProfilingSweepConfig &s) { s.hostCount = 0; }},
    {"NoInterferenceLevel",
     [](ProfilingSweepConfig &s) { s.interferenceLevels.clear(); }},
    {"NegativeCpuInterference",
     [](ProfilingSweepConfig &s) { s.interferenceLevels = {{-0.1, 0.1}}; }},
    {"MemInterferenceAboveOne",
     [](ProfilingSweepConfig &s) { s.interferenceLevels = {{0.1, 1.5}}; }},
    {"NanInterference",
     [](ProfilingSweepConfig &s) { s.interferenceLevels = {{kNan, 0.1}}; }},
};

INSTANTIATE_TEST_SUITE_P(
    Configs, ProfilingMemoValidation, ::testing::ValuesIn(kBadSweeps),
    [](const ::testing::TestParamInfo<BadSweep> &info) {
        return info.param.name;
    });

TEST(ProfilingMemo, RejectsMissingGraphs)
{
    MicroserviceCatalog catalog;
    makeMotivationShared(catalog, 0);
    const ProfilingMemoStats before = profilingMemoStats();
    EXPECT_THROW(collectProfilingSamples(catalog, {}, tinySweep(1)),
                 ErmsError);
    EXPECT_THROW(collectProfilingSamples(catalog, {nullptr}, tinySweep(1)),
                 ErmsError);
    EXPECT_EQ(profilingMemoStats().misses, before.misses);
    EXPECT_EQ(profilingMemoStats().entries, before.entries);
}

} // namespace
} // namespace erms
