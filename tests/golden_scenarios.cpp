#include "golden_scenarios.hpp"

#include <cstdio>
#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/controllers.hpp"
#include "core/profiling_pipeline.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "market/market.hpp"
#include "sim/simulation.hpp"
#include "telemetry/guarded_view.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/view.hpp"
#include "workload/generators.hpp"

namespace erms::golden {
namespace {

using bench::makeServices;
using bench::runSweep;
using bench::validatePlanFaulty;

/** Hexfloat rendering: bit-exact, so one ULP of drift changes the
 *  golden file. */
std::string
hex(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

std::string
hexList(const std::vector<double> &values)
{
    std::ostringstream out;
    for (std::size_t i = 0; i < values.size(); ++i)
        out << (i ? " " : "") << hex(values[i]);
    return out.str();
}

// ---------------------------------------------------------------------
// fig12 (trimmed): offline profiling -> plan -> simulator validation
// ---------------------------------------------------------------------

std::string
fig12Impl()
{
    MicroserviceCatalog catalog;
    const Application app = makeMotivationShared(catalog, 0);

    // Trimmed profiling sweep: 2 load levels x 2 interference levels,
    // one minute per cell. Covers the profiling layer without the full
    // grid's runtime.
    std::vector<const DependencyGraph *> graphs;
    for (const auto &graph : app.graphs)
        graphs.push_back(&graph);
    ProfilingSweepConfig sweep;
    sweep.loadFractions = {0.5, 1.0};
    sweep.interferenceLevels = {{0.10, 0.10}, {0.45, 0.35}};
    sweep.minutesPerCell = 1;
    sweep.ratePerService = 6000.0;
    sweep.seed = 11;
    fitAndAttachModels(catalog,
                       collectProfilingSamples(catalog, graphs, sweep));

    const auto services = makeServices(app, 240.0, 12000.0);
    const Interference itf{0.25, 0.2};

    std::ostringstream out;
    out << "golden fig12 (trimmed): motivation-shared, profiled, "
           "SLA 240 ms, 12000 req/min, seed 42\n";
    out << "policy containers p95_ms violation_rate slo_violation_rate "
           "requests_completed\n";
    for (SharingPolicy policy :
         {SharingPolicy::Priority, SharingPolicy::FcfsSharing,
          SharingPolicy::NonSharing}) {
        ErmsConfig config;
        config.policy = policy;
        ErmsController controller(catalog, config);
        const GlobalPlan plan = controller.plan(services, itf);
        int containers = 0;
        for (const auto &[ms, count] : plan.containers)
            containers += count;
        const auto result =
            bench::validatePlan(catalog, services, plan, itf, 3, 42);
        out << bench::policyName(policy) << ' ' << containers << ' '
            << hexList(result.p95Ms) << ' '
            << hexList(result.violationRate) << ' '
            << hexList(result.sloViolationRate) << ' '
            << result.requestsCompleted << '\n';
    }
    return out.str();
}

// ---------------------------------------------------------------------
// fig13 (trimmed): closed-loop dynamic control, oracle and scraped
// ---------------------------------------------------------------------

struct DynamicGoldenRow
{
    std::vector<int> containers;
    std::vector<double> p95;
};

DynamicGoldenRow
runDynamicGolden(const MicroserviceCatalog &catalog, const Application &app,
                 const std::vector<double> &series, double sla,
                 const std::function<void(Simulation &, int)> &controller,
                 const GlobalPlan &initial,
                 telemetry::SimMonitor *monitor)
{
    SimConfig config;
    config.horizonMinutes = static_cast<int>(series.size());
    config.warmupMinutes = 1;
    config.seed = 5;
    Simulation sim(catalog, config);
    if (monitor != nullptr)
        sim.setMonitor(monitor);
    sim.setBackgroundLoadAll(0.25, 0.2);
    for (const auto &graph : app.graphs) {
        ServiceWorkload svc;
        svc.id = graph.service();
        svc.graph = &graph;
        svc.slaMs = sla;
        svc.rateSeries = series;
        sim.addService(svc);
    }
    sim.applyPlan(initial);

    DynamicGoldenRow row;
    sim.setMinuteCallback([&](Simulation &s, int minute) {
        controller(s, minute);
        int total = 0;
        for (const auto &graph : app.graphs)
            for (MicroserviceId id : graph.nodes())
                total += s.containerCount(id);
        row.containers.push_back(total);
        double worst = 0.0;
        for (const auto &graph : app.graphs) {
            auto it = s.metrics().endToEndByMinute.find(graph.service());
            if (it == s.metrics().endToEndByMinute.end())
                continue;
            worst = std::max(
                worst, it->second.window(static_cast<std::uint64_t>(minute))
                           .p95());
        }
        row.p95.push_back(worst);
    });
    sim.run();
    return row;
}

std::string
fig13Impl()
{
    MicroserviceCatalog catalog;
    const Application app = makeHotelReservation(catalog, 0);
    // Bootstrap analytic models (attached by the factory) keep the
    // scenario fast; the profiling layer is pinned by fig12.
    const double sla = 200.0;
    constexpr int kMinutes = 6;
    const auto series =
        alibabaLikeSeries(kMinutes, 4000.0, 9000.0, 12.0, 0.05, 0.0, 1.0,
                          1, 9);

    const auto services = makeServices(app, sla, series.front() * 1.3);
    ErmsConfig erms_config;
    erms_config.workloadHeadroom = 1.2;
    ErmsController controller(catalog, erms_config);
    const GlobalPlan initial =
        controller.plan(services, Interference{0.25, 0.2});

    std::ostringstream out;
    out << "golden fig13 (trimmed): hotel-reservation, SLA 200 ms, "
        << kMinutes << " min dynamic series, seed 5\n";
    out << "scheme minute containers worst_p95_ms\n";

    const auto emit = [&out](const std::string &name,
                             const DynamicGoldenRow &row) {
        for (std::size_t m = 0; m < row.containers.size(); ++m)
            out << name << ' ' << m << ' ' << row.containers[m] << ' '
                << hex(row.p95[m]) << '\n';
    };

    emit("erms-oracle",
         runDynamicGolden(catalog, app, series, sla,
                          controller.makeAutoscaler(services), initial,
                          nullptr));
    {
        // Scraped-telemetry variant: pins monitor scrapes, span
        // sampling and the view's delta computations end to end.
        telemetry::SimMonitor monitor;
        auto view =
            std::make_shared<telemetry::ScrapedTelemetryView>(monitor);
        emit("erms-scraped",
             runDynamicGolden(catalog, app, series, sla,
                              makeDynamicController(controller, services,
                                                    view),
                              initial, &monitor));
    }
    emit("firm",
         runDynamicGolden(catalog, app, series, sla,
                          makeFirmReactiveController(catalog, services),
                          initial, nullptr));
    return out.str();
}

// ---------------------------------------------------------------------
// Fault sweep (trimmed), dispatched through ParallelRunner
// ---------------------------------------------------------------------

std::string
faultSweepImpl()
{
    MicroserviceCatalog catalog;
    const Application app = makeMotivationShared(catalog, 0);
    const auto services = makeServices(app, 240.0, 12000.0);
    const Interference itf{0.2, 0.2};
    ErmsController controller(catalog, ErmsConfig{});
    const GlobalPlan plan = controller.plan(services, itf);

    struct Case
    {
        double crashesPerMinute;
        double slowdownsPerMinute;
        std::uint64_t seed;
    };
    const std::vector<Case> cases{
        {2.0, 0.0, 42},
        {2.0, 0.0, 43},
        {0.0, 1.5, 42},
        {3.0, 1.0, 44},
    };

    std::vector<std::function<bench::ValidationResult()>> tasks;
    for (const Case &c : cases) {
        tasks.push_back([&, c] {
            FaultConfig fault;
            fault.seed = 0xfa17ULL + c.seed;
            fault.crashesPerMinute = c.crashesPerMinute;
            fault.slowdownsPerMinute = c.slowdownsPerMinute;
            ResilienceConfig resilience;
            resilience.maxRetries = 2;
            resilience.timeoutMs = 400.0;
            return validatePlanFaulty(catalog, services, plan, itf, fault,
                                      resilience, 3, c.seed);
        });
    }
    // Through ParallelRunner: the table must come out identical with
    // ERMS_RUNNER_THREADS=1 and with the hardware default (pinned by
    // scripts/check.sh running the golden suite under both).
    const auto results = runSweep("golden-fault", std::move(tasks));

    std::ostringstream out;
    out << "golden fault sweep (trimmed): motivation-shared, Erms plan, "
           "retries=2, timeout 400 ms\n";
    out << "crashes_per_min slowdowns_per_min seed crashes restarts "
           "slowdown_windows retries timeouts failed "
           "slo_violation_rate\n";
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto &c = cases[i];
        const auto &r = results[i];
        out << hex(c.crashesPerMinute) << ' ' << hex(c.slowdownsPerMinute)
            << ' ' << c.seed << ' ' << r.faults.containerCrashes << ' '
            << r.faults.containerRestarts << ' '
            << r.faults.slowdownWindows << ' ' << r.faults.callRetries
            << ' ' << r.faults.callTimeouts << ' ' << r.requestsFailed
            << ' ' << hexList(r.sloViolationRate) << '\n';
    }
    return out.str();
}

// ---------------------------------------------------------------------
// Tenant market (trimmed): capped closed-loop control, both allocators
// ---------------------------------------------------------------------

std::string
marketImpl()
{
    MicroserviceCatalog catalog;
    std::vector<Application> apps;
    apps.push_back(makeMotivationShared(catalog, 0));
    apps.push_back(makeMotivationShared(catalog, 2));

    constexpr int kMinutes = 5;
    constexpr double kSla = 240.0;
    constexpr market::Units kCapacity = 16;
    // Counter-phased diurnal demand: tenant 0 peaks while tenant 1
    // troughs, so caps bind alternately and credits change hands.
    std::vector<std::vector<double>> series;
    series.push_back(phaseShiftedDiurnalSeries(
        kMinutes, 4000.0, 12000.0, kMinutes, 0.0, 0.05, 21));
    series.push_back(phaseShiftedDiurnalSeries(
        kMinutes, 4000.0, 12000.0, kMinutes, kMinutes / 2.0, 0.05, 22));

    std::vector<ServiceSpec> services;
    std::vector<MarketTenantServices> tenants;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (std::size_t i = 0; i < apps[a].graphs.size(); ++i) {
            ServiceSpec svc;
            svc.id = apps[a].graphs[i].service();
            svc.name = apps[a].serviceNames[i];
            svc.graph = &apps[a].graphs[i];
            svc.slaMs = kSla;
            svc.workload = series[a].front() * 1.3;
            services.push_back(svc);
        }
        MarketTenantServices tenant;
        tenant.tenant = static_cast<market::TenantId>(a);
        for (const auto &graph : apps[a].graphs)
            for (MicroserviceId id : graph.nodes())
                if (std::find(tenant.microservices.begin(),
                              tenant.microservices.end(),
                              id) == tenant.microservices.end())
                    tenant.microservices.push_back(id);
        tenants.push_back(std::move(tenant));
    }

    ErmsController controller(catalog, {});
    const GlobalPlan initial =
        controller.plan(services, Interference{0.25, 0.2});

    std::ostringstream out;
    out << "golden market (trimmed): 2x motivation-shared tenants "
           "(honest, greedy), capacity "
        << kCapacity << " units, SLA 240 ms, " << kMinutes
        << " min counter-phased series, seed 5\n";
    out << "scheme minute t0_containers t1_containers t0_cap t1_cap "
           "worst_p95_ms\n";

    std::ostringstream accounts;
    for (int scheme = 0; scheme < 2; ++scheme) {
        const std::string name = scheme == 0 ? "max-min" : "karma";
        std::unique_ptr<market::MarketAllocator> allocator;
        if (scheme == 0)
            allocator = std::make_unique<market::MaxMinAllocator>();
        else
            allocator = std::make_unique<market::KarmaAllocator>(
                tenants.size(), market::KarmaConfig{.initialCredits = 4});
        std::vector<std::unique_ptr<market::TenantPolicy>> policies;
        policies.push_back(market::makeHonestPolicy());
        policies.push_back(market::makeGreedyPolicy());
        auto tenant_market = std::make_shared<market::TenantMarket>(
            kCapacity, std::move(allocator), std::move(policies));

        SimConfig config;
        config.horizonMinutes = kMinutes;
        config.warmupMinutes = 1;
        config.seed = 5;
        Simulation sim(catalog, config);
        sim.setBackgroundLoadAll(0.25, 0.2);
        for (std::size_t s = 0; s < services.size(); ++s) {
            ServiceWorkload svc;
            svc.id = services[s].id;
            svc.graph = services[s].graph;
            svc.slaMs = kSla;
            svc.rateSeries = series[s / 2];
            sim.addService(svc);
        }
        sim.applyPlan(initial);

        auto wrapped = makeMarketController(
            controller.makeAutoscaler(services), tenant_market, tenants);
        sim.setMinuteCallback([&](Simulation &s, int minute) {
            wrapped(s, minute);
            out << name << ' ' << minute;
            for (const auto &tenant : tenants) {
                int total = 0;
                for (MicroserviceId id : tenant.microservices)
                    total += s.containerCount(id);
                out << ' ' << total;
            }
            for (const auto cap : tenant_market->lastEpoch().caps)
                out << ' ' << cap;
            double worst = 0.0;
            for (const ServiceSpec &svc : services) {
                auto it = s.metrics().endToEndByMinute.find(svc.id);
                if (it == s.metrics().endToEndByMinute.end())
                    continue;
                worst = std::max(
                    worst,
                    it->second.window(static_cast<std::uint64_t>(minute))
                        .p95());
            }
            out << ' ' << hex(worst) << '\n';
        });
        sim.run();

        for (std::size_t t = 0; t < tenants.size(); ++t) {
            const auto &account = tenant_market->accounts()[t];
            accounts << name << " tenant " << t << " allocated "
                     << account.allocatedIntegral << " useful "
                     << account.usefulIntegral << " true "
                     << account.trueIntegral << " declared "
                     << account.declaredIntegral;
            if (tenant_market->ledger() != nullptr)
                accounts << " credits "
                         << tenant_market->ledger()->balance(
                                static_cast<market::TenantId>(t));
            accounts << '\n';
        }
    }
    out << accounts.str();
    return out.str();
}

// ---------------------------------------------------------------------
// chaos campaign (trimmed): correlated AZ events + series corruption
// ---------------------------------------------------------------------

std::string
chaosCampaignImpl()
{
    // The "med" battery arm (fault planes, corruption, seeds all from
    // makeCampaignArm, so the golden pins the battery's own schedule)
    // on a reduced population: the same shrink the campaign test suite
    // uses for fast in-suite runs.
    CampaignConfig config = makeCampaignArm("med", "erms", true);
    config.horizonMinutes = 6;
    config.hostCount = 10;
    config.trace.microserviceCount = 24;
    config.trace.serviceCount = 2;
    config.trace.workloadLow = 30000.0;
    config.trace.workloadHigh = 40000.0;

    const CampaignResult result = runCampaign(config);

    std::ostringstream out;
    out << "golden chaos campaign (trimmed): med/erms/guarded, "
           "6 minutes, 10 hosts, 24 microservices\n";
    out << "minute containers guard violation_pct worst_p95_ms\n";
    for (const CampaignMinute &row : result.minutes) {
        const char *guard =
            row.guardMode < 0
                ? "naive"
                : telemetry::guardModeName(
                      static_cast<telemetry::GuardMode>(row.guardMode));
        out << row.minute << ' ' << row.containers << ' ' << guard << ' '
            << hex(row.violationPct) << ' ' << hex(row.worstP95Ms)
            << '\n';
    }
    out << "summary violation_pct " << hex(result.violationPct)
        << " worst_p95_ms " << hex(result.worstP95Ms)
        << " container_minutes " << hex(result.containerMinutes) << '\n';
    out << "guard fallback_cycles " << result.guard.fallbackCycles
        << " stale_cycles " << result.guard.staleCycles
        << " substituted_last_good " << result.guard.substitutedLastGood
        << '\n';
    out << "perturbed_scrapes " << result.perturbedHistory.size() << '\n';
    std::size_t series = 0;
    for (const auto &snap : result.perturbedHistory)
        series += snap.series.size();
    out << "perturbed_series_total " << series << '\n';
    return out.str();
}

// ---------------------------------------------------------------------
// dispatch fuzz: randomized workloads under scale churn + faults
// ---------------------------------------------------------------------

void
appendHex(std::string &out, double v)
{
    out += hex(v);
    out += ' ';
}

void
appendInt(std::string &out, std::uint64_t v)
{
    out += std::to_string(v);
    out += ' ';
}

/** Hexfloat digest of everything a run observes: ULP-exact, so two
 *  runs compare byte-for-byte. */
std::string
metricsDigest(const SimMetrics &metrics,
              const std::vector<ServiceId> &services,
              const std::vector<MicroserviceId> &microservices)
{
    std::string out;
    appendInt(out, metrics.requestsGenerated);
    appendInt(out, metrics.requestsCompleted);
    appendInt(out, metrics.requestsFailed);
    appendInt(out, metrics.eventsDispatched);
    appendInt(out, metrics.faults.containerCrashes);
    appendInt(out, metrics.faults.containerRestarts);
    appendInt(out, metrics.faults.firstAttempts);
    appendInt(out, metrics.faults.callRetries);
    appendInt(out, metrics.faults.hedgesLaunched);
    appendInt(out, metrics.faults.hedgeWins);
    appendInt(out, metrics.faults.callTimeouts);
    appendInt(out, metrics.faults.crashFailures);
    appendInt(out, metrics.faults.callsFailed);
    out += "\n";
    for (ServiceId svc : services) { // caller-sorted, deterministic
        const auto it = metrics.endToEndMs.find(svc);
        if (it == metrics.endToEndMs.end())
            continue;
        appendInt(out, svc);
        appendInt(out, it->second.count());
        appendHex(out, it->second.mean());
        appendHex(out, it->second.p50());
        appendHex(out, it->second.p95());
        appendHex(out, it->second.min());
        appendHex(out, it->second.max());
        const auto failed = metrics.failedByService.find(svc);
        appendInt(out, failed == metrics.failedByService.end()
                           ? 0
                           : failed->second);
        out += "\n";
    }
    for (const ProfilingRecord &rec : metrics.profiling) {
        appendInt(out, rec.microservice);
        appendInt(out, rec.minute);
        appendHex(out, rec.tailLatencyMs);
        appendHex(out, rec.meanLatencyMs);
        appendHex(out, rec.perContainerCalls);
        appendHex(out, rec.cpuUtil);
        appendHex(out, rec.memUtil);
        appendInt(out, rec.sampleCount);
        appendInt(out, static_cast<std::uint64_t>(rec.containers));
        out += "\n";
    }
    for (MicroserviceId ms : microservices) { // sorted-ids idiom
        const auto it = metrics.containerTimeline.find(ms);
        if (it == metrics.containerTimeline.end())
            continue;
        appendInt(out, ms);
        for (const auto &[minute, count] : it->second) {
            appendInt(out, minute);
            appendInt(out, static_cast<std::uint64_t>(count));
        }
        out += "\n";
    }
    return out;
}

} // namespace

FuzzWorkload
buildFuzzWorkload(std::uint64_t seed)
{
    FuzzWorkload w;
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5ca1ab1eULL);

    const int n_ms = 4 + static_cast<int>(rng.uniformInt(0, 3));
    for (int i = 0; i < n_ms; ++i) {
        MicroserviceProfile profile;
        char name[16];
        std::snprintf(name, sizeof name, "ms%d", i);
        profile.name = name;
        profile.baseServiceMs = rng.uniform(0.5, 5.0);
        profile.threadsPerContainer =
            static_cast<int>(rng.uniformInt(2, 8));
        profile.serviceCv = rng.bernoulli(0.25) ? 0.0 : rng.uniform(0.2, 0.9);
        profile.networkMs = rng.uniform(0.05, 0.3);
        w.microservices.push_back(w.catalog.add(profile));
        w.initialContainers.push_back(
            static_cast<int>(rng.uniformInt(2, 5)));
    }

    // Random trees over random subsets: microservices are shared across
    // services (the Erms premise), each appearing at most once per tree.
    const int n_svc = 2 + static_cast<int>(rng.uniformInt(0, 1));
    for (int s = 0; s < n_svc; ++s) {
        std::vector<MicroserviceId> pool = w.microservices;
        rng.shuffle(pool);
        const std::size_t n_nodes = static_cast<std::size_t>(
            rng.uniformInt(3, static_cast<std::int64_t>(pool.size())));
        const ServiceId svc = static_cast<ServiceId>(100 + s);
        auto graph = std::make_unique<DependencyGraph>(svc, pool[0]);
        for (std::size_t i = 1; i < n_nodes; ++i) {
            const MicroserviceId parent = pool[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(i) - 1))];
            const int stage = static_cast<int>(rng.uniformInt(0, 1));
            const double multiplicity =
                rng.bernoulli(0.2) ? 2.0 : 1.0;
            graph->addCall(parent, pool[i], stage, multiplicity);
        }
        w.serviceIds.push_back(svc);
        w.rates.push_back(rng.uniform(1000.0, 5000.0));
        w.graphs.push_back(std::move(graph));
    }
    return w;
}

std::string
dispatchFuzzDigest(std::uint64_t seed)
{
    const FuzzWorkload w = buildFuzzWorkload(seed);

    SimConfig config;
    config.hostCount = 6;
    config.horizonMinutes = 3;
    config.warmupMinutes = 1;
    config.containerStartupMs = 400.0;
    config.seed = seed;
    Simulation sim(w.catalog, config);

    FaultConfig faults;
    faults.seed = seed ^ 0xfa17ULL;
    faults.crashesPerMinute = 1.5;
    faults.restartDelayMs = 1500.0;
    faults.slowdownsPerMinute = 0.5;
    sim.setFaultConfig(faults);

    ResilienceConfig resilience;
    resilience.maxRetries = 1;
    resilience.timeoutMs = 25.0;
    resilience.hedgeDelayMs = 10.0;
    sim.setResilienceConfig(resilience);

    for (std::size_t i = 0; i < w.graphs.size(); ++i) {
        ServiceWorkload svc;
        svc.id = w.serviceIds[i];
        svc.graph = w.graphs[i].get();
        svc.rate = w.rates[i];
        svc.slaMs = 50.0;
        sim.addService(svc);
    }
    for (std::size_t i = 0; i < w.microservices.size(); ++i)
        sim.setContainerCount(w.microservices[i], w.initialContainers[i]);

    // Seeded scale events at every minute boundary: the callback's RNG
    // stream depends only on the call sequence (one call per minute),
    // so the scale decisions depend on nothing but the seed.
    auto churn = std::make_shared<Rng>(seed + 0x5ca1eULL);
    const std::vector<MicroserviceId> ids = w.microservices;
    sim.setMinuteCallback([churn, ids](Simulation &s, int) {
        for (MicroserviceId ms : ids) {
            if (churn->bernoulli(0.4))
                s.setContainerCount(
                    ms, 1 + static_cast<int>(churn->uniformInt(0, 4)));
        }
    });

    sim.run();
    return metricsDigest(sim.metrics(), w.serviceIds, w.microservices);
}

std::string
dispatchFuzzGolden()
{
    std::string out;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        out += "seed " + std::to_string(seed) + "\n";
        out += dispatchFuzzDigest(seed);
    }
    return out;
}

std::string
fig12Golden()
{
    return fig12Impl();
}

std::string
fig13Golden()
{
    return fig13Impl();
}

std::string
faultSweepGolden()
{
    return faultSweepImpl();
}

std::string
marketGolden()
{
    return marketImpl();
}

std::string
chaosCampaignGolden()
{
    return chaosCampaignImpl();
}

const std::vector<Scenario> &
scenarios()
{
    static const std::vector<Scenario> kScenarios{
        {"fig12.txt", &fig12Golden},
        {"fig13.txt", &fig13Golden},
        {"fault_sweep.txt", &faultSweepGolden},
        {"market.txt", &marketGolden},
        {"chaos_campaign.txt", &chaosCampaignGolden},
        {"dispatch_fuzz.txt", &dispatchFuzzGolden},
    };
    return kScenarios;
}

} // namespace erms::golden
