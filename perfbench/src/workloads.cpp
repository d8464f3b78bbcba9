#include "workloads.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "apps/applications.hpp"
#include "common/rng.hpp"
#include "core/controllers.hpp"
#include "core/erms.hpp"
#include "core/profiling_pipeline.hpp"
#include "decorators.hpp"
#include "digest.hpp"
#include "fault/campaign.hpp"
#include "model/latency_model.hpp"
#include "shard/sharded_sim.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/view.hpp"
#include "trace.hpp"
#include "workload/generators.hpp"
#include "workload/synth_trace.hpp"

namespace perfbench {

using namespace erms;

namespace {

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/** A service as the outcome helpers see it. */
struct ServiceRef
{
    ServiceId id = kInvalidService;
    double slaMs = 0.0;
};

/** Content hash of a profiling sweep's inputs: equal hashes mean the
 *  sweep would compute identical samples (it is a pure function of
 *  the catalog, the graphs and the sweep config). */
std::uint64_t
sweepInputHash(const MicroserviceCatalog &catalog,
               const std::vector<const DependencyGraph *> &graphs,
               const ProfilingSweepConfig &sweep)
{
    Digest d;
    for (MicroserviceId id : catalog.ids()) {
        const MicroserviceProfile &p = catalog.profile(id);
        d.add(p.name)
            .add(p.resources.cpuCores)
            .add(p.resources.memoryMb)
            .add(p.threadsPerContainer)
            .add(p.baseServiceMs)
            .add(p.serviceCv)
            .add(p.cpuSlowdown)
            .add(p.memSlowdown)
            .add(p.networkMs);
    }
    for (const DependencyGraph *graph : graphs) {
        d.add(graph->service());
        for (MicroserviceId node : graph->nodes())
            for (const DependencyGraph::Call &call : graph->calls(node))
                d.add(node).add(call.callee).add(call.stage).add(
                    call.multiplicity);
    }
    for (double f : sweep.loadFractions)
        d.add(f);
    for (const auto &[cpu, mem] : sweep.interferenceLevels)
        d.add(cpu).add(mem);
    d.add(sweep.ratePerService)
        .add(sweep.minutesPerCell)
        .add(sweep.hostCount)
        .add(sweep.seed);
    return d.value();
}

/** Digest of the fitted latency models, evaluated on a fixed grid. */
void
digestModels(Digest &d, const MicroserviceCatalog &catalog)
{
    const Interference grid[] = {{0.1, 0.1}, {0.3, 0.3}, {0.6, 0.5}};
    for (MicroserviceId id : catalog.ids()) {
        const PiecewiseLatencyModel &model = catalog.model(id);
        for (const Interference &itf : grid) {
            d.add(model.cutoff(itf));
            for (double load : {50.0, 500.0, 2000.0})
                d.add(model.latency(load, itf));
        }
    }
}

std::size_t
sampleCount(
    const std::unordered_map<MicroserviceId, std::vector<ProfilingSample>>
        &samples)
{
    std::size_t n = 0;
    for (const auto &[id, list] : samples)
        n += list.size();
    return n;
}

/** Timed sweep + fit on a catalog; returns the sample count. */
std::size_t
profileCatalog(MicroserviceCatalog &catalog,
               const std::vector<const DependencyGraph *> &graphs,
               const ProfilingSweepConfig &sweep)
{
    std::unordered_map<MicroserviceId, std::vector<ProfilingSample>> samples;
    {
        ScopedSpan span("profiling.sweep", "profiling");
        samples = collectProfilingSamples(catalog, graphs, sweep);
    }
    {
        ScopedSpan span("profiling.fit", "profiling");
        fitAndAttachModels(catalog, samples);
    }
    return sampleCount(samples);
}

void
addGlobalPlan(Digest &d, const GlobalPlan &plan)
{
    std::vector<std::pair<MicroserviceId, int>> counts(
        plan.containers.begin(), plan.containers.end());
    std::sort(counts.begin(), counts.end());
    d.add("plan").add(plan.totalContainers).add(plan.totalResource);
    d.add(plan.feasible ? 1 : 0);
    for (const auto &[id, n] : counts)
        d.add(id).add(n);
}

void
checkPlan(const GlobalPlan &plan, std::vector<std::string> &errors)
{
    int total = 0;
    for (const auto &[id, n] : plan.containers) {
        if (n < 1)
            errors.push_back("plan deploys no container for a microservice");
        total += n;
    }
    if (total != plan.totalContainers)
        errors.push_back("plan container total disagrees with its counts");
}

/**
 * End-to-end outcome and per-minute rows of a finished simulation,
 * folded into the digest, plus output checks every run must pass.
 */
void
simOutcome(const SimMetrics &m, const std::vector<ServiceRef> &services,
           int horizon_minutes, int warmup_minutes, PipelineResult &out,
           Digest &d)
{
    double slo_sum = 0.0;
    double worst_p95 = 0.0;
    d.add("sim").add(m.eventsDispatched).add(m.requestsGenerated);
    d.add(m.requestsCompleted).add(m.requestsFailed);
    for (const ServiceRef &svc : services) {
        const double p95 = m.p95(svc.id);
        const double slo = m.sloViolationRate(svc.id, svc.slaMs);
        d.add(svc.id).add(p95).add(slo);
        slo_sum += slo;
        worst_p95 = std::max(worst_p95, p95);
        if (!(p95 > 0.0))
            out.errors.push_back("service " + std::to_string(svc.id) +
                                 " completed no request");
    }

    // Per-minute rows: deployed containers at each boundary and the
    // worst per-service minute P95 against its SLA.
    std::vector<MicroserviceId> ids;
    for (const auto &[id, timeline] : m.containerTimeline)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    std::map<std::uint64_t, long> containers_at;
    for (MicroserviceId id : ids)
        for (const auto &[minute, count] : m.containerTimeline.at(id))
            containers_at[minute] += count;
    double container_minutes = 0.0;
    for (const auto &[minute, count] : containers_at) {
        d.add(minute).add(static_cast<std::int64_t>(count));
        container_minutes += static_cast<double>(count);
    }
    int violating = 0;
    int evaluated = 0;
    for (int minute = warmup_minutes; minute < horizon_minutes; ++minute) {
        bool violates = false;
        for (const ServiceRef &svc : services) {
            auto it = m.endToEndByMinute.find(svc.id);
            if (it == m.endToEndByMinute.end())
                continue;
            const SampleSet &window =
                it->second.window(static_cast<std::uint64_t>(minute));
            if (window.empty())
                continue;
            const double p95 = window.p95();
            d.add(p95);
            violates = violates || p95 > svc.slaMs;
        }
        ++evaluated;
        violating += violates ? 1 : 0;
    }

    const double finished =
        static_cast<double>(m.requestsCompleted + m.requestsFailed);
    out.outcome["slo_violation_pct"] =
        100.0 * slo_sum / static_cast<double>(services.size());
    out.outcome["violating_minutes_pct"] =
        evaluated > 0 ? 100.0 * violating / evaluated : 0.0;
    out.outcome["container_minutes"] = container_minutes;
    out.outcome["worst_p95_ms"] = worst_p95;
    out.outcome["failed_request_ratio"] =
        finished > 0.0 ? static_cast<double>(m.requestsFailed) / finished
                       : 0.0;
    out.counters["sim.events"] = static_cast<double>(m.eventsDispatched);
    out.counters["sim.requests_completed"] =
        static_cast<double>(m.requestsCompleted);
    out.counters["sim.requests_failed"] =
        static_cast<double>(m.requestsFailed);

    if (m.eventsDispatched == 0)
        out.errors.push_back("simulation dispatched no event");
    if (m.requestsCompleted + m.requestsFailed > m.requestsGenerated)
        out.errors.push_back("more requests finished than were generated");
    if (containers_at.empty())
        out.errors.push_back("no container timeline was recorded");
}

std::shared_ptr<PlacementPolicy>
timedSpread()
{
    return std::make_shared<TimedPlacementPolicy>(
        std::make_shared<SpreadPlacementPolicy>());
}

// ---------------------------------------------------------------------
// dynamic_hotel: profiled hotel-reservation under the closed-loop Erms
// controller observing through scraped telemetry (the Fig. 13 shape).
// ---------------------------------------------------------------------

constexpr int kHotelMinutes = 12;
constexpr int kHotelWarmup = 1;
constexpr double kHotelSlaMs = 160.0;
constexpr double kHotelBaseRate = 4000.0;
constexpr double kHotelPeakRate = 14000.0;

ProfilingSweepConfig
hotelSweep(std::uint64_t seed)
{
    ProfilingSweepConfig sweep;
    sweep.ratePerService = 6000.0;
    sweep.minutesPerCell = 1;
    sweep.interferenceLevels = {{0.05, 0.10}, {0.30, 0.25}, {0.60, 0.55}};
    sweep.seed = deriveRunSeed(seed, 0);
    return sweep;
}

/**
 * Hotel-reservation closed loop: the initial Erms plan, then the Erms
 * autoscaler over scraped telemetry while every service replays
 * `series`. dynamic_hotel's pipeline and the transparency self-test.
 */
PipelineResult
hotelClosedLoop(const MicroserviceCatalog &catalog, const Application &app,
                const std::vector<double> &series, std::uint64_t sim_seed,
                bool traced)
{
    PipelineResult out;
    Digest d;
    // The initial deployment carries the controller's headroom, so the
    // run does not start with a backlog (as in bench_fig13_dynamic).
    std::vector<ServiceSpec> services;
    for (const DependencyGraph &graph : app.graphs) {
        ServiceSpec spec;
        spec.id = graph.service();
        spec.graph = &graph;
        spec.slaMs = kHotelSlaMs;
        spec.workload = series.front() * 1.3;
        services.push_back(spec);
    }
    ErmsConfig config;
    config.workloadHeadroom = 1.2;
    ErmsController controller(catalog, config);
    const Interference itf{0.25, 0.2};
    GlobalPlan initial;
    {
        ScopedSpan span("scaling.plan", "scaling");
        initial = controller.plan(services, itf);
    }
    checkPlan(initial, out.errors);
    addGlobalPlan(d, initial);

    SimConfig sim_config;
    sim_config.horizonMinutes = static_cast<int>(series.size());
    sim_config.warmupMinutes = kHotelWarmup;
    sim_config.seed = sim_seed;
    Simulation sim(catalog, sim_config);
    telemetry::SimMonitor monitor;
    sim.setMonitor(&monitor);
    sim.setBackgroundLoadAll(itf.cpuUtil, itf.memUtil);
    if (traced)
        sim.setPlacementPolicy(timedSpread());
    for (const DependencyGraph &graph : app.graphs) {
        ServiceWorkload svc;
        svc.id = graph.service();
        svc.graph = &graph;
        svc.slaMs = kHotelSlaMs;
        svc.rateSeries = series;
        sim.addService(svc);
    }
    {
        ScopedSpan span("sim.apply_plan", "sim");
        sim.applyPlan(initial);
    }

    std::shared_ptr<const telemetry::TelemetryView> view =
        std::make_shared<telemetry::ScrapedTelemetryView>(monitor);
    if (traced)
        view = std::make_shared<TimedTelemetryView>(view);
    MinuteCallback control =
        makeDynamicController(controller, services, view);
    if (traced)
        control = timedMinuteCallback(std::move(control));
    sim.setMinuteCallback(std::move(control));
    {
        ScopedSpan span("sim.run", "sim");
        sim.run();
    }

    std::vector<ServiceRef> refs;
    for (const ServiceSpec &spec : services)
        refs.push_back({spec.id, spec.slaMs});
    simOutcome(sim.metrics(), refs, sim_config.horizonMinutes,
               kHotelWarmup, out, d);
    d.add("scrapes").add(monitor.snapshots().size());
    out.digest = d.hex();
    return out;
}

class DynamicHotel : public Workload
{
  public:
    SetupResult
    setUp(std::uint64_t seed) override
    {
        ScopedSpan span("setup", "bench");
        seed_ = seed;
        catalog_ = std::make_unique<MicroserviceCatalog>();
        app_ = std::make_unique<Application>(
            makeHotelReservation(*catalog_, 0));
        std::vector<const DependencyGraph *> graphs;
        for (const DependencyGraph &graph : app_->graphs)
            graphs.push_back(&graph);
        const ProfilingSweepConfig sweep = hotelSweep(seed);

        SetupResult out;
        out.counters["profiling.samples"] =
            static_cast<double>(profileCatalog(*catalog_, graphs, sweep));
        out.counters["profiling.sweeps"] = 1.0;
        out.counters["profiling.redundant_sweeps"] = 0.0;
        out.counters["profiling.unique_ratio"] = 1.0;

        // Half a diurnal cycle with mild noise and exactly one two-minute
        // 1.25x flash crowd at a seed-chosen minute: every seed replays
        // about the same traffic, so seeds differ in noise, not in work.
        series_ = diurnalSeries(kHotelMinutes, kHotelBaseRate,
                                kHotelPeakRate, 2.0 * kHotelMinutes, 0.05,
                                deriveRunSeed(seed, 1));
        Rng rng(deriveRunSeed(seed, 3));
        const auto burst = static_cast<std::size_t>(
            rng.uniformInt(kHotelWarmup + 1, kHotelMinutes - 3));
        series_[burst] *= 1.25;
        series_[burst + 1] *= 1.25;

        Digest d;
        digestModels(d, *catalog_);
        for (double rate : series_)
            d.add(rate);
        out.digest = d.hex();
        if (catalog_->size() != 15)
            out.errors.push_back("hotel-reservation catalog is not 15 "
                                 "microservices");
        return out;
    }

    PipelineResult
    runPipeline(bool traced) override
    {
        return hotelClosedLoop(*catalog_, *app_, series_,
                               deriveRunSeed(seed_, 2), traced);
    }

  private:
    std::uint64_t seed_ = 0;
    std::unique_ptr<MicroserviceCatalog> catalog_;
    std::unique_ptr<Application> app_;
    std::vector<double> series_;
};

// ---------------------------------------------------------------------
// taobao_sharded: the 500-service / 1200-host disjoint-group catalog,
// one Erms plan over every service, then a K = 4 sharded run with a
// crash schedule and per-shard capacity repair.
// ---------------------------------------------------------------------

constexpr int kGroups = 100;
constexpr int kServicesPerGroup = 5;
constexpr int kTaobaoHosts = 1200;
constexpr int kTaobaoMinutes = 6;
constexpr int kTaobaoWarmup = 1;
constexpr int kTaobaoShards = 4;
constexpr int kTaobaoWorkers = 2;
constexpr double kTaobaoRate = 300.0;
constexpr double kTaobaoSlaMs = 1.0;
constexpr double kTaobaoCrashesPerMinute = 30.0;
constexpr double kTaobaoCallFailureProbability = 0.001;

MicroserviceId
addTaobaoMs(MicroserviceCatalog &catalog, const std::string &name,
            double base_ms, int threads)
{
    MicroserviceProfile profile;
    profile.name = name;
    profile.resources = ResourceSpec{0.1, 200.0};
    profile.threadsPerContainer = threads;
    profile.baseServiceMs = base_ms;
    profile.serviceCv = 0.3;
    profile.cpuSlowdown = 0.5;
    profile.memSlowdown = 0.6;
    profile.networkMs = 0.01;
    const MicroserviceId id = catalog.add(profile);
    catalog.setModel(id, approximateModelFromProfile(profile));
    return id;
}

class TaobaoSharded : public Workload
{
  public:
    int workers() const override { return kTaobaoWorkers; }

    SetupResult
    setUp(std::uint64_t seed) override
    {
        ScopedSpan span("setup", "bench");
        seed_ = seed;
        catalog_ = std::make_unique<MicroserviceCatalog>();
        graphs_.clear();
        graphs_.reserve(kGroups * kServicesPerGroup);
        services_.clear();
        // Groups are connected components: five services whose graphs
        // are front -> {cache, mid} -> db, with cache and db shared
        // inside the group only. Per-service rates vary +-10% by seed.
        Rng rng(deriveRunSeed(seed, 0));
        ServiceId next = 0;
        for (int g = 0; g < kGroups; ++g) {
            const std::string prefix = "g" + std::to_string(g);
            const MicroserviceId cache =
                addTaobaoMs(*catalog_, prefix + "-cache", 0.04, 8);
            const MicroserviceId db =
                addTaobaoMs(*catalog_, prefix + "-db", 0.06, 4);
            for (int s = 0; s < kServicesPerGroup; ++s) {
                const std::string svc = prefix + "s" + std::to_string(s);
                const MicroserviceId front =
                    addTaobaoMs(*catalog_, svc + "-front", 0.05, 8);
                const MicroserviceId mid =
                    addTaobaoMs(*catalog_, svc + "-mid", 0.05, 4);
                DependencyGraph graph(next, front);
                graph.addCall(front, cache, /*stage=*/0);
                graph.addCall(front, mid, /*stage=*/0);
                graph.addCall(mid, db, /*stage=*/0);
                graphs_.push_back(std::move(graph));

                ServiceSpec spec;
                spec.id = next;
                spec.graph = &graphs_.back();
                spec.slaMs = kTaobaoSlaMs;
                spec.workload = kTaobaoRate * (0.9 + 0.2 * rng.uniform());
                services_.push_back(spec);
                ++next;
            }
        }

        SetupResult out;
        Digest d;
        for (const ServiceSpec &spec : services_)
            d.add(spec.id).add(spec.workload).add(spec.graph->size());
        out.digest = d.hex();
        if (catalog_->size() != 1200 || services_.size() != 500)
            out.errors.push_back("taobao fixture is not 1200 microservices "
                                 "/ 500 services");
        return out;
    }

    PipelineResult
    runPipeline(bool traced) override
    {
        PipelineResult out;
        Digest d;
        const Interference itf{0.2, 0.2};
        ErmsController controller(*catalog_, {});
        GlobalPlan plan;
        {
            ScopedSpan span("scaling.plan", "scaling");
            plan = controller.plan(services_, itf);
        }
        checkPlan(plan, out.errors);
        addGlobalPlan(d, plan);

        shard::ShardedSimConfig config;
        config.base.hostCount = kTaobaoHosts;
        config.base.horizonMinutes = kTaobaoMinutes;
        config.base.warmupMinutes = kTaobaoWarmup;
        config.base.seed = deriveRunSeed(seed_, 1);
        config.shards = kTaobaoShards;
        config.runner.workers = kTaobaoWorkers;
        shard::ShardedSimulation sim(*catalog_, config);
        sim.setBackgroundLoadAll(itf.cpuUtil, itf.memUtil);
        for (const ServiceSpec &spec : services_) {
            ServiceWorkload workload;
            workload.id = spec.id;
            workload.graph = spec.graph;
            workload.slaMs = spec.slaMs;
            workload.rate = spec.workload;
            sim.addService(workload);
        }
        const int shards = sim.shardCount();
        if (traced)
            for (int k = 0; k < shards; ++k)
                sim.shard(k).setPlacementPolicy(timedSpread());
        {
            ScopedSpan span("shard.apply_plan", "shard");
            sim.applyPlan(plan);
        }
        FaultConfig faults;
        faults.seed = deriveRunSeed(seed_, 2);
        faults.crashesPerMinute = kTaobaoCrashesPerMinute;
        faults.callFailureProbability = kTaobaoCallFailureProbability;
        sim.setFaultConfig(faults);
        for (int k = 0; k < shards; ++k) {
            MinuteCallback repair =
                makeCapacityRepairController(sim.shardLocalPlan(k));
            if (traced)
                repair = timedMinuteCallback(std::move(repair));
            sim.setShardMinuteController(k, std::move(repair));
        }
        {
            ScopedSpan span("shard.run", "shard");
            if (SpanRecorder *recorder = SpanRecorder::active())
                recorder->adoptWorkers(span.id());
            sim.run();
            if (SpanRecorder *recorder = SpanRecorder::active())
                recorder->adoptWorkers(-1);
        }

        std::vector<ServiceRef> refs;
        for (const ServiceSpec &spec : services_)
            refs.push_back({spec.id, spec.slaMs});
        simOutcome(sim.metrics(), refs, kTaobaoMinutes, kTaobaoWarmup, out,
                   d);

        // Per-shard event counts: their sum must be the merged count.
        std::uint64_t sum = 0;
        std::uint64_t most = 0;
        for (int k = 0; k < shards; ++k) {
            const std::uint64_t events =
                sim.shard(k).metrics().eventsDispatched;
            d.add(events);
            sum += events;
            most = std::max(most, events);
        }
        if (sum != sim.eventsDispatched() ||
            sum != sim.metrics().eventsDispatched)
            out.errors.push_back("per-shard event counts do not add up to "
                                 "the merged count");
        const FaultStats &f = sim.metrics().faults;
        d.add(f.containerCrashes).add(f.containerRestarts).add(f.callsFailed);
        if (f.containerCrashes == 0)
            out.errors.push_back("crash schedule injected no crash");
        out.counters["shard.event_imbalance"] =
            sum > 0 ? static_cast<double>(most) * shards /
                          static_cast<double>(sum)
                    : 0.0;
        out.digest = d.hex();
        return out;
    }

  private:
    std::uint64_t seed_ = 0;
    std::unique_ptr<MicroserviceCatalog> catalog_;
    std::vector<DependencyGraph> graphs_;
    std::vector<ServiceSpec> services_;
};

// ---------------------------------------------------------------------
// campaign_med: guarded chaos-campaign arms at "med" intensity, run one
// after another; every arm profiles the same catalog inside
// runCampaign.
// ---------------------------------------------------------------------

const char *const kCampaignControllers[] = {"erms", "grandslam"};

/** A smaller campaign population than the battery default (two
 *  services over 16 microservices), so one arm stays near two seconds.
 *  The catalog is fixed; the traffic follows the seed. */
SynthTraceConfig
campaignTrace()
{
    SynthTraceConfig trace = campaignTraceConfig();
    trace.microserviceCount = 16;
    trace.serviceCount = 2;
    trace.minGraphSize = 2;
    trace.maxGraphSize = 3;
    trace.workloadLow = 8000.0;
    trace.workloadHigh = 12000.0;
    return trace;
}

/** The sweep runCampaign performs for a config (see campaign.cpp). */
ProfilingSweepConfig
campaignSweep(const CampaignConfig &config)
{
    ProfilingSweepConfig sweep;
    sweep.hostCount = config.hostCount;
    sweep.minutesPerCell = 2;
    return sweep;
}

class CampaignMed : public Workload
{
  public:
    SetupResult
    setUp(std::uint64_t seed) override
    {
        ScopedSpan span("setup", "bench");
        arms_.clear();
        std::set<std::uint64_t> inputs;
        for (const char *name : kCampaignControllers) {
            CampaignConfig arm = makeCampaignArm("med", name, true);
            arm.trace = campaignTrace();
            // The seed drives the traffic (workload shapes and the
            // simulator); the fault schedule stays the one that
            // defines "med".
            arm.seed = deriveRunSeed(seed, 0);
            arms_.push_back(arm);

            const SynthTrace trace = makeSynthTrace(arm.trace);
            std::vector<const DependencyGraph *> graphs;
            for (const DependencyGraph &graph : trace.graphs)
                graphs.push_back(&graph);
            inputs.insert(
                sweepInputHash(trace.catalog, graphs, campaignSweep(arm)));
        }

        SetupResult out;
        const double sweeps = static_cast<double>(arms_.size());
        const double unique = static_cast<double>(inputs.size());
        out.counters["profiling.sweeps"] = sweeps;
        out.counters["profiling.redundant_sweeps"] = sweeps - unique;
        out.counters["profiling.unique_ratio"] = unique / sweeps;
        Digest d;
        for (const CampaignConfig &arm : arms_)
            d.add(arm.controller)
                .add(arm.seed)
                .add(arm.faults.seed)
                .add(arm.telemetryFaults.seed)
                .add(arm.faults.azEvents.seed);
        for (std::uint64_t hash : inputs)
            d.add(hash);
        out.digest = d.hex();
        return out;
    }

    PipelineResult
    runPipeline(bool /*traced*/) override
    {
        PipelineResult out;
        Digest d;
        double violation = 0.0;
        double container_minutes = 0.0;
        double worst_p95 = 0.0;
        int rows = 0;
        int violating = 0;
        double rejections = 0.0;
        double fallback = 0.0;
        double scrapes = 0.0;
        for (const CampaignConfig &arm : arms_) {
            CampaignResult result;
            {
                ScopedSpan span("campaign.arm", "fault");
                result = runCampaign(arm);
            }
            d.add(arm.controller);
            for (const CampaignMinute &row : result.minutes) {
                d.add(row.minute)
                    .add(row.containers)
                    .add(row.violationPct)
                    .add(row.worstP95Ms)
                    .add(row.guardMode);
                ++rows;
                violating += row.violationPct > 5.0 ? 1 : 0;
            }
            d.add(result.violationPct)
                .add(result.worstP95Ms)
                .add(result.containerMinutes);
            const telemetry::GuardStats &g = result.guard;
            d.add(g.cycles).add(g.fallbackCycles).add(g.rejectedBounds);
            d.add(g.rejectedOutliers).add(g.transitions);
            d.add(result.perturbedHistory.size());

            if (static_cast<int>(result.minutes.size()) != arm.horizonMinutes)
                out.errors.push_back("campaign arm " + arm.controller +
                                     " did not report every minute");
            if (result.perturbedHistory.empty())
                out.errors.push_back("campaign arm " + arm.controller +
                                     " saw no scrape");
            violation += result.violationPct;
            container_minutes += result.containerMinutes;
            worst_p95 = std::max(worst_p95, result.worstP95Ms);
            rejections +=
                static_cast<double>(g.rejectedBounds + g.rejectedOutliers);
            fallback += static_cast<double>(g.fallbackCycles);
            scrapes += static_cast<double>(result.perturbedHistory.size());
        }
        const double arms = static_cast<double>(arms_.size());
        out.outcome["slo_violation_pct"] = violation / arms;
        out.outcome["violating_minutes_pct"] =
            rows > 0 ? 100.0 * violating / rows : 0.0;
        out.outcome["container_minutes"] = container_minutes;
        out.outcome["worst_p95_ms"] = worst_p95;
        out.outcome["failed_request_ratio"] = 0.0;
        out.counters["guard.rejections"] = rejections;
        out.counters["guard.fallback_cycles"] = fallback;
        out.counters["campaign.scrapes"] = scrapes;
        out.digest = d.hex();
        return out;
    }

    std::map<std::string, double>
    probe() override
    {
        // runCampaign profiles internally; time one standalone sweep on
        // the first arm's inputs to split an arm into profiling and the
        // rest.
        ScopedSpan span("probe", "bench");
        SynthTrace trace = makeSynthTrace(arms_.front().trace);
        std::vector<const DependencyGraph *> graphs;
        for (const DependencyGraph &graph : trace.graphs)
            graphs.push_back(&graph);
        const std::size_t samples = profileCatalog(
            trace.catalog, graphs, campaignSweep(arms_.front()));
        return {{"profiling.samples", static_cast<double>(samples)}};
    }

  private:
    std::vector<CampaignConfig> arms_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "campaign_med")
        return std::make_unique<CampaignMed>();
    if (name == "dynamic_hotel")
        return std::make_unique<DynamicHotel>();
    if (name == "taobao_sharded")
        return std::make_unique<TaobaoSharded>();
    return nullptr;
}

std::string
transparencyDigest(bool decorated)
{
    // Hotel-reservation on its bootstrap models (no profiling), over a
    // short ramp that forces scale-out and scale-in.
    MicroserviceCatalog catalog;
    const Application app = makeHotelReservation(catalog, 0);
    return hotelClosedLoop(catalog, app, {1500.0, 3000.0, 6000.0, 2000.0,
                                          1000.0},
                           17, decorated)
        .digest;
}

} // namespace perfbench
