/**
 * @file
 * §6.5.2 reproduction: scaling overhead of the Online Scaling pipeline,
 * measured with google-benchmark.
 *  - Latency Target Computation on dependency graphs of growing size
 *    (paper: ~15 ms on average, ~300 ms for a 1000+-microservice graph);
 *  - full multiplexing plans over many services;
 *  - one interference-aware placement decision across a host fleet
 *    (paper: resource provisioning ~200 ms).
 */

#include <benchmark/benchmark.h>

#include <functional>

#include "common/rng.hpp"
#include "event_engine_scenario.hpp"
#include "graph/dependency_graph.hpp"
#include "model/catalog.hpp"
#include "provision/batch_placement.hpp"
#include "provision/interference_aware.hpp"
#include "runner/parallel_runner.hpp"
#include "scaling/multiplexing.hpp"
#include "sim/simulation.hpp"
#include "workload/synth_trace.hpp"

using namespace erms;

namespace {

/** One random service graph over a fresh catalog of `nodes` services. */
SynthTrace
makeSingleGraphTrace(int nodes)
{
    SynthTraceConfig config;
    config.microserviceCount = nodes;
    config.serviceCount = 1;
    config.minGraphSize = nodes;
    config.maxGraphSize = nodes;
    config.seed = 23;
    return makeSynthTrace(config);
}

void
BM_LatencyTargetComputation(benchmark::State &state)
{
    const int nodes = static_cast<int>(state.range(0));
    const SynthTrace trace = makeSingleGraphTrace(nodes);
    LatencyTargetSolver solver(trace.catalog, ClusterCapacity{});
    ServiceScalingRequest request;
    request.graph = &trace.graphs.front();
    request.slaMs = 50.0 * trace.graphs.front().depth();
    request.workload = 10000.0;
    const Interference itf{0.3, 0.3};

    for (auto _ : state) {
        auto result = solver.solve(request, itf);
        benchmark::DoNotOptimize(result);
    }
    state.SetLabel(std::to_string(nodes) + " microservices");
}
BENCHMARK(BM_LatencyTargetComputation)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void
BM_MultiplexingPlan(benchmark::State &state)
{
    const int service_count = static_cast<int>(state.range(0));
    SynthTraceConfig config;
    config.microserviceCount = 2000;
    config.serviceCount = service_count;
    config.minGraphSize = 30;
    config.maxGraphSize = 70;
    config.seed = 29;
    const SynthTrace trace = makeSynthTrace(config);

    std::vector<ServiceSpec> services;
    for (std::size_t i = 0; i < trace.graphs.size(); ++i) {
        ServiceSpec svc;
        svc.id = trace.graphs[i].service();
        svc.graph = &trace.graphs[i];
        svc.slaMs = trace.slaMs[i] + 150.0;
        svc.workload = trace.workloads[i];
        services.push_back(svc);
    }
    MultiplexingPlanner planner(trace.catalog, ClusterCapacity{});
    const Interference itf{0.3, 0.3};

    for (auto _ : state) {
        auto plan = planner.plan(services, itf);
        benchmark::DoNotOptimize(plan);
    }
    state.SetLabel(std::to_string(service_count) + " services");
}
BENCHMARK(BM_MultiplexingPlan)
    ->Arg(10)
    ->Arg(50)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

void
BM_PlacementDecision(benchmark::State &state)
{
    const std::size_t host_count = static_cast<std::size_t>(state.range(0));
    Rng rng(31);
    std::vector<HostView> hosts(host_count);
    for (std::size_t h = 0; h < host_count; ++h) {
        hosts[h].id = static_cast<HostId>(h);
        hosts[h].cpuAllocatedCores = rng.uniform(0.0, 20.0);
        hosts[h].memAllocatedMb = rng.uniform(0.0, 40000.0);
        hosts[h].backgroundCpuUtil = rng.uniform(0.0, 0.5);
        hosts[h].backgroundMemUtil = rng.uniform(0.0, 0.5);
    }
    ProvisionConfig config;
    config.popGroupSize = 64; // POP grouping (§5.4)
    InterferenceAwarePlacement policy(config);

    for (auto _ : state) {
        auto pick = policy.placeContainer(hosts, 0.1, 200.0);
        benchmark::DoNotOptimize(pick);
    }
    state.SetLabel(std::to_string(host_count) + " hosts");
}
BENCHMARK(BM_PlacementDecision)
    ->Arg(20)
    ->Arg(500)
    ->Arg(5000)
    ->Unit(benchmark::kMicrosecond);

void
BM_BatchProvisioning(benchmark::State &state)
{
    // The paper's §6.5.2 anchor: scale <= 1000 containers across 5000
    // hosts (~200 ms in their deployment).
    const std::size_t host_count = 5000;
    const int container_count = static_cast<int>(state.range(0));
    Rng rng(37);
    std::vector<HostView> hosts(host_count);
    for (std::size_t h = 0; h < host_count; ++h) {
        hosts[h].id = static_cast<HostId>(h);
        hosts[h].cpuAllocatedCores = rng.uniform(0.0, 20.0);
        hosts[h].memAllocatedMb = rng.uniform(0.0, 40000.0);
        hosts[h].backgroundCpuUtil = rng.uniform(0.0, 0.5);
        hosts[h].backgroundMemUtil = rng.uniform(0.0, 0.5);
    }
    MicroserviceCatalog catalog;
    std::unordered_map<MicroserviceId, int> deltas;
    for (int m = 0; m < 20; ++m) {
        MicroserviceProfile profile;
        profile.name = "ms" + std::to_string(m);
        deltas[catalog.add(profile)] = container_count / 20;
    }
    ProvisionConfig config;
    config.popGroupSize = 64;

    for (auto _ : state) {
        InterferenceAwarePlacement policy(config);
        auto result = placeBatch(catalog, hosts, deltas, policy);
        benchmark::DoNotOptimize(result);
    }
    state.SetLabel(std::to_string(container_count) +
                   " containers / 5000 hosts");
}
BENCHMARK(BM_BatchProvisioning)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void
BM_ParallelSimulationSweep(benchmark::State &state)
{
    // Speedup of the experiment runner itself: a fixed 8-run simulation
    // sweep executed with 1..N workers. Per-run seeds derive from the
    // run index, so every worker count produces identical metrics.
    const int workers = static_cast<int>(state.range(0));
    MicroserviceCatalog catalog;
    MicroserviceProfile profile;
    profile.name = "sweep-ms";
    profile.baseServiceMs = 10.0;
    profile.threadsPerContainer = 2;
    profile.serviceCv = 0.4;
    const MicroserviceId ms = catalog.add(profile);
    const DependencyGraph graph(0, ms);

    for (auto _ : state) {
        RunnerOptions options;
        options.workers = workers;
        ParallelRunner runner(options);
        std::vector<std::function<double()>> tasks;
        for (std::uint64_t run = 0; run < 8; ++run) {
            tasks.push_back([&, run] {
                SimConfig config;
                config.horizonMinutes = 2;
                config.seed = deriveRunSeed(101, run);
                Simulation sim(catalog, config);
                ServiceWorkload svc;
                svc.id = 0;
                svc.graph = &graph;
                svc.rate = 4000.0 + 500.0 * static_cast<double>(run);
                sim.addService(svc);
                sim.setContainerCount(ms, 4);
                sim.run();
                return sim.metrics().p95(0);
            });
        }
        auto results = runner.runAll(std::move(tasks));
        benchmark::DoNotOptimize(results);
    }
    state.SetLabel(std::to_string(workers) + " workers / 8 runs");
}
BENCHMARK(BM_ParallelSimulationSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------
// Event-engine throughput (events/second in the items_per_second
// column). bench_event_engine writes the same measurement as JSON
// (BENCH_event_engine.json).
// ---------------------------------------------------------------------

void
BM_EventEngineRawDispatch(benchmark::State &state)
{
    constexpr std::uint64_t kEvents = 2'000'000;
    std::uint64_t total = 0;
    for (auto _ : state) {
        const bench::EngineRun run = bench::runRawQueue(kEvents);
        total += run.events;
        benchmark::DoNotOptimize(run);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_EventEngineRawDispatch)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_EventEngineSimulation(benchmark::State &state)
{
    // The suite's largest simulation configuration, timed end to end;
    // items/second counts dispatched simulator events.
    std::uint64_t total = 0;
    for (auto _ : state) {
        const bench::EngineRun run = bench::runSimScenario(/*minutes=*/1);
        total += run.events;
        benchmark::DoNotOptimize(run);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_EventEngineSimulation)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
