#include "profiling_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <mutex>
#include <type_traits>

#include "common/error.hpp"
#include "sim/simulation.hpp"

namespace erms {

namespace {

/** Knee workload (requests/min/container) of a microservice at the
 *  injected interference, from its known execution profile: 70% of
 *  threads / inflated-service-time capacity. */
double
profileKnee(const MicroserviceProfile &profile, double cpu_bg, double mem_bg)
{
    const double threads =
        static_cast<double>(std::max(1, profile.threadsPerContainer));
    const double inflated =
        profile.baseServiceMs *
        (1.0 + profile.cpuSlowdown * cpu_bg + profile.memSlowdown * mem_bg);
    return 0.7 * threads * 60000.0 / inflated;
}

/** Throw ErmsError unless the sweep inputs are well-formed. */
void
validateSweep(const std::vector<const DependencyGraph *> &graphs,
              const ProfilingSweepConfig &config)
{
    const auto fail = [](const std::string &what) {
        throw ErmsError("ProfilingSweepConfig: " + what);
    };
    if (graphs.empty())
        fail("no graph to profile");
    for (const DependencyGraph *graph : graphs)
        if (graph == nullptr)
            fail("null graph");
    if (config.loadFractions.empty())
        fail("no load fraction");
    for (double fraction : config.loadFractions)
        if (!std::isfinite(fraction) || fraction <= 0.0)
            fail("load fraction " + std::to_string(fraction) +
                 " is not finite and > 0");
    if (!std::isfinite(config.ratePerService) || config.ratePerService <= 0.0)
        fail("ratePerService " + std::to_string(config.ratePerService) +
             " is not finite and > 0");
    if (config.interferenceLevels.empty())
        fail("no interference level");
    for (const auto &[cpu, mem] : config.interferenceLevels)
        for (double level : {cpu, mem})
            if (!std::isfinite(level) || level < 0.0 || level > 1.0)
                fail("interference level " + std::to_string(level) +
                     " is not finite and in [0, 1]");
    if (config.minutesPerCell < 1)
        fail("minutesPerCell must be >= 1");
    if (config.hostCount < 1)
        fail("hostCount must be >= 1");
}

/** Appends fixed-width values to a memo key as their raw bytes. */
class KeyWriter
{
  public:
    template <typename T>
    KeyWriter &
    add(T value)
    {
        static_assert(std::is_arithmetic_v<T>);
        char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        key_.append(bytes, sizeof(T));
        return *this;
    }

    KeyWriter &
    add(const std::string &text)
    {
        add<std::uint64_t>(text.size());
        key_.append(text);
        return *this;
    }

    std::string take() { return std::move(key_); }

  private:
    std::string key_;
};

/** The process-wide sweep memo: one shared future per distinct key. */
struct SweepMemo
{
    std::mutex mutex;
    std::unordered_map<std::string, std::shared_future<ProfilingSamples>>
        entries;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

SweepMemo &
sweepMemo()
{
    static SweepMemo memo;
    return memo;
}

} // namespace

namespace detail {

std::string
profilingMemoKey(const MicroserviceCatalog &catalog,
                 const std::vector<const DependencyGraph *> &graphs,
                 const ProfilingSweepConfig &config)
{
    KeyWriter key;
    key.add<std::uint64_t>(catalog.size());
    for (MicroserviceId id = 0; id < catalog.size(); ++id) {
        const MicroserviceProfile &p = catalog.profile(id);
        key.add(p.name)
            .add(p.resources.cpuCores)
            .add(p.resources.memoryMb)
            .add(p.threadsPerContainer)
            .add(p.baseServiceMs)
            .add(p.serviceCv)
            .add(p.cpuSlowdown)
            .add(p.memSlowdown)
            .add(p.networkMs);
    }
    key.add<std::uint64_t>(graphs.size());
    for (const DependencyGraph *graph : graphs) {
        key.add(graph->service()).add(graph->root());
        key.add<std::uint64_t>(graph->nodes().size());
        for (MicroserviceId node : graph->nodes()) {
            const std::vector<DependencyGraph::Call> &calls =
                graph->calls(node);
            key.add(node).add<std::uint64_t>(calls.size());
            for (const DependencyGraph::Call &call : calls)
                key.add(call.callee).add(call.stage).add(call.multiplicity);
        }
    }
    key.add<std::uint64_t>(config.loadFractions.size());
    for (double fraction : config.loadFractions)
        key.add(fraction);
    key.add(config.ratePerService);
    key.add<std::uint64_t>(config.interferenceLevels.size());
    for (const auto &[cpu, mem] : config.interferenceLevels)
        key.add(cpu).add(mem);
    key.add(config.minutesPerCell).add(config.hostCount).add(config.seed);
    return key.take();
}

ProfilingSamples
sweepUncached(const MicroserviceCatalog &catalog,
              const std::vector<const DependencyGraph *> &graphs,
              const ProfilingSweepConfig &config)
{
    validateSweep(graphs, config);

    ProfilingSamples samples;
    std::uint64_t seed = config.seed;

    for (const auto &[cpu_bg, mem_bg] : config.interferenceLevels) {
        for (double fraction : config.loadFractions) {
            SimConfig sim_config;
            sim_config.hostCount = config.hostCount;
            sim_config.horizonMinutes = config.minutesPerCell + 1;
            sim_config.warmupMinutes = 1;
            sim_config.seed = seed++;
            Simulation sim(catalog, sim_config);
            sim.setBackgroundLoadAll(cpu_bg, mem_bg);

            // Aggregate per-microservice workload over all services, so
            // shared microservices get one consistent container count.
            std::unordered_map<MicroserviceId, double> total_gamma;
            for (const DependencyGraph *graph : graphs) {
                ServiceWorkload svc;
                svc.id = graph->service();
                svc.graph = graph;
                svc.rate = config.ratePerService;
                sim.addService(svc);
                for (const auto &[id, gamma] :
                     graph->workloads(config.ratePerService))
                    total_gamma[id] += gamma;
            }
            for (const auto &[id, gamma] : total_gamma) {
                const double knee =
                    profileKnee(catalog.profile(id), cpu_bg, mem_bg);
                // Round up so the realized per-container load never
                // exceeds the intended fraction (rounding down could
                // push a cell into hard saturation and poison the fit).
                const int containers = std::max(
                    1, static_cast<int>(std::ceil(
                           gamma / (fraction * knee) - 1e-9)));
                sim.setContainerCount(id, containers);
            }
            sim.run();

            for (const ProfilingRecord &record :
                 sim.metrics().profiling) {
                if (record.minute == 0)
                    continue; // warmup minute
                ProfilingSample s;
                s.latencyMs = record.tailLatencyMs;
                s.gamma = record.perContainerCalls;
                s.cpuUtil = record.cpuUtil;
                s.memUtil = record.memUtil;
                samples[record.microservice].push_back(s);
            }
        }
    }
    return samples;
}

} // namespace detail

ProfilingSamples
collectProfilingSamples(const MicroserviceCatalog &catalog,
                        const std::vector<const DependencyGraph *> &graphs,
                        const ProfilingSweepConfig &config)
{
    validateSweep(graphs, config);
    std::string key = detail::profilingMemoKey(catalog, graphs, config);

    SweepMemo &memo = sweepMemo();
    std::promise<ProfilingSamples> promise;
    std::shared_future<ProfilingSamples> result;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(memo.mutex);
        const auto it = memo.entries.find(key);
        if (it != memo.entries.end()) {
            ++memo.hits;
            result = it->second;
        } else {
            ++memo.misses;
            result = promise.get_future().share();
            memo.entries.emplace(key, result);
            owner = true;
        }
    }
    if (owner) {
        try {
            promise.set_value(
                detail::sweepUncached(catalog, graphs, config));
        } catch (...) {
            // Drop the entry before waking the waiters, so any call
            // after this one sweeps again instead of seeing the error.
            {
                std::lock_guard<std::mutex> lock(memo.mutex);
                memo.entries.erase(key);
            }
            promise.set_exception(std::current_exception());
        }
    }
    return result.get();
}

ProfilingMemoStats
profilingMemoStats()
{
    SweepMemo &memo = sweepMemo();
    std::lock_guard<std::mutex> lock(memo.mutex);
    return {memo.hits, memo.misses, memo.entries.size()};
}

std::unordered_map<MicroserviceId, double>
fitAndAttachModels(
    MicroserviceCatalog &catalog,
    const ProfilingSamples &samples,
    const PiecewiseFitConfig &fit_config)
{
    std::unordered_map<MicroserviceId, double> accuracy;
    for (const auto &[id, ms_samples] : samples) {
        if (ms_samples.size() < 2 * fit_config.minIntervalSamples)
            continue;
        PiecewiseFitResult result =
            fitPiecewiseModel(ms_samples, fit_config);
        catalog.setModel(id, result.model);
        accuracy.emplace(id, result.trainAccuracy);
    }
    return accuracy;
}

} // namespace erms
