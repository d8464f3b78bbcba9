/**
 * @file
 * Offline profiling pipeline (§5.2, Fig. 6 module 2): run the cluster
 * simulator across a grid of workloads and injected interference levels,
 * collect per-minute samples d_i^j for every microservice, fit the
 * piecewise latency model of Eq. (15), and attach the fitted models to a
 * catalog. This is the paper's multi-day DeathStarBench profiling run,
 * compressed into simulated minutes.
 */

#ifndef ERMS_CORE_PROFILING_PIPELINE_HPP
#define ERMS_CORE_PROFILING_PIPELINE_HPP

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/dependency_graph.hpp"
#include "model/catalog.hpp"
#include "profiling/piecewise_fit.hpp"
#include "profiling/sample.hpp"

namespace erms {

/** Grid configuration of the profiling sweep. */
struct ProfilingSweepConfig
{
    /**
     * Per-container load levels to visit, as fractions of each
     * microservice's knee workload (0.7x capacity) at the injected
     * interference. Fractions > 1 probe the steep second interval while
     * staying below hard saturation — mirroring the paper's controlled
     * sweep (Fig. 3 covers 0..~4000 requests/min/container). Container
     * counts are derived per cell from the service rate so every
     * microservice actually sees the requested per-container load.
     */
    std::vector<double> loadFractions{0.25, 0.5, 0.75, 1.0, 1.25};
    /** Request rate per service while profiling (requests/minute). */
    double ratePerService = 20000.0;
    /** Injected (CPU, memory) background utilization pairs. */
    std::vector<std::pair<double, double>> interferenceLevels{
        {0.05, 0.10}, {0.25, 0.20}, {0.45, 0.35}, {0.60, 0.55}};
    /** Simulated minutes per (fraction, interference) cell. */
    int minutesPerCell = 3;
    int hostCount = 20;
    std::uint64_t seed = 11;
};

/** Per-microservice samples collected by one profiling sweep. */
using ProfilingSamples =
    std::unordered_map<MicroserviceId, std::vector<ProfilingSample>>;

/**
 * Run the sweep for a set of services over one catalog. Returns the
 * collected per-minute samples per microservice.
 *
 * The sweep is a pure function of its inputs, so each distinct input is
 * swept once per process (the paper profiles every microservice offline
 * once, §5.2) and later calls return a copy of the stored samples. The
 * memo key is the exact bytes, compared in full, of everything the
 * sweep reads:
 *  - every MicroserviceProfile field of the catalog, in id order
 *    (doubles as bit patterns);
 *  - each graph's service, root, node order and calls (callee, stage,
 *    multiplicity), in the order given;
 *  - every ProfilingSweepConfig field.
 *
 * The key leaves the catalog's latency models out: the simulator reads
 * only profiles from the catalog, so two catalogs that differ only in
 * their attached models sweep identically (a test pins this). A new
 * field the simulator reads must join the key.
 *
 * Thread-safe and single-flight: callers that ask for one key at the
 * same time share one sweep — the first computes, the rest wait for
 * it. A sweep that throws leaves no entry and rethrows to every waiter,
 * so the next call sweeps again. Entries are never evicted; they hold
 * samples, not fitted models, and are a few KB each.
 *
 * @throws ErmsError if graphs is empty or holds a null pointer, or if
 *         the config is invalid: a load fraction or ratePerService not
 *         finite and > 0, minutesPerCell or hostCount < 1, no load
 *         fraction or interference level, or an interference level not
 *         finite and in [0, 1]. Validation precedes the memo lookup.
 */
ProfilingSamples
collectProfilingSamples(const MicroserviceCatalog &catalog,
                        const std::vector<const DependencyGraph *> &graphs,
                        const ProfilingSweepConfig &config);

/** Counters of the process-wide sweep memo behind
 *  collectProfilingSamples(). */
struct ProfilingMemoStats
{
    std::uint64_t hits = 0;   ///< calls answered by a stored sweep
    std::uint64_t misses = 0; ///< calls that ran the sweep
    std::size_t entries = 0;  ///< distinct inputs currently stored
};

/** A snapshot of the sweep memo's counters. */
ProfilingMemoStats profilingMemoStats();

/**
 * Fit Eq. (15) per microservice and attach the fitted models to the
 * catalog (replacing any bootstrap models). Microservices with too few
 * samples keep their previous model. Returns per-microservice training
 * accuracy.
 */
std::unordered_map<MicroserviceId, double>
fitAndAttachModels(MicroserviceCatalog &catalog,
                   const ProfilingSamples &samples,
                   const PiecewiseFitConfig &fit_config = {});

namespace detail {

/** The sweep body behind the memo. Tests call it as the reference. */
ProfilingSamples
sweepUncached(const MicroserviceCatalog &catalog,
              const std::vector<const DependencyGraph *> &graphs,
              const ProfilingSweepConfig &config);

/** The memo key of one sweep input (see collectProfilingSamples()). */
std::string
profilingMemoKey(const MicroserviceCatalog &catalog,
                 const std::vector<const DependencyGraph *> &graphs,
                 const ProfilingSweepConfig &config);

} // namespace detail

} // namespace erms

#endif // ERMS_CORE_PROFILING_PIPELINE_HPP
