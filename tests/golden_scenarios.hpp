/**
 * @file
 * Deterministic golden scenarios: trimmed-size versions of the fig12
 * (static validation), fig13 (closed-loop dynamic) and fault-sweep
 * experiments whose outputs are pinned byte-for-byte under
 * tests/golden/. Every double is printed as a hexfloat so a single-ULP
 * drift anywhere in the pipeline (RNG, solver, simulator, telemetry,
 * runner dispatch) fails the comparison. scripts/regen_golden.sh
 * rewrites the committed tables after an intentional behaviour change.
 */

#ifndef ERMS_TESTS_GOLDEN_SCENARIOS_HPP
#define ERMS_TESTS_GOLDEN_SCENARIOS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/dependency_graph.hpp"
#include "model/catalog.hpp"

namespace erms::golden {

/** One golden scenario: file name under tests/golden/ plus producer. */
struct Scenario
{
    std::string file;
    std::string (*produce)();
};

/** Trimmed fig12: profile a small app through the offline sweep, plan
 *  under all three sharing policies, validate each plan in the
 *  simulator at a fixed seed. */
std::string fig12Golden();

/** Trimmed fig13: hotel-reservation under closed-loop controllers
 *  (Erms oracle, Erms scraped-telemetry, Firm) over a short dynamic
 *  series. Pins telemetry-driven control end to end. */
std::string fig13Golden();

/** Trimmed fault sweep through ParallelRunner: crash/slowdown configs
 *  across seeds with retries and capacity repair. Identical output
 *  however many runner workers execute it. */
std::string faultSweepGolden();

/** Trimmed tenant market: two motivation-shared tenants (honest vs
 *  greedy) on counter-phased demand under makeMarketController, run
 *  against both the max-min and the Karma allocator. Pins per-minute
 *  caps, trimmed container counts, tail latencies and the final credit
 *  ledger. */
std::string marketGolden();

/** Trimmed chaos campaign: one guarded Erms arm of the "med"
 *  correlated-chaos battery (AZ events on both fault planes, scaled
 *  counter corruption) on a reduced diurnal trace population. Pins the
 *  per-minute violation/guard-state trajectory and the perturbed
 *  scrape stream's shape end to end. */
std::string chaosCampaignGolden();

/** A randomized shared-microservice workload, fully determined by the
 *  seed: the same seed always builds the same catalog, graphs, rates,
 *  and initial container counts. */
struct FuzzWorkload
{
    MicroserviceCatalog catalog;
    std::vector<std::unique_ptr<DependencyGraph>> graphs;
    std::vector<MicroserviceId> microservices;
    std::vector<ServiceId> serviceIds;
    std::vector<double> rates;
    std::vector<int> initialContainers; ///< parallel to microservices
};

FuzzWorkload buildFuzzWorkload(std::uint64_t seed);

/** Run one seeded fuzz workload with scale churn, crashes, slowdowns,
 *  retries, timeouts and hedges all on, and return a hexfloat digest
 *  of everything the run observes. */
std::string dispatchFuzzDigest(std::uint64_t seed);

/** Dispatch fuzz: dispatchFuzzDigest over seeds 1..20. Generated while
 *  the binary-heap event engine still shipped and matched the calendar
 *  engine byte for byte, so this table is the heap engine's frozen
 *  output — the simulation-level ordering oracle. */
std::string dispatchFuzzGolden();

/** All golden scenarios in regeneration order. */
const std::vector<Scenario> &scenarios();

} // namespace erms::golden

#endif // ERMS_TESTS_GOLDEN_SCENARIOS_HPP
