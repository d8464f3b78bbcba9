/**
 * @file
 * The benchmark's workloads. Each one is a fixed scenario whose inputs
 * derive from one seed; setUp() builds the inputs (and may be repeated,
 * each repetition rebuilding them from scratch), runPipeline() runs the
 * timed pipeline once on them and reports the simulated outcome, the
 * work counters and a digest of every deterministic output.
 *
 * All timing of library layers happens from outside: spans around the
 * benchmark's own calls into public functions, plus the decorators of
 * decorators.hpp for calls the library makes internally (installed only
 * when `traced`).
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/** Outcome of one pipeline repetition. */
struct PipelineResult
{
    /** End-to-end simulated outcome (what a user of the controller
     *  sees), keyed by the metric names of BENCHMARK.json. */
    std::map<std::string, double> outcome;
    /** Work counters and per-layer figures known without spans. */
    std::map<std::string, double> counters;
    /** Digest of the deterministic outputs. */
    std::string digest;
    /** Failed output checks (empty when the outputs are correct). */
    std::vector<std::string> errors;
};

/** Outcome of one set-up repetition. */
struct SetupResult
{
    std::map<std::string, double> counters;
    std::string digest;
    std::vector<std::string> errors;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual SetupResult setUp(std::uint64_t seed) = 0;
    virtual PipelineResult runPipeline(bool traced) = 0;

    /** Extra standalone calls a traced run makes to time layers the
     *  pipeline only reaches through opaque library calls. */
    virtual std::map<std::string, double> probe() { return {}; }

    /** Runner workers the pipeline uses. */
    virtual int workers() const { return 1; }
};

/** @return nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/**
 * Tiny closed-loop scenario for the decorator-transparency self-test:
 * returns the digest of a short hotel-reservation run with or without
 * the TelemetryView / PlacementPolicy / minute-callback decorators.
 */
std::string transparencyDigest(bool decorated);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
