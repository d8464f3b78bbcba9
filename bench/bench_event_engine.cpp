/**
 * @file
 * Event-engine perf trajectory: measures the raw queue (dense and
 * sparse timer populations) and the largest simulation configuration,
 * then writes absolute events per second (median, min and max over the
 * repetitions) together with the host's CPU model and online CPU count
 * as machine-readable JSON.
 *
 * Equal-work gate: every raw repetition must dispatch exactly its
 * requested event count, and every simulation repetition must dispatch
 * the same count; otherwise the numbers describe different work and
 * the program exits nonzero.
 *
 * Usage: bench_event_engine [output.json]
 * Default output: BENCH_event_engine.json in the current directory.
 * Entry point: scripts/bench_perf.sh (writes to the repo root).
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "event_engine_scenario.hpp"

#ifdef __linux__
#include <sched.h>
#endif

using namespace erms;
using namespace erms::bench;

namespace {

/** All repetitions of one workload, in run order. */
template <typename Fn>
std::vector<EngineRun>
repeat(int reps, Fn &&fn)
{
    std::vector<EngineRun> runs;
    for (int i = 0; i < reps; ++i)
        runs.push_back(fn());
    return runs;
}

/** The "model name" line of /proc/cpuinfo, or "unknown". */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon != std::string::npos && colon + 2 <= line.size())
            return line.substr(colon + 2);
    }
    return "unknown";
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
onlineCpus()
{
#ifdef __linux__
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
#endif
    return std::thread::hardware_concurrency();
}

/** Every repetition dispatched `expected` events. */
bool
sameWork(const char *name, const std::vector<EngineRun> &runs,
         std::uint64_t expected)
{
    for (const EngineRun &run : runs) {
        if (run.events != expected) {
            std::fprintf(stderr,
                         "FAIL: %s dispatched %llu events, expected %llu\n",
                         name, static_cast<unsigned long long>(run.events),
                         static_cast<unsigned long long>(expected));
            return false;
        }
    }
    return true;
}

/** Events per second of every repetition, ascending. */
std::vector<double>
sortedRates(const std::vector<EngineRun> &runs)
{
    std::vector<double> rates;
    for (const EngineRun &run : runs)
        rates.push_back(run.eventsPerSec());
    std::sort(rates.begin(), rates.end());
    return rates;
}

void
writeSection(std::FILE *out, const char *name,
             const std::vector<EngineRun> &runs, bool last)
{
    const std::vector<double> rates = sortedRates(runs);
    std::fprintf(out, "  \"%s\": {\n    \"rep_events\": [", name);
    for (std::size_t i = 0; i < runs.size(); ++i)
        std::fprintf(out, "%s%llu", i ? ", " : "",
                     static_cast<unsigned long long>(runs[i].events));
    std::fprintf(out, "],\n    \"rep_seconds\": [");
    for (std::size_t i = 0; i < runs.size(); ++i)
        std::fprintf(out, "%s%.6f", i ? ", " : "", runs[i].seconds);
    std::fprintf(out,
                 "],\n"
                 "    \"events_per_sec_median\": %.0f,\n"
                 "    \"events_per_sec_min\": %.0f,\n"
                 "    \"events_per_sec_max\": %.0f\n"
                 "  }%s\n",
                 rates[rates.size() / 2], rates.front(), rates.back(),
                 last ? "" : ",");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string path =
        argc > 1 ? argv[1] : "BENCH_event_engine.json";

    constexpr std::uint64_t kRawEvents = 8'000'000;
    constexpr std::uint64_t kSparseEvents = 2'000'000;
    constexpr int kSimMinutes = 1;
    constexpr int kSimScale = 8;
    constexpr int kReps = 5; // odd, so the median is one real run

    std::fprintf(stderr, "raw queue...\n");
    const std::vector<EngineRun> raw =
        repeat(kReps, [] { return runRawQueue(kRawEvents); });
    std::fprintf(stderr, "sparse raw queue...\n");
    const std::vector<EngineRun> sparse =
        repeat(kReps, [] { return runRawQueueSparse(kSparseEvents); });
    std::fprintf(stderr, "simulation (largest config)...\n");
    const std::vector<EngineRun> sim = repeat(
        kReps, [] { return runSimScenario(kSimMinutes, kSimScale); });

    const bool fair = sameWork("raw queue", raw, kRawEvents) &&
                      sameWork("sparse raw queue", sparse,
                               kSparseEvents) &&
                      sameWork("simulation", sim, sim.front().events);

    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"benchmark\": \"event_engine\",\n");
    std::fprintf(out, "  \"host_cpu_model\": \"%s\",\n",
                 cpuModel().c_str());
    std::fprintf(out, "  \"host_nproc\": %u,\n", onlineCpus());
    std::fprintf(out, "  \"raw_events_requested\": %llu,\n",
                 static_cast<unsigned long long>(kRawEvents));
    std::fprintf(out, "  \"raw_sparse_events_requested\": %llu,\n",
                 static_cast<unsigned long long>(kSparseEvents));
    std::fprintf(out, "  \"sim_minutes\": %d,\n", kSimMinutes);
    std::fprintf(out, "  \"sim_scale\": %d,\n", kSimScale);
    std::fprintf(out, "  \"reps\": %d,\n", kReps);
    writeSection(out, "raw_queue", raw, /*last=*/false);
    writeSection(out, "raw_queue_sparse", sparse, /*last=*/false);
    writeSection(out, "sim_largest", sim, /*last=*/true);
    std::fprintf(out, "}\n");
    std::fclose(out);

    std::fprintf(stderr,
                 "raw queue:   %.2fM ev/s median\n"
                 "sparse raw:  %.2fM ev/s median\n"
                 "sim largest: %.2fM ev/s median\n"
                 "wrote %s\n",
                 sortedRates(raw)[kReps / 2] / 1e6,
                 sortedRates(sparse)[kReps / 2] / 1e6,
                 sortedRates(sim)[kReps / 2] / 1e6, path.c_str());
    return fair ? 0 : 1;
}
