/**
 * @file
 * Shared event-engine benchmark scenarios, used by bench_event_engine
 * (the machine-readable perf trajectory, BENCH_event_engine.json) and
 * by the events-per-second section of bench_scalability. Both measure
 * the same workloads:
 *
 *  - raw queue: a self-perpetuating timer population (every dispatched
 *    event schedules a successor at a pseudo-random offset), the pure
 *    engine cost with no simulator logic on top;
 *  - sparse raw queue (bench_event_engine only): the same with a few
 *    timers spaced milliseconds apart, so most wheel buckets between
 *    two events are empty — the cost of finding the next event;
 *  - simulation: the largest scalability configuration — a fan-out
 *    dependency graph under heavy load — timed end to end, with the
 *    engine's dispatch counter as the work measure.
 */

#ifndef ERMS_BENCH_EVENT_ENGINE_SCENARIO_HPP
#define ERMS_BENCH_EVENT_ENGINE_SCENARIO_HPP

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "graph/dependency_graph.hpp"
#include "model/catalog.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"

namespace erms::bench {

struct EngineRun
{
    double seconds = 0.0;
    std::uint64_t events = 0;
    double eventsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
    }
};

/** Deterministic offset stream (splitmix64). */
inline std::uint64_t
mixOffset(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

constexpr std::uint64_t kTimerPopulation = 4096;
constexpr std::uint64_t kSparseTimerPopulation = 16;

/** Timer workload: typed records through post()/drain(), the
 *  simulator's allocation-free hot path. `population` timers start at
 *  offsets in [0, gap_range); each dispatch re-arms its timer
 *  min_gap + [0, gap_range) microseconds later, and the drain pauses
 *  after exactly total_events dispatches. */
inline EngineRun
runTimerQueue(std::uint64_t total_events, std::uint64_t population,
              SimTime min_gap, SimTime gap_range)
{
    EventQueue q;
    std::uint64_t state = 1;
    for (std::uint64_t i = 0; i < population; ++i) {
        state = mixOffset(state);
        q.post(state % gap_range, EventRecord{.a = i, .type = 1});
    }
    std::uint64_t dispatched = 0;
    const auto start = std::chrono::steady_clock::now();
    if (total_events > 0) {
        q.drain(~static_cast<SimTime>(0), [&](const EventRecord &rec) {
            state = mixOffset(state + rec.a);
            q.postAfter(min_gap + state % gap_range,
                        EventRecord{.a = rec.a, .type = 1});
            return ++dispatched == total_events;
        });
    }
    const auto stop = std::chrono::steady_clock::now();
    EngineRun run;
    run.seconds = std::chrono::duration<double>(stop - start).count();
    run.events = dispatched;
    return run;
}

/** Dense raw queue: 4096 timers re-armed 1–1024 µs out, so nearly
 *  every 32 µs bucket holds several records. */
inline EngineRun
runRawQueue(std::uint64_t total_events)
{
    return runTimerQueue(total_events, kTimerPopulation, 1, 1024);
}

/** Sparse raw queue: 16 timers re-armed 1–5 ms out, so about five
 *  empty 32 µs buckets separate two consecutive events, and the
 *  window moves by a far-list jump every ~65 ms of simulated time. */
inline EngineRun
runRawQueueSparse(std::uint64_t total_events)
{
    return runTimerQueue(total_events, kSparseTimerPopulation, 1000, 4001);
}

/** The largest simulation configuration of the scalability suite:
 *  `scale` independent copies of a two-service, 9-microservice fan-out
 *  workload at high load — the pending-event population grows with
 *  `scale`, which is the regime where the calendar queue's O(1) pop
 *  matters. `minutes` scales the run length (1 is enough for a stable
 *  measurement at scale 8). */
inline EngineRun
runSimScenario(int minutes, int scale = 8)
{
    MicroserviceCatalog catalog;
    char name_buf[32];
    auto add = [&](const char *name, int copy, double base_ms,
                   int threads) {
        MicroserviceProfile profile;
        std::snprintf(name_buf, sizeof name_buf, "%s%d", name, copy);
        profile.name = name_buf;
        profile.baseServiceMs = base_ms;
        profile.threadsPerContainer = threads;
        profile.serviceCv = 0.6;
        profile.networkMs = 0.2;
        return catalog.add(profile);
    };

    std::vector<MicroserviceId> ids;
    std::vector<DependencyGraph> graphs;
    graphs.reserve(static_cast<std::size_t>(scale) * 2);
    for (int s = 0; s < scale; ++s) {
        auto mk = [&](const char *n, double ms, int th) {
            const MicroserviceId id = add(n, s, ms, th);
            ids.push_back(id);
            return id;
        };
        const MicroserviceId root = mk("root", 3.0, 8);
        const MicroserviceId a = mk("a", 6.0, 4);
        const MicroserviceId b = mk("b", 8.0, 4);
        const MicroserviceId c = mk("c", 5.0, 4);
        const MicroserviceId d = mk("d", 4.0, 4);
        const MicroserviceId tail = mk("tail", 2.0, 8);
        const MicroserviceId logg = mk("log", 1.5, 8);
        const MicroserviceId cache = mk("cache", 1.0, 8);
        const MicroserviceId db = mk("db", 1.0, 8);

        DependencyGraph g0(2 * s, root);
        g0.addCall(root, a, 0);
        g0.addCall(root, b, 0);
        g0.addCall(a, cache, 0);
        g0.addCall(b, db, 0);
        g0.addCall(root, tail, 1);
        DependencyGraph g1(2 * s + 1, root);
        g1.addCall(root, c, 0);
        g1.addCall(root, d, 0);
        g1.addCall(c, logg, 0);
        g1.addCall(root, tail, 1);
        graphs.push_back(g0);
        graphs.push_back(g1);
    }

    SimConfig config;
    config.horizonMinutes = minutes;
    config.warmupMinutes = 0;
    config.seed = 17;
    Simulation sim(catalog, config);
    for (DependencyGraph &g : graphs) {
        ServiceWorkload svc;
        svc.id = g.service();
        svc.graph = &g;
        svc.rate = 60000.0;
        sim.addService(svc);
    }
    for (MicroserviceId ms : ids)
        sim.setContainerCount(ms, 6);

    const auto start = std::chrono::steady_clock::now();
    sim.run();
    const auto stop = std::chrono::steady_clock::now();
    EngineRun run;
    run.seconds = std::chrono::duration<double>(stop - start).count();
    run.events = sim.metrics().eventsDispatched;
    return run;
}

} // namespace erms::bench

#endif // ERMS_BENCH_EVENT_ENGINE_SCENARIO_HPP
