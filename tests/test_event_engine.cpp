/**
 * @file
 * Property/fuzz tests for the event engine. Random post/drain
 * interleavings — same-timestamp bursts, cascades posted during
 * dispatch, horizon-segmented draining, drains paused at seeded
 * random records and resumed, and sparse batches whose events sit
 * runs of empty buckets apart — are checked against a naive reference
 * model (linear scan for the (time, seq) minimum) across the
 * production and degenerate bucket geometries. Every run goes through
 * EventQueue::drain(), the exact protocol the simulator uses. Also
 * covers cross-thread isolation of independent queues (a
 * ThreadSanitizer target, driven through ParallelRunner).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "runner/parallel_runner.hpp"
#include "sim/event_queue.hpp"

namespace erms {
namespace {

/** splitmix64: all workload randomness is derived from event ids with
 *  this, so the reference model and the engine generate identical
 *  cascades without sharing RNG state (and independent of dispatch
 *  implementation). */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

constexpr std::uint64_t kGenShift = 56;

std::uint64_t
generation(std::uint64_t id)
{
    return id >> kGenShift;
}

/**
 * The cascade rule: a dispatched event spawns 0–2 children at small
 * offsets (including 0 — children at the parent's own timestamp), up to
 * three generations deep. Purely a function of the parent id, so both
 * sides compute it independently; termination is guaranteed by the
 * generation cap.
 */
template <typename Fn>
void
forEachChild(std::uint64_t id, Fn &&fn)
{
    const std::uint64_t gen = generation(id);
    if (gen >= 3)
        return;
    const int children = static_cast<int>(mix(id) % 3);
    for (int k = 0; k < children; ++k) {
        const std::uint64_t h = mix(id ^ (0x100000001b3ull * (k + 1)));
        const SimTime delay = h % 64; // 0 keeps same-time cascades common
        const std::uint64_t child =
            ((gen + 1) << kGenShift) | (h & ((1ull << kGenShift) - 1));
        fn(delay, child);
    }
}

struct RefEvent
{
    SimTime time;
    std::uint64_t seq;
    std::uint64_t id;
};

/** Naive reference: pending events in a flat vector; the next event is
 *  found by scanning for the (time, seq) minimum, which is trivially
 *  the specified dispatch order. */
class ReferenceModel
{
  public:
    void
    seed(SimTime t, std::uint64_t id)
    {
        pending_.push_back(RefEvent{t, seq_++, id});
    }

    /** Dispatch everything with time <= horizon; record ids. Stops
     *  right after an event whose id satisfies `pause` and returns
     *  true; returns false once nothing <= horizon remains. */
    bool
    drainUntil(SimTime horizon,
               const std::function<bool(std::uint64_t)> &pause = {})
    {
        for (;;) {
            std::size_t best = pending_.size();
            for (std::size_t i = 0; i < pending_.size(); ++i) {
                if (pending_[i].time > horizon)
                    continue;
                if (best == pending_.size() ||
                    pending_[i].time < pending_[best].time ||
                    (pending_[i].time == pending_[best].time &&
                     pending_[i].seq < pending_[best].seq))
                    best = i;
            }
            if (best == pending_.size())
                return false;
            const RefEvent cur = pending_[best];
            pending_.erase(pending_.begin() +
                           static_cast<std::ptrdiff_t>(best));
            now_ = cur.time;
            order_.push_back(cur.id);
            forEachChild(cur.id, [&](SimTime d, std::uint64_t cid) {
                pending_.push_back(RefEvent{cur.time + d, seq_++, cid});
            });
            if (pause && pause(cur.id))
                return true;
        }
    }

    /** Time of the last dispatched event. */
    SimTime now() const { return now_; }

    std::size_t pending() const { return pending_.size(); }
    const std::vector<std::uint64_t> &order() const { return order_; }

  private:
    std::vector<RefEvent> pending_;
    std::vector<std::uint64_t> order_;
    std::uint64_t seq_ = 0;
    SimTime now_ = 0;
};

/** Drives the same cascade through EventQueue::drain(): a record's
 *  payload word is the event id, and dispatch posts its children. */
class EngineDriver
{
  public:
    explicit EngineDriver(EventQueue &q) : q_(q) {}

    void
    seed(SimTime t, std::uint64_t id)
    {
        q_.post(t, EventRecord{.a = id, .type = 1});
    }

    /** One drain() call that pauses after any event whose id
     *  satisfies `pause`; returns whether it paused. */
    bool
    drain(SimTime horizon,
          const std::function<bool(std::uint64_t)> &pause = {})
    {
        bool paused = false;
        q_.drain(horizon, [&](const EventRecord &rec) {
            EXPECT_EQ(q_.now(), rec.time);
            order_.push_back(rec.a);
            forEachChild(rec.a, [&](SimTime d, std::uint64_t cid) {
                q_.postAfter(d, EventRecord{.a = cid, .type = 1});
            });
            paused = pause && pause(rec.a);
            return paused;
        });
        return paused;
    }

    const std::vector<std::uint64_t> &order() const { return order_; }

  private:
    EventQueue &q_;
    std::vector<std::uint64_t> order_;
};

/** Initial (time, id) batch for one fuzz round. Times are masked to a
 *  narrow range so same-timestamp bursts are the norm, not the
 *  exception. */
std::vector<std::pair<SimTime, std::uint64_t>>
makeBatch(std::uint64_t seed, std::size_t count, SimTime base,
          SimTime range)
{
    std::vector<std::pair<SimTime, std::uint64_t>> batch;
    batch.reserve(count);
    std::uint64_t s = mix(seed);
    for (std::size_t i = 0; i < count; ++i) {
        s = mix(s + i);
        const SimTime t = base + s % range;
        const std::uint64_t id = (s >> 8) & ((1ull << kGenShift) - 1);
        batch.emplace_back(t, id);
    }
    return batch;
}

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

std::vector<std::uint64_t>
engineFullDrain(EventQueue &q, std::uint64_t seed)
{
    EngineDriver driver(q);
    for (const auto &[t, id] : makeBatch(seed, 300, 0, 256))
        driver.seed(t, id);
    driver.drain(kForever);
    EXPECT_TRUE(q.empty());
    return driver.order();
}

/** Seeded pause points: roughly one event in `period` pauses the
 *  drain, chosen by id so both sides agree without shared state. */
std::function<bool(std::uint64_t)>
pausePoints(std::uint64_t salt, std::uint64_t period)
{
    return [salt, period](std::uint64_t id) {
        return mix(id ^ salt) % period == 0;
    };
}

std::vector<std::uint64_t>
referenceFullDrain(std::uint64_t seed)
{
    ReferenceModel ref;
    for (const auto &[t, id] : makeBatch(seed, 300, 0, 256))
        ref.seed(t, id);
    ref.drainUntil(kForever);
    EXPECT_EQ(ref.pending(), 0u);
    return ref.order();
}

TEST(EventEngineFuzz, FullDrainMatchesReference)
{
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const std::vector<std::uint64_t> expected =
            referenceFullDrain(seed);
        EventQueue q; // production geometry
        EXPECT_EQ(engineFullDrain(q, seed), expected) << "seed " << seed;
    }
}

TEST(EventEngineFuzz, TinyBucketGeometriesMatchReference)
{
    // Degenerate wheels: window rotation, far-list pours and cursor
    // rewinds happen constantly when the span is tiny.
    const std::pair<std::size_t, SimTime> geometries[] = {
        {1, 1}, {2, 1}, {4, 2}, {8, 16}, {1024, 1}};
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        const std::vector<std::uint64_t> expected =
            referenceFullDrain(seed);
        for (const auto &[buckets, width] : geometries) {
            EventQueue q(buckets, width);
            EXPECT_EQ(engineFullDrain(q, seed), expected)
                << "seed " << seed << " buckets=" << buckets
                << " width=" << width;
        }
    }
}

TEST(EventEngineFuzz, HorizonSegmentedDrainMatchesReference)
{
    // Interleave drain() segments with fresh batches posted from the
    // advanced clock — exercising post-at-now, post-at-horizon and
    // post-behind-the-advanced-window paths.
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        ReferenceModel ref;
        EventQueue q(4, 2); // small span: the window rotates every 8 ticks
        EngineDriver driver(q);

        SimTime horizon = 0;
        for (int segment = 0; segment < 8; ++segment) {
            const std::uint64_t sseed = mix(seed * 131 + segment);
            // Batch anchored at the current clock; range crosses the
            // next horizon so some events land beyond it.
            for (const auto &[t, id] : makeBatch(sseed, 40, q.now(), 200)) {
                ref.seed(t, id);
                driver.seed(t, id);
            }
            horizon += 1 + mix(sseed) % 150;
            ref.drainUntil(horizon);
            driver.drain(horizon);
            ASSERT_EQ(driver.order(), ref.order())
                << "seed " << seed << " segment " << segment;
            ASSERT_EQ(q.pending(), ref.pending());
            ASSERT_EQ(q.now(), horizon);
        }
        ref.drainUntil(kForever);
        driver.drain(kForever);
        EXPECT_EQ(driver.order(), ref.order()) << "seed " << seed;
        EXPECT_EQ(q.pending(), 0u);
    }
}

/** The geometries the pause fuzz runs on: production plus tiny
 *  wheels where rotations, far-list pours, spill merges and the early
 *  heap are constant. */
const std::pair<std::size_t, SimTime> kPauseGeometries[] = {
    {2048, 32}, {1, 1}, {4, 2}, {8, 16}};

TEST(EventEngineFuzz, PausedDrainMatchesUninterruptedAndReference)
{
    // dispatch returns true at seeded random records; the caller
    // re-enters drain() each time, as the coordinated simulation does
    // at every minute boundary. Pauses land mid-batch, so the
    // unconsumed tail must go back exactly: the concatenated order
    // must equal an uninterrupted drain and the reference model.
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const std::vector<std::uint64_t> expected =
            referenceFullDrain(seed);
        for (const auto &[buckets, width] : kPauseGeometries) {
            EventQueue whole(buckets, width);
            ASSERT_EQ(engineFullDrain(whole, seed), expected)
                << "seed " << seed << " buckets=" << buckets
                << " width=" << width;

            EventQueue q(buckets, width);
            EngineDriver driver(q);
            for (const auto &[t, id] : makeBatch(seed, 300, 0, 256))
                driver.seed(t, id);
            const auto pause = pausePoints(mix(seed + 77), 5);
            int pauses = 0;
            while (driver.drain(kForever, pause))
                ++pauses;
            EXPECT_GT(pauses, 10) << "seed " << seed;
            EXPECT_TRUE(q.empty());
            EXPECT_EQ(driver.order(), expected)
                << "seed " << seed << " buckets=" << buckets
                << " width=" << width;
        }
    }
}

TEST(EventEngineFuzz, PausedSegmentedDrainWithPostsMatchesReference)
{
    // The coordinator's view: horizon-segmented drains that pause at
    // seeded records, and at each pause post a fresh event at the
    // paused clock before resuming (what a minute callback does). The
    // reference model pauses at the same records and posts the same
    // events, so the two orders must agree exactly.
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        for (const auto &[buckets, width] : kPauseGeometries) {
            ReferenceModel ref;
            EventQueue q(buckets, width);
            EngineDriver driver(q);
            const auto pause = pausePoints(mix(seed + 91), 6);

            SimTime horizon = 0;
            for (int segment = 0; segment < 6; ++segment) {
                const std::uint64_t sseed = mix(seed * 131 + segment);
                for (const auto &[t, id] :
                     makeBatch(sseed, 30, q.now(), 200)) {
                    ref.seed(t, id);
                    driver.seed(t, id);
                }
                horizon += 1 + mix(sseed) % 150;
                for (std::uint64_t k = 0;; ++k) {
                    const bool paused = driver.drain(horizon, pause);
                    ASSERT_EQ(paused, ref.drainUntil(horizon, pause));
                    ASSERT_EQ(driver.order(), ref.order())
                        << "seed " << seed << " segment " << segment;
                    if (!paused)
                        break;
                    ASSERT_EQ(q.now(), ref.now());
                    const std::uint64_t id =
                        mix(sseed ^ (k + 1)) & ((1ull << kGenShift) - 1);
                    const SimTime at = q.now() + mix(id) % 3;
                    ref.seed(at, id);
                    driver.seed(at, id);
                }
                ASSERT_EQ(q.pending(), ref.pending());
                ASSERT_EQ(q.now(), horizon);
            }
        }
    }
}

/** Bucket-count gaps of the sparse fuzz: within one bitmap word, on
 *  both sides of a word boundary (63/64/65), across several words,
 *  and a whole production window (2048) or more — on small geometries
 *  the long gaps span many windows and force far-list jumps. 0 keeps
 *  same-bucket neighbours in the mix. */
constexpr SimTime kSparseGapBuckets[] = {0,  1,   4,    63,
                                         64, 65,  128,  2048,
                                         3 * 2048 + 5};

/** Initial (time, id) batch whose consecutive times are separated by
 *  kSparseGapBuckets gaps (in buckets of `width`) plus a sub-bucket
 *  jitter, so most buckets between two events are empty. */
std::vector<std::pair<SimTime, std::uint64_t>>
makeSparseBatch(std::uint64_t seed, std::size_t count, SimTime base,
                SimTime width)
{
    constexpr std::size_t kGaps =
        sizeof kSparseGapBuckets / sizeof kSparseGapBuckets[0];
    std::vector<std::pair<SimTime, std::uint64_t>> batch;
    batch.reserve(count);
    std::uint64_t s = mix(seed);
    SimTime t = base;
    for (std::size_t i = 0; i < count; ++i) {
        s = mix(s + i);
        t += kSparseGapBuckets[s % kGaps] * width + (s >> 16) % width;
        const std::uint64_t id = (s >> 8) & ((1ull << kGenShift) - 1);
        batch.emplace_back(t, id);
    }
    return batch;
}

/** Geometries of the sparse fuzz: production, two and one bitmap
 *  words, a sub-word wheel and the 1 x 1 degenerate wheel. */
const std::pair<std::size_t, SimTime> kSparseGeometries[] = {
    {2048, 32}, {128, 4}, {64, 1}, {4, 2}, {1, 1}};

TEST(EventEngineFuzz, SparseGapsMatchReference)
{
    // Events separated by runs of empty buckets: the cursor must find
    // the next occupied bucket across word boundaries and whole
    // windows, and jump the window to the far list when the wheel
    // empties.
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        for (const auto &[buckets, width] : kSparseGeometries) {
            const auto batch = makeSparseBatch(seed, 120, 0, width);
            ReferenceModel ref;
            EventQueue q(buckets, width);
            EngineDriver engine(q);
            for (const auto &[t, id] : batch) {
                ref.seed(t, id);
                engine.seed(t, id);
            }
            ref.drainUntil(kForever);
            engine.drain(kForever);
            EXPECT_EQ(engine.order(), ref.order())
                << "seed " << seed << " buckets=" << buckets
                << " width=" << width;
            EXPECT_TRUE(q.empty());
        }
    }
}

TEST(EventEngineFuzz, SparsePausedSegmentedDrainMatchesReference)
{
    // Horizons fall inside the empty runs, so the cursor has already
    // jumped past the horizon when the next batch is posted from the
    // idled clock: those posts land behind the cursor (a rewind) or
    // behind a window that jumped ahead (the early heap). Drains pause
    // at seeded records and post at the paused clock before resuming.
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        for (const auto &[buckets, width] : kSparseGeometries) {
            ReferenceModel ref;
            EventQueue q(buckets, width);
            EngineDriver engine(q);
            const auto pause = pausePoints(mix(seed + 53), 4);

            SimTime horizon = 0;
            for (int segment = 0; segment < 6; ++segment) {
                const std::uint64_t sseed = mix(seed * 977 + segment);
                for (const auto &[t, id] :
                     makeSparseBatch(sseed, 20, q.now(), width)) {
                    ref.seed(t, id);
                    engine.seed(t, id);
                }
                horizon += (1 + mix(sseed) % 300) * width;
                for (std::uint64_t k = 0;; ++k) {
                    const bool paused = engine.drain(horizon, pause);
                    ASSERT_EQ(paused, ref.drainUntil(horizon, pause));
                    ASSERT_EQ(engine.order(), ref.order())
                        << "seed " << seed << " segment " << segment
                        << " buckets=" << buckets << " width=" << width;
                    if (!paused)
                        break;
                    ASSERT_EQ(q.now(), ref.now());
                    const std::uint64_t id =
                        mix(sseed ^ (k + 1)) & ((1ull << kGenShift) - 1);
                    const SimTime at = q.now() + mix(id) % (4 * width);
                    ref.seed(at, id);
                    engine.seed(at, id);
                }
                ASSERT_EQ(q.pending(), ref.pending());
                ASSERT_EQ(q.now(), horizon);
            }
            ref.drainUntil(kForever);
            engine.drain(kForever);
            EXPECT_EQ(engine.order(), ref.order())
                << "seed " << seed << " buckets=" << buckets
                << " width=" << width;
            EXPECT_TRUE(q.empty());
        }
    }
}

TEST(EventEngineSparse, PostBehindJumpedCursorRunsFirst)
{
    // The cursor jumps from bucket 0 to the only occupied bucket, far
    // past the horizon; posts from the idled clock then land behind it
    // (one in the same bitmap word, one a word later) and must still
    // run first, in time order.
    EventQueue q; // 2048 x 32 us
    q.post(1000 * 32, EventRecord{.a = 3, .type = 1});
    std::vector<std::uint64_t> order;
    auto record = [&](const EventRecord &rec) {
        order.push_back(rec.a);
        return false;
    };
    EXPECT_EQ(q.drain(10 * 32, record), 0u);
    EXPECT_EQ(q.now(), 10u * 32);
    q.post(500 * 32, EventRecord{.a = 2, .type = 1});
    q.post(20 * 32, EventRecord{.a = 1, .type = 1});
    EXPECT_EQ(q.drain(kForever, record), 3u);
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_TRUE(q.empty());
}

TEST(EventEngineFuzz, LongSameTimestampBurstIsFifoAcrossEngines)
{
    // A burst far larger than any bucket, with neighbours on both
    // sides; insertion order must be preserved exactly, whatever the
    // bucket geometry.
    std::vector<std::uint64_t> expected;
    expected.push_back(1'000'000);
    for (std::uint64_t i = 0; i < 1000; ++i)
        expected.push_back(i);
    expected.push_back(2'000'000);

    for (const auto &[buckets, width] : kPauseGeometries) {
        EventQueue q(buckets, width);
        q.post(99, EventRecord{.a = 1'000'000, .type = 1});
        for (std::uint64_t i = 0; i < 1000; ++i)
            q.post(100, EventRecord{.a = i, .type = 1});
        q.post(101, EventRecord{.a = 2'000'000, .type = 1});
        std::vector<std::uint64_t> order;
        q.drain(kForever, [&](const EventRecord &rec) {
            order.push_back(rec.a);
            return false;
        });
        EXPECT_EQ(order, expected)
            << "buckets=" << buckets << " width=" << width;
    }
}

TEST(EventEngineTyped, RecordsRoundTripThroughDrain)
{
    EventQueue q;
    int anchor = 0;
    q.post(5, EventRecord{.a = 11, .p1 = &anchor, .b = 22, .type = 7});
    q.post(3, EventRecord{.a = 1, .type = 9});
    q.post(3, EventRecord{.a = 2, .type = 9}); // same time: FIFO

    std::vector<EventRecord> seen;
    EXPECT_EQ(q.drain(10,
                      [&](const EventRecord &rec) {
                          seen.push_back(rec);
                          return false;
                      }),
              3u);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0].type, 9u);
    EXPECT_EQ(seen[0].a, 1u);
    EXPECT_EQ(seen[0].time, 3u);
    EXPECT_EQ(seen[1].a, 2u);
    EXPECT_EQ(seen[2].type, 7u);
    EXPECT_EQ(seen[2].a, 11u);
    EXPECT_EQ(seen[2].b, 22u);
    EXPECT_EQ(seen[2].p1, &anchor);
    EXPECT_EQ(seen[2].time, 5u);
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventEngineThreads, IndependentQueuesAreIsolated)
{
    // Fuzz workloads on concurrent queues (ParallelRunner workers);
    // every run must match the single-threaded reference. With
    // ERMS_SANITIZE=thread this pins "no hidden shared state between
    // engine instances" — the property the parallel experiment runner
    // depends on.
    RunnerOptions options;
    options.workers = 4;
    ParallelRunner runner(options);
    std::vector<std::function<std::vector<std::uint64_t>()>> tasks;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        tasks.emplace_back([seed] {
            EventQueue q(8, 16);
            return engineFullDrain(q, seed);
        });
    }
    const auto results = runner.runAll(std::move(tasks));
    ASSERT_EQ(results.size(), 8u);
    for (std::uint64_t seed = 0; seed < 8; ++seed)
        EXPECT_EQ(results[seed], referenceFullDrain(seed))
            << "seed " << seed;
}

} // namespace
} // namespace erms
