/**
 * @file
 * Tests for the discrete-event engine: ordering, FIFO tie-breaking,
 * horizon semantics, and posting from within dispatch, all through
 * EventQueue::drain() — the one consumer protocol the simulator uses.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "sim/event_queue.hpp"

namespace erms {
namespace {

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

/** A record carrying `id` in its payload word. */
EventRecord
tagged(std::uint64_t id)
{
    return EventRecord{.a = id, .type = 1};
}

/** Drain up to horizon, appending each dispatched record's id. */
std::uint64_t
drainInto(EventQueue &q, SimTime horizon, std::vector<std::uint64_t> &order)
{
    return q.drain(horizon, [&](const EventRecord &rec) {
        order.push_back(rec.a);
        return false;
    });
}

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue q;
    std::vector<std::uint64_t> order;
    q.post(30, tagged(3));
    q.post(10, tagged(1));
    q.post(20, tagged(2));
    EXPECT_EQ(drainInto(q, kForever, order), 3u);
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsAreFifo)
{
    EventQueue q;
    std::vector<std::uint64_t> order;
    for (std::uint64_t i = 0; i < 5; ++i)
        q.post(100, tagged(i));
    drainInto(q, kForever, order);
    EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, NowTracksDispatchedEvent)
{
    EventQueue q;
    SimTime seen = 0;
    q.post(42, tagged(0));
    q.drain(100, [&](const EventRecord &rec) {
        seen = q.now();
        EXPECT_EQ(rec.time, 42u);
        return false;
    });
    EXPECT_EQ(seen, 42u);
    EXPECT_EQ(q.now(), 100u); // then idles to the horizon
}

TEST(EventQueue, DrainStopsAtHorizon)
{
    EventQueue q;
    std::vector<std::uint64_t> order;
    q.post(10, tagged(1));
    q.post(20, tagged(2));
    q.post(30, tagged(3));
    EXPECT_EQ(drainInto(q, 20, order), 2u);
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(q.now(), 20u); // advanced to the horizon
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, HorizonInclusive)
{
    EventQueue q;
    std::vector<std::uint64_t> order;
    q.post(20, tagged(1));
    drainInto(q, 20, order);
    EXPECT_EQ(order.size(), 1u);
}

TEST(EventQueue, CallbacksMayScheduleMoreEvents)
{
    EventQueue q;
    int chain = 0;
    SimTime last = 0;
    q.post(0, tagged(0));
    q.drain(kForever, [&](const EventRecord &) {
        last = q.now();
        if (++chain < 5)
            q.postAfter(10, tagged(0));
        return false;
    });
    EXPECT_EQ(chain, 5);
    EXPECT_EQ(last, 40u);
}

TEST(EventQueue, EventsBeyondHorizonScheduledDuringRunStay)
{
    EventQueue q;
    std::vector<std::uint64_t> order;
    q.post(5, tagged(1));
    q.drain(50, [&](const EventRecord &rec) {
        order.push_back(rec.a);
        if (rec.a == 1)
            q.post(100, tagged(2));
        return false;
    });
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1}));
    EXPECT_EQ(q.pending(), 1u);
    drainInto(q, kForever, order);
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
}

TEST(EventQueue, SchedulingInThePastIsInternalError)
{
    EventQueue q;
    q.post(100, tagged(0));
    std::vector<std::uint64_t> order;
    drainInto(q, 100, order);
    EXPECT_THROW(q.post(50, tagged(1)), std::logic_error);
}

// ---------------------------------------------------------------------
// drain() horizon boundary: the documented contract is that the
// horizon is INCLUSIVE, also for events posted during dispatch — an
// event posted exactly at the horizon while drain() runs fires in the
// same call.
// ---------------------------------------------------------------------

TEST(EventQueueHorizon, ScheduledAtHorizonDuringDispatchFires)
{
    EventQueue q;
    std::vector<std::uint64_t> order;
    q.post(10, tagged(1));
    const std::uint64_t dispatched =
        q.drain(50, [&](const EventRecord &rec) {
            order.push_back(rec.a);
            if (rec.a == 1) {
                q.post(50, tagged(3));  // == horizon
                q.post(51, tagged(99)); // > horizon
                q.post(20, tagged(2));
            }
            return false;
        });
    EXPECT_EQ(dispatched, 3u);
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(q.now(), 50u);
    EXPECT_EQ(q.pending(), 1u); // the 51 event stays queued
}

TEST(EventQueueHorizon, RepeatedDrainSameHorizonConsistent)
{
    EventQueue q;
    std::vector<std::uint64_t> order;
    drainInto(q, 100, order); // idle to the horizon; now() == 100
    EXPECT_EQ(q.now(), 100u);
    // Posting exactly at now()/horizon afterwards is legal and a second
    // drain at the same horizon still dispatches it.
    q.post(100, tagged(1));
    EXPECT_EQ(drainInto(q, 100, order), 1u);
    EXPECT_EQ(order.size(), 1u);
    EXPECT_EQ(q.now(), 100u);
    EXPECT_EQ(drainInto(q, 100, order), 0u); // idempotent once drained
}

TEST(EventQueueHorizon, SchedulingBehindAnAdvancedWindowStaysOrdered)
{
    // Idling far ahead advances the calendar window past now(); a
    // subsequent post between now() and the window start must still
    // dispatch, in order, before later events (early-heap path).
    EventQueue q(/*bucket_count=*/4, /*bucket_width=*/4);
    std::vector<std::uint64_t> order;
    q.post(1'000'000, tagged(3)); // park one event far out
    drainInto(q, 500'000, order); // hunt advances the window, finds 1e6
    EXPECT_TRUE(order.empty());
    q.post(500'001, tagged(1));
    q.post(600'000, tagged(2));
    drainInto(q, 1'000'000, order);
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(q.now(), 1'000'000u);
}

TEST(EventQueueHorizon, PauseInsideEarlyHeapRunResumesInOrder)
{
    // Three same-time records behind an advanced window form one
    // early-heap run; pausing after the first must hand the other two
    // back ahead of anything posted during the pause, even a post at
    // the same timestamp (it carries a higher seq).
    EventQueue q(/*bucket_count=*/4, /*bucket_width=*/4);
    std::vector<std::uint64_t> order;
    q.post(1'000'000, tagged(9));
    drainInto(q, 500'000, order); // window jumps ahead to the 1e6 event
    for (std::uint64_t id = 1; id <= 3; ++id)
        q.post(500'001, tagged(id));
    q.post(500'002, tagged(5));
    q.drain(1'000'000, [&](const EventRecord &rec) {
        order.push_back(rec.a);
        return true; // pause after every record
    });
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1}));
    EXPECT_EQ(q.now(), 500'001u);
    q.post(500'001, tagged(4)); // posted while paused
    while (q.drain(1'000'000, [&](const EventRecord &rec) {
        order.push_back(rec.a);
        return true;
    }) > 0) {
    }
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 9}));
    EXPECT_TRUE(q.empty());
}

} // namespace
} // namespace erms
