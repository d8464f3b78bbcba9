/**
 * @file
 * Discrete-event engine core: typed event records in a two-level
 * calendar queue with deterministic (time, insertion-seq) FIFO
 * tie-breaking for simultaneous events.
 *
 * Design (see docs/event_engine.md):
 *  - Events are plain-old-data EventRecord values: a type tag plus two
 *    payload words and two payload pointers. Scheduling one copies 48
 *    bytes into a recycled bucket vector — no per-event heap
 *    allocation, no callable construction. The owner dispatches records
 *    through its own switch (Simulation::dispatchEvent).
 *  - Time ordering uses a calendar ("timing wheel") of power-of-two
 *    buckets over a sliding window, with a far list for events beyond
 *    the window and a tiny early heap for events scheduled behind an
 *    already-advanced window. When a bucket becomes current it is
 *    sorted once (ascending) and consumed through a head index: spent
 *    records stay in place as a stale prefix and the whole bucket is
 *    discarded with one clear() when it drains. Events posted into the
 *    already-sorted current bucket go to a small spill heap that
 *    interleaves by (time, seq). Dispatch order is exactly the strict
 *    total order (time, seq) a single binary heap would produce — the
 *    determinism contract every golden table pins — but the
 *    steady-state per-event cost is an index bump plus one comparison
 *    instead of a heap sift.
 *  - An occupancy bitmap (one bit per bucket, 64 to a word) lets the
 *    cursor jump over runs of empty buckets with find-first-set
 *    instead of visiting them one at a time.
 *  - drain() is the only way to consume events. Internally it takes
 *    maximal runs of ready events as one batch — usually a zero-copy
 *    span over the sorted bucket itself — so the owner's dispatch runs
 *    without re-entering the queue's bookkeeping per event.
 */

#ifndef ERMS_SIM_EVENT_QUEUE_HPP
#define ERMS_SIM_EVENT_QUEUE_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace erms {

/**
 * One scheduled event. POD: owners define their own type tags and
 * payload conventions; the queue only reads/stamps time and seq.
 *
 * Packed to 48 bytes (b narrowed to 32 bits, which covers every id the
 * simulator routes through it): the record is copied on post and moved
 * during bucket sorts, so its size is hot-loop memory traffic.
 */
struct EventRecord
{
    SimTime time = 0;       ///< absolute dispatch time (stamped by post)
    std::uint64_t seq = 0;  ///< insertion order (stamped by post)
    std::uint64_t a = 0;    ///< payload word
    void *p1 = nullptr;     ///< payload pointer
    void *p2 = nullptr;     ///< payload pointer
    std::uint32_t b = 0;    ///< payload word (ids are 32-bit)
    std::uint32_t type = 0; ///< owner-defined tag
};

static_assert(sizeof(EventRecord) == 48, "EventRecord is hot-loop "
                                         "memory traffic; keep it packed");

/**
 * Two-level calendar queue of EventRecords, dispatching in exactly
 * (time, seq) ascending order.
 */
class EventQueue
{
  public:
    /**
     * @param bucket_count  number of wheel buckets (power of two).
     * @param bucket_width  time span of one bucket in microseconds
     *                      (power of two). The wheel window covers
     *                      bucket_count * bucket_width microseconds.
     */
    explicit EventQueue(std::size_t bucket_count = 2048,
                        SimTime bucket_width = 32);

    /** Schedule a typed record at absolute simulated time t (>= now).
     *  rec.time and rec.seq are overwritten by the queue. */
    void post(SimTime t, EventRecord rec);

    /** Schedule a typed record delay microseconds from now. */
    void postAfter(SimTime delay, EventRecord rec);

    /** Current simulated time (time of the last dispatched event). */
    SimTime now() const { return now_; }

    bool empty() const { return pending_ == 0; }
    std::size_t pending() const { return pending_; }

    /**
     * Dispatch events in exact (time, seq) order until no event at or
     * before horizon (inclusive) remains, or dispatch asks to pause.
     * now() equals each record's time while dispatch(record) runs.
     * dispatch may post freely; what it posts at or before horizon
     * runs in the same call.
     *
     * dispatch(const EventRecord &) returns true to pause: drain
     * returns right after that record, with now() at its time and
     * every later event still queued, so the next drain() resumes at
     * the exact next record — the concatenated order is identical to
     * an uninterrupted drain. Without a pause, on return
     * now() == max(now(), horizon).
     * @return number of events dispatched.
     */
    template <class F>
    std::uint64_t drain(SimTime horizon, F &&dispatch);

  private:
    /**
     * A run of ready events handed out by nextBatch(). Usually a
     * zero-copy window into the sorted active bucket; the span is valid
     * until the next nextBatch() call. Posting new events while a batch
     * is live is safe and does not invalidate it (same-bucket posts are
     * diverted to the spill heap, never appended to the sorted bucket).
     *
     * A batch may cover several timestamps, so drain() calls
     * advanceTo(record.time) before dispatching each record, and after
     * each dispatch asks interleavePending(next) whether a freshly
     * posted event must run before the batch's next record — if so, or
     * if dispatch paused, it hands the unconsumed tail back with
     * returnTail() and re-enters nextBatch() (on the next drain() call,
     * after a pause).
     */
    struct EventBatch
    {
        const EventRecord *data = nullptr;
        std::size_t count = 0;
    };

    struct Later
    {
        bool
        operator()(const EventRecord &a, const EventRecord &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    struct Earlier
    {
        bool
        operator()(const EventRecord &a, const EventRecord &b) const
        {
            if (a.time != b.time)
                return a.time < b.time;
            return a.seq < b.seq;
        }
    };

    /** Find the next event without popping: returns false when empty,
     *  else sets t to its time and leaves it at a known position
     *  (early_ front, the sorted cursor bucket's head, or the spill
     *  heap's front). */
    bool peekTime(SimTime &t);

    /**
     * Take a run of ready events with times <= horizon (inclusive) as
     * a span in exact (time, seq) order. In the common case the span
     * is a zero-copy window over the sorted active bucket's whole
     * unconsumed suffix (possibly many timestamps); with a live spill
     * heap or early-heap events the run is the single earliest
     * timestamp, merged into an internal scratch buffer. Either way
     * the span stays valid until the next nextBatch() call — posting
     * during dispatch cannot touch it. On success advances now() to
     * the first record's time and returns true; otherwise leaves
     * events queued, advances now() to the horizon, and returns false
     * with `out` empty.
     */
    bool nextBatch(SimTime horizon, EventBatch &out);

    /** Advance now() to t (the next batch record's time). Must be
     *  monotone; only valid for times handed out by nextBatch(). */
    void advanceTo(SimTime t) { now_ = t; }

    /**
     * After dispatching one batch record: must a freshly posted event
     * run before `next` (the batch's next record)? Only the spill heap
     * can hold such an event — dispatch-time posts have t >= now(), so
     * they cannot reach the early heap or an earlier bucket — and it
     * interleaves only with a strictly smaller time (an equal-time
     * post carries a higher seq and runs after the whole batch run of
     * that timestamp).
     */
    bool
    interleavePending(const EventRecord &next) const
    {
        return !spill_.empty() && spill_.front().time < next.time;
    }

    /**
     * Hand batch records [consumed, count) back to the queue. For a
     * zero-copy batch the records still sit in place in the sorted
     * bucket, so this just rewinds the consumption bookkeeping. A
     * scratch batch (one timestamp, merged from the heaps) can only be
     * cut short by a pause; its tail is re-queued by value.
     */
    void
    returnTail(const EventBatch &batch, std::size_t consumed)
    {
        const std::size_t count = batch.count - consumed;
        if (batch.data == scratchBatch_.data()) {
            requeueScratch(consumed);
            return;
        }
        activeHead_ -= count;
        pending_ += count;
        wheelCount_ += count;
    }

    /** Re-queue scratchBatch_[from..] with their original (time, seq):
     *  early-heap records go back to the early heap, wheel records to
     *  the spill heap, which merges by (time, seq) with the current
     *  bucket — so the next nextBatch() resumes at the exact record. */
    void requeueScratch(std::size_t from);

    /** Move far-list events that now fall inside the window into their
     *  buckets; recompute farMin_. */
    void pourFar();

    void
    markOccupied(std::size_t index)
    {
        occupied_[index >> 6] |= std::uint64_t{1} << (index & 63);
    }

    void
    markEmpty(std::size_t index)
    {
        occupied_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
    }

    /** First bucket at or after `from` whose occupancy bit is set. The
     *  caller guarantees one exists (a wheel record lies at or after
     *  `from`). */
    std::size_t
    nextOccupied(std::size_t from) const
    {
        std::size_t word = from >> 6;
        std::uint64_t bits =
            occupied_[word] & (~std::uint64_t{0} << (from & 63));
        while (bits == 0) {
            ++word;
            ERMS_ASSERT_MSG(word < occupied_.size(),
                            "wheel records but no occupied bucket");
            bits = occupied_[word];
        }
        return (word << 6) | static_cast<std::size_t>(__builtin_ctzll(bits));
    }

    // calendar wheel ----------------------------------------------------
    std::vector<std::vector<EventRecord>> buckets_;
    SimTime bucketWidth_;
    SimTime span_;          ///< buckets_.size() * bucketWidth_
    SimTime windowStart_ = 0;
    std::size_t cursor_ = 0;
    /** Current bucket sorted ascending; consumed entries are the
     *  prefix [0, activeHead_), discarded in one clear() when the
     *  bucket drains. Leaving consumed records in place is what makes
     *  zero-copy batch spans possible. */
    bool activeSorted_ = false;
    /** First unconsumed entry of the current bucket. Nonzero only for
     *  buckets_[cursor_], and only while activeSorted_. */
    std::size_t activeHead_ = 0;
    std::size_t wheelCount_ = 0; ///< records currently in buckets/spill
    /** One bit per bucket, 64 buckets to a word. Invariant: bit clear
     *  => bucket empty. A bit is set wherever a record enters a bucket
     *  and cleared only where peekTime() discards a drained bucket, so
     *  a set bit may be stale (a rewind can leave its old cursor bucket
     *  empty); peekTime() clears such a bucket when it reaches it. */
    std::vector<std::uint64_t> occupied_;

    /** Merge buffer for nextBatch() runs that interleave spill/early
     *  records (the zero-copy bucket window doesn't apply there). */
    std::vector<EventRecord> scratchBatch_;

    /** Events posted into the current bucket after it was sorted; a
     *  min-heap on (time, seq) interleaved with the sorted bucket.
     *  Posts made while a zero-copy batch is live carry a higher seq
     *  than every record of the batch, so equal-time ties always drain
     *  the batch first — exactly the order a single heap would
     *  produce. (A paused scratch batch's re-queued tail also lands
     *  here; the merge compares full (time, seq), so order holds.) */
    std::vector<EventRecord> spill_;

    // overflow levels ---------------------------------------------------
    std::vector<EventRecord> far_;   ///< time >= windowStart_ + span_
    SimTime farMin_ = 0;
    std::vector<EventRecord> early_; ///< heap; time < windowStart_

    std::size_t pending_ = 0;
    SimTime now_ = 0;
    std::uint64_t next_seq_ = 0;
};

// ---------------------------------------------------------------------
// Hot path, defined inline: post/peek/batch run once (or more) per
// simulated event, and drain() is instantiated in the owner's
// translation unit with the owner's dispatch inlined — without these
// in the header every event pays several opaque call boundaries. Cold
// paths (construction, pourFar) stay in event_queue.cpp.
// ---------------------------------------------------------------------

inline void
EventQueue::post(SimTime t, EventRecord rec)
{
    ERMS_ASSERT_MSG(t >= now_, "cannot schedule into the past");
    rec.time = t;
    rec.seq = next_seq_++;
    ++pending_;

    if (t < windowStart_) {
        // The wheel advanced past t while hunting for a later event
        // (e.g. the sim idled to a horizon, then scheduled from there).
        // Rare by construction: park in the early heap, which always
        // dispatches before the wheel (early times < windowStart_ <=
        // every wheel/far time).
        early_.push_back(rec);
        std::push_heap(early_.begin(), early_.end(), Later{});
        return;
    }
    if (t - windowStart_ >= span_) {
        if (far_.empty() || t < farMin_)
            farMin_ = t;
        far_.push_back(rec);
        return;
    }
    const std::size_t index =
        static_cast<std::size_t>((t - windowStart_) / bucketWidth_);
    if (index < cursor_) {
        // Buckets before the cursor are empty (the cursor only advances
        // past drained buckets), so reopening is just a rewind. Drop
        // the current bucket's consumed prefix and fold any spill back
        // into it; it re-sorts as one unit when it becomes current
        // again.
        std::vector<EventRecord> &active = buckets_[cursor_];
        if (activeHead_ > 0) {
            active.erase(active.begin(),
                         active.begin() +
                             static_cast<std::ptrdiff_t>(activeHead_));
            activeHead_ = 0;
        }
        if (!spill_.empty()) {
            active.insert(active.end(), spill_.begin(), spill_.end());
            spill_.clear();
            markOccupied(cursor_);
        }
        cursor_ = index;
        activeSorted_ = false;
    }
    if (index == cursor_ && activeSorted_) {
        spill_.push_back(rec);
        std::push_heap(spill_.begin(), spill_.end(), Later{});
    } else {
        buckets_[index].push_back(rec);
        markOccupied(index);
    }
    ++wheelCount_;
}

inline void
EventQueue::postAfter(SimTime delay, EventRecord rec)
{
    post(now_ + delay, rec);
}

inline bool
EventQueue::peekTime(SimTime &t)
{
    if (!early_.empty()) {
        t = early_.front().time;
        return true;
    }
    if (pending_ == 0)
        return false;
    for (;;) {
        std::vector<EventRecord> &bucket = buckets_[cursor_];
        if (activeHead_ == bucket.size() && spill_.empty()) {
            // Bucket fully consumed (or plain empty): discard the stale
            // prefix in one shot, then advance. The clear must happen
            // before any cursor move or window jump so a later pour
            // into this bucket can't resurrect consumed records.
            bucket.clear();
            activeHead_ = 0;
            activeSorted_ = false;
            markEmpty(cursor_);
            if (wheelCount_ == 0) {
                // Everything pending lives in the far list: jump the
                // window straight to it instead of walking empty
                // rotations.
                windowStart_ = farMin_ - farMin_ % span_;
                pourFar(); // farMin_ lands inside the new window
                cursor_ = nextOccupied(0);
                continue;
            }
            // Buckets before the cursor are empty and the spill heap is
            // too, so every wheel record sits in a later bucket of this
            // window: jump straight to the first occupied one. The
            // window therefore never wraps while the wheel holds
            // records; it only moves by the far-list jump above.
            cursor_ = nextOccupied(cursor_);
            continue;
        }
        if (!activeSorted_) {
            // Sort ascending; consumption walks activeHead_ forward.
            // The spill heap is necessarily empty here (it only fills
            // after the sort and drains before the cursor moves on),
            // and activeHead_ is 0 (nonzero only while sorted).
            std::sort(bucket.begin(), bucket.end(), Earlier{});
            activeSorted_ = true;
        }
        if (spill_.empty())
            t = bucket[activeHead_].time;
        else if (activeHead_ == bucket.size())
            t = spill_.front().time;
        else
            t = std::min(bucket[activeHead_].time, spill_.front().time);
        return true;
    }
}

inline bool
EventQueue::nextBatch(SimTime horizon, EventBatch &out)
{
    SimTime t;
    if (!peekTime(t) || t > horizon) {
        if (now_ < horizon)
            now_ = horizon;
        out = EventBatch{};
        return false;
    }
    now_ = t;
    // peekTime() left the run's records at known positions, and no new
    // records can arrive while we drain (dispatch happens after this
    // returns), so the tail of the run is found with cheap time checks
    // per event instead of re-running the peek loop.
    if (!early_.empty()) {
        // Early-heap run: wheel times are >= windowStart_ > t, so every
        // same-time record lives in the early heap alone. Merged into
        // scratch (rare by construction).
        scratchBatch_.clear();
        do {
            --pending_;
            std::pop_heap(early_.begin(), early_.end(), Later{});
            scratchBatch_.push_back(early_.back());
            early_.pop_back();
        } while (!early_.empty() && early_.front().time == t);
        out.data = scratchBatch_.data();
        out.count = scratchBatch_.size();
        return true;
    }
    // Wheel run: time t maps to exactly one bucket, so every same-time
    // record is in the current (sorted) bucket or its spill heap.
    std::vector<EventRecord> &bucket = buckets_[cursor_];
    if (spill_.empty()) {
        // Common case: hand out the bucket's whole unconsumed suffix
        // up to the horizon, zero-copy — multiple timestamps in one
        // span. Posts during dispatch go to the spill heap (the bucket
        // is sorted), so the span survives until the next nextBatch()
        // call; the owner's interleavePending() check decides when a
        // spilled event forces an early re-entry.
        std::size_t end = activeHead_ + 1;
        while (end < bucket.size() && bucket[end].time <= horizon)
            ++end;
        const std::size_t n = end - activeHead_;
        pending_ -= n;
        wheelCount_ -= n;
        out.data = bucket.data() + activeHead_;
        out.count = n;
        activeHead_ = end;
        return true;
    }
    // Spill records interleave with the sorted window: merge the run
    // into scratch. Equal-time ties drain the bucket first (spill seqs
    // are strictly higher).
    scratchBatch_.clear();
    for (;;) {
        --pending_;
        --wheelCount_;
        if (!spill_.empty() &&
            (activeHead_ == bucket.size() ||
             Later{}(bucket[activeHead_], spill_.front()))) {
            std::pop_heap(spill_.begin(), spill_.end(), Later{});
            scratchBatch_.push_back(spill_.back());
            spill_.pop_back();
        } else {
            scratchBatch_.push_back(bucket[activeHead_++]);
        }
        const bool more = (activeHead_ < bucket.size() &&
                           bucket[activeHead_].time == t) ||
                          (!spill_.empty() && spill_.front().time == t);
        if (!more)
            break;
    }
    out.data = scratchBatch_.data();
    out.count = scratchBatch_.size();
    return true;
}

template <class F>
std::uint64_t
EventQueue::drain(SimTime horizon, F &&dispatch)
{
    // Drain bucket-sized runs in one pass: the per-event cost inside a
    // run is the dispatch itself plus one clock store and one spill
    // probe. Dispatch may post freely — same-bucket posts divert to the
    // spill heap, so the span stays valid; when a spilled event must
    // run before the span's next record, the unconsumed tail goes back
    // to the queue and the loop re-enters. The resulting order is
    // exactly the (time, seq) order the goldens pin.
    std::uint64_t dispatched = 0;
    EventBatch batch;
    while (nextBatch(horizon, batch)) {
        std::size_t consumed = 0;
        while (consumed < batch.count) {
            const EventRecord &event = batch.data[consumed];
            advanceTo(event.time);
            const bool pause = dispatch(event);
            ++consumed;
            if (pause) {
                // Hand the untouched tail back so the next drain()
                // re-enters at the exact next record.
                if (consumed < batch.count)
                    returnTail(batch, consumed);
                return dispatched + consumed;
            }
            if (consumed < batch.count &&
                interleavePending(batch.data[consumed])) {
                returnTail(batch, consumed);
                break;
            }
        }
        dispatched += consumed;
    }
    return dispatched;
}

} // namespace erms

#endif // ERMS_SIM_EVENT_QUEUE_HPP
