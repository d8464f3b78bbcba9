#include "event_queue.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace erms {

namespace {

constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

EventQueue::EventQueue(std::size_t bucket_count, SimTime bucket_width)
    : buckets_(bucket_count), bucketWidth_(bucket_width),
      span_(static_cast<SimTime>(bucket_count) * bucket_width),
      occupied_((bucket_count + 63) / 64, 0)
{
    ERMS_ASSERT_MSG(isPowerOfTwo(bucket_count),
                    "bucket count must be a power of two");
    ERMS_ASSERT_MSG(isPowerOfTwo(bucket_width),
                    "bucket width must be a power of two");
}

void
EventQueue::pourFar()
{
    std::size_t keep = 0;
    SimTime keep_min = 0;
    for (std::size_t i = 0; i < far_.size(); ++i) {
        const EventRecord &rec = far_[i];
        if (rec.time - windowStart_ < span_) {
            // windowStart_ never overtakes a far event, so the
            // subtraction cannot underflow.
            const std::size_t index = static_cast<std::size_t>(
                (rec.time - windowStart_) / bucketWidth_);
            buckets_[index].push_back(rec);
            markOccupied(index);
            ++wheelCount_;
            continue;
        }
        if (keep == 0 || rec.time < keep_min)
            keep_min = rec.time;
        far_[keep++] = rec;
    }
    far_.resize(keep);
    farMin_ = keep_min;
}

void
EventQueue::requeueScratch(std::size_t from)
{
    for (std::size_t i = from; i < scratchBatch_.size(); ++i) {
        const EventRecord &rec = scratchBatch_[i];
        ++pending_;
        // The run's records all came from one place: the early heap
        // (times behind the window) or the current bucket + spill heap.
        if (rec.time < windowStart_) {
            early_.push_back(rec);
            std::push_heap(early_.begin(), early_.end(), Later{});
        } else {
            spill_.push_back(rec);
            std::push_heap(spill_.begin(), spill_.end(), Later{});
            ++wheelCount_;
        }
    }
}

} // namespace erms
