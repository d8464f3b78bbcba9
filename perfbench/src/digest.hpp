/**
 * @file
 * Digest of a run's deterministic outputs: FNV-1a 64 over a canonical
 * text stream (integers in decimal, doubles as %.17g, which round-trips
 * every finite double exactly). Equal digests mean equal work and equal
 * results; the benchmark compares them across repetitions, across
 * traced and untraced runs, and across invocations with one seed.
 */

#ifndef PERFBENCH_DIGEST_HPP
#define PERFBENCH_DIGEST_HPP

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>

namespace perfbench {

class Digest
{
  public:
    Digest &
    add(const std::string &text)
    {
        for (unsigned char c : text) {
            hash_ ^= c;
            hash_ *= 0x100000001b3ULL;
        }
        hash_ ^= 0xff; // field separator
        hash_ *= 0x100000001b3ULL;
        return *this;
    }

    Digest &add(const char *text) { return add(std::string(text)); }

    Digest &
    add(double value)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        return add(std::string(buf));
    }

    template <typename Int>
        requires std::is_integral_v<Int>
    Digest &
    add(Int value)
    {
        return add(std::to_string(value));
    }

    std::uint64_t value() const { return hash_; }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(hash_));
        return buf;
    }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HPP
