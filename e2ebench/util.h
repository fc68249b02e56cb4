/**
 * @file
 * Small self-contained helpers for the end-to-end benchmark: a
 * monotonic clock, a fully specified seeded generator (so workload
 * inputs never depend on the library's own RNG), CRC-32 over result
 * lines, and order statistics.
 */

#ifndef E2EBENCH_UTIL_H
#define E2EBENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/** Seconds on the steady clock since an arbitrary epoch. */
inline double
nowSec()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

/** SplitMix64: the benchmark's input generator (stable by definition). */
class SeedRng
{
  public:
    explicit SeedRng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t state_;
};

/** CRC-32 (IEEE 802.3, reflected) continued from @p crc. */
inline uint32_t
crc32(uint32_t crc, const std::string &bytes)
{
    crc = ~crc;
    for (unsigned char c : bytes) {
        crc ^= c;
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    return ~crc;
}

/** Linear-interpolated quantile (q in [0, 1]); NaN when empty. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

} // namespace e2e

#endif // E2EBENCH_UTIL_H
