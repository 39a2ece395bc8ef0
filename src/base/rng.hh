/**
 * @file
 * Deterministic pseudo-random number generation and the sampling
 * distributions used by the synthetic workload generators.
 *
 * All randomness in the simulator flows through Rng so that every
 * experiment is reproducible from its seed.
 */

#ifndef AGILEPAGING_BASE_RNG_HH
#define AGILEPAGING_BASE_RNG_HH

#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "base/serialize.hh"

namespace ap
{

/**
 * A small, fast, deterministic generator (xoshiro256**).
 */
class Rng
{
  public:
    /** Seed the generator; the same seed yields the same stream. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return the next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** @return a uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        ap_assert(bound > 0, "nextBelow(0)");
        // Lemire-style multiply-shift; bias is negligible for 64-bit
        // space.
        unsigned __int128 m =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** @return a uniform integer in [lo, hi]. @pre lo <= hi. */
    std::uint64_t nextRange(std::uint64_t lo, std::uint64_t hi);

    /** @return a uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return true with probability @p p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /** Snapshot support: the full generator state is the four words. */
    void
    saveState(Serializer &s) const
    {
        for (std::uint64_t w : s_)
            s.putU64(w);
    }

    void
    restoreState(Deserializer &d)
    {
        for (std::uint64_t &w : s_)
            w = d.getU64();
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/**
 * Zipf-distributed sampler over [0, n). Used to model skewed page
 * popularity (e.g., memcached key accesses).
 *
 * Uses the rejection-inversion method of Hormann and Derflinger, which
 * needs O(1) state regardless of n. A guide table over the draw space
 * answers most draws without evaluating the inverse; it holds only
 * cells whose every draw provably yields the same accepted rank, so
 * the sample stream and the RNG consumption are exactly those of the
 * plain method.
 */
class ZipfSampler
{
  public:
    /**
     * @param n number of items (> 0)
     * @param theta skew parameter (> 0, != 1 handled, typical 0.99)
     */
    ZipfSampler(std::uint64_t n, double theta);

    /** Draw one item index in [0, n). */
    std::uint64_t
    sample(Rng &rng) const
    {
        if (n_ == 1)
            return 0;
        while (true) {
            // The 53 bits nextDouble() would use.
            const std::uint64_t r = rng.next() >> 11;
            const std::uint32_t k = guide_[r >> kGuideShift];
            if (k != 0)
                return k - 1;
            const std::uint64_t rank = rankOf(r);
            if (rank != kRejected)
                return rank;
        }
    }

    std::uint64_t size() const { return n_; }

  private:
    friend struct ZipfSamplerTestPeer;

    /** log2 of the guide-table cell count (cells split draw space by
     *  the top bits of the 53-bit draw). */
    static constexpr unsigned kGuideBits = 12;
    static constexpr unsigned kGuideShift = 53 - kGuideBits;
    static constexpr std::uint64_t kRejected = ~std::uint64_t(0);

    /**
     * One rejection-inversion attempt for the 53-bit draw @p r.
     * @return the 0-based rank, or kRejected.
     */
    std::uint64_t rankOf(std::uint64_t r) const;

    /** The attempt's point in hIntegral space for draw @p r. */
    double
    drawPoint(std::uint64_t r) const
    {
        return h_integral_n_ + static_cast<double>(r) * 0x1.0p-53 *
                                   (h_integral_x1_ - h_integral_n_);
    }

    void buildGuide();

    double hIntegral(double x) const;
    double hIntegralInverse(double x) const;
    double h(double x) const;

    std::uint64_t n_;
    double theta_;
    double h_integral_x1_;
    double h_integral_n_;
    double s_;
    /**
     * Per draw-space cell: the 1-based rank every draw in the cell
     * accepts, or 0 when the cell needs the exact attempt. All zero
     * when n >= 2^32; empty when n == 1 (sample() never reads it).
     */
    std::vector<std::uint32_t> guide_;
};

/**
 * Samples from an explicit discrete distribution given as weights.
 * Used for choosing among workload event classes.
 */
class WeightedPicker
{
  public:
    explicit WeightedPicker(std::vector<double> weights);

    /** @return index of the chosen weight. */
    std::size_t pick(Rng &rng) const;

    std::size_t size() const { return cumulative_.size(); }

  private:
    std::vector<double> cumulative_;
};

} // namespace ap

#endif // AGILEPAGING_BASE_RNG_HH
