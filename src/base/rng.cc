/**
 * @file
 * Implementation of deterministic RNG and samplers.
 */

#include "base/rng.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.hh"

namespace ap
{

namespace
{
std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}
} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

std::uint64_t
Rng::nextRange(std::uint64_t lo, std::uint64_t hi)
{
    ap_assert(lo <= hi, "nextRange lo > hi");
    // The full 64-bit range has 2^64 values: hi - lo + 1 wraps to 0.
    if (lo == 0 && hi == ~std::uint64_t(0))
        return next();
    return lo + nextBelow(hi - lo + 1);
}

ZipfSampler::ZipfSampler(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    ap_assert(n > 0, "ZipfSampler needs n > 0");
    ap_assert(theta > 0.0, "ZipfSampler needs theta > 0");
    h_integral_x1_ = hIntegral(1.5) - 1.0;
    h_integral_n_ = hIntegral(static_cast<double>(n) + 0.5);
    s_ = 2.0 - hIntegralInverse(hIntegral(2.5) - h(2.0));
    buildGuide();
}

void
ZipfSampler::buildGuide()
{
    if (n_ == 1)
        return;
    guide_.assign(std::size_t(1) << kGuideBits, 0);
    // A cell stores its rank in 32 bits.
    if (n_ > std::numeric_limits<std::uint32_t>::max())
        return;
    // Cell c holds the draws [c << kGuideShift, (c + 1) << kGuideShift).
    // drawPoint() is monotone in r (IEEE multiply and add are
    // monotone) and the true inverse is monotone, so every draw's x
    // lies between the x of the cell's two edges, up to libm's and the
    // arithmetic's error (~1e-13 relative). Widened by kMargin, far
    // above that error, the bounds are safe: if both round to the same
    // clamped rank k and even the lower bound passes the squeeze test
    // k - x <= s_, every draw in the cell returns k - 1 on its first
    // attempt, exactly as rankOf() would.
    constexpr double kMargin = 1e-9;
    const double n = static_cast<double>(n_);
    // x rounded and clamped as rankOf() does, or 0 for a non-finite x.
    auto rank = [n](double x) -> std::uint64_t {
        if (!std::isfinite(x))
            return 0;
        const double y = x + 0.5;
        if (y < 1.0)
            return 1;
        if (y >= n)
            return static_cast<std::uint64_t>(n);
        return static_cast<std::uint64_t>(y);
    };
    double x_next = hIntegralInverse(drawPoint(0));
    for (std::size_t c = 0; c < guide_.size(); ++c) {
        const double x_first = x_next;
        x_next = hIntegralInverse(drawPoint((c + 1) << kGuideShift));
        const double lo = std::min(x_first, x_next) * (1.0 - kMargin);
        const double hi = std::max(x_first, x_next) * (1.0 + kMargin);
        const std::uint64_t k = rank(lo);
        if (k != 0 && k == rank(hi) && static_cast<double>(k) - lo <= s_)
            guide_[c] = static_cast<std::uint32_t>(k);
    }
}

double
ZipfSampler::h(double x) const
{
    return std::exp(-theta_ * std::log(x));
}

double
ZipfSampler::hIntegral(double x) const
{
    double log_x = std::log(x);
    // Integral of x^-theta; handle theta == 1 via the log limit.
    double t = (1.0 - theta_) * log_x;
    double helper = (std::abs(t) > 1e-8) ? std::expm1(t) / t : 1.0 + t / 2.0;
    return log_x * helper;
}

double
ZipfSampler::hIntegralInverse(double x) const
{
    double t = x * (1.0 - theta_);
    if (t < -1.0)
        t = -1.0;
    double helper =
        (std::abs(t) > 1e-8) ? std::log1p(t) / t : 1.0 - t / 2.0;
    return std::exp(x * helper);
}

std::uint64_t
ZipfSampler::rankOf(std::uint64_t r) const
{
    double u = drawPoint(r);
    double x = hIntegralInverse(u);
    std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
    if (k < 1)
        k = 1;
    else if (k > n_)
        k = n_;
    double kd = static_cast<double>(k);
    if (kd - x <= s_ || u >= hIntegral(kd + 0.5) - h(kd))
        return k - 1; // 0-based rank
    return kRejected;
}

WeightedPicker::WeightedPicker(std::vector<double> weights)
{
    ap_assert(!weights.empty(), "WeightedPicker needs weights");
    double sum = 0.0;
    cumulative_.reserve(weights.size());
    for (double w : weights) {
        ap_assert(w >= 0.0, "negative weight");
        sum += w;
        cumulative_.push_back(sum);
    }
    ap_assert(sum > 0.0, "all weights zero");
    for (double &c : cumulative_)
        c /= sum;
}

std::size_t
WeightedPicker::pick(Rng &rng) const
{
    double u = rng.nextDouble();
    for (std::size_t i = 0; i < cumulative_.size(); ++i) {
        if (u < cumulative_[i])
            return i;
    }
    return cumulative_.size() - 1;
}

} // namespace ap
