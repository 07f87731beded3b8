#include "core/rng.h"

#include <cmath>
#include <vector>


namespace popproto {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
    std::uint64_t s = seed;
    for (auto& word : state_) word = splitmix64(s);
    // xoshiro must not start in the all-zero state.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

Rng::result_type Rng::operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
    // Lemire's nearly-divisionless method with rejection for exact uniformity.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
        const std::uint64_t threshold = -bound % bound;
        while (low < threshold) {
            x = (*this)();
            m = static_cast<__uint128_t>(x) * bound;
            low = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform01() noexcept {
    // 53 random bits scaled into [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

Rng::StreamState Rng::save_state() const noexcept {
    StreamState state;
    for (int i = 0; i < 4; ++i) state.words[static_cast<std::size_t>(i)] = state_[i];
    return state;
}

void Rng::restore_state(const StreamState& state) noexcept {
    for (int i = 0; i < 4; ++i) state_[i] = state.words[static_cast<std::size_t>(i)];
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

namespace {

// ln(k!) for k < kLogFactorialTableSize, built once on first use (the
// thread-safe static covers the parallel trial harness).  Every argument at
// a call site is an integral count, so small arguments hit the table and
// skip lgamma — the dominant fixed cost of a binomial/hypergeometric draw
// for the small splits of the collapsed engine's cascades.
constexpr std::size_t kLogFactorialTableSize = 2048;

double log_factorial(double x) noexcept {
    static const std::vector<double> table = [] {
        std::vector<double> t(kLogFactorialTableSize, 0.0);
        for (std::size_t k = 2; k < kLogFactorialTableSize; ++k)
            t[k] = t[k - 1] + std::log(static_cast<double>(k));
        return t;
    }();
    if (x < static_cast<double>(kLogFactorialTableSize))
        return table[static_cast<std::size_t>(x)];
    return std::lgamma(x + 1.0);
}

// log C(a, b) for 0 <= b <= a.
double log_choose(double a, double b) noexcept {
    return log_factorial(a) - log_factorial(b) - log_factorial(a - b);
}

// log of the hypergeometric pmf at k:
//   log [ C(s, k) C(f, d - k) / C(s + f, d) ]
// expanded into its nine log-factorials.  The grouping of the sum is part
// of the sampler's contract: every draw (and so every collapsed run) is
// pinned bit for bit by the golden-stream tests.
double hypergeometric_log_pmf(double s, double f, double d, double k) noexcept {
    return ((log_factorial(s) - log_factorial(k)) + (log_factorial(f) - log_factorial(s - k))) +
           ((log_factorial(d) - log_factorial(d - k)) +
            (log_factorial(s + f - d) - log_factorial(f - d + k))) -
           log_factorial(s + f);
}

}  // namespace

std::uint64_t Rng::binomial(std::uint64_t trials, double p) noexcept {
    if (trials == 0 || p <= 0.0) return 0;
    if (p >= 1.0) return trials;

    double u = uniform01();
    const double t = static_cast<double>(trials);

    // Mode of Binomial(t, p), clamped into the support.
    std::uint64_t mode = static_cast<std::uint64_t>((t + 1.0) * p);
    if (mode > trials) mode = trials;
    const double m = static_cast<double>(mode);
    const double fmode =
        std::exp(log_choose(t, m) + m * std::log(p) + (t - m) * std::log1p(-p));
    if (u < fmode) return mode;
    u -= fmode;

    // Zig-zag outward from the mode: the pmf decreases monotonically on
    // either side, so this is inverse-CDF sampling in an order that keeps
    // the expected number of iterations O(std-deviation).
    const double odds = p / (1.0 - p);
    double fup = fmode;
    double fdown = fmode;
    std::uint64_t kup = mode;
    std::uint64_t kdown = mode;
    while (kup < trials || kdown > 0) {
        if (kup < trials) {
            fup *= (t - static_cast<double>(kup)) / (static_cast<double>(kup) + 1.0) * odds;
            ++kup;
            if (u < fup) return kup;
            u -= fup;
        }
        if (kdown > 0) {
            fdown *= static_cast<double>(kdown) / (t - static_cast<double>(kdown) + 1.0) / odds;
            --kdown;
            if (u < fdown) return kdown;
            u -= fdown;
        }
        // Both running pmfs underflowed: u sits in the O(1e-16) rounding
        // residue of the total mass.  Any remaining support index has
        // negligible probability; the mode is as good a tie-break as any.
        if (fup < 1e-300 && fdown < 1e-300) break;
    }
    return mode;
}

std::uint64_t Rng::hypergeometric(std::uint64_t successes, std::uint64_t failures,
                                  std::uint64_t draws) noexcept {
    const std::uint64_t total = successes + failures;
    if (draws == 0 || successes == 0) return 0;
    if (draws >= total) return successes;     // draw everything (overdraw clamps)
    if (failures == 0) return draws;          // every draw is a success

    // Support of the success count.
    const std::uint64_t lo = draws > failures ? draws - failures : 0;
    const std::uint64_t hi = draws < successes ? draws : successes;
    if (lo == hi) return lo;

    double u = uniform01();
    const double s = static_cast<double>(successes);
    const double f = static_cast<double>(failures);
    const double d = static_cast<double>(draws);

    // Mode of Hypergeometric(successes, failures, draws), clamped.
    std::uint64_t mode = static_cast<std::uint64_t>((d + 1.0) * (s + 1.0) / (s + f + 2.0));
    if (mode < lo) mode = lo;
    if (mode > hi) mode = hi;
    const double m = static_cast<double>(mode);
    const double fmode = std::exp(hypergeometric_log_pmf(s, f, d, m));
    if (u < fmode) return mode;
    u -= fmode;

    // Same mode-centered zig-zag as binomial(), with the hypergeometric
    // pmf recurrence f(k+1)/f(k) = (s-k)(d-k) / ((k+1)(f-d+k+1)).
    double fup = fmode;
    double fdown = fmode;
    std::uint64_t kup = mode;
    std::uint64_t kdown = mode;
    while (kup < hi || kdown > lo) {
        if (kup < hi) {
            const double k = static_cast<double>(kup);
            fup *= (s - k) * (d - k) / ((k + 1.0) * (f - d + k + 1.0));
            ++kup;
            if (u < fup) return kup;
            u -= fup;
        }
        if (kdown > lo) {
            const double k = static_cast<double>(kdown);
            fdown *= k * (f - d + k) / ((s - k + 1.0) * (d - k + 1.0));
            --kdown;
            if (u < fdown) return kdown;
            u -= fdown;
        }
        if (fup < 1e-300 && fdown < 1e-300) break;  // rounding residue; see binomial()
    }
    return mode;
}

std::uint64_t Rng::geometric_skips(double success_probability) noexcept {
    if (success_probability >= 1.0) return 0;
    double u = uniform01();
    if (u <= 0.0) u = 1e-300;
    const double skips = std::floor(std::log(u) / std::log1p(-success_probability));
    if (skips < 0.0) return 0;
    if (skips > 1e18) return static_cast<std::uint64_t>(1e18);
    return static_cast<std::uint64_t>(skips);
}

}  // namespace popproto
