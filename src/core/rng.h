// Small, fast pseudo-random number generator for interaction scheduling.
//
// Population-protocol experiments are dominated by the cost of drawing random
// agent pairs, so we use xoshiro256** (Blackman & Vigna) seeded via SplitMix64
// instead of the heavier std::mt19937_64.  The generator satisfies the
// UniformRandomBitGenerator concept so it also composes with <random>
// distributions where convenient.

#ifndef POPPROTO_CORE_RNG_H
#define POPPROTO_CORE_RNG_H

#include <array>
#include <cstdint>

namespace popproto {

/// xoshiro256** generator.  Deterministic for a given seed; not
/// cryptographically secure (nor does it need to be).
class Rng {
public:
    using result_type = std::uint64_t;

    /// Seeds the four words of state by iterating SplitMix64 from `seed`.
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~result_type{0}; }

    /// Next 64 uniformly random bits.
    result_type operator()() noexcept;

    /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection
    /// method.  Precondition: bound > 0 (unchecked on this hot path; a zero
    /// bound would loop forever, so callers must not pass it).
    std::uint64_t below(std::uint64_t bound) noexcept;

    /// Uniform double in [0, 1).
    double uniform01() noexcept;

    /// Number of consecutive failures before the first success of an event
    /// with the given per-trial success probability (exact geometric
    /// sampling by inversion).  Returns 0 without consuming randomness when
    /// `success_probability >= 1`; results are capped at 10^18 so callers
    /// can add them to interaction counters without overflow.
    std::uint64_t geometric_skips(double success_probability) noexcept;

    /// Number of successes in `trials` independent Bernoulli(p) trials,
    /// sampled exactly by inverse-CDF: one uniform01 draw walked outward
    /// from the distribution's mode via the pmf recurrence, so the expected
    /// cost is O(sqrt(trials * p * (1 - p))).  Degenerate inputs (trials ==
    /// 0, p <= 0, p >= 1) return without consuming randomness.  Stateless
    /// apart from the stream position, so save_state/restore_state replay
    /// it exactly.
    std::uint64_t binomial(std::uint64_t trials, double p) noexcept;

    /// Number of successes when drawing `draws` items without replacement
    /// from a population of `successes` success items and `failures`
    /// failure items, sampled exactly by the same mode-centered inverse-CDF
    /// walk as `binomial` (one uniform01 draw).  Degenerate inputs
    /// (draws == 0, successes == 0, failures == 0, draws >= total) return
    /// without consuming randomness; draws > successes + failures is
    /// clamped to the whole population.
    std::uint64_t hypergeometric(std::uint64_t successes, std::uint64_t failures,
                                 std::uint64_t draws) noexcept;

    /// The four xoshiro256** state words, for suspend/resume of a run
    /// (core/run_loop.h checkpoints).  `save_state` followed by
    /// `restore_state` reproduces the output stream bit for bit.
    struct StreamState {
        std::array<std::uint64_t, 4> words{};
        friend bool operator==(const StreamState&, const StreamState&) = default;
    };

    /// Captures the current stream position.
    StreamState save_state() const noexcept;

    /// Rewinds (or fast-forwards) the generator to a captured position.  An
    /// all-zero state (only producible by a corrupt checkpoint, never by
    /// `save_state`) is nudged to a valid one, as in the constructor.
    void restore_state(const StreamState& state) noexcept;

private:
    std::uint64_t state_[4];
};

}  // namespace popproto

#endif  // POPPROTO_CORE_RNG_H
