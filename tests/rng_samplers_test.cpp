// Chi-square goodness-of-fit coverage for the exact Rng samplers: the new
// binomial / hypergeometric inverse-CDF walks powering the collapsed
// super-step engine, and (retroactively) geometric_skips.  All tests use
// fixed seeds and the 0.999-quantile helper from test_util.h, so they are
// deterministic; a wrong sampler overshoots the critical value by orders
// of magnitude.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.h"
#include "test_util.h"

namespace popproto {
namespace {

using testutil::chi_square_gof;
using testutil::ChiSquareResult;

std::vector<double> binomial_pmf(std::uint64_t t, double p) {
    // f(0) = (1-p)^t, f(k+1) = f(k) (t-k)/(k+1) p/(1-p); computed in logs
    // for numerical headroom at large t.
    std::vector<double> pmf(t + 1);
    const double lp = std::log(p);
    const double lq = std::log1p(-p);
    double lc = 0.0;  // log C(t, k)
    for (std::uint64_t k = 0; k <= t; ++k) {
        pmf[k] = std::exp(lc + static_cast<double>(k) * lp +
                          static_cast<double>(t - k) * lq);
        if (k < t)
            lc += std::log(static_cast<double>(t - k)) - std::log(static_cast<double>(k + 1));
    }
    return pmf;
}

std::vector<double> hypergeometric_pmf(std::uint64_t succ, std::uint64_t fail,
                                       std::uint64_t draws) {
    const auto lchoose = [](double a, double b) {
        return std::lgamma(a + 1.0) - std::lgamma(b + 1.0) - std::lgamma(a - b + 1.0);
    };
    const std::uint64_t lo = draws > fail ? draws - fail : 0;
    const std::uint64_t hi = draws < succ ? draws : succ;
    std::vector<double> pmf(hi + 1, 0.0);
    for (std::uint64_t k = lo; k <= hi; ++k) {
        pmf[k] = std::exp(lchoose(static_cast<double>(succ), static_cast<double>(k)) +
                          lchoose(static_cast<double>(fail), static_cast<double>(draws - k)) -
                          lchoose(static_cast<double>(succ + fail),
                                  static_cast<double>(draws)));
    }
    return pmf;
}

constexpr std::uint64_t kDraws = 40000;

TEST(RngBinomial, MatchesPmfAcrossRegimes) {
    struct Case {
        std::uint64_t trials;
        double p;
    };
    // Mean >> 1 (t p = 35), mean << 1 (t p = 0.5), symmetric, skewed both
    // ways, and a single trial.
    const std::vector<Case> cases = {{50, 0.7}, {500, 0.001}, {40, 0.5},
                                     {20, 0.05}, {20, 0.95},  {1, 0.3}};
    std::uint64_t seed = 7;
    for (const Case& c : cases) {
        SCOPED_TRACE("binomial(" + std::to_string(c.trials) + ", " + std::to_string(c.p) + ")");
        Rng rng(seed++);
        std::vector<std::uint64_t> observed(c.trials + 1, 0);
        for (std::uint64_t i = 0; i < kDraws; ++i) {
            const std::uint64_t k = rng.binomial(c.trials, c.p);
            ASSERT_LE(k, c.trials);
            ++observed[k];
        }
        const ChiSquareResult gof =
            chi_square_gof(observed, binomial_pmf(c.trials, c.p), kDraws);
        EXPECT_TRUE(gof.pass) << gof.summary();
    }
}

TEST(RngBinomial, BoundariesConsumeNoRandomness) {
    Rng rng(11);
    const Rng::StreamState before = rng.save_state();
    EXPECT_EQ(rng.binomial(0, 0.5), 0u);
    EXPECT_EQ(rng.binomial(100, 0.0), 0u);
    EXPECT_EQ(rng.binomial(100, -0.5), 0u);
    EXPECT_EQ(rng.binomial(100, 1.0), 100u);
    EXPECT_EQ(rng.binomial(100, 1.5), 100u);
    EXPECT_EQ(rng.save_state(), before);
}

TEST(RngHypergeometric, MatchesPmfAcrossRegimes) {
    struct Case {
        std::uint64_t succ;
        std::uint64_t fail;
        std::uint64_t draws;
    };
    // Balanced, lower-support-truncated (draws > fail forces k >= 10),
    // near-complete draw, tiny population, success-heavy, and mean << 1.
    const std::vector<Case> cases = {{30, 70, 20}, {40, 10, 20}, {25, 25, 48},
                                     {4, 3, 5},    {1000, 10, 5}, {2, 1000, 30}};
    std::uint64_t seed = 23;
    for (const Case& c : cases) {
        SCOPED_TRACE("hypergeometric(" + std::to_string(c.succ) + ", " +
                     std::to_string(c.fail) + ", " + std::to_string(c.draws) + ")");
        Rng rng(seed++);
        const std::uint64_t hi = c.draws < c.succ ? c.draws : c.succ;
        std::vector<std::uint64_t> observed(hi + 1, 0);
        for (std::uint64_t i = 0; i < kDraws; ++i) {
            const std::uint64_t k = rng.hypergeometric(c.succ, c.fail, c.draws);
            ASSERT_LE(k, hi);
            ASSERT_GE(k + c.fail, c.draws);  // k >= draws - fail
            ++observed[k];
        }
        const ChiSquareResult gof =
            chi_square_gof(observed, hypergeometric_pmf(c.succ, c.fail, c.draws), kDraws);
        EXPECT_TRUE(gof.pass) << gof.summary();
    }
}

TEST(RngHypergeometric, BoundariesConsumeNoRandomness) {
    Rng rng(13);
    const Rng::StreamState before = rng.save_state();
    EXPECT_EQ(rng.hypergeometric(10, 20, 0), 0u);   // draws == 0
    EXPECT_EQ(rng.hypergeometric(0, 20, 5), 0u);    // no successes
    EXPECT_EQ(rng.hypergeometric(10, 0, 5), 5u);    // no failures
    EXPECT_EQ(rng.hypergeometric(10, 20, 30), 10u); // draw everything
    EXPECT_EQ(rng.hypergeometric(10, 20, 99), 10u); // clamped overdraw
    EXPECT_EQ(rng.hypergeometric(3, 1, 4), 3u);     // degenerate support
    EXPECT_EQ(rng.save_state(), before);
}

TEST(RngGeometricSkips, MatchesPmfAcrossRegimes) {
    // Retroactive GOF for the PR 1 sampler: P[k skips] = p (1-p)^k.
    const std::vector<double> probabilities = {0.5, 0.05, 0.9};
    std::uint64_t seed = 31;
    for (const double p : probabilities) {
        SCOPED_TRACE("geometric_skips(" + std::to_string(p) + ")");
        Rng rng(seed++);
        constexpr std::size_t kCategories = 256;  // tail folds into the helper's extra bin
        std::vector<std::uint64_t> observed(kCategories, 0);
        std::vector<double> pmf(kCategories, 0.0);
        double mass = p;
        for (std::size_t k = 0; k < kCategories; ++k) {
            pmf[k] = mass;
            mass *= 1.0 - p;
        }
        for (std::uint64_t i = 0; i < kDraws; ++i) {
            const std::uint64_t k = rng.geometric_skips(p);
            if (k < kCategories) ++observed[k];
        }
        const ChiSquareResult gof = chi_square_gof(observed, pmf, kDraws);
        EXPECT_TRUE(gof.pass) << gof.summary();
    }
}

TEST(RngGeometricSkips, CertainSuccessConsumesNoRandomness) {
    Rng rng(17);
    const Rng::StreamState before = rng.save_state();
    EXPECT_EQ(rng.geometric_skips(1.0), 0u);
    EXPECT_EQ(rng.geometric_skips(2.0), 0u);
    EXPECT_EQ(rng.save_state(), before);
}

TEST(RngSamplers, SaveRestoreReplaysExactly) {
    // The samplers are stateless apart from the stream position, so a
    // saved state replays an interleaved draw sequence bit for bit — the
    // property collapsed-engine checkpoints rely on.
    Rng rng(101);
    rng.binomial(37, 0.42);  // advance to an arbitrary position
    const Rng::StreamState cut = rng.save_state();

    std::vector<std::uint64_t> first;
    for (int i = 0; i < 50; ++i) {
        first.push_back(rng.binomial(100, 0.3));
        first.push_back(rng.hypergeometric(60, 40, 25));
        first.push_back(rng.geometric_skips(0.125));
    }

    rng.restore_state(cut);
    std::vector<std::uint64_t> second;
    for (int i = 0; i < 50; ++i) {
        second.push_back(rng.binomial(100, 0.3));
        second.push_back(rng.hypergeometric(60, 40, 25));
        second.push_back(rng.geometric_skips(0.125));
    }
    EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace popproto
