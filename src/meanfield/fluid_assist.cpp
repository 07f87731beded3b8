#include "meanfield/fluid_assist.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/effect_tables.h"
#include "core/engine_monitor.h"
#include "core/require.h"
#include "core/rng.h"

namespace popproto {

namespace {

/// rho(x) = sum over effective ordered state pairs of x_p * x_q: the fluid
/// analogue of W / n(n-1) (the diagonal's missing 1/n correction vanishes
/// in the limit, and fluid assist only runs at collapsed scale).
double effective_pair_density(const EffectTables& eff, const std::vector<double>& x) {
    double rho = 0.0;
    for (State p = 0; p < eff.num_states; ++p) {
        if (x[p] == 0.0) continue;
        const std::uint8_t* row = eff.eff_row.data() + static_cast<std::size_t>(p) * eff.num_states;
        double dot = 0.0;
        for (State q = 0; q < eff.num_states; ++q)
            if (row[q]) dot += x[q];
        rho += x[p] * dot;
    }
    return rho;
}

/// One multinomial sample of `population` agents from `density` via the
/// standard binomial cascade (conditionals of the remaining mass).
std::vector<std::uint64_t> sample_counts(Rng& rng, const std::vector<double>& density,
                                         std::uint64_t population) {
    std::vector<std::uint64_t> counts(density.size(), 0);
    std::uint64_t remaining = population;
    double mass = 0.0;
    for (const double d : density) mass += std::max(d, 0.0);
    for (std::size_t s = 0; s + 1 < density.size() && remaining > 0; ++s) {
        const double d = std::max(density[s], 0.0);
        const double p = mass > 0.0 ? std::min(d / mass, 1.0) : 0.0;
        const std::uint64_t c = rng.binomial(remaining, p);
        counts[s] = c;
        remaining -= c;
        mass = std::max(mass - d, 0.0);
    }
    if (!counts.empty()) counts.back() += remaining;
    return counts;
}

}  // namespace

decltype(RunOptions::fluid_assist) make_fluid_assist_hook(FluidOptions fluid_options) {
    return [fluid_options](const TabulatedProtocol& protocol, const CountConfiguration& initial,
                           const RunOptions& options) -> std::optional<RunCheckpoint> {
        const std::uint64_t n = initial.population_size();
        require(n >= 2, "fluid_assist: need at least two agents");
        const double nd = static_cast<double>(n);

        FluidOptions solve_options = fluid_options;
        if (solve_options.t_end == 0.0) {
            // Theta(log n) covers the fluid transients of the paper's
            // protocols (epidemic, counting, majority); the equilibrium
            // detector cuts the solve short when the drift dies earlier.
            solve_options.t_end = 8.0 * (std::log(nd) + 1.0);
            if (solve_options.equilibrium_eps == 0.0) {
                solve_options.equilibrium_eps = 1e-9;
                solve_options.equilibrium_window = 0.5;
            }
        }
        solve_options.keep_solution = true;

        const FluidResult fluid = solve_fluid(protocol, initial, solve_options);
        const double t_reached = fluid.solution.num_segments() != 0
                                     ? fluid.t_reached
                                     : 0.0;
        if (t_reached <= 0.0) return std::nullopt;

        // Find the earliest fluid time where the monitor signal falls to
        // the collapsed-exit threshold: coarse scan over the dense output,
        // then bisection inside the bracketing interval.
        const EffectTables eff(protocol);
        const double expected_run_length = 1.2533141373155003 * std::sqrt(nd);
        const auto signal_at = [&](double t) {
            return effective_pair_density(eff, fluid.solution.density_at(t)) *
                   expected_run_length;
        };

        if (signal_at(0.0) <= kExitCollapsed) return std::nullopt;  // starts sparse
        constexpr int kScanSamples = 1024;
        double lo = 0.0;
        double hi = -1.0;
        for (int k = 1; k <= kScanSamples; ++k) {
            const double t = t_reached * static_cast<double>(k) / kScanSamples;
            if (signal_at(t) <= kExitCollapsed) {
                hi = t;
                break;
            }
            lo = t;
        }
        if (hi < 0.0) return std::nullopt;  // never leaves the dense regime
        for (int iter = 0; iter < 50 && hi - lo > 1e-12 * t_reached; ++iter) {
            const double mid = 0.5 * (lo + hi);
            (signal_at(mid) <= kExitCollapsed ? hi : lo) = mid;
        }
        const double t_cross = hi;

        const auto interactions = static_cast<std::uint64_t>(std::llround(nd * t_cross));
        if (interactions == 0 || interactions >= resolved_budget(options, n))
            return std::nullopt;

        // Re-seed the stochastic run: one multinomial draw from the
        // predicted density, on the run's own seed so the assisted run is
        // reproducible; the continuation stream is whatever the draw left.
        Rng rng(options.seed);
        std::vector<std::uint64_t> counts =
            sample_counts(rng, fluid.solution.density_at(t_cross), n);

        RunCheckpoint checkpoint;
        checkpoint.engine = ObservedEngine::kCountBatch;
        checkpoint.population = n;
        checkpoint.num_states = protocol.num_states();
        checkpoint.rng = rng.save_state();
        checkpoint.interactions = interactions;
        // The skipped transient's effective count is unknown (the fluid
        // limit does not resolve it); counters restart from the splice, so
        // RunResult::effective_interactions reports the tail only.
        checkpoint.effective_interactions = 0;
        // Conservative: treat outputs as having just changed, so a
        // stable-output window never fires on fast-forwarded silence.
        checkpoint.last_output_change = interactions;
        checkpoint.next_silence_check = 0;
        checkpoint.changed_since_silence_check = true;
        checkpoint.counts = std::move(counts);
        return checkpoint;
    };
}

}  // namespace popproto
