// Collapsed super-step simulation engine: amortized sub-constant time per
// interaction via multinomial batching.
//
// The count-batch engine (batch_simulator.h) pays O(1) per skipped null
// interaction but still O(|Q|) per *effective* one, and the paper's
// randomized results need runs of 10^9..10^12 interactions (Theorem 8's
// O(n^2 log n) Presburger bound, Theorem 9's Theta(n^k) epochs) with dense
// phases where most interactions are effective.  This engine collapses
// whole *runs* of interactions into one count update:
//
//  * Super-step length.  Ordered pairs of distinct agents are drawn
//    uniformly; as long as consecutive pairs touch pairwise-disjoint
//    agents, their effects commute and the aggregate is a without-
//    replacement sample of the count vector.  The length L of the maximal
//    collision-free run has the birthday-problem law
//        P(L >= t) = prod_{i<t} (n-2i)(n-2i-1) / (n(n-1)),
//    with E[L] ~ 0.63 sqrt(n); the survival table depends only on n, is
//    built once, and one uniform01 + binary search samples L exactly.
//  * Batch assignment.  The L initiator states form a multivariate
//    hypergeometric sample A of the counts (cascade of exact
//    Rng::hypergeometric splits), the responder states B a second cascade
//    over the remainder, and the initiator-responder matching a third
//    cascade — O(|Q|^2) draws total.  Applying delta to every matched pair
//    type at once is one O(|Q|^2) count update for ~sqrt(n) interactions:
//    amortized O(|Q|^2 / sqrt(n)) per interaction.
//  * The colliding interaction.  The pair that terminated the run involves
//    at least one already-touched agent; it is resolved individually from
//    the post-batch touched multiset T (|T| = 2L) and the untouched
//    remainder U, with case weights TT : TU : UT = 2L(2L-1) : 2L(n-2L) :
//    (n-2L)2L.
//
// Equivalence contract (sharper than the cross-engine one of PR 2): the
// distribution of trajectories and RunResults is identical to the agent-array
// and count-batch engines', but equivalence is *distribution-level only* —
// even against itself across observation setups.  The run-loop kernel clamps a
// super-step at snapshot, checkpoint, stable-output-window, and
// silence-check boundaries (exactly: the first m pairs of a collision-free
// run of length >= m are themselves a collision-free batch of length m, and
// the count chain is Markov), so boundary *placement* steers where the RNG
// stream is spent, and the same seed yields different (equally valid)
// trajectories under different schedules.  Checkpoint/resume remains
// bit-identical because a resumed run reconstructs the identical boundary
// sequence: suspend-at-k + resume reproduces the checkpointed run exactly.
//
// Same options and result contract as the count-batch engine
// (silence_check_period ignored; multiset-wise effective_interactions and
// last_output_change), with two bookkeeping coarsenings (both documented in
// DESIGN.md):
//  * last_output_change is stamped at the end of the super-step containing
//    the change, not at the exact interaction inside the batch.
//  * Silence (W == 0, exact as in the count-batch engine) is detected at
//    super-step granularity, so the reported kSilent interaction index may
//    overshoot the exact onset by up to one super-step (< ~2 sqrt(n)); the
//    final configuration is unaffected (a silent multiset is frozen).
//
// Cost model: O(|Q|^2 + sqrt(n)-ish sampler walks) per ~0.63 sqrt(n)
// interactions.  Prefer it for dense phases at large n (>= 2^20); the
// count-batch engine remains better on sparse tails, where its geometric
// null skip crosses n^2/W interactions in O(1) while a super-step only
// crosses ~sqrt(n) (see README's engine table and bench_collapsed).
//
// Reached through run_simulation with SimulationEngine::kCollapsedBatch, or
// as a segment of the phase-adaptive dispatcher (engine_runners.h).

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/effect_tables.h"
#include "core/engine_runners.h"
#include "core/require.h"
#include "core/rng.h"
#include "core/run_loop.h"
#include "telemetry/telemetry.h"

namespace popproto {

namespace {

/// The collapsed super-step sampler (file comment): collision-free
/// runs of ~sqrt(n) ordered pairs are assigned to state pairs by exact
/// hypergeometric count splits and applied as one aggregate delta; the
/// single colliding interaction terminating each run is resolved
/// individually.
class CollapsedStepper {
public:
    static constexpr ObservedEngine kEngine = ObservedEngine::kCollapsed;
    static constexpr SilenceMode kSilenceMode = SilenceMode::kExact;
    static constexpr bool kGeometricSkips = false;
    static constexpr bool kSuperSteps = true;

    CollapsedStepper(const TabulatedProtocol& protocol, const CountConfiguration& initial)
        : protocol_(protocol),
          eff_(protocol),
          counts_(initial.counts()),
          population_(initial.population_size()) {
        build_survival_table();
        recompute_effective_pairs();
    }

    std::uint64_t population() const { return population_; }

    bool is_silent() const { return effective_pairs_ == 0; }

    /// Exact W for the adaptive dispatcher's density monitor (run_loop.h);
    /// maintained by the per-super-step recompute.
    std::uint64_t effective_pairs() const { return effective_pairs_; }

    /// Attaches the run's telemetry collector (nullptr = disabled); the
    /// stepper times the super-step sub-phases against it.  Probes never
    /// touch the RNG stream, so results are bit-identical either way.
    void set_telemetry(telemetry::RunTelemetryCollector* collector) {
        collector_ = collector;
    }

    /// Draws the length L >= 1 of the maximal collision-free run: one
    /// uniform01 inverted through the precomputed survival table
    /// (survival_[t-1] = P(L >= t), strictly decreasing, survival_[0] = 1).
    std::uint64_t propose_super_step(Rng& rng) {
        const double u = rng.uniform01();
        // L = max{t : P(L >= t) > u}; the table is truncated once the
        // survival mass drops below ~1e-25 (or the population runs out of
        // disjoint agents), so a u below the last entry clamps to the end.
        const auto it = std::lower_bound(survival_.begin(), survival_.end(), u,
                                         std::greater<double>());
        const auto t = static_cast<std::uint64_t>(it - survival_.begin());
        return t > 0 ? t : std::uint64_t{1};  // survival_[0] = 1 > u always
    }

    CountConfiguration counts() const { return CountConfiguration::from_state_counts(counts_); }

    /// Executes `m` collision-free pairs (2m distinct agents) as one
    /// aggregate count update, then the single colliding interaction when
    /// `with_collision` (the kernel clamps boundary-crossing runs instead).
    BatchOutcome apply_super_step(Rng& rng, std::uint64_t m, bool with_collision) {
        const std::size_t num_states = eff_.num_states;
        BatchOutcome outcome;

        {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kPairCascade);
            // Initiator multiset A: m draws without replacement from the
            // count vector (multivariate hypergeometric, as a cascade of
            // exact univariate splits); responder multiset B: m more draws
            // from the remainder.  By exchangeability of the 2m
            // uniformly-chosen agent slots this matches drawing the pairs
            // one by one.
            draw_without_replacement(rng, nullptr, m, initiators_);
            draw_without_replacement(rng, &initiators_, m, responders_);

            touched_.assign(num_states, 0);
            remainder_ = responders_;
            match_rows(rng, m, outcome);
        }

        {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kDeltaMerge);
            // New counts: the untouched agents keep their states; the 2m
            // touched agents land on the post-transition multiset.
            for (std::size_t q = 0; q < num_states; ++q)
                counts_[q] += touched_[q] - initiators_[q] - responders_[q];
        }

        if (with_collision) {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kCollisionFixup);
            resolve_collision(rng, m, outcome);
        }

        {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kWRecompute);
            recompute_effective_pairs();
        }
        return outcome;
    }

    void save(RunCheckpoint& checkpoint) const { checkpoint.counts = counts_; }

    void restore(const RunCheckpoint& checkpoint) {
        require(checkpoint.counts.size() == counts_.size(),
                "collapsed: checkpoint state-count mismatch");
        std::uint64_t total = 0;
        for (const std::uint64_t count : checkpoint.counts) total += count;
        require(total == population_, "collapsed: checkpoint population mismatch");
        counts_ = checkpoint.counts;
        recompute_effective_pairs();
    }

private:
    /// Multivariate hypergeometric cascade: `out[s]` ~ number of state-s
    /// items among `draws` draws without replacement from counts_, minus
    /// the earlier draw `excluded` when given (the responders are drawn from
    /// what the initiators left; both draws hold `draws` items).
    void draw_without_replacement(Rng& rng, const std::vector<std::uint64_t>* excluded,
                                  std::uint64_t draws, std::vector<std::uint64_t>& out) const {
        out.assign(counts_.size(), 0);
        std::uint64_t remaining_items = population_ - (excluded == nullptr ? 0 : draws);
        std::uint64_t remaining_draws = draws;
        for (State s = 0; s < counts_.size() && remaining_draws > 0; ++s) {
            const std::uint64_t available =
                counts_[s] - (excluded == nullptr ? 0 : (*excluded)[s]);
            if (available == 0) continue;
            const std::uint64_t k =
                rng.hypergeometric(available, remaining_items - available, remaining_draws);
            out[s] = k;
            remaining_draws -= k;
            remaining_items -= available;
        }
    }

    /// Row-matching cascade: conditioned on the initiator multiset and the
    /// responder multiset (remainder_, consumed in place), the bipartite
    /// initiator-responder matching is uniform, so row p of the pair-count
    /// matrix is a hypergeometric split of initiators_[p] draws over the
    /// not-yet-matched responders.  Rows are applied on the fly into
    /// touched_ / `outcome`.
    void match_rows(Rng& rng, std::uint64_t m, BatchOutcome& outcome) {
        const std::size_t num_states = eff_.num_states;
        std::uint64_t unmatched = m;
        for (State p = 0; p < num_states; ++p) {
            std::uint64_t left = initiators_[p];
            if (left == 0) continue;
            // Row cascade: `pool` counts the unmatched responders in states
            // not yet classified for this row, so each split is an exact
            // univariate hypergeometric of the row's remaining draws.
            std::uint64_t pool = unmatched;
            for (State q = 0; q < num_states && left > 0; ++q) {
                const std::uint64_t available = remainder_[q];
                if (available == 0) continue;
                const std::uint64_t k = rng.hypergeometric(available, pool - available, left);
                pool -= available;
                if (k != 0) {
                    remainder_[q] -= k;
                    unmatched -= k;
                    left -= k;
                    apply_pair_type(p, q, k, outcome);
                }
            }
            ensure(left == 0, "collapsed: internal matching invariant violated");
        }
    }

    /// Books `k` executed interactions of ordered pair type (p, q):
    /// accumulates the post-transition states into touched_ and the
    /// effective / output-change aggregates into `outcome`.
    void apply_pair_type(State p, State q, std::uint64_t k, BatchOutcome& outcome) {
        const StatePair next = protocol_.apply_fast(p, q);
        touched_[next.initiator] += k;
        touched_[next.responder] += k;
        if (!eff_.effective(p, q)) return;
        outcome.effective += k;
        const Symbol out_p = protocol_.output_fast(p);
        const Symbol out_q = protocol_.output_fast(q);
        const Symbol out_pn = protocol_.output_fast(next.initiator);
        const Symbol out_qn = protocol_.output_fast(next.responder);
        if (!((out_pn == out_p && out_qn == out_q) || (out_pn == out_q && out_qn == out_p)))
            outcome.output_changed = true;
    }

    /// The ordered pair that terminated the collision-free run: uniform over
    /// the n(n-1) - (n-2m)(n-2m-1) ordered pairs touching at least one of
    /// the 2m used agents, whose post-batch states are the touched_
    /// multiset; the untouched remainder is counts_ - touched_.  Requires
    /// counts_ already updated for the batch and touched_ holding the
    /// post-transition multiset of the 2m touched agents.
    void resolve_collision(Rng& rng, std::uint64_t m, BatchOutcome& outcome) {
        const std::size_t num_states = eff_.num_states;
        untouched_.resize(num_states);
        for (State s = 0; s < num_states; ++s) untouched_[s] = counts_[s] - touched_[s];

        const std::uint64_t touched_total = 2 * m;
        const std::uint64_t untouched_total = population_ - touched_total;
        const std::uint64_t w_tt = touched_total * (touched_total - 1);
        const std::uint64_t w_tu = touched_total * untouched_total;  // == w_ut
        const std::uint64_t which = rng.below(w_tt + 2 * w_tu);

        State p = 0;
        State q = 0;
        if (which < w_tt) {
            p = pick(touched_, rng.below(touched_total));
            --touched_[p];
            q = pick(touched_, rng.below(touched_total - 1));
            ++touched_[p];
        } else if (which < w_tt + w_tu) {
            p = pick(touched_, rng.below(touched_total));
            q = pick(untouched_, rng.below(untouched_total));
        } else {
            p = pick(untouched_, rng.below(untouched_total));
            q = pick(touched_, rng.below(touched_total));
        }

        const StatePair next = protocol_.apply_fast(p, q);
        --counts_[p];
        --counts_[q];
        ++counts_[next.initiator];
        ++counts_[next.responder];
        if (eff_.effective(p, q)) {
            ++outcome.effective;
            const Symbol out_p = protocol_.output_fast(p);
            const Symbol out_q = protocol_.output_fast(q);
            const Symbol out_pn = protocol_.output_fast(next.initiator);
            const Symbol out_qn = protocol_.output_fast(next.responder);
            if (!((out_pn == out_p && out_qn == out_q) ||
                  (out_pn == out_q && out_qn == out_p)))
                outcome.output_changed = true;
        }
    }

    /// The state of the `index`-th item (0-based) of the multiset `counts`.
    static State pick(const std::vector<std::uint64_t>& counts, std::uint64_t index) {
        for (State s = 0; s < counts.size(); ++s) {
            if (index < counts[s]) return s;
            index -= counts[s];
        }
        ensure(false, "collapsed: internal multiset-pick invariant violated");
        return 0;
    }

    // W = number of effective ordered agent pairs; W == 0 iff silent.
    // Recomputed O(|Q|^2) once per super-step (amortized over ~sqrt(n)
    // interactions, unlike the count-batch engine's per-step bookkeeping).
    void recompute_effective_pairs() {
        const std::size_t num_states = eff_.num_states;
        std::uint64_t w = 0;
        for (State p = 0; p < num_states; ++p) {
            if (counts_[p] == 0) continue;
            const std::uint8_t* row =
                eff_.eff_row.data() + static_cast<std::size_t>(p) * num_states;
            std::uint64_t row_sum = 0;
            for (State q = 0; q < num_states; ++q)
                if (row[q]) row_sum += counts_[q];
            w += counts_[p] * (row_sum - (row[p] ? 1 : 0));
        }
        effective_pairs_ = w;
    }

    /// survival_[t-1] = P(first t pairs touch pairwise-disjoint agents)
    ///               = prod_{i<t} (n-2i)(n-2i-1) / (n(n-1)).
    /// Depends only on n; ~6.7 sqrt(n) entries before the 1e-25 cutoff.
    void build_survival_table() {
        const double n = static_cast<double>(population_);
        const double total_pairs = n * (n - 1.0);
        double survival = 1.0;
        std::uint64_t t = 1;
        survival_.clear();
        survival_.push_back(1.0);
        while (population_ >= 2 * t + 2) {
            const double free_agents = n - 2.0 * static_cast<double>(t);
            survival *= free_agents * (free_agents - 1.0) / total_pairs;
            if (survival < 1e-25) break;
            survival_.push_back(survival);
            ++t;
        }
    }

    const TabulatedProtocol& protocol_;
    EffectTables eff_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t population_;
    std::uint64_t effective_pairs_ = 0;
    telemetry::RunTelemetryCollector* collector_ = nullptr;
    std::vector<double> survival_;

    // Per-super-step scratch (members to avoid reallocation).
    std::vector<std::uint64_t> initiators_;
    std::vector<std::uint64_t> responders_;
    std::vector<std::uint64_t> remainder_;
    std::vector<std::uint64_t> touched_;
    std::vector<std::uint64_t> untouched_;
};

}  // namespace

RunResult engine_detail::run_collapsed(const TabulatedProtocol& protocol,
                                       const CountConfiguration& initial,
                                       const RunOptions& options, EngineSwitchMonitor* monitor) {
    require(initial.num_states() == protocol.num_states(),
            "collapsed: configuration does not match protocol");
    const std::uint64_t n = initial.population_size();
    require(n >= 2, "collapsed: need at least two agents");
    require(n < (std::uint64_t{1} << 32), "collapsed: population must fit 32 bits");

    CollapsedStepper stepper(protocol, initial);
    stepper.set_telemetry(options.telemetry);
    return run_loop(stepper, protocol, options, "collapsed", monitor);
}

}  // namespace popproto
