#include "graphs/graph_simulation.h"

#include <string>
#include <utility>
#include <vector>

#include "core/interaction_model.h"
#include "core/require.h"
#include "core/rng.h"
#include "core/run_loop.h"

namespace popproto {

namespace {

constexpr std::uint32_t kNumBatons = 4;

State encode(State base_state, Baton baton) {
    return base_state * kNumBatons + static_cast<std::uint32_t>(baton);
}

const char* baton_name(Baton baton) {
    switch (baton) {
        case Baton::kD:
            return "D";
        case Baton::kS:
            return "S";
        case Baton::kR:
            return "R";
        case Baton::kBlank:
            return "-";
    }
    return "?";
}

}  // namespace

Baton baton_of(const Protocol& base, State simulation_state) {
    require(simulation_state < base.num_states() * kNumBatons,
            "baton_of: state out of range");
    return static_cast<Baton>(simulation_state % kNumBatons);
}

State base_state_of(const Protocol& base, State simulation_state) {
    require(simulation_state < base.num_states() * kNumBatons,
            "base_state_of: state out of range");
    return simulation_state / kNumBatons;
}

std::unique_ptr<TabulatedProtocol> make_graph_simulation_protocol(const Protocol& base_protocol) {
    const auto base = TabulatedProtocol::tabulate(base_protocol);
    const std::size_t base_states = base->num_states();
    const std::size_t num_states = base_states * kNumBatons;

    TabulatedProtocol::Tables tables;
    tables.num_output_symbols = base->num_output_symbols();
    for (Symbol y = 0; y < base->num_output_symbols(); ++y)
        tables.output_names.push_back(base->output_name(y));
    for (Symbol x = 0; x < base->num_input_symbols(); ++x) {
        tables.initial.push_back(encode(base->initial_state(x), Baton::kD));
        tables.input_names.push_back(base->input_name(x));
    }

    tables.output.resize(num_states);
    tables.state_names.resize(num_states);
    for (State s = 0; s < num_states; ++s) {
        const State q = s / kNumBatons;
        const auto baton = static_cast<Baton>(s % kNumBatons);
        tables.output[s] = base->output_fast(q);
        tables.state_names[s] = base->state_name(q) + baton_name(baton);
    }

    tables.delta.resize(num_states * num_states);
    for (State sp = 0; sp < num_states; ++sp) {
        for (State sq = 0; sq < num_states; ++sq) {
            const State x = sp / kNumBatons;
            const State y = sq / kNumBatons;
            const auto bx = static_cast<Baton>(sp % kNumBatons);
            const auto by = static_cast<Baton>(sq % kNumBatons);
            StatePair result{sp, sq};

            if (bx == Baton::kD && by == Baton::kD) {
                // Group (a): two D marks distill into one S and one R.
                result = {encode(x, Baton::kS), encode(y, Baton::kR)};
            } else if (bx == Baton::kD) {
                // Group (a): a D meeting any non-D goes blank.
                result = {encode(x, Baton::kBlank), sq};
            } else if (by == Baton::kD) {
                result = {sp, encode(y, Baton::kBlank)};
            } else if (bx == Baton::kS && by == Baton::kS) {
                // Group (b): duplicate batons merge.
                result = {sp, encode(y, Baton::kBlank)};
            } else if (bx == Baton::kR && by == Baton::kR) {
                result = {sp, encode(y, Baton::kBlank)};
            } else if (bx != Baton::kBlank && by == Baton::kBlank) {
                // Group (c): a baton moves to a blank neighbor.
                result = {encode(x, Baton::kBlank), encode(y, bx)};
            } else if (bx == Baton::kBlank && by != Baton::kBlank) {
                result = {encode(x, by), encode(y, Baton::kBlank)};
            } else if (bx == Baton::kBlank && by == Baton::kBlank) {
                // Group (d): simulated agents swap places.
                result = {encode(y, Baton::kBlank), encode(x, Baton::kBlank)};
            } else if (bx == Baton::kS && by == Baton::kR) {
                // Group (e): a real A-transition; batons swap so S and R can
                // pass each other in narrow graphs.
                const StatePair inner = base->apply_fast(x, y);
                result = {encode(inner.initiator, Baton::kR), encode(inner.responder, Baton::kS)};
            } else if (bx == Baton::kR && by == Baton::kS) {
                // Group (e), mirrored: the responder acts as A-initiator.
                const StatePair inner = base->apply_fast(y, x);
                result = {encode(inner.responder, Baton::kS), encode(inner.initiator, Baton::kR)};
            }

            tables.delta[static_cast<std::size_t>(sp) * num_states + sq] = result;
        }
    }
    return std::make_unique<TabulatedProtocol>(std::move(tables));
}

GraphRunResult simulate_on_graph(const TabulatedProtocol& protocol, const InteractionGraph& graph,
                                 const std::vector<Symbol>& inputs, const RunOptions& options) {
    require(inputs.size() == graph.num_agents(),
            "simulate_on_graph: one input per agent required");
    require(!graph.edges().empty(), "simulate_on_graph: graph has no edges");
    require(options.engine == SimulationEngine::kAuto,
            "simulate_on_graph: options.engine must be kAuto (it selects a complete-graph "
            "engine of run_simulation)");

    // Pair selection lives in the shared InteractionModel layer: uniform
    // directed-edge activation is EdgeListPairModel, and the one PairStepper
    // supplies the delta application, silence policy, and checkpointing.
    PairStepper<EdgeListPairModel, ObservedEngine::kGraph> stepper(
        protocol, AgentConfiguration::from_inputs(protocol, inputs).states(),
        EdgeListPairModel(graph.edges(), graph.num_agents()), "simulate_on_graph");
    const RunResult run = run_loop(stepper, protocol, options, "simulate_on_graph");

    GraphRunResult result;
    result.final_configuration =
        AgentConfiguration::from_states(stepper.states(), protocol.num_states());
    result.stop_reason = run.stop_reason;
    result.interactions = run.interactions;
    result.effective_interactions = run.effective_interactions;
    result.last_output_change = run.last_output_change;
    result.consensus = run.consensus;
    return result;
}

}  // namespace popproto
