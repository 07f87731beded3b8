// Distributed arithmetic: functions, not just predicates.
//
// Part 1 - the Sect. 3.4 division protocol computes floor(m/3) with the
// result represented diffusely (the number of agents outputting 1).
//
// Part 2 - the Sect. 6.1 machine: a leader simulates a counter program
// (here 13 * 3 via the paper's product loop) on counters stored as bounded
// shares across the population, with the randomized zero test and the full
// leader-election prologue.

#include <cstdio>

#include "core/batch_simulator.h"
#include "core/simulator.h"
#include "machines/examples.h"
#include "protocols/division.h"
#include "randomized/population_machine.h"

int main() {
    using namespace popproto;

    // ---- Part 1: floor(m / 3) by diffuse token exchange.
    const std::uint32_t divisor = 3;
    const auto division = make_division_protocol(divisor);
    const std::uint64_t m = 100;
    const std::uint64_t idle = 60;
    const auto initial = CountConfiguration::from_input_counts(*division, {idle, m});
    RunOptions options;
    options.max_interactions = default_budget(m + idle);
    options.seed = 33;
    options.engine = SimulationEngine::kAgentArray;
    const RunResult run = run_simulation(*division, initial, options);
    const DivisionReading reading = read_division(*division, run.final_configuration, divisor);
    std::printf("division protocol: m=%llu -> quotient=%llu remainder=%llu (expected %llu r %llu)\n",
                static_cast<unsigned long long>(m),
                static_cast<unsigned long long>(reading.quotient),
                static_cast<unsigned long long>(reading.remainder),
                static_cast<unsigned long long>(m / divisor),
                static_cast<unsigned long long>(m % divisor));

    // ---- Part 2: a leader-driven counter machine computing 13 * 3.
    const CounterProgram program = make_multiply_program(3);
    PopulationMachineOptions machine_options;
    machine_options.timer_parameter = 4;
    machine_options.share_capacity = 4;
    machine_options.max_interactions = 4'000'000'000ull;
    machine_options.seed = 7;
    machine_options.leader_election_prologue = true;

    const PopulationMachineResult result =
        run_population_counter_machine(program, {13, 0}, 64, machine_options);
    std::printf("population machine: 13 * 3 -> %llu (halted=%s, zero-test errors=%llu)\n",
                static_cast<unsigned long long>(result.counters[0]),
                result.halted ? "yes" : "no",
                static_cast<unsigned long long>(result.zero_test_errors));
    std::printf("  election took %llu interactions; whole run %llu interactions\n",
                static_cast<unsigned long long>(result.election_interactions),
                static_cast<unsigned long long>(result.interactions));

    const bool ok = reading.quotient == m / divisor && result.halted &&
                    result.counters[0] == 39;
    return ok ? 0 : 1;
}
