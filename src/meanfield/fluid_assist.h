// Mean-field fast-forward for the adaptive dispatcher (fluid assist).
//
// A dense transient is the one phase where the simulation engines do the
// least interesting work per cycle: the trajectory hugs its fluid limit
// (meanfield/integrator.h) with O(1/sqrt(n)) fluctuations, so simulating
// it stochastically mostly re-derives the ODE solution.  Fluid assist
// replaces that phase with the ODE: integrate dx/dt = F(x) from the
// initial density, find the earliest fluid time where the adaptive
// monitor's signal x = rho * E[L] drops to the collapsed-exit threshold
// (rho evaluated on the fluid densities), draw one multinomial sample of n
// agents from the predicted density there, and hand the adaptive
// dispatcher a synthetic count-batch checkpoint at interaction index
// round(n * t).  The stochastic simulation then runs only the sparse tail —
// the part where sample-path fluctuations actually decide the outcome.
//
// This is an explicit approximation, wired as an opt-in hook
// (RunOptions::fluid_assist, empty by default) rather than a default: a
// fluid-assisted run is NOT bit-identical to — nor even an exact sample
// path of — the unassisted law (fluctuations of the transient are
// discarded; the fast-forwarded interaction/effective counters are
// estimates).  Every bit-identity guarantee of the adaptive dispatcher is
// stated for an empty fluid_assist.

#ifndef POPPROTO_MEANFIELD_FLUID_ASSIST_H
#define POPPROTO_MEANFIELD_FLUID_ASSIST_H

#include "core/configuration.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "core/tabulated_protocol.h"
#include "meanfield/integrator.h"

namespace popproto {

/// Builds a RunOptions::fluid_assist backed by solve_fluid.  The returned
/// hook integrates to `fluid_options.t_end` (0 picks a horizon of
/// 8 * (ln n + 1), enough for the Theta(log n) fluid transients of the
/// paper's protocols, with an equilibrium detector armed) and returns the
/// synthetic checkpoint — or nullopt, declining the assist, when the fluid
/// prediction never reaches the sparse regime inside the horizon, when the
/// crossing lies at or beyond the run's interaction budget, or when the
/// run starts sparse already.  Thresholds are read from the RunOptions the
/// hook is invoked with, so one hook serves differently-tuned runs.
decltype(RunOptions::fluid_assist) make_fluid_assist_hook(FluidOptions fluid_options = {});

}  // namespace popproto

#endif  // POPPROTO_MEANFIELD_FLUID_ASSIST_H
