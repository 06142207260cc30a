//! Per-layer probes: cold calls into each solver layer's public function on a
//! workload's own problems, one span per call.

use mfa_alloc::discretize::{self, DiscretizeOptions};
use mfa_alloc::gp_step::{self, RelaxationBackend};
use mfa_alloc::greedy::{self, GreedyOptions};
use mfa_alloc::AllocationProblem;

use crate::stats;
use crate::trace::Tracer;
use crate::Layers;

/// Median duration of the spans called `name`, or 0 when there are none.
pub fn p50_ms(tracer: &Tracer, name: &str) -> f64 {
    stats::percentile_or_zero(&tracer.durations_ms(name), 50.0)
}

/// Relaxes, discretizes and places every feasible problem cold, and bisects
/// the relaxation of every multi-group one (the water-filling LPs only run
/// across device groups). Sets the median time per call of each layer.
pub fn solver_layers(tracer: &Tracer, problems: &[AllocationProblem], layers: &mut Layers) {
    for problem in problems {
        if problem.validate_feasibility().is_err() {
            continue;
        }
        // Infeasible budgets fail fast in every layer; they would only drag
        // the medians toward the cost of an error path.
        let relaxed = tracer.span("gp.relax", None, |_| {
            gp_step::solve(problem, RelaxationBackend::GeometricProgram)
        });
        if relaxed.is_err() {
            continue;
        }
        let counts = tracer.span("discretize.solve", None, |_| {
            discretize::solve(problem, &DiscretizeOptions::default())
        });
        if let Ok(counts) = counts {
            // A placement may fail at tight budgets; GP+A then sheds CUs and
            // retries, so a failed first attempt is still greedy's cost.
            let _ = tracer.span("greedy.allocate", None, |_| {
                greedy::allocate(problem, &counts.cu_counts, &GreedyOptions::default())
            });
        }
        if problem.num_groups() > 1 {
            let _ = tracer.span("linprog.bisect", None, |_| {
                gp_step::solve(problem, RelaxationBackend::Bisection)
            });
        }
    }
    layers.set("gp.relax_ms", p50_ms(tracer, "gp.relax"));
    layers.set("discretize.ms", p50_ms(tracer, "discretize.solve"));
    layers.set("greedy.ms", p50_ms(tracer, "greedy.allocate"));
    layers.set("linprog.bisect_ms", p50_ms(tracer, "linprog.bisect"));
}
