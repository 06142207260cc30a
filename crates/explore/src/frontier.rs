//! The reallocation frontier: migration weight × churn event sweeps.
//!
//! For an online serving fleet the interesting trade-off is not one solve
//! but the *frontier* between initiation interval and reconfiguration churn:
//! how many CUs each re-solve moves as the migration weight rises, and what
//! II the surviving CUs sustain during the transition. [`run_frontier`]
//! replays one committed churn trace once per (backend, migration weight)
//! combination through [`mfa_sim::replay_churn`] and flattens the step
//! reports into [`FrontierPoint`] rows — a table with one row per backend ×
//! weight × event, plus a `base` row per series anchoring the pre-churn II.
//!
//! The sweep is fully deterministic: a fixed spec yields byte-identical
//! CSV/JSON exports run over run (the simulator is seeded, the solvers are
//! deterministic, and the iteration order is the spec's own).

use mfa_alloc::realloc::MigrationCost;
use mfa_alloc::solver::Backend;
use mfa_alloc::AllocationProblem;
use mfa_sim::{replay_churn, ChurnConfig, ChurnEvent, SimConfig};

use crate::error::ExploreError;
use crate::export::csv_field;
use crate::json::Json;

/// Declarative spec of a reallocation-frontier sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierSpec {
    /// The pre-churn problem (no reallocation spec; the sweep attaches one
    /// per weight point).
    pub base: AllocationProblem,
    /// The churn trace replayed for every series.
    pub trace: Vec<ChurnEvent>,
    /// Migration weight axis (each weight must be finite and nonnegative).
    pub weights: Vec<f64>,
    /// Solver backend axis.
    pub backends: Vec<Backend>,
    /// Optional hard cap on moved CUs per re-solve.
    pub moved_bound: Option<u32>,
    /// Simulation parameters of the II measurements.
    pub sim: SimConfig,
}

impl FrontierSpec {
    /// A spec over `base` and `trace` with the given weight axis, all
    /// defaults otherwise.
    pub fn new(base: AllocationProblem, trace: Vec<ChurnEvent>, weights: Vec<f64>) -> Self {
        FrontierSpec {
            base,
            trace,
            weights,
            backends: vec![Backend::gpa_fast()],
            moved_bound: None,
            sim: SimConfig::default(),
        }
    }
}

/// One row of the reallocation-frontier table.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// Label of the solver backend.
    pub backend: String,
    /// Migration weight of the series.
    pub weight: f64,
    /// Position in the trace: 0 is the pre-churn base solve, event `i` of
    /// the trace is row `i + 1`.
    pub event_index: usize,
    /// Human-readable event label (`"base"` for the anchor row).
    pub event: String,
    /// Simulated steady-state II of the (re-)solved placement, ms.
    pub steady_ii_ms: f64,
    /// Analytic II sustained during reconfiguration by the CUs common to
    /// the old and new placements (infinite when the pipeline stalls; equal
    /// to `steady_ii_ms` on the base row).
    pub transition_ii_ms: f64,
    /// CUs newly configured by this step's re-solve (zero on the base row).
    pub moved_cus: u32,
    /// Unweighted priced movement of this step's re-solve.
    pub migration_cost: f64,
}

/// Runs the frontier sweep: every backend × migration weight replays the
/// trace once, in spec order.
///
/// # Errors
///
/// Returns [`ExploreError::InvalidGrid`] for an empty axis or an invalid
/// weight, and [`ExploreError::Churn`] when a replay fails.
pub fn run_frontier(spec: &FrontierSpec) -> Result<Vec<FrontierPoint>, ExploreError> {
    if spec.weights.is_empty() {
        return Err(ExploreError::InvalidGrid(
            "a frontier sweep needs at least one migration weight".into(),
        ));
    }
    if spec.backends.is_empty() {
        return Err(ExploreError::InvalidGrid(
            "a frontier sweep needs at least one backend".into(),
        ));
    }
    let mut points = Vec::new();
    for backend in &spec.backends {
        for &weight in &spec.weights {
            let migration = MigrationCost::new(weight)
                .map_err(|err| ExploreError::InvalidGrid(err.to_string()))?;
            let config = ChurnConfig {
                migration,
                moved_bound: spec.moved_bound,
                sim: spec.sim.clone(),
            };
            let replay = replay_churn(&spec.base, &spec.trace, backend, &config)
                .map_err(|err| ExploreError::Churn(err.to_string()))?;
            points.push(FrontierPoint {
                backend: backend.label().to_owned(),
                weight,
                event_index: 0,
                event: "base".into(),
                steady_ii_ms: replay.base_ii_ms,
                transition_ii_ms: replay.base_ii_ms,
                moved_cus: 0,
                migration_cost: 0.0,
            });
            for (i, step) in replay.steps.iter().enumerate() {
                points.push(FrontierPoint {
                    backend: backend.label().to_owned(),
                    weight,
                    event_index: i + 1,
                    event: step.event.clone(),
                    steady_ii_ms: step.steady_ii_ms,
                    transition_ii_ms: step.transition_ii_ms,
                    moved_cus: step.moved_cus,
                    migration_cost: step.migration_cost,
                });
            }
        }
    }
    Ok(points)
}

/// Serializes frontier rows as CSV:
/// `backend,migration_weight,event_index,event,steady_ii_ms,transition_ii_ms,moved_cus,migration_cost`.
/// Non-finite transition IIs (stalled pipelines) print as `inf`.
pub fn frontier_to_csv(points: &[FrontierPoint]) -> String {
    let mut out = String::from(
        "backend,migration_weight,event_index,event,\
         steady_ii_ms,transition_ii_ms,moved_cus,migration_cost\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            csv_field(&p.backend),
            p.weight,
            p.event_index,
            csv_field(&p.event),
            p.steady_ii_ms,
            p.transition_ii_ms,
            p.moved_cus,
            p.migration_cost
        ));
    }
    out
}

/// Serializes frontier rows as a JSON array, one object per row. Non-finite
/// transition IIs map to `null`, keeping the output standard JSON.
pub fn frontier_to_json(points: &[FrontierPoint]) -> String {
    let mut out = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"backend\": {}, \"migration_weight\": {}, \"event_index\": {}, \
             \"event\": {}, \"steady_ii_ms\": {}, \"transition_ii_ms\": {}, \
             \"moved_cus\": {}, \"migration_cost\": {}}}",
            Json::str(&p.backend),
            Json::Num(p.weight),
            p.event_index,
            Json::str(&p.event),
            Json::Num(p.steady_ii_ms),
            Json::Num(p.transition_ii_ms),
            p.moved_cus,
            Json::Num(p.migration_cost)
        ));
        if i + 1 < points.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfa_alloc::{GoalWeights, Kernel};
    use mfa_platform::{
        DeviceGroup, FpgaDevice, HeterogeneousPlatform, ResourceBudget, ResourceVec,
    };
    use mfa_sim::parse_trace;

    fn base_problem() -> AllocationProblem {
        AllocationProblem::builder()
            .kernels(vec![
                Kernel::new("front", 4.0, ResourceVec::bram_dsp(0.02, 0.08), 0.01).unwrap(),
                Kernel::new("back", 8.0, ResourceVec::bram_dsp(0.02, 0.08), 0.01).unwrap(),
            ])
            .platform(HeterogeneousPlatform::new(
                "2×VU9P + 1×KU115",
                vec![
                    DeviceGroup::new(FpgaDevice::vu9p(), 2),
                    DeviceGroup::new(FpgaDevice::ku115(), 1),
                ],
            ))
            .budget(ResourceBudget::uniform(0.7))
            .weights(GoalWeights::ii_only())
            .build()
            .unwrap()
    }

    fn sample_spec() -> FrontierSpec {
        let trace = parse_trace("drift back 0.5\nadd probe 3.0 0.03 0.06 0.01\n").unwrap();
        FrontierSpec {
            backends: vec![Backend::greedy(), Backend::gpa_fast()],
            ..FrontierSpec::new(base_problem(), trace, vec![0.0, 0.5])
        }
    }

    #[test]
    fn frontier_rows_cover_every_backend_weight_and_event() {
        let spec = sample_spec();
        let points = run_frontier(&spec).unwrap();
        // 2 backends × 2 weights × (base + 2 events).
        assert_eq!(points.len(), 2 * 2 * 3);
        for p in &points {
            assert!(p.steady_ii_ms > 0.0);
            assert!(p.transition_ii_ms >= p.steady_ii_ms * 0.99);
        }
        let base_rows = points.iter().filter(|p| p.event == "base").count();
        assert_eq!(base_rows, 4);
        // Determinism: a second run is identical.
        assert_eq!(run_frontier(&spec).unwrap(), points);
    }

    #[test]
    fn higher_weights_never_move_more_cus() {
        let spec = sample_spec();
        let points = run_frontier(&spec).unwrap();
        for backend in spec.backends.iter().map(Backend::label) {
            let rows_at = |weight: f64| -> Vec<&FrontierPoint> {
                points
                    .iter()
                    .filter(|p| p.backend == backend && p.weight == weight)
                    .collect()
            };
            let moved = |rows: &[&FrontierPoint]| -> u32 { rows.iter().map(|p| p.moved_cus).sum() };
            let cold = rows_at(0.0);
            let penalized = rows_at(0.5);
            assert_eq!(cold.len(), 3, "{backend}: base row + 2 events");
            assert_eq!(penalized.len(), 3);
            assert!(
                moved(&penalized) <= moved(&cold),
                "{backend}: weight 0.5 moved {} vs weight 0.0 moved {}",
                moved(&penalized),
                moved(&cold)
            );
        }
    }

    #[test]
    fn exports_are_deterministic_and_well_formed() {
        let spec = FrontierSpec {
            backends: vec![Backend::greedy()],
            ..sample_spec()
        };
        let points = run_frontier(&spec).unwrap();
        let csv = frontier_to_csv(&points);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + points.len());
        assert!(lines[0].starts_with("backend,migration_weight,event_index,event"));
        assert_eq!(lines[1].split(',').count(), 8);
        assert!(lines[1].contains(",base,"));

        let json = frontier_to_json(&points);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"backend\"").count(), points.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        assert_eq!(frontier_to_csv(&run_frontier(&spec).unwrap()), csv);
    }

    #[test]
    fn empty_axes_are_rejected() {
        let mut spec = sample_spec();
        spec.weights.clear();
        assert!(matches!(
            run_frontier(&spec),
            Err(ExploreError::InvalidGrid(_))
        ));
        let mut spec = sample_spec();
        spec.backends.clear();
        assert!(matches!(
            run_frontier(&spec),
            Err(ExploreError::InvalidGrid(_))
        ));
        let mut spec = sample_spec();
        spec.weights = vec![-1.0];
        assert!(matches!(
            run_frontier(&spec),
            Err(ExploreError::InvalidGrid(_))
        ));
    }
}
