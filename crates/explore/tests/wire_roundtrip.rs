//! Round-trip property tests for every wire type.
//!
//! The wire codec is the transport contract of the multi-process
//! dispatcher: `decode(encode(x)) == x` must hold *exactly* — floats
//! bit-for-bit — for every value that can legally appear on a grid, work
//! unit, or result frame, and NaN/infinity must be rejected at the encode
//! boundary rather than silently degraded.

use mfa_alloc::cases::PaperCase;
use mfa_alloc::discretize::DiscretizeOptions;
use mfa_alloc::exact::{ExactMode, ExactOptions};
use mfa_alloc::gp_step::RelaxationBackend;
use mfa_alloc::gpa::GpaOptions;
use mfa_alloc::greedy::GreedyOptions;
use mfa_alloc::solver::{SkipPolicy, WarmStartReport};
use mfa_minlp::SolverOptions;
use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform, ResourceBudget, ResourceVec};
use proptest::collection::vec;
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};

use mfa_explore::wire::{
    decode_grid, decode_points, decode_unit, encode_grid, encode_points, encode_unit, point_to_json,
};
use mfa_explore::{CaseSpec, SolverSpec, SweepGrid, SweepPoint, WorkUnit};

// ---------------------------------------------------------------------------
// Strategies. The vendored proptest stub offers ranges, tuples, prop_map and
// collection::vec; richer shapes are composed from those.

/// A fraction strictly inside (0, 1] with a long binary expansion.
fn fraction() -> impl Strategy<Value = f64> {
    (0.0f64..1.0).prop_map(|v| (v + 1e-6).min(1.0))
}

fn resource_fractions() -> impl Strategy<Value = ResourceVec> {
    (fraction(), fraction(), fraction(), fraction()).prop_map(|(lut, ff, bram, dsp)| ResourceVec {
        lut,
        ff,
        bram,
        dsp,
    })
}

fn budget() -> impl Strategy<Value = ResourceBudget> {
    (resource_fractions(), fraction())
        .prop_map(|(resources, bandwidth)| ResourceBudget::new(resources, bandwidth))
}

fn device() -> impl Strategy<Value = FpgaDevice> {
    (0usize..3, fraction(), fraction()).prop_map(|(preset, scale, bandwidth)| match preset {
        0 => FpgaDevice::vu9p(),
        1 => FpgaDevice::ku115(),
        _ => FpgaDevice::new(
            format!("custom-{scale:.3}"),
            ResourceVec {
                lut: 1.0e6 * scale,
                ff: 2.0e6 * scale,
                bram: 2.0e3 * scale,
                dsp: 6.0e3 * scale,
            },
            100.0 * bandwidth,
        ),
    })
}

fn platform() -> impl Strategy<Value = HeterogeneousPlatform> {
    vec((device(), 1usize..4, 0.0f64..3.0, 0.0f64..1.5), 1usize..3).prop_map(|groups| {
        HeterogeneousPlatform::new(
            format!("fleet-{}", groups.len()),
            groups
                .into_iter()
                .map(|(device, count, slow, budget)| {
                    // Mix neutral and scaled groups so both the absent-field
                    // and present-field wire paths are exercised.
                    let mut group = DeviceGroup::new(device, count);
                    if slow >= 1.0 {
                        group = group.with_wcet_scale(1.0 + slow);
                    }
                    if budget >= 0.5 {
                        group = group.with_budget_scale(0.25 + budget);
                    }
                    group
                })
                .collect(),
        )
    })
}

fn case() -> impl Strategy<Value = CaseSpec> {
    // Paper cases carry real kernel pipelines (names, WCETs, per-CU
    // fractions), exercising the full problem encoding.
    (0usize..3, fraction()).prop_map(|(which, constraint)| {
        let paper = [
            PaperCase::Alex16OnTwoFpgas,
            PaperCase::Alex32OnFourFpgas,
            PaperCase::VggOnEightFpgas,
        ][which];
        let base = CaseSpec::from_paper(paper);
        // Vary the base budget so cases are not all identical.
        CaseSpec::new(
            format!("{}@{constraint:.4}", base.label()),
            base.base().with_resource_constraint(constraint.max(0.5)),
        )
    })
}

fn gpa_options() -> impl Strategy<Value = GpaOptions> {
    (0usize..2, 0usize..2, fraction(), 1usize..50_000).prop_map(|(relax, disc, t, max_nodes)| {
        GpaOptions {
            relaxation_backend: [
                RelaxationBackend::GeometricProgram,
                RelaxationBackend::Bisection,
            ][relax],
            discretize: DiscretizeOptions {
                backend: [
                    RelaxationBackend::GeometricProgram,
                    RelaxationBackend::Bisection,
                ][disc],
                integer_tolerance: 1e-9 + t * 1e-3,
                max_nodes,
            },
            greedy: GreedyOptions::with_t_delta(t * 0.3, 0.005 + t * 0.02),
        }
    })
}

fn exact_options() -> impl Strategy<Value = ExactOptions> {
    (0usize..2, 1usize..100_000, 0usize..2, fraction()).prop_map(
        |(mode, max_nodes, unlimited, seconds)| ExactOptions {
            mode: [ExactMode::IiOnly, ExactMode::IiAndSpreading][mode],
            solver: SolverOptions {
                max_nodes,
                time_limit_seconds: if unlimited == 0 {
                    None
                } else {
                    Some(seconds * 100.0)
                },
                ..SolverOptions::default()
            },
            symmetry_breaking: max_nodes % 2 == 0,
        },
    )
}

fn backend() -> impl Strategy<Value = SolverSpec> {
    (0usize..2, gpa_options(), exact_options()).prop_map(|(kind, gpa, exact)| match kind {
        0 => SolverSpec::gpa_labeled(format!("GP+A/{}", gpa.greedy.max_relaxation), gpa),
        _ => SolverSpec::exact(exact),
    })
}

fn grid() -> impl Strategy<Value = SweepGrid> {
    (
        vec(case(), 1usize..3),
        vec(1usize..9, 1usize..3),
        vec(platform(), 0usize..2),
        vec(fraction(), 1usize..4),
        vec(budget(), 0usize..3),
        // Backends plus the request policy riders: strict/lenient skips and
        // an optional per-point deadline budget.
        (vec(backend(), 1usize..3), 0usize..2, 0usize..3),
    )
        .prop_map(
            |(cases, counts, platforms, constraints, budgets, (backends, skip, deadline))| {
                let policy = (skip, deadline);
                let mut builder = SweepGrid::builder()
                    .cases(cases)
                    .fpga_counts(counts)
                    .platforms(
                        platforms
                            .into_iter()
                            .map(mfa_explore::PlatformSpec::platform),
                    )
                    .constraints(constraints)
                    .budgets(budgets)
                    .backends(backends)
                    .skip_policy(if policy.0 == 0 {
                        SkipPolicy::Lenient
                    } else {
                        SkipPolicy::Strict
                    });
                if policy.1 > 0 {
                    builder = builder.point_deadline_seconds(policy.1 as f64 * 1.5);
                }
                builder
                    .build()
                    .expect("generated axes are non-empty and in range")
            },
        )
}

/// Any finite f64, drawn from the full bit space (subnormals, huge
/// exponents, negative zero, …).
fn any_finite_f64() -> impl Strategy<Value = f64> {
    (0usize..usize::MAX).prop_map(|bits| {
        let v = f64::from_bits(bits as u64);
        if v.is_finite() {
            v
        } else {
            -0.0
        }
    })
}

fn warm_start_report() -> impl Strategy<Value = WarmStartReport> {
    (0usize..8).prop_map(|bits| WarmStartReport {
        ii_hint_used: bits & 1 != 0,
        dual_hint_used: bits & 2 != 0,
        incumbent_used: bits & 4 != 0,
    })
}

fn point() -> impl Strategy<Value = SweepPoint> {
    (
        fraction(),
        budget(),
        any_finite_f64(),
        any_finite_f64(),
        (any_finite_f64(), any_finite_f64()),
        // The additive diagnostics: gap, nodes, effort counters, dropped
        // CUs, provenance.
        (
            any_finite_f64(),
            0usize..1_000_000,
            (0usize..1_000_000, 0usize..1_000_000, 0usize..1_000_000),
            (0usize..10_000, 0usize..10_000, 0.0f64..50.0),
            warm_start_report(),
        ),
    )
        .prop_map(
            |(constraint, budget, ii, util, (spreading, seconds), diag)| SweepPoint {
                resource_constraint: constraint,
                budget,
                initiation_interval_ms: ii,
                average_utilization: util,
                spreading,
                solve_seconds: seconds,
                relaxation_gap: diag.0,
                bb_nodes: diag.1,
                barrier_iterations: diag.2 .0,
                factorizations: diag.2 .1,
                simplex_pivots: diag.2 .2,
                dropped_cus: diag.3 .0 as u32,
                moved_cus: diag.3 .1 as u32,
                migration_cost: diag.3 .2,
                warm_start: diag.4,
            },
        )
}

// ---------------------------------------------------------------------------
// Properties.

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn grids_round_trip_exactly(grid in grid()) {
        let encoded = encode_grid(&grid).expect("grids of valid axes always encode");
        prop_assert!(!encoded.contains('\n'), "frames must be single-line");
        let decoded = decode_grid(&encoded).expect("encoded grids always decode");
        prop_assert_eq!(&decoded, &grid);
        // Deterministic encoding: encode ∘ decode ∘ encode is a fixpoint.
        prop_assert_eq!(encode_grid(&decoded).unwrap(), encoded);
    }

    #[test]
    fn units_round_trip_exactly(series in 0usize..1_000, start in 0usize..10_000, len in 1usize..64) {
        let unit = WorkUnit { series, start, end: start + len };
        prop_assert_eq!(decode_unit(&encode_unit(&unit)).unwrap(), unit);
    }

    #[test]
    fn result_frames_round_trip_bit_for_bit(points in vec((0usize..4, point()), 0usize..9)) {
        // `None` entries (skipped points) interleave with solved points.
        let points: Vec<Option<SweepPoint>> = points
            .into_iter()
            .map(|(skip, p)| if skip == 0 { None } else { Some(p) })
            .collect();
        let encoded = encode_points(&points).expect("finite points always encode");
        let decoded = decode_points(&encoded).expect("encoded points always decode");
        prop_assert_eq!(decoded.len(), points.len());
        for (back, original) in decoded.iter().zip(&points) {
            match (back, original) {
                (None, None) => {}
                (Some(b), Some(o)) => {
                    // PartialEq would treat -0.0 == 0.0 and miss NaN; compare bits.
                    prop_assert_eq!(
                        b.initiation_interval_ms.to_bits(),
                        o.initiation_interval_ms.to_bits()
                    );
                    prop_assert_eq!(
                        b.average_utilization.to_bits(),
                        o.average_utilization.to_bits()
                    );
                    prop_assert_eq!(b.spreading.to_bits(), o.spreading.to_bits());
                    prop_assert_eq!(b.solve_seconds.to_bits(), o.solve_seconds.to_bits());
                    prop_assert_eq!(
                        b.resource_constraint.to_bits(),
                        o.resource_constraint.to_bits()
                    );
                    prop_assert_eq!(b.budget, o.budget);
                    prop_assert_eq!(b.relaxation_gap.to_bits(), o.relaxation_gap.to_bits());
                    prop_assert_eq!(b.bb_nodes, o.bb_nodes);
                    prop_assert_eq!(b.barrier_iterations, o.barrier_iterations);
                    prop_assert_eq!(b.factorizations, o.factorizations);
                    prop_assert_eq!(b.simplex_pivots, o.simplex_pivots);
                    prop_assert_eq!(b.dropped_cus, o.dropped_cus);
                    prop_assert_eq!(b.moved_cus, o.moved_cus);
                    prop_assert_eq!(b.migration_cost.to_bits(), o.migration_cost.to_bits());
                    prop_assert_eq!(b.warm_start, o.warm_start);
                }
                _ => return Err(proptest::TestCaseError::fail("Some/None mismatch")),
            }
        }
    }

    #[test]
    fn non_finite_floats_never_encode(p in point(), which in 0usize..4, inf in 0usize..2) {
        let bad = if inf == 0 { f64::NAN } else { f64::INFINITY };
        let mut point = p;
        match which {
            0 => point.initiation_interval_ms = bad,
            1 => point.spreading = bad,
            2 => point.relaxation_gap = bad,
            _ => point.solve_seconds = bad,
        }
        prop_assert!(point_to_json(&point).is_err());
    }
}
