use super::*;
use crate::{GpProblem, Monomial, Posynomial};

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + b.abs())
}

#[test]
fn minimize_x_with_lower_bound() {
    // minimize x s.t. 1/x ≤ 1  →  x = 1.
    let mut gp = GpProblem::new();
    let x = gp.add_var("x").unwrap();
    gp.set_objective(Posynomial::monomial(1.0, &[(x, 1.0)]));
    gp.add_le_constraint("x ≥ 1", Posynomial::monomial(1.0, &[(x, -1.0)]))
        .unwrap();
    let sol = gp.solve().unwrap();
    assert!(close(sol.value(x), 1.0, 1e-4), "x = {}", sol.value(x));
    assert!(close(sol.objective(), 1.0, 1e-4));
}

#[test]
fn maximize_product_under_upper_bounds() {
    // minimize 1/(xy) s.t. x ≤ 2, y ≤ 3 → objective 1/6 at (2, 3).
    let mut gp = GpProblem::new();
    let x = gp.add_var("x").unwrap();
    let y = gp.add_var("y").unwrap();
    gp.set_objective(Posynomial::monomial(1.0, &[(x, -1.0), (y, -1.0)]));
    gp.add_le_constraint("x ≤ 2", Posynomial::monomial(0.5, &[(x, 1.0)]))
        .unwrap();
    gp.add_le_constraint("y ≤ 3", Posynomial::monomial(1.0 / 3.0, &[(y, 1.0)]))
        .unwrap();
    let sol = gp.solve().unwrap();
    assert!(close(sol.value(x), 2.0, 1e-3));
    assert!(close(sol.value(y), 3.0, 1e-3));
    assert!(close(sol.objective(), 1.0 / 6.0, 1e-3));
}

#[test]
fn box_design_problem() {
    // Classic GP: maximize volume hwd subject to wall area and floor area
    // limits: 2(hw + hd) ≤ 100, wd ≤ 10. Minimize h⁻¹w⁻¹d⁻¹.
    let mut gp = GpProblem::new();
    let h = gp.add_var("h").unwrap();
    let w = gp.add_var("w").unwrap();
    let d = gp.add_var("d").unwrap();
    gp.set_objective(Posynomial::monomial(
        1.0,
        &[(h, -1.0), (w, -1.0), (d, -1.0)],
    ));
    let wall = Posynomial::monomial(2.0 / 100.0, &[(h, 1.0), (w, 1.0)])
        .with_term(Monomial::new(2.0 / 100.0, &[(h, 1.0), (d, 1.0)]));
    gp.add_le_constraint("wall", wall).unwrap();
    gp.add_le_constraint(
        "floor",
        Posynomial::monomial(1.0 / 10.0, &[(w, 1.0), (d, 1.0)]),
    )
    .unwrap();
    let sol = gp.solve().unwrap();
    // Analytic optimum: w = d = √10, h = 100/(4√10), volume = 250/√10.
    let w_star = 10.0_f64.sqrt();
    let h_star = 100.0 / (4.0 * w_star);
    assert!(close(sol.value(w), w_star, 1e-2), "w = {}", sol.value(w));
    assert!(close(sol.value(d), w_star, 1e-2), "d = {}", sol.value(d));
    assert!(close(sol.value(h), h_star, 1e-2), "h = {}", sol.value(h));
    let volume = sol.value(h) * sol.value(w) * sol.value(d);
    assert!(close(volume, 250.0 / w_star, 1e-2));
}

#[test]
fn infeasible_problem_is_reported() {
    // x ≤ 1 and x ≥ 2 simultaneously.
    let mut gp = GpProblem::new();
    let x = gp.add_var("x").unwrap();
    gp.set_objective(Posynomial::monomial(1.0, &[(x, 1.0)]));
    gp.add_le_constraint("x ≤ 1", Posynomial::monomial(1.0, &[(x, 1.0)]))
        .unwrap();
    gp.add_le_constraint("x ≥ 2", Posynomial::monomial(2.0, &[(x, -1.0)]))
        .unwrap();
    assert_eq!(gp.solve().unwrap_err(), GpError::Infeasible);
}

#[test]
fn posynomial_constraint_with_shared_budget() {
    // minimize II s.t. 3/(N1·II) ≤ 1, 5/(N2·II) ≤ 1, 0.2·N1 + 0.3·N2 ≤ 1.
    // This is the shape of the paper's GP (two kernels, one resource).
    // At the optimum the budget is tight and both kernels are critical:
    // N1 = 3/II, N2 = 5/II → 0.2·3/II + 0.3·5/II = 1 → II = 2.1.
    let mut gp = GpProblem::new();
    let ii = gp.add_var("II").unwrap();
    let n1 = gp.add_var("N1").unwrap();
    let n2 = gp.add_var("N2").unwrap();
    gp.set_objective(Posynomial::monomial(1.0, &[(ii, 1.0)]));
    gp.add_le_constraint("k1", Posynomial::monomial(3.0, &[(n1, -1.0), (ii, -1.0)]))
        .unwrap();
    gp.add_le_constraint("k2", Posynomial::monomial(5.0, &[(n2, -1.0), (ii, -1.0)]))
        .unwrap();
    let budget =
        Posynomial::monomial(0.2, &[(n1, 1.0)]).with_term(Monomial::new(0.3, &[(n2, 1.0)]));
    gp.add_le_constraint("budget", budget).unwrap();
    let sol = gp.solve().unwrap();
    assert!(
        close(sol.objective(), 2.1, 1e-3),
        "II = {}",
        sol.objective()
    );
    assert!(close(sol.value(n1), 3.0 / 2.1, 1e-2));
    assert!(close(sol.value(n2), 5.0 / 2.1, 1e-2));
}

#[test]
fn unconstrained_problem_with_interior_minimum() {
    // minimize x + 1/x → minimum 2 at x = 1.
    let mut gp = GpProblem::new();
    let x = gp.add_var("x").unwrap();
    let obj = Posynomial::monomial(1.0, &[(x, 1.0)]).with_term(Monomial::new(1.0, &[(x, -1.0)]));
    gp.set_objective(obj);
    let sol = gp.solve().unwrap();
    assert!(close(sol.value(x), 1.0, 1e-4));
    assert!(close(sol.objective(), 2.0, 1e-6));
}

#[test]
fn constant_problem_with_no_variables() {
    let mut gp = GpProblem::new();
    gp.set_objective(Posynomial::constant(4.2));
    let sol = gp.solve().unwrap();
    assert_eq!(sol.objective(), 4.2);
    assert!(sol.values().is_empty());
}

/// The shared-budget toy problem (see
/// `posynomial_constraint_with_shared_budget`): optimum II = 2.1.
fn budget_problem() -> (GpProblem, crate::GpVarId) {
    let mut gp = GpProblem::new();
    let ii = gp.add_var("II").unwrap();
    let n1 = gp.add_var("N1").unwrap();
    let n2 = gp.add_var("N2").unwrap();
    gp.set_objective(Posynomial::monomial(1.0, &[(ii, 1.0)]));
    gp.add_le_constraint("k1", Posynomial::monomial(3.0, &[(n1, -1.0), (ii, -1.0)]))
        .unwrap();
    gp.add_le_constraint("k2", Posynomial::monomial(5.0, &[(n2, -1.0), (ii, -1.0)]))
        .unwrap();
    let budget =
        Posynomial::monomial(0.2, &[(n1, 1.0)]).with_term(Monomial::new(0.3, &[(n2, 1.0)]));
    gp.add_le_constraint("budget", budget).unwrap();
    (gp, ii)
}

#[test]
fn warm_start_skips_phase_one_and_keeps_the_optimum() {
    let (gp, ii) = budget_problem();
    let cold = gp.solve().unwrap();
    assert!(!cold.warm_started());
    // A strictly interior point a few percent off the optimum: II = 2.3,
    // N_k = WCET_k / 2.2 (all constraint slacks strictly positive).
    let warm = gp
        .solve_with(&SolverOptions {
            initial_point: Some(vec![2.3, 3.0 / 2.2, 5.0 / 2.2]),
            ..SolverOptions::default()
        })
        .unwrap();
    assert!(warm.warm_started());
    assert!(
        warm.newton_iterations() < cold.newton_iterations(),
        "warm {} vs cold {} Newton steps",
        warm.newton_iterations(),
        cold.newton_iterations()
    );
    assert!(close(warm.value(ii), cold.value(ii), 1e-6));
}

#[test]
fn invalid_or_infeasible_warm_starts_are_ignored() {
    let (gp, ii) = budget_problem();
    let cold = gp.solve().unwrap();
    for bad in [
        vec![],                          // wrong length
        vec![2.3, 3.0 / 2.2],            // wrong length
        vec![-1.0, 1.0, 1.0],            // non-positive
        vec![f64::NAN, 1.0, 1.0],        // non-finite
        vec![0.5, 10.0, 10.0],           // infeasible (budget blown)
        vec![2.1, 3.0 / 2.1, 5.0 / 2.1], // on the boundary, not strict
    ] {
        let sol = gp
            .solve_with(&SolverOptions {
                initial_point: Some(bad),
                ..SolverOptions::default()
            })
            .unwrap();
        assert!(!sol.warm_started());
        assert!(close(sol.value(ii), cold.value(ii), 1e-6));
    }
}

#[test]
fn dual_warm_start_skips_the_early_barrier_path() {
    let (gp, ii) = budget_problem();
    let cold = gp.solve().unwrap();
    assert!(!cold.dual_warm_started());
    assert!(cold.barrier_iterations() > 1);
    assert!(cold.factorizations() >= cold.newton_iterations());
    let dual = cold
        .dual_state()
        .expect("variable problems carry duals")
        .clone();
    assert_eq!(dual.duals.len(), 3);
    assert!(dual.duals.iter().all(|l| l.is_finite() && *l >= 0.0));
    // Neighboring warm point (slightly off the optimum) plus the cold
    // solve's dual state: phase II starts near the previous final t.
    let warm_point = vec![2.3, 3.0 / 2.2, 5.0 / 2.2];
    let warm = gp
        .solve_with(&SolverOptions {
            initial_point: Some(warm_point.clone()),
            initial_dual: Some(dual),
        })
        .unwrap();
    assert!(warm.warm_started());
    assert!(warm.dual_warm_started());
    assert!(
        warm.barrier_iterations() < cold.barrier_iterations(),
        "warm {} vs cold {} barrier iterations",
        warm.barrier_iterations(),
        cold.barrier_iterations()
    );
    assert!(
        warm.factorizations() < cold.factorizations(),
        "warm {} vs cold {} factorizations",
        warm.factorizations(),
        cold.factorizations()
    );
    assert!(close(warm.value(ii), cold.value(ii), 1e-6));
    // The dual start also beats the primal-only warm start, which still
    // walks the whole barrier path from t = INITIAL_BARRIER.
    let primal_only = gp
        .solve_with(&SolverOptions {
            initial_point: Some(warm_point),
            ..SolverOptions::default()
        })
        .unwrap();
    assert!(!primal_only.dual_warm_started());
    assert!(warm.barrier_iterations() < primal_only.barrier_iterations());
}

#[test]
fn invalid_dual_states_are_ignored() {
    let (gp, ii) = budget_problem();
    let cold = gp.solve().unwrap();
    let warm_point = vec![2.3, 3.0 / 2.2, 5.0 / 2.2];
    let good_t = cold.dual_state().unwrap().barrier_t;
    for bad in [
        GpDualState {
            barrier_t: good_t,
            duals: vec![0.1, 0.1], // wrong length
        },
        GpDualState {
            barrier_t: good_t,
            duals: vec![0.1, -0.1, 0.1], // negative dual
        },
        GpDualState {
            barrier_t: good_t,
            duals: vec![0.1, f64::NAN, 0.1], // non-finite dual
        },
        GpDualState {
            barrier_t: f64::INFINITY, // out-of-range t
            duals: vec![0.1, 0.1, 0.1],
        },
        GpDualState {
            barrier_t: 0.0, // below INITIAL_BARRIER
            duals: vec![0.1, 0.1, 0.1],
        },
    ] {
        let sol = gp
            .solve_with(&SolverOptions {
                initial_point: Some(warm_point.clone()),
                initial_dual: Some(bad),
            })
            .unwrap();
        assert!(sol.warm_started());
        assert!(!sol.dual_warm_started());
        assert!(close(sol.value(ii), cold.value(ii), 1e-6));
    }
    // A dual state without an accepted primal hint is ignored too: the
    // duals describe the central path near that point only.
    let sol = gp
        .solve_with(&SolverOptions {
            initial_dual: Some(cold.dual_state().unwrap().clone()),
            ..SolverOptions::default()
        })
        .unwrap();
    assert!(!sol.warm_started());
    assert!(!sol.dual_warm_started());
    assert!(close(sol.value(ii), cold.value(ii), 1e-6));
}

/// Solves `gp` with default options and checks the effort counters and the
/// objective's bits against the values recorded for it, so a change to the
/// barrier's iterate sequence shows up here.
fn solve_pinned(
    gp: &GpProblem,
    newton: usize,
    barrier: usize,
    factorizations: usize,
    objective_bits: u64,
) -> GpSolution {
    let sol = gp.solve().unwrap();
    assert_eq!(
        (
            sol.newton_iterations(),
            sol.barrier_iterations(),
            sol.factorizations(),
            sol.objective().to_bits()
        ),
        (newton, barrier, factorizations, objective_bits),
        "(newton, barrier, factorizations, objective bits); objective {}",
        sol.objective()
    );
    sol
}

/// Maximizes `Π x_i` under one budget row whose coefficients span
/// 1e-6 … 1e6: the optimum puts a fifth of the budget on each term,
/// `x_i = 1 / (5 c_i)`, so the objective `Π x_i⁻¹` is `5⁵ · Π c_i = 3125`.
#[test]
fn badly_scaled_rows_keep_the_optimum() {
    let coeffs = [1e-6, 1e-3, 1.0, 1e3, 1e6];
    let mut gp = GpProblem::new();
    let x: Vec<GpVarId> = (0..coeffs.len())
        .map(|i| gp.add_var(format!("x{i}")).unwrap())
        .collect();
    let inverse: Vec<(GpVarId, f64)> = x.iter().map(|&v| (v, -1.0)).collect();
    gp.set_objective(Posynomial::monomial(1.0, &inverse));
    let budget: Posynomial = x
        .iter()
        .zip(coeffs)
        .map(|(&v, c)| Monomial::new(c, &[(v, 1.0)]))
        .collect();
    gp.add_le_constraint("budget", budget).unwrap();
    // Before the rounding exit: 58 Newton steps and 67 factorizations, the
    // same barrier iterations and objective bits.
    let sol = solve_pinned(&gp, 52, 9, 60, 0x40a8_6a00_0051_eb85);
    assert!(close(sol.objective(), 3125.0, 1e-6), "{}", sol.objective());
    for (&v, c) in x.iter().zip(coeffs) {
        assert!(close(sol.value(v) * 5.0 * c, 1.0, 1e-5));
    }
}

/// Every row of the shared-budget toy GP added three times: the optimum
/// (II = 2.1) is unchanged, only the barrier weights the rows thrice.
#[test]
fn duplicated_rows_keep_the_optimum() {
    let mut gp = GpProblem::new();
    let ii = gp.add_var("II").unwrap();
    let n1 = gp.add_var("N1").unwrap();
    let n2 = gp.add_var("N2").unwrap();
    gp.set_objective(Posynomial::monomial(1.0, &[(ii, 1.0)]));
    for copy in 0..3 {
        gp.add_le_constraint(
            format!("k1.{copy}"),
            Posynomial::monomial(3.0, &[(n1, -1.0), (ii, -1.0)]),
        )
        .unwrap();
        gp.add_le_constraint(
            format!("k2.{copy}"),
            Posynomial::monomial(5.0, &[(n2, -1.0), (ii, -1.0)]),
        )
        .unwrap();
        let budget =
            Posynomial::monomial(0.2, &[(n1, 1.0)]).with_term(Monomial::new(0.3, &[(n2, 1.0)]));
        gp.add_le_constraint(format!("budget.{copy}"), budget)
            .unwrap();
    }
    let sol = solve_pinned(&gp, 64, 11, 75, 0x4000_cccc_cce6_2ac9);
    assert!(close(sol.objective(), 2.1, 1e-6), "{}", sol.objective());
}

/// `x ≤ 1` and `x ≥ 1` leave a feasible set without interior: phase I
/// converges to zero slack and reports the problem infeasible.
#[test]
fn an_empty_interior_is_infeasible() {
    let mut gp = GpProblem::new();
    let x = gp.add_var("x").unwrap();
    gp.set_objective(Posynomial::monomial(1.0, &[(x, 1.0)]));
    gp.add_le_constraint("x ≤ 1", Posynomial::monomial(1.0, &[(x, 1.0)]))
        .unwrap();
    gp.add_le_constraint("x ≥ 1", Posynomial::monomial(1.0, &[(x, -1.0)]))
        .unwrap();
    assert_eq!(gp.solve().unwrap_err(), GpError::Infeasible);
}

/// `min x⁻¹·y` with `y ≥ 1` and nothing else bounding `x`: the optimum lies
/// on the implicit box `x ≤ 1e9`, at objective 1e-9.
#[test]
fn an_optimum_on_the_implicit_box() {
    let mut gp = GpProblem::new();
    let x = gp.add_var("x").unwrap();
    let y = gp.add_var("y").unwrap();
    gp.set_objective(Posynomial::monomial(1.0, &[(x, -1.0), (y, 1.0)]));
    gp.add_le_constraint("y ≥ 1", Posynomial::monomial(1.0, &[(y, -1.0)]))
        .unwrap();
    // Before the rounding exit: 65 Newton steps and 74 factorizations, the
    // same barrier iterations and objective bits.
    let sol = solve_pinned(&gp, 50, 9, 58, 0x3e11_2e0b_e89a_215d);
    assert!(close(sol.value(x), 1e9, 1e-6), "x = {}", sol.value(x));
    assert!(close(sol.value(y), 1.0, 1e-6), "y = {}", sol.value(y));
    assert!(close(sol.objective(), 1e-9, 1e-6), "{}", sol.objective());
}

/// A 40-kernel GP with the paper's row layout (one latency, lower and
/// upper row per kernel; BRAM, DSP and bandwidth budget rows over all
/// kernels) on 8 FPGAs at 70 % of their resources, with kernel data from a
/// fixed linear congruential generator.
#[test]
fn a_forty_kernel_paper_shaped_gp() {
    let (gp, ii, _) = paper_shaped_gp(&lcg_kernels(40, 7), 8.0, 0.7);
    // Before the stall exit: 270 Newton steps and 280 factorizations, the
    // same barrier iterations and objective bits. Before the rounding exit:
    // 211 Newton steps and 221 factorizations, the same barrier iterations,
    // objective bits 0x4027_7301_85c5_731d (1293 ulps, about 2e-13
    // relative, above today's).
    let sol = solve_pinned(&gp, 120, 12, 130, 0x4027_7301_85c5_6e10);
    assert!(sol.value(ii) > 0.0);
}

/// Per-kernel `(wcet_ms, bram, dsp, bandwidth)` fractions of one CU.
type KernelRow = (f64, f64, f64, f64);

/// `count` kernels drawn from a fixed linear congruential generator: WCETs
/// of 0.5–40 ms and per-CU fractions of 0.5–15 %.
fn lcg_kernels(count: usize, seed: u64) -> Vec<KernelRow> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..count)
        .map(|_| {
            let wcet = 0.5 + 39.5 * next();
            let bram = 0.005 + 0.145 * next();
            let dsp = 0.005 + 0.145 * next();
            let bw = 0.005 + 0.145 * next();
            (wcet, bram, dsp, bw)
        })
        .collect()
}

/// The relaxed allocation GP in the paper's layout: minimize `II` subject to
/// `WCET_k / (N_k · II) ≤ 1`, `1 ≤ N_k ≤ F / max_r(r_k)` and one budget row
/// `Σ_k r_k N_k ≤ budget · F` per resource. Returns the problem, `II` and
/// the count variables.
fn paper_shaped_gp(
    kernels: &[KernelRow],
    fpgas: f64,
    budget: f64,
) -> (GpProblem, GpVarId, Vec<GpVarId>) {
    let mut gp = GpProblem::new();
    let ii = gp.add_var("II").unwrap();
    let n: Vec<GpVarId> = (0..kernels.len())
        .map(|k| gp.add_var(format!("N{k}")).unwrap())
        .collect();
    gp.set_objective(Posynomial::monomial(1.0, &[(ii, 1.0)]));
    for (k, &(wcet, bram, dsp, bw)) in kernels.iter().enumerate() {
        gp.add_le_constraint(
            format!("latency{k}"),
            Posynomial::monomial(wcet, &[(n[k], -1.0), (ii, -1.0)]),
        )
        .unwrap();
        gp.add_le_constraint(
            format!("lower{k}"),
            Posynomial::monomial(1.0, &[(n[k], -1.0)]),
        )
        .unwrap();
        let hi = (fpgas * budget / bram.max(dsp).max(bw)).floor().max(1.0) * (1.0 + 1e-7);
        gp.add_le_constraint(
            format!("upper{k}"),
            Posynomial::monomial(1.0 / hi, &[(n[k], 1.0)]),
        )
        .unwrap();
    }
    let columns: [fn(&KernelRow) -> f64; 3] = [|k| k.1, |k| k.2, |k| k.3];
    for (r, column) in columns.iter().enumerate() {
        let row: Posynomial = kernels
            .iter()
            .zip(&n)
            .filter(|(kernel, _)| column(kernel) > 0.0)
            .map(|(kernel, &v)| Monomial::new(column(kernel) / (fpgas * budget), &[(v, 1.0)]))
            .collect();
        gp.add_le_constraint(format!("budget{r}"), row).unwrap();
    }
    (gp, ii, n)
}

/// The three paper cases (Alex-16 on 2 FPGAs, Alex-32 on 4, VGG on 8) in
/// the paper-shaped GP, cold and warm-started, at both ends of each case's
/// constraint range. Every Newton step and line-search trial is checked
/// against the reference evaluation bit for bit (see `reference.rs`).
#[test]
fn paper_cases_match_the_reference_evaluation() {
    let cases = [
        (mfa_alloc::paper_data::alexnet_16bit(), 2.0, [0.55, 0.85]),
        (mfa_alloc::paper_data::alexnet_32bit(), 4.0, [0.65, 0.75]),
        (mfa_alloc::paper_data::vgg_16bit(), 8.0, [0.55, 0.80]),
    ];
    for (app, fpgas, budgets) in cases {
        let kernels: Vec<KernelRow> = app
            .kernels()
            .iter()
            .map(|k| {
                let r = k.resources();
                (k.wcet_ms(), r.bram, r.dsp, k.bandwidth())
            })
            .collect();
        for budget in budgets {
            let (gp, ii, n) = paper_shaped_gp(&kernels, fpgas, budget);
            let cold = gp.solve().unwrap();
            // A neighbour's warm start: 5 % above the optimum II, counts 2 %
            // above the WCET-driven ones, as the allocation layer seeds it.
            let ii0 = cold.value(ii) * 1.05;
            let mut point = vec![ii0];
            point.extend(
                kernels
                    .iter()
                    .zip(&n)
                    .map(|(k, &v)| (k.0 / ii0 * 1.02).max(cold.value(v).min(1.0) * 1.001)),
            );
            let warm = gp
                .solve_with(&SolverOptions {
                    initial_point: Some(point),
                    initial_dual: Some(cold.dual_state().unwrap().clone()),
                })
                .unwrap();
            assert!(
                warm.warm_started() && warm.dual_warm_started(),
                "{}",
                app.name()
            );
            assert!(
                close(warm.value(ii), cold.value(ii), 1e-6),
                "{}",
                app.name()
            );
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig { cases: 48, ..Default::default() })]

    /// Random GPs of 1–5 variables and 1–5 constraints of 1–4 terms each,
    /// with exponents in [−2, 2] and coefficients up to 20 in the objective
    /// and up to 1 in the constraints, feasible or not: every Newton step
    /// and line-search trial of both phases matches the reference
    /// evaluation bit for bit.
    #[test]
    fn random_gps_match_the_reference_evaluation(seed in 0..1_000_000usize) {
        let mut state = seed as u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut gp = GpProblem::new();
        let vars: Vec<GpVarId> = (0..1 + (next() * 5.0) as usize)
            .map(|i| gp.add_var(format!("x{i}")).unwrap())
            .collect();
        let mut posynomial = |max_terms: f64, max_coeff: f64| -> Posynomial {
            let mut p = Posynomial::new();
            for _ in 0..1 + (next() * max_terms) as usize {
                let mut exponents = Vec::new();
                for &v in &vars {
                    if next() < 0.6 {
                        exponents.push((v, ((next() * 8.0).round() - 4.0) / 2.0));
                    }
                }
                p.push(Monomial::new(max_coeff * (0.01 + 0.99 * next()), &exponents));
            }
            p
        };
        gp.set_objective(posynomial(3.0, 20.0));
        let rows: Vec<Posynomial> = (0..1 + (seed % 5)).map(|_| posynomial(4.0, 1.0)).collect();
        for (i, row) in rows.into_iter().enumerate() {
            gp.add_le_constraint(format!("c{i}"), row).unwrap();
        }
        match gp.solve() {
            Ok(sol) => proptest::prop_assert!(sol.objective().is_finite()),
            Err(err) => proptest::prop_assert!(
                matches!(err, GpError::Infeasible | GpError::Numerical(_)),
                "{err}"
            ),
        }
    }
}

/// A phase that runs out of outer iterations short of its gap tolerance
/// has no answer. Phase II with one outer iteration used to return
/// II = 38.3 on the budget GP; phase I with one used to call the problem
/// infeasible whether or not it was.
#[test]
fn running_out_of_outer_iterations_is_not_an_answer() {
    let one = |gp: &GpProblem| solve_within(gp, &SolverOptions::default(), 1);
    let (gp, _) = budget_problem();
    assert!(matches!(
        one(&gp),
        Err(GpError::DidNotConverge {
            outer_iterations: 2
        })
    ));
    // x ≤ 1 and x ≥ 2: infeasible, but one outer iteration proves nothing.
    let mut gp = GpProblem::new();
    let x = gp.add_var("x").unwrap();
    gp.set_objective(Posynomial::monomial(1.0, &[(x, 1.0)]));
    gp.add_le_constraint("x ≤ 1", Posynomial::monomial(1.0, &[(x, 1.0)]))
        .unwrap();
    gp.add_le_constraint("x ≥ 2", Posynomial::monomial(2.0, &[(x, -1.0)]))
        .unwrap();
    assert!(matches!(
        one(&gp),
        Err(GpError::DidNotConverge {
            outer_iterations: 1
        })
    ));
    assert_eq!(gp.solve().unwrap_err(), GpError::Infeasible);
}
