//! Wire codec of the workspace's JSON-lines frames, with the field helpers
//! every frame codec decodes through.
//!
//! Encodes every type that crosses a process boundary — the full
//! [`SweepGrid`] (cases, platforms, budgets, solver backends), [`WorkUnit`]s
//! and per-unit [`SweepPoint`] results — as [`Json`] documents, and decodes
//! them back through the types' own validating constructors so a malformed
//! or malicious frame surfaces as a [`WireError`] instead of a panic.
//!
//! Two invariants make the codec fit for the byte-identical sharding
//! guarantee:
//!
//! * **Exact float round-trips.** Numbers are written in Rust's
//!   shortest-round-trip notation and parsed back with `str::parse::<f64>`,
//!   so `decode(encode(x)) == x` bit-for-bit for every finite float.
//! * **NaN-freedom.** Non-finite floats are unrepresentable in JSON; the
//!   encoder rejects them with [`WireError::NonFinite`] rather than silently
//!   degrading, and the decoder can therefore trust every number it accepts.
//!
//! The `*_to_json`/`*_from_json` pairs are what the frame codecs compose
//! into their documents; the string-level entry points
//! ([`encode_grid`]/[`decode_grid`] and friends) code one value as a whole
//! document.

use std::fmt;

use mfa_alloc::discretize::DiscretizeOptions;
use mfa_alloc::exact::{ExactMode, ExactOptions};
use mfa_alloc::gp_step::RelaxationBackend;
use mfa_alloc::gpa::GpaOptions;
use mfa_alloc::greedy::GreedyOptions;
use mfa_alloc::solver::{DualWarmStart, SkipPolicy, WarmStart, WarmStartReport};
use mfa_alloc::{AllocationProblem, GoalWeights, Kernel};
use mfa_minlp::SolverOptions;
use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform, ResourceBudget, ResourceVec};

use crate::executor::{SweepPoint, WorkUnit};
use crate::grid::{BudgetSpec, CaseSpec, PlatformSpec, SolverSpec, SweepGrid};
use crate::json::Json;

/// Error returned by the wire codec.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WireError {
    /// The input was not a JSON document.
    Parse(String),
    /// The document was valid JSON but did not match the expected schema
    /// (missing field, wrong type, unknown variant tag).
    Schema(String),
    /// A field violated a domain invariant (out-of-range fraction, empty
    /// axis, non-finite float, …).
    Invalid(String),
    /// A float to be encoded was NaN or infinite.
    NonFinite(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Parse(msg) => write!(f, "malformed JSON: {msg}"),
            WireError::Schema(msg) => write!(f, "schema mismatch: {msg}"),
            WireError::Invalid(msg) => write!(f, "invalid value: {msg}"),
            WireError::NonFinite(field) => {
                write!(
                    f,
                    "non-finite float in field '{field}' cannot cross the wire"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Field helpers, shared by every frame codec in the workspace. Each fails
// with [`WireError::Schema`] when the field is missing or of the wrong type.

/// The field `key` of an object.
pub fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    value
        .get(key)
        .ok_or_else(|| WireError::Schema(format!("missing field '{key}'")))
}

/// A frame's string `"type"` tag.
pub fn type_tag(frame: &Json) -> Result<&str, WireError> {
    str_field(frame, "type")
}

/// The number field `key`.
pub fn f64_field(value: &Json, key: &str) -> Result<f64, WireError> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| WireError::Schema(format!("field '{key}' must be a number")))
}

/// The nonnegative integer field `key`.
pub fn usize_field(value: &Json, key: &str) -> Result<usize, WireError> {
    field(value, key)?
        .as_usize()
        .ok_or_else(|| WireError::Schema(format!("field '{key}' must be a nonnegative integer")))
}

/// The string field `key`.
pub fn str_field<'a>(value: &'a Json, key: &str) -> Result<&'a str, WireError> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| WireError::Schema(format!("field '{key}' must be a string")))
}

/// The boolean field `key`.
pub fn bool_field(value: &Json, key: &str) -> Result<bool, WireError> {
    field(value, key)?
        .as_bool()
        .ok_or_else(|| WireError::Schema(format!("field '{key}' must be a boolean")))
}

/// The array field `key`.
pub fn arr_field<'a>(value: &'a Json, key: &str) -> Result<&'a [Json], WireError> {
    field(value, key)?
        .as_arr()
        .ok_or_else(|| WireError::Schema(format!("field '{key}' must be an array")))
}

/// The field `key` read by `as_type` (e.g. [`Json::as_f64`]), with `null`
/// read as `None`.
pub fn nullable_field<'a, T>(
    value: &'a Json,
    key: &str,
    as_type: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, WireError> {
    match field(value, key)? {
        Json::Null => Ok(None),
        other => as_type(other)
            .map(Some)
            .ok_or_else(|| WireError::Schema(format!("field '{key}' has the wrong type"))),
    }
}

/// Encode-side guard: every float put on the wire must be finite; `name`
/// labels the [`WireError::NonFinite`] otherwise.
pub fn num(name: &'static str, value: f64) -> Result<Json, WireError> {
    if value.is_finite() {
        Ok(Json::Num(value))
    } else {
        Err(WireError::NonFinite(name))
    }
}

/// Encodes per-kernel CU counts as a number array.
pub fn cu_counts_to_json(counts: &[u32]) -> Json {
    Json::Arr(counts.iter().map(|&n| Json::Num(f64::from(n))).collect())
}

/// Decodes a [`cu_counts_to_json`] array; an entry that is not a `u32` is
/// [`WireError::Invalid`].
pub fn cu_counts_from_json(items: &[Json]) -> Result<Vec<u32>, WireError> {
    items
        .iter()
        .map(|item| {
            let raw = item
                .as_f64()
                .ok_or_else(|| WireError::Schema("cu_counts entries must be numbers".into()))?;
            if raw < 0.0 || raw.fract() != 0.0 || raw > f64::from(u32::MAX) {
                return Err(WireError::Invalid(format!(
                    "cu_counts entry {raw} is not a u32"
                )));
            }
            Ok(raw as u32)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Platform-layer types.

fn resource_vec_to_json(v: &ResourceVec) -> Result<Json, WireError> {
    Ok(Json::obj(vec![
        ("lut", num("lut", v.lut)?),
        ("ff", num("ff", v.ff)?),
        ("bram", num("bram", v.bram)?),
        ("dsp", num("dsp", v.dsp)?),
    ]))
}

fn resource_vec_from_json(value: &Json) -> Result<ResourceVec, WireError> {
    Ok(ResourceVec {
        lut: f64_field(value, "lut")?,
        ff: f64_field(value, "ff")?,
        bram: f64_field(value, "bram")?,
        dsp: f64_field(value, "dsp")?,
    })
}

/// Encodes a [`ResourceBudget`] as a [`Json`] object.
///
/// # Errors
///
/// Returns [`WireError::NonFinite`] if any fraction is NaN or infinite.
pub fn budget_to_json(b: &ResourceBudget) -> Result<Json, WireError> {
    Ok(Json::obj(vec![
        ("resources", resource_vec_to_json(b.resource_fraction())?),
        ("bandwidth", num("bandwidth", b.bandwidth_fraction())?),
    ]))
}

/// Decodes a [`ResourceBudget`] from its [`budget_to_json`] encoding.
///
/// # Errors
///
/// Returns [`WireError::Schema`] on shape mismatches and
/// [`WireError::Invalid`] when a fraction lies outside `(0, 1]`.
pub fn budget_from_json(value: &Json) -> Result<ResourceBudget, WireError> {
    let resources = resource_vec_from_json(field(value, "resources")?)?;
    let bandwidth = f64_field(value, "bandwidth")?;
    // `ResourceBudget::new` panics on invalid fractions; mirror its checks so
    // a bad frame errors instead.
    let in_unit = |v: f64| v.is_finite() && v > 0.0 && v <= 1.0;
    if !(in_unit(resources.lut)
        && in_unit(resources.ff)
        && in_unit(resources.bram)
        && in_unit(resources.dsp))
    {
        return Err(WireError::Invalid(
            "budget resource fractions must lie in (0, 1]".into(),
        ));
    }
    if !in_unit(bandwidth) {
        return Err(WireError::Invalid(
            "budget bandwidth fraction must lie in (0, 1]".into(),
        ));
    }
    Ok(ResourceBudget::new(resources, bandwidth))
}

fn device_to_json(d: &FpgaDevice) -> Result<Json, WireError> {
    Ok(Json::obj(vec![
        ("name", Json::str(d.name())),
        ("capacity", resource_vec_to_json(d.capacity())?),
        (
            "dram_bandwidth_gbps",
            num("dram_bandwidth_gbps", d.dram_bandwidth_gbps())?,
        ),
    ]))
}

fn device_from_json(value: &Json) -> Result<FpgaDevice, WireError> {
    let name = str_field(value, "name")?;
    let capacity = resource_vec_from_json(field(value, "capacity")?)?;
    let bandwidth = f64_field(value, "dram_bandwidth_gbps")?;
    if !capacity.is_valid() {
        return Err(WireError::Invalid(format!(
            "device {name}: capacities must be finite and nonnegative"
        )));
    }
    if !(bandwidth.is_finite() && bandwidth >= 0.0) {
        return Err(WireError::Invalid(format!(
            "device {name}: DRAM bandwidth must be finite and nonnegative"
        )));
    }
    Ok(FpgaDevice::new(name, capacity, bandwidth))
}

fn platform_to_json(p: &HeterogeneousPlatform) -> Result<Json, WireError> {
    let groups = p
        .groups()
        .iter()
        .map(|g| {
            let mut fields = vec![
                ("device", device_to_json(g.device())?),
                ("count", Json::Num(g.count() as f64)),
            ];
            // Scaling knobs ride the wire only when set, so pre-reallocation
            // peers keep accepting frames from unscaled platforms.
            if g.wcet_scale() != 1.0 {
                fields.push(("wcet_scale", num("wcet_scale", g.wcet_scale())?));
            }
            if g.budget_scale() != 1.0 {
                fields.push(("budget_scale", num("budget_scale", g.budget_scale())?));
            }
            Ok(Json::obj(fields))
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(Json::obj(vec![
        ("name", Json::str(p.name())),
        ("groups", Json::Arr(groups)),
    ]))
}

fn platform_from_json(value: &Json) -> Result<HeterogeneousPlatform, WireError> {
    let name = str_field(value, "name")?;
    let groups = arr_field(value, "groups")?
        .iter()
        .map(|g| {
            let device = device_from_json(field(g, "device")?)?;
            let count = usize_field(g, "count")?;
            if count == 0 {
                return Err(WireError::Invalid(
                    "a device group needs at least one FPGA".into(),
                ));
            }
            let mut group = DeviceGroup::new(device, count);
            // Absent on frames from before the reallocation refactor:
            // default to the neutral factors those platforms implied.
            if field(g, "wcet_scale").is_ok() {
                let scale = f64_field(g, "wcet_scale")?;
                if !(scale.is_finite() && scale >= 1.0) {
                    return Err(WireError::Invalid(format!(
                        "WCET scale must be a finite slowdown factor ≥ 1, got {scale}"
                    )));
                }
                group = group.with_wcet_scale(scale);
            }
            if field(g, "budget_scale").is_ok() {
                let scale = f64_field(g, "budget_scale")?;
                if !(scale.is_finite() && scale > 0.0) {
                    return Err(WireError::Invalid(format!(
                        "budget scale must be a finite positive factor, got {scale}"
                    )));
                }
                group = group.with_budget_scale(scale);
            }
            Ok(group)
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    if groups.is_empty() {
        return Err(WireError::Invalid(
            "a platform needs at least one device group".into(),
        ));
    }
    Ok(HeterogeneousPlatform::new(name, groups))
}

// ---------------------------------------------------------------------------
// Problem-layer types.

fn kernel_to_json(k: &Kernel) -> Result<Json, WireError> {
    Ok(Json::obj(vec![
        ("name", Json::str(k.name())),
        ("wcet_ms", num("wcet_ms", k.wcet_ms())?),
        ("resources", resource_vec_to_json(k.resources())?),
        ("bandwidth", num("bandwidth", k.bandwidth())?),
    ]))
}

fn kernel_from_json(value: &Json) -> Result<Kernel, WireError> {
    Kernel::new(
        str_field(value, "name")?,
        f64_field(value, "wcet_ms")?,
        resource_vec_from_json(field(value, "resources")?)?,
        f64_field(value, "bandwidth")?,
    )
    .map_err(|err| WireError::Invalid(err.to_string()))
}

/// Encodes a full [`AllocationProblem`] (kernels, platform, budget, goal
/// weights) as a [`Json`] object. This is the canonical problem encoding:
/// content fingerprints and the allocation-service request frames both hash
/// and ship it, so its field order is part of the stable wire format.
///
/// # Errors
///
/// Returns [`WireError::NonFinite`] if any float in the problem is NaN or
/// infinite (a validated problem never contains one).
pub fn problem_to_json(p: &AllocationProblem) -> Result<Json, WireError> {
    let kernels = p
        .kernels()
        .iter()
        .map(kernel_to_json)
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(Json::obj(vec![
        ("kernels", Json::Arr(kernels)),
        ("platform", platform_to_json(p.platform())?),
        ("budget", budget_to_json(p.budget())?),
        (
            "weights",
            Json::obj(vec![
                ("alpha", num("alpha", p.weights().alpha)?),
                ("beta", num("beta", p.weights().beta)?),
            ]),
        ),
    ]))
}

/// Decodes an [`AllocationProblem`] from its [`problem_to_json`] encoding,
/// re-validating through the problem builder so a malformed document
/// surfaces as a [`WireError`] instead of an inconsistent problem.
///
/// # Errors
///
/// Returns [`WireError::Schema`] on shape mismatches and
/// [`WireError::Invalid`] when the decoded fields violate the problem's own
/// invariants.
pub fn problem_from_json(value: &Json) -> Result<AllocationProblem, WireError> {
    let kernels = arr_field(value, "kernels")?
        .iter()
        .map(kernel_from_json)
        .collect::<Result<Vec<_>, WireError>>()?;
    let platform = platform_from_json(field(value, "platform")?)?;
    let budget = budget_from_json(field(value, "budget")?)?;
    let weights = field(value, "weights")?;
    let alpha = f64_field(weights, "alpha")?;
    let beta = f64_field(weights, "beta")?;
    if !(alpha.is_finite() && alpha >= 0.0 && beta.is_finite() && beta >= 0.0) {
        return Err(WireError::Invalid(
            "goal weights must be nonnegative and finite".into(),
        ));
    }
    AllocationProblem::builder()
        .kernels(kernels)
        .platform(platform)
        .budget(budget)
        .weights(GoalWeights::new(alpha, beta))
        .build()
        .map_err(|err| WireError::Invalid(err.to_string()))
}

// ---------------------------------------------------------------------------
// Grid axes.

fn case_to_json(c: &CaseSpec) -> Result<Json, WireError> {
    Ok(Json::obj(vec![
        ("label", Json::str(c.label())),
        ("base", problem_to_json(c.base())?),
    ]))
}

fn case_from_json(value: &Json) -> Result<CaseSpec, WireError> {
    Ok(CaseSpec::new(
        str_field(value, "label")?,
        problem_from_json(field(value, "base")?)?,
    ))
}

fn platform_spec_to_json(p: &PlatformSpec) -> Result<Json, WireError> {
    Ok(match p {
        PlatformSpec::FpgaCount(n) => Json::obj(vec![
            ("kind", Json::str("fpga_count")),
            ("count", Json::Num(*n as f64)),
        ]),
        PlatformSpec::Platform { label, platform } => Json::obj(vec![
            ("kind", Json::str("platform")),
            ("label", Json::str(label.as_str())),
            ("platform", platform_to_json(platform)?),
        ]),
    })
}

fn platform_spec_from_json(value: &Json) -> Result<PlatformSpec, WireError> {
    match str_field(value, "kind")? {
        "fpga_count" => {
            let count = usize_field(value, "count")?;
            if count == 0 {
                return Err(WireError::Invalid("FPGA count must be at least 1".into()));
            }
            Ok(PlatformSpec::FpgaCount(count))
        }
        "platform" => Ok(PlatformSpec::platform_labeled(
            str_field(value, "label")?,
            platform_from_json(field(value, "platform")?)?,
        )),
        other => Err(WireError::Schema(format!(
            "unknown platform spec kind '{other}'"
        ))),
    }
}

fn budget_spec_to_json(b: &BudgetSpec) -> Result<Json, WireError> {
    Ok(match b {
        BudgetSpec::Uniform(fraction) => Json::obj(vec![
            ("kind", Json::str("uniform")),
            ("fraction", num("fraction", *fraction)?),
        ]),
        BudgetSpec::PerResource(budget) => Json::obj(vec![
            ("kind", Json::str("per_resource")),
            ("budget", budget_to_json(budget)?),
        ]),
    })
}

fn budget_spec_from_json(value: &Json) -> Result<BudgetSpec, WireError> {
    match str_field(value, "kind")? {
        "uniform" => {
            let fraction = f64_field(value, "fraction")?;
            if !(fraction.is_finite() && fraction > 0.0 && fraction <= 1.0) {
                return Err(WireError::Invalid(format!(
                    "uniform constraint must be a fraction in (0, 1], got {fraction}"
                )));
            }
            Ok(BudgetSpec::Uniform(fraction))
        }
        "per_resource" => Ok(BudgetSpec::PerResource(budget_from_json(field(
            value, "budget",
        )?)?)),
        other => Err(WireError::Schema(format!(
            "unknown budget spec kind '{other}'"
        ))),
    }
}

fn relaxation_backend_to_json(b: &RelaxationBackend) -> Json {
    Json::str(match b {
        RelaxationBackend::GeometricProgram => "gp",
        RelaxationBackend::Bisection => "bisection",
    })
}

fn relaxation_backend_from_json(value: &Json) -> Result<RelaxationBackend, WireError> {
    match value.as_str() {
        Some("gp") => Ok(RelaxationBackend::GeometricProgram),
        Some("bisection") => Ok(RelaxationBackend::Bisection),
        Some(other) => Err(WireError::Schema(format!(
            "unknown relaxation backend '{other}'"
        ))),
        None => Err(WireError::Schema(
            "relaxation backend must be a string".into(),
        )),
    }
}

fn gpa_options_to_json(o: &GpaOptions) -> Result<Json, WireError> {
    Ok(Json::obj(vec![
        (
            "relaxation_backend",
            relaxation_backend_to_json(&o.relaxation_backend),
        ),
        (
            "discretize",
            Json::obj(vec![
                ("backend", relaxation_backend_to_json(&o.discretize.backend)),
                (
                    "integer_tolerance",
                    num("integer_tolerance", o.discretize.integer_tolerance)?,
                ),
                ("max_nodes", Json::Num(o.discretize.max_nodes as f64)),
            ]),
        ),
        (
            "greedy",
            Json::obj(vec![
                (
                    "max_relaxation",
                    num("max_relaxation", o.greedy.max_relaxation)?,
                ),
                (
                    "relaxation_step",
                    num("relaxation_step", o.greedy.relaxation_step)?,
                ),
            ]),
        ),
    ]))
}

fn gpa_options_from_json(value: &Json) -> Result<GpaOptions, WireError> {
    let discretize = field(value, "discretize")?;
    let greedy = field(value, "greedy")?;
    Ok(GpaOptions {
        relaxation_backend: relaxation_backend_from_json(field(value, "relaxation_backend")?)?,
        discretize: DiscretizeOptions {
            backend: relaxation_backend_from_json(field(discretize, "backend")?)?,
            integer_tolerance: f64_field(discretize, "integer_tolerance")?,
            max_nodes: usize_field(discretize, "max_nodes")?,
        },
        greedy: GreedyOptions {
            max_relaxation: f64_field(greedy, "max_relaxation")?,
            relaxation_step: f64_field(greedy, "relaxation_step")?,
        },
    })
}

fn exact_options_to_json(o: &ExactOptions) -> Result<Json, WireError> {
    let time_limit = match o.solver.time_limit_seconds {
        Some(seconds) => num("time_limit_seconds", seconds)?,
        None => Json::Null,
    };
    Ok(Json::obj(vec![
        (
            "mode",
            Json::str(match o.mode {
                ExactMode::IiOnly => "ii_only",
                ExactMode::IiAndSpreading => "ii_and_spreading",
            }),
        ),
        (
            "solver",
            Json::obj(vec![
                ("max_nodes", Json::Num(o.solver.max_nodes as f64)),
                ("time_limit_seconds", time_limit),
                (
                    "integer_tolerance",
                    num("integer_tolerance", o.solver.integer_tolerance)?,
                ),
                (
                    "feasibility_tolerance",
                    num("feasibility_tolerance", o.solver.feasibility_tolerance)?,
                ),
                ("absolute_gap", num("absolute_gap", o.solver.absolute_gap)?),
                ("relative_gap", num("relative_gap", o.solver.relative_gap)?),
                ("cut_rounds", Json::Num(o.solver.cut_rounds as f64)),
            ]),
        ),
        ("symmetry_breaking", Json::Bool(o.symmetry_breaking)),
    ]))
}

fn exact_options_from_json(value: &Json) -> Result<ExactOptions, WireError> {
    let mode = match str_field(value, "mode")? {
        "ii_only" => ExactMode::IiOnly,
        "ii_and_spreading" => ExactMode::IiAndSpreading,
        other => return Err(WireError::Schema(format!("unknown exact mode '{other}'"))),
    };
    let solver = field(value, "solver")?;
    let time_limit_seconds = nullable_field(solver, "time_limit_seconds", Json::as_f64)?;
    Ok(ExactOptions {
        mode,
        solver: SolverOptions {
            max_nodes: usize_field(solver, "max_nodes")?,
            time_limit_seconds,
            integer_tolerance: f64_field(solver, "integer_tolerance")?,
            feasibility_tolerance: f64_field(solver, "feasibility_tolerance")?,
            absolute_gap: f64_field(solver, "absolute_gap")?,
            relative_gap: f64_field(solver, "relative_gap")?,
            cut_rounds: usize_field(solver, "cut_rounds")?,
        },
        symmetry_breaking: bool_field(value, "symmetry_breaking")?,
    })
}

fn solver_spec_to_json(s: &SolverSpec) -> Result<Json, WireError> {
    Ok(match s {
        SolverSpec::Gpa { label, options } => Json::obj(vec![
            ("kind", Json::str("gpa")),
            ("label", Json::str(label.as_str())),
            ("options", gpa_options_to_json(options)?),
        ]),
        SolverSpec::Exact { label, options } => Json::obj(vec![
            ("kind", Json::str("exact")),
            ("label", Json::str(label.as_str())),
            ("options", exact_options_to_json(options)?),
        ]),
    })
}

fn solver_spec_from_json(value: &Json) -> Result<SolverSpec, WireError> {
    let label = str_field(value, "label")?;
    match str_field(value, "kind")? {
        "gpa" => Ok(SolverSpec::gpa_labeled(
            label,
            gpa_options_from_json(field(value, "options")?)?,
        )),
        "exact" => Ok(SolverSpec::exact_labeled(
            label,
            exact_options_from_json(field(value, "options")?)?,
        )),
        other => Err(WireError::Schema(format!(
            "unknown solver spec kind '{other}'"
        ))),
    }
}

/// Encodes only the *behaviour-relevant* part of a [`SolverSpec`] — kind and
/// options, with the display label stripped — for content fingerprinting:
/// renaming a backend must not invalidate stored results.
pub(crate) fn solver_config_to_json(s: &SolverSpec) -> Result<Json, WireError> {
    Ok(match s {
        SolverSpec::Gpa { options, .. } => Json::obj(vec![
            ("kind", Json::str("gpa")),
            ("options", gpa_options_to_json(options)?),
        ]),
        SolverSpec::Exact { options, .. } => Json::obj(vec![
            ("kind", Json::str("exact")),
            ("options", exact_options_to_json(options)?),
        ]),
    })
}

// ---------------------------------------------------------------------------
// Warm-start hints.

/// Encodes a [`WarmStart`] hint as a [`Json`] object (absent parts encode as
/// `null`). Used by the sweep store and the dispatcher's seeded-unit frames.
///
/// # Errors
///
/// Returns [`WireError::NonFinite`] if any float in the hint is NaN or
/// infinite.
pub fn warm_hint_to_json(w: &WarmStart) -> Result<Json, WireError> {
    let relaxed = match w.relaxed_ii_ms {
        Some(v) => num("relaxed_ii_ms", v)?,
        None => Json::Null,
    };
    let counts = w.cu_counts.as_deref().map_or(Json::Null, cu_counts_to_json);
    let dual = match &w.gp_dual {
        Some(d) => Json::obj(vec![
            ("barrier_t", num("barrier_t", d.barrier_t)?),
            (
                "duals",
                Json::Arr(
                    d.duals
                        .iter()
                        .map(|&v| num("duals", v))
                        .collect::<Result<Vec<_>, WireError>>()?,
                ),
            ),
        ]),
        None => Json::Null,
    };
    Ok(Json::obj(vec![
        ("relaxed_ii_ms", relaxed),
        ("cu_counts", counts),
        ("gp_dual", dual),
    ]))
}

/// Decodes a [`WarmStart`] hint from its [`warm_hint_to_json`] encoding.
///
/// # Errors
///
/// Returns [`WireError::Schema`] on shape mismatches and
/// [`WireError::Invalid`] on out-of-range CU counts.
pub fn warm_hint_from_json(value: &Json) -> Result<WarmStart, WireError> {
    let relaxed_ii_ms = nullable_field(value, "relaxed_ii_ms", Json::as_f64)?;
    let cu_counts = nullable_field(value, "cu_counts", Json::as_arr)?
        .map(cu_counts_from_json)
        .transpose()?;
    let gp_dual = match field(value, "gp_dual")? {
        Json::Null => None,
        dual => Some(DualWarmStart {
            barrier_t: f64_field(dual, "barrier_t")?,
            duals: arr_field(dual, "duals")?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| WireError::Schema("duals entries must be numbers".into()))
                })
                .collect::<Result<Vec<_>, WireError>>()?,
        }),
    };
    Ok(WarmStart {
        relaxed_ii_ms,
        cu_counts,
        gp_dual,
    })
}

// ---------------------------------------------------------------------------
// Top-level documents.

/// Encodes a full sweep grid as a [`Json`] document.
///
/// # Errors
///
/// Returns [`WireError::NonFinite`] if any float in the grid is NaN or
/// infinite (a healthy grid never contains one).
pub fn grid_to_json(grid: &SweepGrid) -> Result<Json, WireError> {
    let cases = grid
        .cases
        .iter()
        .map(case_to_json)
        .collect::<Result<Vec<_>, _>>()?;
    let platforms = grid
        .platforms
        .iter()
        .map(platform_spec_to_json)
        .collect::<Result<Vec<_>, _>>()?;
    let budgets = grid
        .budgets
        .iter()
        .map(budget_spec_to_json)
        .collect::<Result<Vec<_>, _>>()?;
    let backends = grid
        .backends
        .iter()
        .map(solver_spec_to_json)
        .collect::<Result<Vec<_>, _>>()?;
    let mut fields = vec![
        ("cases", Json::Arr(cases)),
        ("platforms", Json::Arr(platforms)),
        ("budgets", Json::Arr(budgets)),
        ("backends", Json::Arr(backends)),
        (
            "skip_policy",
            Json::Str(grid.skip_policy().label().to_owned()),
        ),
    ];
    if let Some(seconds) = grid.point_deadline_seconds() {
        fields.push((
            "point_deadline_seconds",
            num("point_deadline_seconds", seconds)?,
        ));
    }
    Ok(Json::obj(fields))
}

/// Decodes a sweep grid from a [`Json`] document, re-validating every axis
/// through [`SweepGrid::builder`].
///
/// # Errors
///
/// Returns [`WireError::Schema`] on shape mismatches and
/// [`WireError::Invalid`] when a value violates a grid invariant.
pub fn grid_from_json(value: &Json) -> Result<SweepGrid, WireError> {
    let mut builder = SweepGrid::builder();
    for case in arr_field(value, "cases")? {
        builder = builder.case(case_from_json(case)?);
    }
    for platform in arr_field(value, "platforms")? {
        builder = builder.platform(platform_spec_from_json(platform)?);
    }
    for budget in arr_field(value, "budgets")? {
        let spec = budget_spec_from_json(budget)?;
        builder = match spec {
            BudgetSpec::Uniform(fraction) => builder.constraints([fraction]),
            BudgetSpec::PerResource(budget) => builder.budget(budget),
        };
    }
    for backend in arr_field(value, "backends")? {
        builder = builder.backend(solver_spec_from_json(backend)?);
    }
    // Absent on frames from before the request API: default to lenient,
    // the policy every earlier sweep implicitly used.
    if field(value, "skip_policy").is_ok() {
        let policy = str_field(value, "skip_policy")?;
        builder =
            builder
                .skip_policy(SkipPolicy::from_label(policy).ok_or_else(|| {
                    WireError::Invalid(format!("unknown skip policy {policy:?}"))
                })?);
    }
    if field(value, "point_deadline_seconds").is_ok() {
        builder = builder.point_deadline_seconds(f64_field(value, "point_deadline_seconds")?);
    }
    builder
        .build()
        .map_err(|err| WireError::Invalid(err.to_string()))
}

/// Encodes one work unit.
pub fn unit_to_json(unit: &WorkUnit) -> Json {
    Json::obj(vec![
        ("series", Json::Num(unit.series as f64)),
        ("start", Json::Num(unit.start as f64)),
        ("end", Json::Num(unit.end as f64)),
    ])
}

/// Decodes one work unit.
///
/// # Errors
///
/// Returns [`WireError::Schema`] on shape mismatches and
/// [`WireError::Invalid`] for an empty or inverted range.
pub fn unit_from_json(value: &Json) -> Result<WorkUnit, WireError> {
    let unit = WorkUnit {
        series: usize_field(value, "series")?,
        start: usize_field(value, "start")?,
        end: usize_field(value, "end")?,
    };
    if unit.start >= unit.end {
        return Err(WireError::Invalid(format!(
            "work unit range [{}, {}) is empty",
            unit.start, unit.end
        )));
    }
    Ok(unit)
}

/// Encodes one solved sweep point.
///
/// # Errors
///
/// Returns [`WireError::NonFinite`] if any metric is NaN or infinite.
pub fn point_to_json(point: &SweepPoint) -> Result<Json, WireError> {
    Ok(Json::obj(vec![
        (
            "resource_constraint",
            num("resource_constraint", point.resource_constraint)?,
        ),
        ("budget", budget_to_json(&point.budget)?),
        (
            "initiation_interval_ms",
            num("initiation_interval_ms", point.initiation_interval_ms)?,
        ),
        (
            "average_utilization",
            num("average_utilization", point.average_utilization)?,
        ),
        ("spreading", num("spreading", point.spreading)?),
        ("solve_seconds", num("solve_seconds", point.solve_seconds)?),
        (
            "relaxation_gap",
            num("relaxation_gap", point.relaxation_gap)?,
        ),
        ("bb_nodes", Json::Num(point.bb_nodes as f64)),
        (
            "barrier_iterations",
            Json::Num(point.barrier_iterations as f64),
        ),
        ("factorizations", Json::Num(point.factorizations as f64)),
        ("simplex_pivots", Json::Num(point.simplex_pivots as f64)),
        ("dropped_cus", Json::Num(f64::from(point.dropped_cus))),
        ("moved_cus", Json::Num(f64::from(point.moved_cus))),
        (
            "migration_cost",
            num("migration_cost", point.migration_cost)?,
        ),
        (
            "warm_start",
            Json::Str(point.warm_start.provenance().to_owned()),
        ),
    ]))
}

/// Decodes one solved sweep point.
///
/// # Errors
///
/// Returns [`WireError::Schema`] or [`WireError::Invalid`] on malformed
/// input.
pub fn point_from_json(value: &Json) -> Result<SweepPoint, WireError> {
    Ok(SweepPoint {
        resource_constraint: f64_field(value, "resource_constraint")?,
        budget: budget_from_json(field(value, "budget")?)?,
        initiation_interval_ms: f64_field(value, "initiation_interval_ms")?,
        average_utilization: f64_field(value, "average_utilization")?,
        spreading: f64_field(value, "spreading")?,
        solve_seconds: f64_field(value, "solve_seconds")?,
        relaxation_gap: f64_field(value, "relaxation_gap")?,
        bb_nodes: usize_field(value, "bb_nodes")?,
        // Absent on frames from before the incremental-solve effort
        // counters: default to zero, exactly what those sweeps recorded.
        barrier_iterations: if field(value, "barrier_iterations").is_ok() {
            usize_field(value, "barrier_iterations")?
        } else {
            0
        },
        factorizations: if field(value, "factorizations").is_ok() {
            usize_field(value, "factorizations")?
        } else {
            0
        },
        simplex_pivots: if field(value, "simplex_pivots").is_ok() {
            usize_field(value, "simplex_pivots")?
        } else {
            0
        },
        dropped_cus: {
            let raw = f64_field(value, "dropped_cus")?;
            if raw < 0.0 || raw.fract() != 0.0 || raw > f64::from(u32::MAX) {
                return Err(WireError::Invalid(format!(
                    "dropped_cus must be a u32, got {raw}"
                )));
            }
            raw as u32
        },
        // Absent on frames from before the reallocation refactor: default to
        // zero movement, exactly what those static sweeps performed.
        moved_cus: if field(value, "moved_cus").is_ok() {
            let raw = f64_field(value, "moved_cus")?;
            if raw < 0.0 || raw.fract() != 0.0 || raw > f64::from(u32::MAX) {
                return Err(WireError::Invalid(format!(
                    "moved_cus must be a u32, got {raw}"
                )));
            }
            raw as u32
        } else {
            0
        },
        migration_cost: if field(value, "migration_cost").is_ok() {
            f64_field(value, "migration_cost")?
        } else {
            0.0
        },
        warm_start: {
            let label = str_field(value, "warm_start")?;
            WarmStartReport::from_provenance(label).ok_or_else(|| {
                WireError::Invalid(format!("unknown warm-start provenance {label:?}"))
            })?
        },
    })
}

/// Encodes a unit's result: one entry per budget point, `null` for skipped
/// (infeasible/unplaceable) points.
///
/// # Errors
///
/// Returns [`WireError::NonFinite`] if any point metric is NaN or infinite.
pub fn points_to_json(points: &[Option<SweepPoint>]) -> Result<Json, WireError> {
    Ok(Json::Arr(
        points
            .iter()
            .map(|p| match p {
                Some(point) => point_to_json(point),
                None => Ok(Json::Null),
            })
            .collect::<Result<Vec<_>, _>>()?,
    ))
}

/// Decodes a unit's result array.
///
/// # Errors
///
/// Returns [`WireError::Schema`] or [`WireError::Invalid`] on malformed
/// input.
pub fn points_from_json(value: &Json) -> Result<Vec<Option<SweepPoint>>, WireError> {
    value
        .as_arr()
        .ok_or_else(|| WireError::Schema("unit result must be an array".into()))?
        .iter()
        .map(|p| match p {
            Json::Null => Ok(None),
            other => point_from_json(other).map(Some),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// String-level wrappers.

/// Encodes a grid as a compact single-line JSON string.
///
/// # Errors
///
/// See [`grid_to_json`].
pub fn encode_grid(grid: &SweepGrid) -> Result<String, WireError> {
    Ok(grid_to_json(grid)?.to_string())
}

/// Parses and decodes a grid.
///
/// # Errors
///
/// Returns [`WireError::Parse`] on malformed JSON, otherwise see
/// [`grid_from_json`].
pub fn decode_grid(input: &str) -> Result<SweepGrid, WireError> {
    let doc = Json::parse(input).map_err(|err| WireError::Parse(err.to_string()))?;
    grid_from_json(&doc)
}

/// Encodes a work unit as a compact single-line JSON string.
pub fn encode_unit(unit: &WorkUnit) -> String {
    unit_to_json(unit).to_string()
}

/// Parses and decodes a work unit.
///
/// # Errors
///
/// Returns [`WireError::Parse`] on malformed JSON, otherwise see
/// [`unit_from_json`].
pub fn decode_unit(input: &str) -> Result<WorkUnit, WireError> {
    let doc = Json::parse(input).map_err(|err| WireError::Parse(err.to_string()))?;
    unit_from_json(&doc)
}

/// Encodes a unit result as a compact single-line JSON string.
///
/// # Errors
///
/// See [`points_to_json`].
pub fn encode_points(points: &[Option<SweepPoint>]) -> Result<String, WireError> {
    Ok(points_to_json(points)?.to_string())
}

/// Parses and decodes a unit result.
///
/// # Errors
///
/// Returns [`WireError::Parse`] on malformed JSON, otherwise see
/// [`points_from_json`].
pub fn decode_points(input: &str) -> Result<Vec<Option<SweepPoint>>, WireError> {
    let doc = Json::parse(input).map_err(|err| WireError::Parse(err.to_string()))?;
    points_from_json(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfa_alloc::cases::PaperCase;

    fn sample_grid() -> SweepGrid {
        let fleet = HeterogeneousPlatform::new(
            "1×VU9P + 1×KU115",
            vec![
                DeviceGroup::new(FpgaDevice::vu9p(), 1),
                DeviceGroup::new(FpgaDevice::ku115(), 1),
            ],
        );
        SweepGrid::builder()
            .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
            .fpga_counts([2])
            .platform(PlatformSpec::platform(fleet))
            .constraints([0.6, 0.75])
            .budget(ResourceBudget::new(
                ResourceVec::new(0.9, 0.9, 0.5, 0.7),
                0.8,
            ))
            .backend(SolverSpec::gpa(GpaOptions::fast()))
            .backend(SolverSpec::exact(ExactOptions::ii_only_with_budget(
                100, 2.5,
            )))
            .build()
            .unwrap()
    }

    #[test]
    fn grid_round_trips_exactly() {
        let grid = sample_grid();
        let encoded = encode_grid(&grid).unwrap();
        assert!(!encoded.contains('\n'), "frames must be single-line");
        let decoded = decode_grid(&encoded).unwrap();
        assert_eq!(decoded, grid);
        // Encoding is deterministic.
        assert_eq!(encode_grid(&decoded).unwrap(), encoded);
    }

    #[test]
    fn unit_and_points_round_trip_exactly() {
        let unit = WorkUnit {
            series: 3,
            start: 8,
            end: 16,
        };
        assert_eq!(decode_unit(&encode_unit(&unit)).unwrap(), unit);

        let points = vec![
            None,
            Some(SweepPoint {
                resource_constraint: 0.65,
                budget: ResourceBudget::new(ResourceVec::new(0.9, 0.9, 0.5, 0.7), 0.8),
                // 0.1 + 0.2 has a long binary expansion: exercises the
                // shortest-round-trip float path, not just tidy literals.
                initiation_interval_ms: 0.1 + 0.2,
                average_utilization: 0.517,
                spreading: 6.0,
                solve_seconds: 0.001234,
                relaxation_gap: 0.01875,
                bb_nodes: 23,
                barrier_iterations: 11,
                factorizations: 87,
                simplex_pivots: 42,
                dropped_cus: 2,
                moved_cus: 3,
                migration_cost: 0.1 + 0.7,
                warm_start: WarmStartReport {
                    ii_hint_used: true,
                    dual_hint_used: true,
                    incumbent_used: false,
                },
            }),
        ];
        let decoded = decode_points(&encode_points(&points).unwrap()).unwrap();
        assert_eq!(decoded, points);
    }

    #[test]
    fn points_from_before_the_effort_counters_still_decode() {
        // A frame recorded before barrier_iterations/factorizations/
        // simplex_pivots existed: the counters default to zero.
        let legacy = r#"[{"resource_constraint": 0.65,
            "budget": {"resources": {"lut": 0.65, "ff": 0.65, "bram": 0.65,
                                     "dsp": 0.65},
                       "bandwidth": 1},
            "initiation_interval_ms": 1.5, "average_utilization": 0.5,
            "spreading": 6, "solve_seconds": 0.01, "relaxation_gap": 0.02,
            "bb_nodes": 9, "dropped_cus": 0, "warm_start": "ii"}]"#;
        let decoded = decode_points(legacy).unwrap();
        let point = decoded[0].as_ref().unwrap();
        assert_eq!(point.bb_nodes, 9);
        assert_eq!(point.barrier_iterations, 0);
        assert_eq!(point.factorizations, 0);
        assert_eq!(point.simplex_pivots, 0);
        // The same frame predates the reallocation fields too: zero movement.
        assert_eq!(point.moved_cus, 0);
        assert_eq!(point.migration_cost, 0.0);
    }

    #[test]
    fn groups_from_before_reallocation_decode_with_neutral_scales() {
        let legacy = r#"{"name": "fleet",
            "groups": [{"device": {"name": "vu9p",
                                   "capacity": {"lut": 1182240, "ff": 2364480,
                                                "bram": 2160, "dsp": 6840},
                                   "dram_bandwidth_gbps": 76.8},
                        "count": 2}]}"#;
        let doc = Json::parse(legacy).unwrap();
        let platform = platform_from_json(&doc).unwrap();
        assert_eq!(platform.group(0).wcet_scale(), 1.0);
        assert_eq!(platform.group(0).budget_scale(), 1.0);
    }

    #[test]
    fn scaled_groups_round_trip_and_bad_scales_are_rejected() {
        let platform = HeterogeneousPlatform::new(
            "mixed fleet",
            vec![
                DeviceGroup::new(FpgaDevice::vu9p(), 1),
                DeviceGroup::new(FpgaDevice::ku115(), 2)
                    .with_wcet_scale(1.0 + 0.1 + 0.2)
                    .with_budget_scale(0.7 + 0.1),
            ],
        );
        let encoded = platform_to_json(&platform).unwrap().to_string();
        // Neutral groups stay off the wire; scaled groups ride it.
        assert!(!encoded.contains("\"budget_scale\":1"));
        assert!(encoded.contains("wcet_scale"));
        let decoded = platform_from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded.group(0).wcet_scale(), 1.0);
        assert_eq!(decoded.group(0).budget_scale(), 1.0);
        assert_eq!(
            decoded.group(1).wcet_scale().to_bits(),
            (1.0f64 + 0.1 + 0.2).to_bits()
        );
        assert_eq!(
            decoded.group(1).budget_scale().to_bits(),
            (0.7f64 + 0.1).to_bits()
        );

        let bad = r#"{"name": "fleet",
            "groups": [{"device": {"name": "vu9p",
                                   "capacity": {"lut": 1, "ff": 1,
                                                "bram": 1, "dsp": 1},
                                   "dram_bandwidth_gbps": 1},
                        "count": 1, "wcet_scale": 0.5}]}"#;
        assert!(matches!(
            platform_from_json(&Json::parse(bad).unwrap()),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn nan_is_rejected_on_encode() {
        let mut point = SweepPoint {
            resource_constraint: 0.65,
            budget: ResourceBudget::uniform(0.65),
            initiation_interval_ms: f64::NAN,
            average_utilization: 0.5,
            spreading: 6.0,
            solve_seconds: 0.0,
            relaxation_gap: 0.0,
            bb_nodes: 0,
            barrier_iterations: 0,
            factorizations: 0,
            simplex_pivots: 0,
            dropped_cus: 0,
            moved_cus: 0,
            migration_cost: 0.0,
            warm_start: WarmStartReport::default(),
        };
        assert!(matches!(
            point_to_json(&point),
            Err(WireError::NonFinite("initiation_interval_ms"))
        ));
        point.initiation_interval_ms = f64::INFINITY;
        assert!(point_to_json(&point).is_err());
    }

    #[test]
    fn malformed_frames_error_instead_of_panicking() {
        assert!(matches!(decode_grid("{nope"), Err(WireError::Parse(_))));
        assert!(matches!(decode_grid("42"), Err(WireError::Schema(_))));
        assert!(matches!(
            decode_grid(r#"{"cases":[],"platforms":[],"budgets":[],"backends":[]}"#),
            Err(WireError::Invalid(_))
        ));
        assert!(matches!(
            decode_unit(r#"{"series":0,"start":5,"end":5}"#),
            Err(WireError::Invalid(_))
        ));
        assert!(matches!(
            decode_unit(r#"{"series":0,"start":-1,"end":5}"#),
            Err(WireError::Schema(_))
        ));
        // Unknown variant tags.
        let mut grid_doc = grid_to_json(&sample_grid()).unwrap();
        if let Json::Obj(pairs) = &mut grid_doc {
            for (key, value) in pairs.iter_mut() {
                if key == "backends" {
                    *value = Json::Arr(vec![Json::obj(vec![
                        ("kind", Json::str("quantum")),
                        ("label", Json::str("Q")),
                    ])]);
                }
            }
        }
        assert!(matches!(
            grid_from_json(&grid_doc),
            Err(WireError::Schema(_))
        ));
        // Out-of-range budget fraction.
        assert!(matches!(
            budget_from_json(&Json::obj(vec![
                (
                    "resources",
                    Json::obj(vec![
                        ("lut", Json::Num(0.5)),
                        ("ff", Json::Num(0.5)),
                        ("bram", Json::Num(1.5)),
                        ("dsp", Json::Num(0.5)),
                    ])
                ),
                ("bandwidth", Json::Num(0.9)),
            ])),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn errors_display_their_context() {
        assert!(WireError::Parse("x".into()).to_string().contains("JSON"));
        assert!(WireError::Schema("missing field 'kind'".into())
            .to_string()
            .contains("kind"));
        assert!(WireError::NonFinite("spreading")
            .to_string()
            .contains("spreading"));
    }
}
