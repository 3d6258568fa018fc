//! Wire protocol: newline-delimited JSON requests and responses, with a
//! versioned, typed request model.
//!
//! One request per line, one response line per request, always in
//! order. The codec is the runtime's own [`Json`] — the server adds no
//! dependency and stays offline-buildable.
//!
//! Request grammar (all fields except `endpoint` optional):
//!
//! ```text
//! {"v": 2, "id": 7, "endpoint": "montecarlo", "deadline_ms": 500, "params": {…}}
//! ```
//!
//! `v` is the protocol version. [`VERSION`] is the current one,
//! advertised (with [`MIN_VERSION`]) by the `health` endpoint so
//! clients can negotiate; requests without `v` are treated as v1 — the
//! original stringly-typed wire shape, which remains accepted verbatim.
//!
//! Decoding happens in two layers. [`Request::decode_line`] parses the
//! *envelope* (id, endpoint, version, deadline, raw params).
//! [`RequestBody::decode`] then turns the raw params into a typed body:
//! a [`RequestBody`] variant carrying a per-endpoint struct
//! ([`Fig11Params`], [`FullchainParams`], [`MontecarloParams`],
//! [`SweepParams`], [`PatientdayParams`], [`CohortParams`]) whose
//! fields are validated — type, finiteness, range — before any
//! simulation starts. Every rejection is a [`DecodeError`] naming the
//! offending field, which the response carries as `error.field`.
//!
//! Responses echo `id` and carry either a `result` or a structured
//! `error`:
//!
//! ```text
//! {"id":7,"ok":true,"queue_us":12,"service_us":3401,"result":{…}}
//! {"id":7,"ok":false,"error":{"code":"bad_request","field":"steps","message":"…"}}
//! ```

use runtime::Json;

/// Current protocol version. Bump when the wire shape gains
/// capabilities; older versions stay accepted down to [`MIN_VERSION`].
pub const VERSION: u64 = 2;

/// Oldest protocol version still accepted (the v1 stringly-typed shape
/// decodes through the same typed path — `v` was simply absent).
pub const MIN_VERSION: u64 = 1;

/// The data-plane endpoints (the ones that go through the bounded
/// queue).
pub const DATA_ENDPOINTS: [&str; 6] =
    ["fig11", "fullchain", "montecarlo", "sweep", "patientday", "cohort"];

/// The control-plane endpoints, answered inline by the connection
/// thread even when the data plane is saturated.
pub const CONTROL_ENDPOINTS: [&str; 4] = ["health", "metrics", "metrics_v2", "shutdown"];

/// Machine-readable error classes. The string forms are the wire
/// contract (`error.code`) — clients dispatch on them, so they are
/// stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not a valid request object, or a parameter
    /// was missing, of the wrong type, or out of range.
    BadRequest,
    /// The `endpoint` names no route.
    UnknownEndpoint,
    /// The bounded request queue was full — explicit load shedding,
    /// never unbounded buffering. Back off and retry.
    Overloaded,
    /// The request's deadline expired before a worker picked it up (or
    /// the default deadline did).
    DeadlineExceeded,
    /// The server is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// The connection sat idle past the server's idle timeout and was
    /// closed. Sent as a final unsolicited line (id 0) so clients can
    /// tell an administrative close from a network failure.
    IdleTimeout,
    /// The handler failed (simulation error or isolated panic).
    Internal,
}

impl ErrorCode {
    /// The wire form of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownEndpoint => "unknown_endpoint",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::IdleTimeout => "idle_timeout",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A structured decode failure: the wire code, a human-readable
/// message, and — whenever one request field is to blame — that field's
/// name, carried on the wire as `error.field`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Error class for `error.code`.
    pub code: ErrorCode,
    /// The offending request/parameter field, when one is identifiable.
    pub field: Option<String>,
    /// Diagnostic for `error.message`.
    pub message: String,
}

impl DecodeError {
    /// A `bad_request` blaming `field`.
    pub fn bad(field: &str, message: impl Into<String>) -> Self {
        DecodeError {
            code: ErrorCode::BadRequest,
            field: Some(field.to_string()),
            message: message.into(),
        }
    }

    /// A `bad_request` with no single field to blame (malformed JSON,
    /// non-object document).
    pub fn malformed(message: impl Into<String>) -> Self {
        DecodeError { code: ErrorCode::BadRequest, field: None, message: message.into() }
    }
}

/// Caps the decoder enforces that are server configuration, not
/// protocol constants.
#[derive(Debug, Clone, Copy)]
pub struct DecodeLimits {
    /// Upper bound accepted for `montecarlo.trials`.
    pub mc_trial_cap: u64,
    /// Upper bound accepted for `cohort.patients` (per shard).
    pub cohort_patient_cap: u64,
    /// Upper bound on `cohort.patients × cohort.hours` — the actual
    /// cost of a cohort request is patient-hours, so the two fields are
    /// capped jointly, not just individually.
    pub cohort_patient_hours_cap: f64,
}

impl Default for DecodeLimits {
    fn default() -> Self {
        DecodeLimits {
            mc_trial_cap: 100_000,
            cohort_patient_cap: 5_000,
            cohort_patient_hours_cap: 48_000.0,
        }
    }
}

/// A parsed request envelope (protocol layer 1: framing and routing
/// fields; `params` stays raw until [`RequestBody::decode`]).
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response (0 when
    /// absent).
    pub id: u64,
    /// Route name.
    pub endpoint: String,
    /// Protocol version the client speaks (`None` = the v1 shape,
    /// which predates the field).
    pub version: Option<u64>,
    /// Per-request deadline override, milliseconds from receipt.
    pub deadline_ms: Option<u64>,
    /// Endpoint parameters (empty object when absent).
    pub params: Json,
}

impl Request {
    /// Parses one request envelope with structured errors.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] describing the first problem found: invalid
    /// JSON, a non-object document, a missing/mistyped field, or an
    /// unsupported `v`.
    pub fn decode_line(line: &str) -> Result<Request, DecodeError> {
        let doc = Json::parse(line)
            .ok_or_else(|| DecodeError::malformed("invalid JSON (or trailing garbage)"))?;
        if !matches!(doc, Json::Obj(_)) {
            return Err(DecodeError::malformed("request must be a JSON object"));
        }
        let endpoint = doc
            .get("endpoint")
            .ok_or_else(|| DecodeError::bad("endpoint", "missing \"endpoint\""))?
            .as_str()
            .ok_or_else(|| DecodeError::bad("endpoint", "\"endpoint\" must be a string"))?
            .to_string();
        let version = match doc.get("v") {
            None => None,
            Some(v) => {
                let v = v
                    .as_u64()
                    .ok_or_else(|| DecodeError::bad("v", "\"v\" must be a positive integer"))?;
                if !(MIN_VERSION..=VERSION).contains(&v) {
                    return Err(DecodeError::bad(
                        "v",
                        format!(
                            "unsupported protocol version {v} (supported {MIN_VERSION}..={VERSION})"
                        ),
                    ));
                }
                Some(v)
            }
        };
        let id = match doc.get("id") {
            None => 0,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| DecodeError::bad("id", "\"id\" must be a non-negative integer"))?,
        };
        let deadline_ms = match doc.get("deadline_ms") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                DecodeError::bad("deadline_ms", "\"deadline_ms\" must be a non-negative integer")
            })?),
        };
        let params = match doc.get("params") {
            None => Json::Obj(Vec::new()),
            Some(p @ Json::Obj(_)) => p.clone(),
            Some(_) => return Err(DecodeError::bad("params", "\"params\" must be an object")),
        };
        Ok(Request { id, endpoint, version, deadline_ms, params })
    }
}

// ---- typed per-endpoint parameters (protocol layer 2) -----------------

/// `fig11` preset selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fig11Preset {
    /// The shortened timeline (default — cheap enough to serve).
    #[default]
    Short,
    /// The paper's full 1.5 ms timeline.
    Paper,
}

/// Typed parameters of the `fig11` endpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fig11Params {
    /// Scenario preset the overrides below are applied to.
    pub preset: Fig11Preset,
    /// Idle carrier amplitude override, volts.
    pub idle_amplitude: Option<f64>,
    /// PA source resistance override, ohms.
    pub r_source: Option<f64>,
    /// Load resistance override, ohms.
    pub r_load: Option<f64>,
    /// Transient horizon override, microseconds.
    pub t_stop_us: Option<f64>,
    /// Maximum solver step override, nanoseconds.
    pub max_step_ns: Option<f64>,
    /// Serve through the partitioned multi-rate engine instead of the
    /// monolithic transient.
    pub cosim: bool,
}

impl Fig11Params {
    /// Decodes and validates from a raw `params` object.
    ///
    /// # Errors
    ///
    /// A field-naming [`DecodeError`] on any mistyped or out-of-range
    /// parameter.
    pub fn decode(params: &Json) -> Result<Self, DecodeError> {
        let preset = match opt_str(params, "preset")?.unwrap_or("short") {
            "short" => Fig11Preset::Short,
            "paper" => Fig11Preset::Paper,
            other => return Err(DecodeError::bad("preset", format!("unknown preset {other:?}"))),
        };
        Ok(Fig11Params {
            preset,
            idle_amplitude: opt_f64(params, "idle_amplitude", 0.5, 20.0)?,
            r_source: opt_f64(params, "r_source", 1.0, 10.0e3)?,
            r_load: opt_f64(params, "r_load", 10.0, 1.0e6)?,
            t_stop_us: opt_f64(params, "t_stop_us", 1.0, 2000.0)?,
            max_step_ns: opt_f64(params, "max_step_ns", 1.0, 1000.0)?,
            cosim: opt_bool(params, "cosim")?.unwrap_or(false),
        })
    }
}

/// Typed parameters of the `fullchain` endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct FullchainParams {
    /// Coil separation, millimetres.
    pub distance_mm: f64,
    /// Load resistance override, ohms.
    pub r_load: Option<f64>,
    /// Carrier cycles to simulate.
    pub cycles: u64,
    /// Serve through the partitioned multi-rate engine instead of the
    /// monolithic transient.
    pub cosim: bool,
}

impl FullchainParams {
    /// Decodes and validates from a raw `params` object.
    ///
    /// # Errors
    ///
    /// A field-naming [`DecodeError`] on any mistyped or out-of-range
    /// parameter.
    pub fn decode(params: &Json) -> Result<Self, DecodeError> {
        Ok(FullchainParams {
            distance_mm: opt_f64(params, "distance_mm", 1.0, 50.0)?.unwrap_or(10.0),
            r_load: opt_f64(params, "r_load", 10.0, 1.0e6)?,
            cycles: opt_u64(params, "cycles", 10, 2000)?.unwrap_or(120),
            cosim: opt_bool(params, "cosim")?.unwrap_or(false),
        })
    }
}

/// Typed parameters of the `montecarlo` endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct MontecarloParams {
    /// Mismatch scale applied to the typical variation model.
    pub scale: f64,
    /// Trial count (capped by [`DecodeLimits::mc_trial_cap`]).
    pub trials: u64,
    /// Study seed override.
    pub seed: Option<u64>,
}

impl MontecarloParams {
    /// Decodes and validates from a raw `params` object.
    ///
    /// # Errors
    ///
    /// A field-naming [`DecodeError`] on any mistyped or out-of-range
    /// parameter (including a `trials` beyond the server's cap).
    pub fn decode(params: &Json, limits: &DecodeLimits) -> Result<Self, DecodeError> {
        Ok(MontecarloParams {
            scale: opt_f64(params, "scale", 0.0, 16.0)?.unwrap_or(1.0),
            trials: opt_u64(params, "trials", 1, limits.mc_trial_cap)?.unwrap_or(1000),
            seed: opt_u64(params, "seed", 0, u64::MAX)?,
        })
    }
}

/// `sweep` propagation medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepMedium {
    /// Free-space coupling.
    #[default]
    Air,
    /// The sirloin tissue stack (the paper's in-vitro stand-in).
    Sirloin,
}

impl SweepMedium {
    /// The wire name (also the grid-axis value, so cache keys are
    /// stable across the typed-protocol migration).
    pub fn as_str(self) -> &'static str {
        match self {
            SweepMedium::Air => "air",
            SweepMedium::Sirloin => "sirloin",
        }
    }
}

/// Typed parameters of the `sweep` endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepParams {
    /// Smallest distance, millimetres.
    pub d_min_mm: f64,
    /// Largest distance, millimetres.
    pub d_max_mm: f64,
    /// Grid points between them (inclusive ends).
    pub steps: u64,
    /// Propagation medium.
    pub medium: SweepMedium,
}

impl SweepParams {
    /// Decodes and validates from a raw `params` object.
    ///
    /// # Errors
    ///
    /// A field-naming [`DecodeError`] on any mistyped or out-of-range
    /// parameter, or an inverted distance range.
    pub fn decode(params: &Json) -> Result<Self, DecodeError> {
        let d_min_mm = opt_f64(params, "d_min_mm", 0.5, 100.0)?.unwrap_or(2.0);
        let d_max_mm = opt_f64(params, "d_max_mm", 0.5, 100.0)?.unwrap_or(30.0);
        if d_max_mm < d_min_mm {
            return Err(DecodeError::bad(
                "d_max_mm",
                format!("d_max_mm {d_max_mm} < d_min_mm {d_min_mm}"),
            ));
        }
        let medium = match opt_str(params, "medium")?.unwrap_or("air") {
            "air" => SweepMedium::Air,
            "sirloin" => SweepMedium::Sirloin,
            other => {
                return Err(DecodeError::bad(
                    "medium",
                    format!("unknown medium {other:?} (air | sirloin)"),
                ))
            }
        };
        Ok(SweepParams {
            d_min_mm,
            d_max_mm,
            steps: opt_u64(params, "steps", 2, 64)?.unwrap_or(8),
            medium,
        })
    }
}

/// Typed parameters of the `patientday` endpoint: one seeded day on
/// the patch for a given battery, segment profile and coil placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PatientdayParams {
    /// Trace seed (defaulted to [`scenario::DEFAULT_SEED`]).
    pub seed: u64,
    /// Horizon, hours.
    pub hours: f64,
    /// Battery capacity, mAh.
    pub battery_mah: f64,
    /// Nominal coil separation, mm.
    pub depth_mm: f64,
    /// Drift-band half-width, mm.
    pub drift_mm: f64,
    /// Lateral misalignment, mm.
    pub lateral_mm: f64,
    /// Tissue between the coils.
    pub tissue: scenario::Tissue,
    /// Segment mix (the `pure` profile is test-only, not wire-reachable).
    pub profile: scenario::DayProfile,
}

impl PatientdayParams {
    /// Decodes and validates from a raw `params` object.
    ///
    /// # Errors
    ///
    /// A field-naming [`DecodeError`] on any mistyped or out-of-range
    /// parameter.
    pub fn decode(params: &Json) -> Result<Self, DecodeError> {
        let tissue = match opt_str(params, "tissue")?.unwrap_or("subcutaneous") {
            "air" => scenario::Tissue::Air,
            "sirloin" => scenario::Tissue::Sirloin,
            "subcutaneous" => scenario::Tissue::Subcutaneous,
            other => {
                return Err(DecodeError::bad(
                    "tissue",
                    format!("unknown tissue {other:?} (air | sirloin | subcutaneous)"),
                ))
            }
        };
        let profile = match opt_str(params, "profile")?.unwrap_or("routine") {
            "routine" => scenario::DayProfile::Routine,
            "sensing" => scenario::DayProfile::Sensing,
            "idle" => scenario::DayProfile::Idle,
            other => {
                return Err(DecodeError::bad(
                    "profile",
                    format!("unknown profile {other:?} (routine | sensing | idle)"),
                ))
            }
        };
        Ok(PatientdayParams {
            seed: opt_u64(params, "seed", 0, u64::MAX)?.unwrap_or(scenario::DEFAULT_SEED),
            hours: opt_f64(params, "hours", 0.5, 48.0)?.unwrap_or(24.0),
            battery_mah: opt_f64(params, "battery_mah", 10.0, 500.0)?.unwrap_or(120.0),
            depth_mm: opt_f64(params, "depth_mm", 1.0, 30.0)?.unwrap_or(6.0),
            drift_mm: opt_f64(params, "drift_mm", 0.0, 5.0)?.unwrap_or(2.0),
            lateral_mm: opt_f64(params, "lateral_mm", 0.0, 10.0)?.unwrap_or(1.0),
            tissue,
            profile,
        })
    }

    /// The simulation this request describes. Management is always on
    /// (the serving plane simulates the shipped firmware); the 30 s
    /// step matches the scenario crate's golden-band tests.
    pub fn to_day(&self) -> scenario::PatientDay {
        scenario::PatientDay {
            seed: self.seed,
            hours: self.hours,
            step_s: 30.0,
            battery_mah: self.battery_mah,
            profile: self.profile,
            anatomy: scenario::Anatomy {
                depth_mm: self.depth_mm,
                drift_mm: self.drift_mm,
                lateral_mm: self.lateral_mm,
                tissue: self.tissue,
            },
            low_power_soc: Some(0.05),
            duty_scale: 1.0,
        }
    }
}

/// Typed parameters of the `cohort` endpoint: one shard of a
/// virtual-patient campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortParams {
    /// Campaign seed (defaulted to [`scenario::DEFAULT_SEED`]).
    pub seed: u64,
    /// Patients in this shard.
    pub patients: u64,
    /// Global index of the shard's first patient.
    pub offset: u64,
    /// Day horizon, hours.
    pub hours: f64,
    /// Enzyme chemistry.
    pub enzyme: scenario::EnzymeChoice,
    /// Per-patient sensing duty-cycle range, `(min, max)` in (0, 1].
    pub duty: (f64, f64),
}

impl CohortParams {
    /// Decodes and validates from a raw `params` object.
    ///
    /// # Errors
    ///
    /// A field-naming [`DecodeError`] on any mistyped or out-of-range
    /// parameter, including the joint patient-hours cost cap.
    pub fn decode(params: &Json, limits: &DecodeLimits) -> Result<Self, DecodeError> {
        let enzyme_str = opt_str(params, "enzyme")?.unwrap_or("mixed");
        let enzyme = scenario::EnzymeChoice::parse(enzyme_str).ok_or_else(|| {
            DecodeError::bad(
                "enzyme",
                format!("unknown enzyme {enzyme_str:?} (clodx | wtlodx | mixed)"),
            )
        })?;
        let patients =
            opt_u64(params, "patients", 1, limits.cohort_patient_cap)?.unwrap_or(100);
        let hours = opt_f64(params, "hours", 0.5, 48.0)?.unwrap_or(24.0);
        let cost = patients as f64 * hours;
        if cost > limits.cohort_patient_hours_cap {
            return Err(DecodeError::bad(
                "patients",
                format!(
                    "patients × hours = {cost:.0} patient-hours exceeds the cap of {:.0}",
                    limits.cohort_patient_hours_cap
                ),
            ));
        }
        let duty_min = opt_f64(params, "duty_min", 0.01, 1.0)?.unwrap_or(1.0);
        let duty_max = opt_f64(params, "duty_max", 0.01, 1.0)?.unwrap_or(1.0);
        if duty_max < duty_min {
            return Err(DecodeError::bad(
                "duty_max",
                format!("duty_max {duty_max} < duty_min {duty_min}"),
            ));
        }
        Ok(CohortParams {
            seed: opt_u64(params, "seed", 0, u64::MAX)?.unwrap_or(scenario::DEFAULT_SEED),
            patients,
            offset: opt_u64(params, "offset", 0, 1_000_000_000)?.unwrap_or(0),
            hours,
            enzyme,
            duty: (duty_min, duty_max),
        })
    }

    /// The campaign shard this request describes.
    pub fn to_cohort(&self) -> scenario::Cohort {
        scenario::Cohort {
            seed: self.seed,
            patients: self.patients,
            offset: self.offset,
            hours: self.hours,
            enzyme: self.enzyme,
            duty: self.duty,
        }
    }
}

/// A fully decoded, typed request body: one variant per endpoint, with
/// validated parameters for the data plane. This is what enters the
/// bounded queue — workers never re-parse socket bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Liveness + protocol negotiation (control plane).
    Health,
    /// Per-endpoint serving metrics (control plane).
    Metrics,
    /// Prometheus-style stage exposition (control plane).
    MetricsV2,
    /// Begin graceful drain (control plane).
    Shutdown,
    /// One Fig. 11 transistor-level transient.
    Fig11(Fig11Params),
    /// The PA→coils→rectifier chain at one distance.
    Fullchain(FullchainParams),
    /// A Monte Carlo yield study.
    Montecarlo(MontecarloParams),
    /// Received power over a distance grid.
    Sweep(SweepParams),
    /// One seeded patient-day trace summary.
    Patientday(PatientdayParams),
    /// One shard of a virtual-patient cohort campaign.
    Cohort(CohortParams),
}

impl RequestBody {
    /// Decodes `params` for `endpoint` into a typed body.
    ///
    /// # Errors
    ///
    /// `unknown_endpoint` for an unrouted name, otherwise the
    /// parameter-level [`DecodeError`].
    pub fn decode(endpoint: &str, params: &Json, limits: &DecodeLimits) -> Result<Self, DecodeError> {
        match endpoint {
            "health" => Ok(RequestBody::Health),
            "metrics" => Ok(RequestBody::Metrics),
            "metrics_v2" => Ok(RequestBody::MetricsV2),
            "shutdown" => Ok(RequestBody::Shutdown),
            "fig11" => Fig11Params::decode(params).map(RequestBody::Fig11),
            "fullchain" => FullchainParams::decode(params).map(RequestBody::Fullchain),
            "montecarlo" => {
                MontecarloParams::decode(params, limits).map(RequestBody::Montecarlo)
            }
            "sweep" => SweepParams::decode(params).map(RequestBody::Sweep),
            "patientday" => PatientdayParams::decode(params).map(RequestBody::Patientday),
            "cohort" => CohortParams::decode(params, limits).map(RequestBody::Cohort),
            other => Err(DecodeError {
                code: ErrorCode::UnknownEndpoint,
                field: Some("endpoint".to_string()),
                message: format!(
                    "no endpoint {other:?} (data: {DATA_ENDPOINTS:?}; control: {CONTROL_ENDPOINTS:?})"
                ),
            }),
        }
    }

    /// The endpoint name this body answers to.
    pub fn endpoint(&self) -> &'static str {
        match self {
            RequestBody::Health => "health",
            RequestBody::Metrics => "metrics",
            RequestBody::MetricsV2 => "metrics_v2",
            RequestBody::Shutdown => "shutdown",
            RequestBody::Fig11(_) => "fig11",
            RequestBody::Fullchain(_) => "fullchain",
            RequestBody::Montecarlo(_) => "montecarlo",
            RequestBody::Sweep(_) => "sweep",
            RequestBody::Patientday(_) => "patientday",
            RequestBody::Cohort(_) => "cohort",
        }
    }

    /// The routing identity of a data-plane body: a cache namespace
    /// plus a canonical [`ParamPoint`], hashable with
    /// [`runtime::cache_key`] for shard placement. Control bodies have
    /// no routing identity (`None`) — a cluster answers them anywhere.
    ///
    /// For `montecarlo`, `sweep`, `patientday` and `cohort` the pair is
    /// *exactly* the server's result-cache identity (namespace
    /// `server-<endpoint>`, every default applied the same way the
    /// router applies it) — the router builds its batch point from this
    /// very method, so identical requests land on the replica that
    /// already holds the cached result and hit it warm. `fig11` and
    /// `fullchain` return their full request identity: deterministic
    /// placement, and repeated requests colocate with any per-point
    /// cache entries they populated.
    pub fn route_point(&self) -> Option<(&'static str, runtime::ParamPoint)> {
        use runtime::ParamPoint;
        match self {
            RequestBody::Health
            | RequestBody::Metrics
            | RequestBody::MetricsV2
            | RequestBody::Shutdown => None,
            RequestBody::Fig11(p) => {
                let preset = match p.preset {
                    Fig11Preset::Short => "short",
                    Fig11Preset::Paper => "paper",
                };
                let mut point = ParamPoint::new().with("preset", preset);
                if let Some(v) = p.idle_amplitude {
                    point = point.with("idle_amplitude", v);
                }
                if let Some(v) = p.r_source {
                    point = point.with("r_source", v);
                }
                if let Some(v) = p.r_load {
                    point = point.with("r_load", v);
                }
                if let Some(v) = p.t_stop_us {
                    point = point.with("t_stop_us", v);
                }
                if let Some(v) = p.max_step_ns {
                    point = point.with("max_step_ns", v);
                }
                // Engine choice is part of the request identity, but
                // only when it deviates from the default — existing
                // cache keys stay stable.
                if p.cosim {
                    point = point.with("cosim", 1u64);
                }
                Some(("server-fig11", point))
            }
            RequestBody::Fullchain(p) => {
                let mut point = ParamPoint::new()
                    .with("distance_mm", p.distance_mm)
                    .with("cycles", p.cycles);
                if let Some(v) = p.r_load {
                    point = point.with("r_load", v);
                }
                if p.cosim {
                    point = point.with("cosim", 1u64);
                }
                Some(("server-fullchain", point))
            }
            RequestBody::Montecarlo(p) => {
                let seed = p
                    .seed
                    .unwrap_or(implant_core::montecarlo::MonteCarloStudy::ironic().seed);
                Some((
                    "server-montecarlo",
                    ParamPoint::new()
                        .with("scale", p.scale)
                        .with("trials", p.trials)
                        .with("seed", seed),
                ))
            }
            RequestBody::Sweep(p) => Some((
                "server-sweep",
                ParamPoint::new()
                    .with("medium", p.medium.as_str())
                    .with("d_min_mm", p.d_min_mm)
                    .with("d_max_mm", p.d_max_mm)
                    .with("steps", p.steps),
            )),
            RequestBody::Patientday(p) => Some((
                "server-patientday",
                ParamPoint::new()
                    .with("seed", p.seed)
                    .with("hours", p.hours)
                    .with("profile", p.profile.as_str())
                    .with("battery_mah", p.battery_mah)
                    .with("depth_mm", p.depth_mm)
                    .with("drift_mm", p.drift_mm)
                    .with("lateral_mm", p.lateral_mm)
                    .with("tissue", p.tissue.as_str()),
            )),
            RequestBody::Cohort(p) => {
                let mut point = ParamPoint::new()
                    .with("seed", p.seed)
                    .with("patients", p.patients)
                    .with("offset", p.offset)
                    .with("hours", p.hours)
                    .with("enzyme", p.enzyme.as_str());
                // Only a non-nominal prescription enters the identity,
                // so every pre-duty cache key stays stable.
                if p.duty != (1.0, 1.0) {
                    point = point.with("duty_min", p.duty.0).with("duty_max", p.duty.1);
                }
                Some(("server-cohort", point))
            }
        }
    }

    /// True for control-plane bodies (answered inline, never queued).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            RequestBody::Health
                | RequestBody::Metrics
                | RequestBody::MetricsV2
                | RequestBody::Shutdown
        )
    }
}

/// A fully decoded request: envelope plus typed body. One-stop decoding
/// for clients and tests; the connection loop decodes in two stages so
/// it can account malformed lines and unknown endpoints separately.
#[derive(Debug, Clone)]
pub struct TypedRequest {
    /// Correlation id.
    pub id: u64,
    /// Protocol version (defaulted to [`MIN_VERSION`] when absent).
    pub version: u64,
    /// Deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
    /// The typed body.
    pub body: RequestBody,
}

impl TypedRequest {
    /// Decodes one line all the way to a typed body.
    ///
    /// # Errors
    ///
    /// The first [`DecodeError`] from either decoding layer.
    pub fn decode_line(line: &str, limits: &DecodeLimits) -> Result<TypedRequest, DecodeError> {
        let envelope = Request::decode_line(line)?;
        let body = RequestBody::decode(&envelope.endpoint, &envelope.params, limits)?;
        Ok(TypedRequest {
            id: envelope.id,
            version: envelope.version.unwrap_or(MIN_VERSION),
            deadline_ms: envelope.deadline_ms,
            body,
        })
    }
}

// ---- shared field validators ------------------------------------------

/// Optional float parameter with an inclusive validity range.
fn opt_f64(params: &Json, key: &str, min: f64, max: f64) -> Result<Option<f64>, DecodeError> {
    match params.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let v = v
                .as_f64()
                .ok_or_else(|| DecodeError::bad(key, format!("{key:?} must be a number")))?;
            if !v.is_finite() || v < min || v > max {
                return Err(DecodeError::bad(
                    key,
                    format!("{key:?} = {v} outside [{min}, {max}]"),
                ));
            }
            Ok(Some(v))
        }
    }
}

/// Optional boolean parameter.
fn opt_bool(params: &Json, key: &str) -> Result<Option<bool>, DecodeError> {
    match params.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| DecodeError::bad(key, format!("{key:?} must be a boolean"))),
    }
}

/// Optional unsigned-integer parameter with an inclusive validity range.
fn opt_u64(params: &Json, key: &str, min: u64, max: u64) -> Result<Option<u64>, DecodeError> {
    match params.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let v = v.as_u64().ok_or_else(|| {
                DecodeError::bad(key, format!("{key:?} must be a non-negative integer"))
            })?;
            if v < min || v > max {
                return Err(DecodeError::bad(
                    key,
                    format!("{key:?} = {v} outside [{min}, {max}]"),
                ));
            }
            Ok(Some(v))
        }
    }
}

/// Optional string parameter.
fn opt_str<'a>(params: &'a Json, key: &str) -> Result<Option<&'a str>, DecodeError> {
    match params.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| DecodeError::bad(key, format!("{key:?} must be a string"))),
    }
}

// ---- response encoding ------------------------------------------------

/// Encodes a success response line (without the trailing newline).
pub fn ok_response(id: u64, result: Json, queue_us: u64, service_us: u64) -> String {
    Json::obj(vec![
        ("id", Json::Num(id as f64)),
        ("ok", Json::Bool(true)),
        ("queue_us", Json::Num(queue_us as f64)),
        ("service_us", Json::Num(service_us as f64)),
        ("result", result),
    ])
    .to_string()
}

/// Encodes a success response line, first auditing `result` for
/// non-finite floats. The runtime codec would happily print `NaN` /
/// `Infinity` bare tokens — full-fidelity for cache artifacts, but
/// *invalid JSON* to a strict client — so a faulted simulation that
/// produces one degrades to a structured `internal` error naming the
/// offending path instead of corrupting the wire.
pub fn ok_response_checked(id: u64, result: Json, queue_us: u64, service_us: u64) -> String {
    match result.non_finite_path() {
        None => ok_response(id, result, queue_us, service_us),
        Some(path) => err_response(
            id,
            ErrorCode::Internal,
            &format!("result contains a non-finite number at {path}"),
        ),
    }
}

/// Encodes an error response line (without the trailing newline).
pub fn err_response(id: u64, code: ErrorCode, message: &str) -> String {
    err_response_fielded(id, code, message, None)
}

/// Encodes an error response line whose `error` object names the
/// offending request field (omitted when `field` is `None`, keeping v1
/// responses byte-compatible).
pub fn err_response_fielded(id: u64, code: ErrorCode, message: &str, field: Option<&str>) -> String {
    let mut error = vec![("code", Json::Str(code.as_str().to_string()))];
    if let Some(field) = field {
        error.push(("field", Json::Str(field.to_string())));
    }
    error.push(("message", Json::Str(message.to_string())));
    Json::obj(vec![
        ("id", Json::Num(id as f64)),
        ("ok", Json::Bool(false)),
        ("error", Json::obj(error)),
    ])
    .to_string()
}

/// Encodes the error response for a [`DecodeError`].
pub fn decode_err_response(id: u64, err: &DecodeError) -> String {
    err_response_fielded(id, err.code, &err.message, err.field.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_response_degrades_non_finite_results_to_structured_errors() {
        // Finite results pass through untouched.
        let fine = ok_response_checked(1, Json::obj(vec![("x", Json::Num(2.5))]), 3, 4);
        assert_eq!(fine, ok_response(1, Json::obj(vec![("x", Json::Num(2.5))]), 3, 4));

        // A NaN deep in the result becomes an `internal` error that is
        // itself valid, parseable JSON naming the offending path.
        let bad = Json::obj(vec![
            ("vo", Json::Num(2.4)),
            ("trace", Json::Arr(vec![Json::Num(1.0), Json::Num(f64::NAN)])),
        ]);
        let line = ok_response_checked(7, bad, 0, 0);
        let doc = Json::parse(&line).expect("the error line is valid JSON");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(7));
        let code = doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
        assert_eq!(code, Some("internal"));
        let msg = doc.get("error").and_then(|e| e.get("message")).and_then(Json::as_str);
        assert!(msg.unwrap().contains("trace[1]"), "{msg:?}");

        // ±Infinity (e.g. an efficiency with ~zero supply power) too.
        let inf = Json::obj(vec![("efficiency", Json::Num(f64::INFINITY))]);
        let line = ok_response_checked(8, inf, 0, 0);
        let doc = Json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert!(
            doc.get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap()
                .contains("efficiency"),
        );
    }

    #[test]
    fn full_request_parses() {
        let r = Request::decode_line(
            r#"{"id": 3, "endpoint": "sweep", "deadline_ms": 250, "params": {"steps": 4}}"#,
        )
        .unwrap();
        assert_eq!(r.id, 3);
        assert_eq!(r.endpoint, "sweep");
        assert_eq!(r.deadline_ms, Some(250));
        assert_eq!(r.version, None, "no v field = the v1 shape");
        assert_eq!(r.params.get("steps").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn minimal_request_defaults() {
        let r = Request::decode_line(r#"{"endpoint":"health"}"#).unwrap();
        assert_eq!(r.id, 0);
        assert_eq!(r.deadline_ms, None);
        assert!(matches!(r.params, Json::Obj(ref p) if p.is_empty()));
    }

    #[test]
    fn malformed_requests_reject_with_a_reason() {
        for (line, needle) in [
            ("", "invalid JSON"),
            ("{\"endpoint\":\"x\"} trailing", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            ("{}", "missing \"endpoint\""),
            (r#"{"endpoint": 5}"#, "\"endpoint\" must be a string"),
            (r#"{"endpoint":"x","id":-1}"#, "\"id\""),
            (r#"{"endpoint":"x","deadline_ms":1.5}"#, "\"deadline_ms\""),
            (r#"{"endpoint":"x","params":[1]}"#, "\"params\" must be an object"),
        ] {
            let err = Request::decode_line(line).unwrap_err().message;
            assert!(err.contains(needle), "{line:?}: {err}");
        }
    }

    #[test]
    fn responses_are_single_lines_and_round_trip() {
        let ok = ok_response(7, Json::obj(vec![("x", Json::Num(1.0))]), 12, 900);
        assert!(!ok.contains('\n'));
        let doc = Json::parse(&ok).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("result").and_then(|r| r.get("x")).and_then(Json::as_f64), Some(1.0));

        let err = err_response(9, ErrorCode::Overloaded, "queue full (cap 64)");
        let doc = Json::parse(&err).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        let code = doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
        assert_eq!(code, Some("overloaded"));
    }

    #[test]
    fn version_negotiation_accepts_supported_and_rejects_the_rest() {
        let r = Request::decode_line(r#"{"v":2,"endpoint":"health"}"#).unwrap();
        assert_eq!(r.version, Some(2));
        let r = Request::decode_line(r#"{"v":1,"endpoint":"health"}"#).unwrap();
        assert_eq!(r.version, Some(1));
        for bad in [r#"{"v":0,"endpoint":"health"}"#, r#"{"v":99,"endpoint":"health"}"#] {
            let err = Request::decode_line(bad).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest);
            assert_eq!(err.field.as_deref(), Some("v"), "{bad}");
            assert!(err.message.contains("unsupported protocol version"), "{}", err.message);
        }
        let err = Request::decode_line(r#"{"v":"two","endpoint":"health"}"#).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("v"));
    }

    #[test]
    fn typed_bodies_decode_with_defaults() {
        let limits = DecodeLimits::default();
        let t = TypedRequest::decode_line(r#"{"id":4,"endpoint":"sweep"}"#, &limits).unwrap();
        assert_eq!(t.version, MIN_VERSION);
        let RequestBody::Sweep(p) = &t.body else { panic!("expected sweep, got {:?}", t.body) };
        assert_eq!(
            *p,
            SweepParams { d_min_mm: 2.0, d_max_mm: 30.0, steps: 8, medium: SweepMedium::Air }
        );

        let t = TypedRequest::decode_line(
            r#"{"v":2,"endpoint":"montecarlo","params":{"trials":50,"seed":7}}"#,
            &limits,
        )
        .unwrap();
        let RequestBody::Montecarlo(p) = &t.body else { panic!("expected montecarlo") };
        assert_eq!(*p, MontecarloParams { scale: 1.0, trials: 50, seed: Some(7) });

        let t = TypedRequest::decode_line(r#"{"endpoint":"fullchain"}"#, &limits).unwrap();
        let RequestBody::Fullchain(p) = &t.body else { panic!("expected fullchain") };
        assert_eq!(
            *p,
            FullchainParams { distance_mm: 10.0, r_load: None, cycles: 120, cosim: false }
        );

        let t = TypedRequest::decode_line(
            r#"{"endpoint":"fig11","params":{"preset":"paper"}}"#,
            &limits,
        )
        .unwrap();
        let RequestBody::Fig11(p) = &t.body else { panic!("expected fig11") };
        assert_eq!(p.preset, Fig11Preset::Paper);
        assert_eq!(p.t_stop_us, None);

        let t = TypedRequest::decode_line(r#"{"endpoint":"patientday"}"#, &limits).unwrap();
        let RequestBody::Patientday(p) = &t.body else { panic!("expected patientday") };
        assert_eq!(
            *p,
            PatientdayParams {
                seed: scenario::DEFAULT_SEED,
                hours: 24.0,
                battery_mah: 120.0,
                depth_mm: 6.0,
                drift_mm: 2.0,
                lateral_mm: 1.0,
                tissue: scenario::Tissue::Subcutaneous,
                profile: scenario::DayProfile::Routine,
            }
        );

        let t = TypedRequest::decode_line(r#"{"endpoint":"cohort"}"#, &limits).unwrap();
        let RequestBody::Cohort(p) = &t.body else { panic!("expected cohort") };
        assert_eq!(
            *p,
            CohortParams {
                seed: scenario::DEFAULT_SEED,
                patients: 100,
                offset: 0,
                hours: 24.0,
                enzyme: scenario::EnzymeChoice::Mixed,
                duty: (1.0, 1.0),
            }
        );
    }

    #[test]
    fn cohort_duty_knob_decodes_and_extends_route_identity() {
        let limits = DecodeLimits::default();
        let t = TypedRequest::decode_line(
            r#"{"endpoint":"cohort","params":{"duty_min":0.2,"duty_max":0.6}}"#,
            &limits,
        )
        .unwrap();
        let RequestBody::Cohort(p) = &t.body else { panic!("expected cohort") };
        assert_eq!(p.duty, (0.2, 0.6));

        // A non-nominal prescription is part of the routing identity;
        // the nominal one keeps every pre-duty cache key unchanged.
        let base = TypedRequest::decode_line(r#"{"endpoint":"cohort"}"#, &limits).unwrap();
        let nominal = TypedRequest::decode_line(
            r#"{"endpoint":"cohort","params":{"duty_min":1.0,"duty_max":1.0}}"#,
            &limits,
        )
        .unwrap();
        let cycled = t.body.route_point().unwrap().1.canonical();
        assert_ne!(cycled, base.body.route_point().unwrap().1.canonical());
        assert_eq!(
            base.body.route_point().unwrap().1.canonical(),
            nominal.body.route_point().unwrap().1.canonical()
        );

        let err = TypedRequest::decode_line(
            r#"{"endpoint":"cohort","params":{"duty_min":0.8,"duty_max":0.2}}"#,
            &limits,
        )
        .unwrap_err();
        assert_eq!(err.field.as_deref(), Some("duty_max"));
    }

    #[test]
    fn decode_errors_name_the_offending_field() {
        let limits = DecodeLimits::default();
        for (endpoint, params, field) in [
            ("sweep", r#"{"steps":1}"#, "steps"),
            ("sweep", r#"{"medium":"vacuum"}"#, "medium"),
            ("sweep", r#"{"d_min_mm":20,"d_max_mm":2}"#, "d_max_mm"),
            ("montecarlo", r#"{"scale":"x"}"#, "scale"),
            ("montecarlo", r#"{"trials":0}"#, "trials"),
            ("fig11", r#"{"preset":"weird"}"#, "preset"),
            ("fig11", r#"{"max_step_ns":0.1}"#, "max_step_ns"),
            ("fullchain", r#"{"cycles":5000000}"#, "cycles"),
            ("fullchain", r#"{"distance_mm":-3}"#, "distance_mm"),
            ("patientday", r#"{"profile":"pure"}"#, "profile"),
            ("patientday", r#"{"tissue":"bone"}"#, "tissue"),
            ("patientday", r#"{"hours":0.1}"#, "hours"),
            ("patientday", r#"{"battery_mah":"big"}"#, "battery_mah"),
            ("cohort", r#"{"enzyme":"lox"}"#, "enzyme"),
            ("cohort", r#"{"patients":0}"#, "patients"),
            ("cohort", r#"{"hours":96}"#, "hours"),
        ] {
            let err = RequestBody::decode(endpoint, &Json::parse(params).unwrap(), &limits)
                .unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{endpoint} {params}");
            assert_eq!(err.field.as_deref(), Some(field), "{endpoint} {params}: {}", err.message);
            assert!(err.message.contains(field), "{endpoint} {params}: {}", err.message);
        }
        let err = RequestBody::decode("nope", &Json::Obj(Vec::new()), &limits).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownEndpoint);
        assert_eq!(err.field.as_deref(), Some("endpoint"));
    }

    #[test]
    fn trial_cap_is_a_decode_limit() {
        let params = Json::parse(r#"{"trials":5000}"#).unwrap();
        assert!(MontecarloParams::decode(&params, &DecodeLimits::default()).is_ok());
        let err = MontecarloParams::decode(
            &params,
            &DecodeLimits { mc_trial_cap: 1000, ..DecodeLimits::default() },
        )
        .unwrap_err();
        assert_eq!(err.field.as_deref(), Some("trials"));
    }

    #[test]
    fn cohort_caps_are_decode_limits() {
        // Per-field cap.
        let params = Json::parse(r#"{"patients":2000}"#).unwrap();
        assert!(CohortParams::decode(&params, &DecodeLimits::default()).is_ok());
        let tight = DecodeLimits { cohort_patient_cap: 100, ..DecodeLimits::default() };
        let err = CohortParams::decode(&params, &tight).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("patients"));
        // Joint patient-hours cap: both fields individually legal.
        let params = Json::parse(r#"{"patients":4000,"hours":24}"#).unwrap();
        let err = CohortParams::decode(&params, &DecodeLimits::default()).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("patients"));
        assert!(err.message.contains("patient-hours"), "{}", err.message);
    }

    #[test]
    fn fielded_error_responses_carry_the_field_and_plain_ones_do_not() {
        let line = decode_err_response(3, &DecodeError::bad("steps", "\"steps\" = 1 outside"));
        let doc = Json::parse(&line).unwrap();
        let error = doc.get("error").unwrap();
        assert_eq!(error.get("code").and_then(Json::as_str), Some("bad_request"));
        assert_eq!(error.get("field").and_then(Json::as_str), Some("steps"));

        let line = err_response(3, ErrorCode::Internal, "boom");
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("error").unwrap().get("field"), None, "no field key when unknown");
    }

    #[test]
    fn cosim_knob_decodes_and_extends_route_identity() {
        let limits = DecodeLimits::default();
        let on = TypedRequest::decode_line(
            r#"{"endpoint":"fig11","params":{"cosim":true}}"#,
            &limits,
        )
        .unwrap();
        let RequestBody::Fig11(p) = &on.body else { panic!("expected fig11") };
        assert!(p.cosim);
        // The engine choice is part of the request identity…
        let base = TypedRequest::decode_line(r#"{"endpoint":"fig11"}"#, &limits).unwrap();
        assert_ne!(on.body.route_point(), base.body.route_point());
        // …but only when it deviates from the default, so pre-existing
        // cache keys stay stable.
        let off = TypedRequest::decode_line(
            r#"{"endpoint":"fig11","params":{"cosim":false}}"#,
            &limits,
        )
        .unwrap();
        assert_eq!(off.body.route_point(), base.body.route_point());

        let on = TypedRequest::decode_line(
            r#"{"endpoint":"fullchain","params":{"cosim":true}}"#,
            &limits,
        )
        .unwrap();
        let RequestBody::Fullchain(p) = &on.body else { panic!("expected fullchain") };
        assert!(p.cosim);
        let base = TypedRequest::decode_line(r#"{"endpoint":"fullchain"}"#, &limits).unwrap();
        assert_ne!(on.body.route_point(), base.body.route_point());

        let err = TypedRequest::decode_line(
            r#"{"endpoint":"fullchain","params":{"cosim":1}}"#,
            &limits,
        )
        .unwrap_err();
        assert_eq!(err.field.as_deref(), Some("cosim"));
    }

    #[test]
    fn route_points_exist_exactly_for_the_data_plane() {
        let limits = DecodeLimits::default();
        for name in DATA_ENDPOINTS {
            let body = RequestBody::decode(name, &Json::Obj(Vec::new()), &limits).unwrap();
            let (ns, _) = body.route_point().expect("data bodies have a routing identity");
            assert_eq!(ns, format!("server-{name}"), "{name}");
        }
        for name in CONTROL_ENDPOINTS {
            let body = RequestBody::decode(name, &Json::Obj(Vec::new()), &limits).unwrap();
            assert!(body.route_point().is_none(), "{name} must not route by key");
        }
    }

    #[test]
    fn montecarlo_route_point_defaults_the_seed_like_the_router() {
        // An absent seed and the explicit default seed must colocate:
        // both resolve to the same cache identity the router uses.
        let default_seed = implant_core::montecarlo::MonteCarloStudy::ironic().seed;
        let absent = RequestBody::Montecarlo(MontecarloParams { scale: 1.0, trials: 50, seed: None });
        let explicit = RequestBody::Montecarlo(MontecarloParams {
            scale: 1.0,
            trials: 50,
            seed: Some(default_seed),
        });
        let (ns_a, pt_a) = absent.route_point().unwrap();
        let (ns_b, pt_b) = explicit.route_point().unwrap();
        assert_eq!(runtime::cache_key(ns_a, &pt_a), runtime::cache_key(ns_b, &pt_b));
        // And a different seed must not.
        let other = RequestBody::Montecarlo(MontecarloParams {
            scale: 1.0,
            trials: 50,
            seed: Some(default_seed ^ 1),
        });
        let (ns_c, pt_c) = other.route_point().unwrap();
        assert_ne!(runtime::cache_key(ns_a, &pt_a), runtime::cache_key(ns_c, &pt_c));
    }

    #[test]
    fn scenario_route_points_default_the_seed_like_the_router() {
        // Same colocation contract as montecarlo: an absent seed and the
        // explicit default seed are one cache identity for the new endpoints.
        let limits = DecodeLimits::default();
        for endpoint in ["patientday", "cohort"] {
            let absent =
                TypedRequest::decode_line(&format!(r#"{{"endpoint":"{endpoint}"}}"#), &limits)
                    .unwrap();
            let explicit = TypedRequest::decode_line(
                &format!(
                    r#"{{"endpoint":"{endpoint}","params":{{"seed":{}}}}}"#,
                    scenario::DEFAULT_SEED
                ),
                &limits,
            )
            .unwrap();
            let (ns_a, pt_a) = absent.body.route_point().unwrap();
            let (ns_b, pt_b) = explicit.body.route_point().unwrap();
            assert_eq!(
                runtime::cache_key(ns_a, &pt_a),
                runtime::cache_key(ns_b, &pt_b),
                "{endpoint}"
            );
            let other = TypedRequest::decode_line(
                &format!(
                    r#"{{"endpoint":"{endpoint}","params":{{"seed":{}}}}}"#,
                    scenario::DEFAULT_SEED ^ 1
                ),
                &limits,
            )
            .unwrap();
            let (ns_c, pt_c) = other.body.route_point().unwrap();
            assert_ne!(
                runtime::cache_key(ns_b, &pt_b),
                runtime::cache_key(ns_c, &pt_c),
                "{endpoint}"
            );
        }
    }

    #[test]
    fn route_points_are_canonical_request_identities() {
        let limits = DecodeLimits::default();
        let a = TypedRequest::decode_line(
            r#"{"v":2,"endpoint":"sweep","params":{"steps":4,"d_min_mm":2}}"#,
            &limits,
        )
        .unwrap();
        let b = TypedRequest::decode_line(
            r#"{"v":2,"id":99,"endpoint":"sweep","params":{"d_min_mm":2,"steps":4}}"#,
            &limits,
        )
        .unwrap();
        // Field order and envelope fields don't change the identity…
        assert_eq!(
            a.body.route_point().unwrap().1.canonical(),
            b.body.route_point().unwrap().1.canonical()
        );
        // …but any parameter does.
        let c = TypedRequest::decode_line(
            r#"{"v":2,"endpoint":"sweep","params":{"steps":5,"d_min_mm":2}}"#,
            &limits,
        )
        .unwrap();
        assert_ne!(
            a.body.route_point().unwrap().1.canonical(),
            c.body.route_point().unwrap().1.canonical()
        );
    }

    #[test]
    fn request_body_maps_back_to_its_endpoint_name() {
        let limits = DecodeLimits::default();
        for name in DATA_ENDPOINTS.iter().chain(CONTROL_ENDPOINTS.iter()) {
            let body = RequestBody::decode(name, &Json::Obj(Vec::new()), &limits).unwrap();
            assert_eq!(body.endpoint(), *name);
            assert_eq!(body.is_control(), CONTROL_ENDPOINTS.contains(name));
        }
    }
}
