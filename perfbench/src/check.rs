//! Correctness checks on every response the benchmark receives.

use crate::workload::Req;
use runtime::Json;
use server::proto::RequestBody;

/// Lowest rectifier output the paper's envelope allows, volts.
const VO_MIN: f64 = 2.1;
/// Downlink bits of the shortened Fig. 11 preset.
const FIG11_BITS: f64 = 4.0;

/// Checks one response document against its request; returns the
/// `result` object.
pub fn response<'a>(req: &Req, doc: &'a Json) -> Result<&'a Json, String> {
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let error = doc
            .get("error")
            .map_or_else(|| "no error object".to_string(), Json::to_string);
        return Err(format!("{} failed: {error}", req.endpoint));
    }
    let result = doc.get("result").ok_or("response without result")?;
    let num = |key: &str| result.get(key).and_then(Json::as_f64);
    let flag = |key: &str| result.get(key).and_then(Json::as_bool);
    let fail = |what: &str| {
        Err(format!(
            "{} {}: {what} in {result}",
            req.endpoint, req.params
        ))
    };
    match &req.body {
        RequestBody::Fig11(p) => {
            if flag("cosim") != Some(p.cosim) {
                return fail("wrong engine");
            }
            if flag("vo_compliant") != Some(true) {
                return fail("Vo not compliant");
            }
            if !num("vo_worst").is_some_and(|v| v >= VO_MIN) {
                return fail("vo_worst below 2.1 V");
            }
            if num("downlink_errors") != Some(0.0) || num("downlink_bits") != Some(FIG11_BITS) {
                return fail("downlink bits not all decoded");
            }
        }
        RequestBody::Cohort(p) => {
            let patients = result
                .get("report")
                .and_then(|r| r.get("patients"))
                .and_then(Json::as_u64);
            if patients != Some(p.patients) {
                return fail("patient count differs");
            }
            if result.get("digest").and_then(Json::as_str).is_none() {
                return fail("no digest");
            }
        }
        other => return fail(&format!("no check for endpoint {}", other.endpoint())),
    }
    Ok(result)
}
