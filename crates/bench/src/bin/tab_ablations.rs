//! Ablations A1–A5: the design rules the paper states, knocked out one
//! at a time (see DESIGN.md §4).
//!
//! * A1 — remove the clamping diodes → overvoltage at light load;
//! * A2 — keep M2 closed during uplink zeros → Co discharges through
//!   the clamp leakage;
//! * A3 — trapezoidal vs backward-Euler integration accuracy;
//! * A4 — ΣΔ modulator order 1 vs 2 → resolution collapse;
//! * A5 — LSK rate sweep against the tank settling time.
//!
//! Every variant is one job in a single `implant-runtime` batch — the
//! transient simulations behind A1–A3 dominate the wall time, so they
//! spread across the worker pool and their figures of merit are cached
//! per parameter point (set `IMPLANT_CACHE_DIR` to persist). The batch
//! summary's job-wall line shows latency-histogram percentiles
//! (p50/p95/p99), which makes that A1–A3 dominance legible at a glance.

use bench::{banner, verdict};
use analog::analysis::Integration;
use analog::{Circuit, SourceFn, TranConfig};
use biosensor::SigmaDeltaAdc;
use comms::bits::BitStream;
use comms::lsk::{reflected_current, LskDetector};
use implant_core::report::Table;
use pmu::rectifier::RectifierCircuit;
use runtime::{Batch, ParamPoint, Pool, ResultCache};

/// A1 — max Vo at light load with `n_clamps` clamp diodes (12 ≈ disabled).
fn a1_max_vo(n_clamps: usize) -> f64 {
    let cfg = RectifierCircuit {
        c_out: 2.0e-9,
        n_clamp_diodes: n_clamps,
        ..RectifierCircuit::ironic()
    };
    let (ckt, _) = cfg.bench(
        SourceFn::sine(8.0, 5.0e6),
        5.0,
        1.0e6,
        SourceFn::dc(0.0),
        SourceFn::dc(1.8),
    );
    let res = ckt
        .compile().unwrap().tran(&TranConfig::builder(10.0e-6).max_step(8.0e-9).build())
        .expect("a1 simulates");
    res.trace("vo").expect("vo").max()
}

/// A2 — Co droop over a 50 µs uplink zero with M2 open vs always closed.
fn a2_droop(m2_always_closed: bool) -> f64 {
    let cfg = RectifierCircuit {
        c_out: 20.0e-9,
        m2_always_closed,
        clamp_diode: analog::DiodeModel { is: 5.0e-8, n: 1.0 },
        ..RectifierCircuit::ironic()
    }
    .with_initial_voltage(2.6);
    let (ckt, _) = cfg.bench(
        SourceFn::sine(3.0, 5.0e6),
        5.0,
        1.0e6,
        SourceFn::dc(1.8), // input shorted throughout (long uplink zero)
        SourceFn::dc(0.0),
    );
    let res = ckt
        .compile().unwrap().tran(&TranConfig::builder(50.0e-6).max_step(10.0e-9).build())
        .expect("a2 simulates");
    let vo = res.trace("vo").expect("vo");
    vo.value_at(0.0) - vo.final_value()
}

/// A3 — worst RC charge error vs analytic at a deliberately coarse step.
fn a3_worst_error(method: Integration) -> f64 {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.voltage_source("V1", vin, Circuit::GND, SourceFn::dc(1.0));
    ckt.resistor("R1", vin, out, 1.0e3);
    ckt.capacitor_with_ic("C1", out, Circuit::GND, 1.0e-6, 0.0);
    let cfg = TranConfig::builder(3.0e-3)
        .max_step(100.0e-6)
        .method(method)
        .lte_control(false)
        .build();
    let res = ckt.compile().unwrap().tran(&cfg).expect("a3 simulates");
    let w = res.trace("out").expect("out");
    let mut worst: f64 = 0.0;
    for k in 1..=20 {
        let t = k as f64 * 1.5e-4;
        let exact = 1.0 - (-t / 1.0e-3f64).exp();
        worst = worst.max((w.value_at(t) - exact).abs());
    }
    worst
}

/// A4 — sine SNDR of the ΣΔ ADC at the given modulator order.
fn a4_sndr(order: usize) -> f64 {
    let adc = if order >= 2 {
        SigmaDeltaAdc::ironic()
    } else {
        SigmaDeltaAdc::ironic().first_order()
    };
    adc.sine_sndr_db(64)
}

/// A5 — LSK bit errors at `rate` against a slow (τ = 4 µs) tank.
fn a5_bit_errors(rate: f64) -> usize {
    let bits = BitStream::prbs9(256, 0x133);
    let tau = 4.0e-6;
    let det = LskDetector { bit_rate: rate, processing_time: 1e-9, sample_phase: 0.6, invert: false };
    let t_start = 20.0e-6;
    let t_stop = t_start + (bits.len() + 2) as f64 / rate;
    let shunt = reflected_current(&bits, rate, t_start, t_stop, 20.0e-3, 8.0e-3, tau, 600_000);
    let decoded = det.detect(&shunt, t_start, bits.len());
    decoded.hamming_distance(&bits)
}

const A5_RATES: [f64; 5] = [40.0e3, 66.6e3, 100.0e3, 200.0e3, 400.0e3];

fn main() {
    banner("A1–A5", "design-rule ablations");

    // One batch, one job per knocked-out variant; every job reduces to a
    // single f64 figure of merit so the results share one cache type.
    let mut builder = Batch::builder("ablations");
    for n_clamps in [4u64, 12] {
        builder = builder.point(ParamPoint::new().with("ablation", "a1").with("n_clamps", n_clamps));
    }
    for m2_closed in [0u64, 1] {
        builder =
            builder.point(ParamPoint::new().with("ablation", "a2").with("m2_closed", m2_closed));
    }
    for method in ["trapezoidal", "backward-euler"] {
        builder = builder.point(ParamPoint::new().with("ablation", "a3").with("method", method));
    }
    for order in [2u64, 1] {
        builder = builder.point(ParamPoint::new().with("ablation", "a4").with("order", order));
    }
    for rate in A5_RATES {
        builder = builder.point(ParamPoint::new().with("ablation", "a5").with("rate", rate));
    }
    let batch = builder.build();

    let cache = ResultCache::from_env("IMPLANT_CACHE_DIR");
    let run = Pool::auto().run_cached(&batch, &cache, |ctx| match ctx.point.str("ablation") {
        "a1" => a1_max_vo(ctx.point.u64("n_clamps") as usize),
        "a2" => a2_droop(ctx.point.u64("m2_closed") == 1),
        "a3" => a3_worst_error(match ctx.point.str("method") {
            "trapezoidal" => Integration::Trapezoidal,
            _ => Integration::BackwardEuler,
        }),
        "a4" => a4_sndr(ctx.point.u64("order") as usize),
        _ => a5_bit_errors(ctx.point.f64("rate")) as f64,
    });
    let fom = |i: usize| *run.value(i).expect("ablation job ok");

    let (vo_clamped, vo_unclamped) = (fom(0), fom(1));
    let mut t = Table::new("A1 — clamping diodes at light load, 8 V drive", &["variant", "max Vo"]);
    t.row_owned(vec!["4 clamp diodes (paper)".into(), format!("{vo_clamped:.2} V")]);
    t.row_owned(vec!["clamps disabled".into(), format!("{vo_unclamped:.2} V")]);
    println!("{t}");
    println!(
        "clamps prevent overvoltage: {}\n",
        verdict(vo_clamped < 3.8 && vo_unclamped > 4.5)
    );

    let (droop_open, droop_closed) = (fom(2), fom(3));
    let mut t = Table::new(
        "A2 — M2 state during a long uplink zero (50 µs, leaky clamps)",
        &["variant", "Co droop"],
    );
    t.row_owned(vec!["M2 opened (paper rule)".into(), format!("{:.1} mV", droop_open * 1e3)]);
    t.row_owned(vec!["M2 kept closed".into(), format!("{:.1} mV", droop_closed * 1e3)]);
    println!("{t}");
    println!(
        "the M2-open rule protects Co: {}\n",
        verdict(droop_closed > 4.0 * droop_open.max(1e-4))
    );

    let (err_trap, err_be) = (fom(4), fom(5));
    let mut t = Table::new(
        "A3 — integration method at a coarse 100 µs step (RC vs analytic)",
        &["method", "worst error"],
    );
    t.row_owned(vec!["trapezoidal".into(), format!("{:.2} mV", err_trap * 1e3)]);
    t.row_owned(vec!["backward Euler".into(), format!("{:.2} mV", err_be * 1e3)]);
    println!("{t}");
    println!("trapezoidal is the more accurate default: {}\n", verdict(err_trap < err_be));

    let (sndr2, sndr1) = (fom(6), fom(7));
    let mut t = Table::new(
        "A4 — ΣΔ order at OSR 256 (sine SNDR; 14 bits needs ≈ 86 dB)",
        &["order", "SNDR"],
    );
    t.row_owned(vec!["2 (paper)".into(), format!("{sndr2:.1} dB")]);
    t.row_owned(vec!["1".into(), format!("{sndr1:.1} dB")]);
    println!("{t}");
    println!(
        "second order is required for 14 bits: {}\n",
        verdict(sndr2 > sndr1 + 10.0 && sndr2 > 70.0)
    );

    let mut t = Table::new(
        "A5 — LSK rate vs tank settling (τ = 4 µs), 256 PRBS bits",
        &["rate", "bit errors"],
    );
    let results: Vec<(f64, usize)> =
        A5_RATES.iter().enumerate().map(|(i, &rate)| (rate, fom(8 + i) as usize)).collect();
    for &(rate, errors) in &results {
        t.row_owned(vec![format!("{:.1} kbps", rate / 1e3), errors.to_string()]);
    }
    println!("{t}");
    println!("{}", run.metrics);
    let ok_at_paper_rate = results.iter().any(|&(r, e)| (r - 66.6e3).abs() < 1.0 && e == 0);
    let fails_fast = results.last().map(|&(_, e)| e > 0).unwrap_or(false);
    println!(
        "error-free at the paper's 66.6 kbps, failing at 400 kbps: {}",
        verdict(ok_at_paper_rate && fails_fast)
    );
}
