//! A from-scratch SPICE-class analog circuit simulator.
//!
//! This crate is the simulation substrate for the reproduction of
//! *"Electronic Implants: Power Delivery and Management"* (Olivo et al.,
//! DATE 2013). The paper evaluates its power-management module with
//! transistor-level transient simulations; no circuit-simulation crate
//! exists offline, so this crate implements the necessary machinery:
//!
//! * a netlist builder ([`Circuit`]) with the device set needed by the
//!   paper's circuits: R, C, L, coupled inductors, independent and
//!   controlled sources, Shockley diodes, level-1 MOSFETs (with bulk
//!   terminal and optional junction diodes, needed for the triple-well
//!   bulk-biasing circuits of Fig. 8/9), and voltage-controlled switches;
//! * modified nodal analysis (MNA) with Newton–Raphson iteration,
//!   junction-voltage limiting and g<sub>min</sub> stepping;
//! * DC operating point, DC sweeps, adaptive-step transient analysis
//!   (backward Euler and trapezoidal companions) and small-signal AC;
//! * a [`Waveform`] type with the measurement helpers (crossings,
//!   windowed min/max/RMS, envelope extraction) the experiment harness
//!   uses to check the paper's claims.
//!
//! # Example
//!
//! Analyses follow a two-phase compile→simulate flow: [`Circuit::compile`]
//! lowers the netlist once into a sparse stamp program
//! ([`CompiledCircuit`]); the compiled circuit then runs any number of
//! analyses. Charging an RC from a 5 V step and checking the 1τ point:
//!
//! ```
//! use analog::{Circuit, SourceFn, TranConfig};
//!
//! # fn main() -> Result<(), analog::SimError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.voltage_source("V1", vin, Circuit::GND, SourceFn::dc(5.0));
//! ckt.resistor("R1", vin, out, 1.0e3);
//! // Start the capacitor empty (otherwise the DC operating point — the
//! // steady state — is used as the initial condition).
//! ckt.capacitor_with_ic("C1", out, Circuit::GND, 1.0e-6, 0.0);
//! let sim = ckt.compile()?;
//! let result = sim.tran(&TranConfig::builder(5e-3).max_step(1e-6).build())?;
//! let v = result.trace("out").expect("traced node").value_at(1e-3);
//! assert!((v - 5.0 * (1.0 - (-1.0f64).exp())).abs() < 0.02);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
pub mod complex;
pub mod compiled;
pub mod device;
pub mod error;
pub mod linalg;
pub mod netlist;
pub mod parse;
pub mod source;
pub mod sparse;
pub mod units;
pub mod waveform;

mod engine;

pub use analysis::{
    AcResult, AcSpec, DcSweepResult, Integration, OpPoint, TranConfig, TranConfigBuilder,
    TransientResult,
};
pub use compiled::{CompiledCircuit, EngineStats};
pub use complex::Complex;
pub use device::{DiodeModel, MosModel, MosPolarity, SwitchModel};
pub use error::SimError;
pub use netlist::{Circuit, DeviceId, NodeId};
pub use source::SourceFn;
pub use sparse::LuStats;
pub use waveform::Waveform;
