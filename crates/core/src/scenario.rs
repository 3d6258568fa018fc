//! The Fig. 11 experiment: a transistor-level transient of the full
//! power-management module under downlink and uplink communication.

use analog::{Circuit, SimError, SourceFn, TranConfig, Waveform};
use comms::ask::AskModulator;
use comms::bits::BitStream;
use comms::lsk::LskModulator;
use pmu::demodulator::{DemodulatorCircuit, TwoPhaseClock};
use pmu::modulator::LoadModulator;
use pmu::rectifier::RectifierCircuit;
use pmu::V_O_MIN;

/// Configuration of the Fig. 11 run.
#[derive(Debug, Clone)]
pub struct Fig11Scenario {
    /// Rectifier/storage configuration.
    pub rectifier: RectifierCircuit,
    /// Demodulator configuration (clock is re-aligned to the burst).
    pub demodulator: DemodulatorCircuit,
    /// Idle carrier amplitude at the rectifier input, volts.
    pub idle_amplitude: f64,
    /// Effective source resistance of the matched link, ohms.
    pub r_source: f64,
    /// Equivalent sensor load on Vo, ohms (the LDO + 350 µA low-power
    /// sensor looks like ≈ 7.8 kΩ at 2.75 V).
    pub r_load: f64,
    /// Downlink bits (the paper sends eighteen).
    pub downlink_bits: BitStream,
    /// Downlink burst start, seconds.
    pub downlink_start: f64,
    /// Uplink bits.
    pub uplink_bits: BitStream,
    /// Uplink burst start, seconds.
    pub uplink_start: f64,
    /// Uplink bit rate (the Fig. 11 simulation uses 100 kbps).
    pub uplink_rate: f64,
    /// Simulation end, seconds.
    pub t_stop: f64,
    /// Transient step ceiling, seconds.
    pub max_step: f64,
}

impl Fig11Scenario {
    /// The paper's timeline: charge from t = 0 (Co reaches 2.75 V around
    /// 270 µs), 18 downlink bits at 100 kbps from 300 µs, uplink burst at
    /// 100 kbps from 520 µs, end at 700 µs.
    pub fn paper() -> Self {
        Fig11Scenario {
            rectifier: RectifierCircuit::ironic(),
            demodulator: DemodulatorCircuit::ironic(),
            idle_amplitude: 3.9,
            r_source: 125.0,
            r_load: 7.8e3,
            downlink_bits: BitStream::fig11_pattern(),
            downlink_start: 300.0e-6,
            uplink_bits: BitStream::from_str("1010110010"),
            uplink_start: 520.0e-6,
            uplink_rate: 100.0e3,
            t_stop: 700.0e-6,
            max_step: 10.0e-9,
        }
    }

    /// A shortened variant for unit tests: smaller Co, earlier bursts,
    /// 150 µs horizon — same physics, ~5× cheaper.
    pub fn shortened() -> Self {
        let mut s = Fig11Scenario::paper();
        s.rectifier.c_out = 30.0e-9;
        s.r_source = 40.0;
        s.downlink_bits = BitStream::from_str("1101");
        s.downlink_start = 60.0e-6;
        s.uplink_bits = BitStream::from_str("1010");
        s.uplink_start = 110.0e-6;
        s.t_stop = 160.0e-6;
        s
    }

    /// The ASK modulator implied by the scenario amplitudes (5/3/1 mW
    /// level structure scaled to the idle amplitude).
    pub fn ask_modulator(&self) -> AskModulator {
        AskModulator::ironic_downlink().scaled(self.idle_amplitude)
    }

    /// Builds the complete circuit.
    pub fn build(&self) -> Circuit {
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let vi = ckt.node("vi");
        let vdd = ckt.node("vdd");

        // Carrier with the ASK downlink burst in its envelope.
        let ask = self.ask_modulator();
        let carrier = ask.carrier_source(&self.downlink_bits, self.downlink_start);
        ckt.voltage_source("Vlink", src, Circuit::GND, carrier);
        ckt.resistor("Rsrc", src, vi, self.r_source);

        // LSK gate drives.
        let lsk = LoadModulator::with_timing(LskModulator {
            bit_rate: self.uplink_rate,
            logic_high: 1.8,
            edge_time: 50.0e-9,
        });
        let (m1, m2) = lsk.gates(&self.uplink_bits, self.uplink_start);

        // Rectifier + storage + load.
        let nodes = self.rectifier.build(&mut ckt, vi, m1, m2);
        ckt.resistor("Rload", nodes.vo, Circuit::GND, self.r_load);

        // Demodulator with its clock aligned mid-bit on the burst.
        let mut dem = self.demodulator.clone();
        dem.clock = TwoPhaseClock::ironic().delayed(self.downlink_start + 4.0e-6);
        // Logic supply (the LDO output in the real chip).
        ckt.voltage_source("Vdd", vdd, Circuit::GND, SourceFn::dc(1.8));
        dem.build(&mut ckt, vi, vdd);
        ckt
    }

    /// Runs the transient and evaluates the paper's claims.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run(&self) -> Result<Fig11Outcome, SimError> {
        let ckt = {
            let _build = obs::span!("fig11.build");
            self.build()
        };
        let sim = {
            let _compile = obs::span!("fig11.compile");
            ckt.compile()?
        };
        let cfg = TranConfig::builder(self.t_stop).max_step(self.max_step).build();
        let res = {
            let _transient = obs::span!("fig11.transient");
            sim.tran(&cfg)?
        };
        Ok(self.evaluate(&res))
    }

    /// Runs the transient on the uncompiled reference engine and
    /// evaluates the same claims. This is the validation baseline the
    /// bench layer compares the compiled engine against; experiment
    /// code should use [`Fig11Scenario::run`].
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run_reference(&self) -> Result<Fig11Outcome, SimError> {
        let ckt = self.build();
        let cfg = TranConfig::builder(self.t_stop).max_step(self.max_step).build();
        let res = ckt.transient_reference(&cfg)?;
        Ok(self.evaluate(&res))
    }

    /// Runs the compiled transient with per-phase profiling enabled and
    /// returns the outcome together with the engine statistics and the
    /// netlist-lowering time in nanoseconds.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run_profiled(
        &self,
    ) -> Result<(Fig11Outcome, analog::EngineStats, u64), SimError> {
        let ckt = self.build();
        let sim = ckt.compile()?;
        let cfg = TranConfig::builder(self.t_stop)
            .max_step(self.max_step)
            .profile(true)
            .build();
        let (res, stats) = sim.tran_with_stats(&cfg)?;
        Ok((self.evaluate(&res), stats, sim.compile_ns()))
    }

    /// Evaluates the paper's Fig. 11 claims on a finished transient.
    fn evaluate(&self, res: &analog::TransientResult) -> Fig11Outcome {
        let vo = res.trace("vo").expect("vo traced");
        let vi = res.trace("vi").expect("vi traced");
        let vdem = res.trace("vdem").expect("vdem traced");
        self.evaluate_traces(vo, vi, vdem)
    }

    /// Evaluates the paper's Fig. 11 claims on the three key traces,
    /// wherever they came from — the monolithic transient or the
    /// multi-rate co-simulation (whose `vi` is the carrier envelope,
    /// which the peak-based checks read the same way).
    pub(crate) fn evaluate_traces(
        &self,
        vo: Waveform,
        vi: Waveform,
        vdem: Waveform,
    ) -> Fig11Outcome {
        let _eval = obs::span!("fig11.eval");
        // Charge completion: first crossing of 2.75 V.
        let t_charged = vo.first_crossing_after(0.0, 2.75, analog::waveform::Edge::Rising);

        // Downlink detection: sample Vdem shortly after each ϕ1 rising
        // edge (one per bit, centred in the bit).
        let clock = TwoPhaseClock::ironic().delayed(self.downlink_start + 4.0e-6);
        let edges = clock.phi1_rising_edges(self.t_stop);
        let detected: BitStream = edges
            .iter()
            .take(self.downlink_bits.len())
            .map(|&e| vdem.value_at(e + 1.5e-6) > 0.9)
            .collect();

        // Uplink visibility: carrier envelope at vi during a shorted (0)
        // bit versus a connected (1) bit.
        let tb_up = 1.0 / self.uplink_rate;
        let bit_window = |idx: usize| {
            let t0 = self.uplink_start + idx as f64 * tb_up;
            (t0 + 0.3 * tb_up, t0 + 0.9 * tb_up)
        };
        let first_zero = self.uplink_bits.iter().position(|b| !b);
        let first_one = self.uplink_bits.iter().position(|b| b);
        let uplink_contrast = match (first_one, first_zero) {
            (Some(i1), Some(i0)) => {
                let (a0, b0) = bit_window(i0);
                let (a1, b1) = bit_window(i1);
                let env_zero = vi.max_in(a0, b0);
                let env_one = vi.max_in(a1, b1);
                env_one / env_zero.max(1e-9)
            }
            _ => 1.0,
        };

        Fig11Outcome {
            vo,
            vi,
            vdem,
            t_charged,
            downlink_sent: self.downlink_bits.clone(),
            downlink_detected: detected,
            uplink_contrast,
            compliance_from: self
                .downlink_start
                .min(t_charged.unwrap_or(self.downlink_start)),
            t_stop: self.t_stop,
        }
    }
}

impl Default for Fig11Scenario {
    fn default() -> Self {
        Fig11Scenario::paper()
    }
}

/// Results and compliance checks of a Fig. 11 run.
#[derive(Debug, Clone)]
pub struct Fig11Outcome {
    /// Rectifier output voltage.
    pub vo: Waveform,
    /// Rectifier input (carrier) voltage.
    pub vi: Waveform,
    /// Demodulator output.
    pub vdem: Waveform,
    /// Time at which Co first reached 2.75 V, if it did.
    pub t_charged: Option<f64>,
    /// The downlink bits that were sent.
    pub downlink_sent: BitStream,
    /// The downlink bits recovered from Vdem at the ϕ1 edges.
    pub downlink_detected: BitStream,
    /// Ratio of carrier envelope between a connected and a shorted
    /// uplink bit (≫ 1 when LSK is visible).
    pub uplink_contrast: f64,
    /// Start of the Vo-compliance window (once charged).
    pub compliance_from: f64,
    /// End of the simulation.
    pub t_stop: f64,
}

impl Fig11Outcome {
    /// True when every downlink bit was detected correctly.
    pub fn all_downlink_bits_detected(&self) -> bool {
        self.downlink_sent == self.downlink_detected
    }

    /// Number of downlink bit errors.
    pub fn downlink_errors(&self) -> usize {
        self.downlink_sent.hamming_distance(&self.downlink_detected)
    }

    /// Worst Vo after charging, volts.
    pub fn vo_worst(&self) -> f64 {
        self.vo.min_in(self.compliance_from, self.t_stop)
    }

    /// The paper's headline check: Vo never below 2.1 V once operating.
    pub fn vo_compliant(&self) -> bool {
        self.vo_worst() >= V_O_MIN
    }

    /// True when the LSK modulation is clearly visible on the carrier.
    pub fn uplink_visible(&self) -> bool {
        self.uplink_contrast > 1.5
    }
}
