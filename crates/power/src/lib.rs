//! # gaugenn-power — energy measurement substrate
//!
//! The paper measures energy with a Monsoon AAA10F power monitor cabled to
//! open-deck boards, a YKUSH USB switch to cut charge current during runs,
//! and a black-screen app to pin display power (§3.3). None of that
//! hardware exists here, so this crate substitutes:
//!
//! * [`monsoon`] — a sampling power monitor over an analytic power
//!   waveform, with deterministic measurement noise; energy is integrated
//!   from samples exactly as the real workflow integrates the Monsoon
//!   capture.
//! * [`usb`] — the USB power/data switch state machine; a measurement is
//!   only valid when the power channel is off (charging would corrupt it —
//!   the paper's stated reason for the switch board).
//! * [`battery`] — mAh bookkeeping for the Table 4 scenario analysis.
//! * [`energy`] — per-inference energy/power/efficiency reports combining
//!   the SoC latency model with engine power draw (Fig. 10), and sustained
//!   scenario runs that step the thermal model (Table 4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod battery;
pub mod energy;
pub mod monsoon;
pub mod usb;

pub use battery::Battery;
pub use energy::{measure_inference, measure_model, sustained_run, EnergyReport, SustainedReport};
pub use monsoon::{PowerMonitor, PowerTrace};
pub use usb::UsbSwitch;

/// Errors from the energy substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum PowerError {
    /// Measurement attempted while USB power was still connected.
    UsbPowerOn,
    /// Underlying SoC model error.
    Soc(String),
    /// Invalid measurement parameters.
    BadConfig(String),
}

impl std::fmt::Display for PowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PowerError::UsbPowerOn => {
                write!(f, "usb power channel is on; measurement would include charge current")
            }
            PowerError::Soc(e) => write!(f, "soc model error: {e}"),
            PowerError::BadConfig(r) => write!(f, "bad measurement config: {r}"),
        }
    }
}

impl std::error::Error for PowerError {}

impl From<gaugenn_soc::SocError> for PowerError {
    fn from(e: gaugenn_soc::SocError) -> Self {
        PowerError::Soc(e.to_string())
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, PowerError>;
