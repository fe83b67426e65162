//! # gaugenn-harness — master–slave on-device benchmark harness
//!
//! Reproduces the gaugeNN benchmarking platform of §3.3 (Figs. 2 and 3):
//! a master orchestrates phones connected over USB, pushes models and a
//! headless benchmark script via adb, cuts USB power through a
//! programmable switch so charging cannot pollute the Monsoon capture,
//! waits for the device's netcat-style completion message, then
//! restores power and collects results.
//!
//! The "devices" here are simulated agents wrapping the `gaugenn-soc`
//! performance model and `gaugenn-power` energy substrate, living in the
//! master's process: the master calls the agent in place once the power
//! is cut, and the agent returns the completion line a phone would send.
//! The rest of the orchestration is kept whole: adb-style push/pull gated
//! on the USB data channel, the power cut the agent checks before it
//! measures, a watchdog on the master's [`Clock`], and text-framed
//! job/result files.
//!
//! * [`job`] — job specs and result files (text-framed, adb-pullable).
//! * [`adb`] — the adb transport and on-device file system stand-in.
//! * [`clock`] — the injectable time source the watchdog deadlines run
//!   on (wall clock in production, logical clock in tests).
//! * [`device`] — the device agent: state assertions, warm-up runs, timed
//!   runs, the completion line.
//! * [`master`] — single-device orchestration (the Fig. 3 workflow).
//! * [`campaign`] — multi-device fan-out: one scoped worker thread per
//!   device, each walking the caller's job list in place.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adb;
pub mod campaign;
pub mod clock;
pub mod device;
pub mod job;
pub mod master;

pub use campaign::{
    run_campaign, run_campaign_with, Campaign, CampaignConfig, CampaignResult, DeviceScript,
};
pub use clock::{Clock, LogicalClock, WallClock};
pub use job::{JobSpec, JobResult};
pub use master::{Master, MasterConfig};

/// Errors from the harness.
#[derive(Debug)]
pub enum HarnessError {
    /// adb operation attempted without a data channel.
    AdbUnreachable,
    /// Device-side failure (model incompatible with backend, bad state…).
    Device(String),
    /// Job/result file framing problem.
    Format(String),
    /// The watchdog deadline expired before the device phoned home.
    Timeout(String),
}

impl HarnessError {
    /// Whether the same job may succeed on retry: watchdog timeouts and a
    /// dead adb link are transient (the device may recover after a
    /// power-cycle); device-side rejections and framing errors will fail
    /// identically every time.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            HarnessError::Timeout(_) | HarnessError::AdbUnreachable
        )
    }
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::AdbUnreachable => write!(f, "adb unreachable (usb data channel off)"),
            HarnessError::Device(r) => write!(f, "device error: {r}"),
            HarnessError::Format(r) => write!(f, "format error: {r}"),
            HarnessError::Timeout(r) => write!(f, "watchdog timeout: {r}"),
        }
    }
}

impl std::error::Error for HarnessError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, HarnessError>;
