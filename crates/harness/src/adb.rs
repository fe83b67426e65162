//! adb transport stand-in.
//!
//! The master "pushes all the necessary dependencies to the device through
//! adb and asserts the initial device state" (§3.3). Here the transport is
//! a shared in-memory device file system plus a device-state block, with
//! every operation gated on the USB data channel — when the YKUSH cuts
//! power (and with it data), adb must genuinely fail.

use crate::{HarnessError, Result};
use gaugenn_power::UsbSwitch;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Mutable device state the benchmark asserts before running (§3.3:
/// "WiFi and sensors are off, maximum screen timeout, etc").
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceState {
    /// WiFi radio.
    pub wifi_on: bool,
    /// Sensor hub active.
    pub sensors_on: bool,
    /// Screen held on (black background app).
    pub screen_on: bool,
    /// Screen timeout in seconds.
    pub screen_timeout_s: u32,
}

impl Default for DeviceState {
    fn default() -> Self {
        // A phone fresh off the shelf: everything on, short timeout.
        DeviceState {
            wifi_on: true,
            sensors_on: true,
            screen_on: true,
            screen_timeout_s: 30,
        }
    }
}

/// The shared device endpoint: file system + state + USB switch.
#[derive(Debug, Clone)]
pub struct DeviceEndpoint {
    inner: Arc<Mutex<EndpointInner>>,
}

#[derive(Debug)]
struct EndpointInner {
    /// Flash contents. Shared so the device reads a file in place instead
    /// of copying it out of the store.
    files: BTreeMap<String, Arc<Vec<u8>>>,
    state: DeviceState,
    usb: UsbSwitch,
    reboots: u32,
}

impl Default for DeviceEndpoint {
    fn default() -> Self {
        Self::new()
    }
}

impl DeviceEndpoint {
    /// A device plugged in over USB.
    pub fn new() -> Self {
        DeviceEndpoint {
            inner: Arc::new(Mutex::new(EndpointInner {
                files: BTreeMap::new(),
                state: DeviceState::default(),
                usb: UsbSwitch::new(),
                reboots: 0,
            })),
        }
    }

    /// The endpoint lock. A panic while holding it leaves plain data
    /// behind, so a poisoned lock is recovered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, EndpointInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current USB switch state.
    pub fn usb(&self) -> UsbSwitch {
        self.lock().usb
    }

    /// Cut USB power (and data).
    pub fn usb_power_off(&self) {
        self.lock().usb.power_off();
    }

    /// Restore USB power and data.
    pub fn usb_power_restore(&self) {
        self.lock().usb.power_restore();
    }

    /// Device-side file read (not gated: the on-device script reads its
    /// own storage). Returns a copy; see [`DeviceEndpoint::open_local`]
    /// for reading in place.
    pub fn read_local(&self, path: &str) -> Option<Vec<u8>> {
        self.open_local(path).map(|bytes| bytes.to_vec())
    }

    /// Device-side open: the stored bytes themselves, shared, not copied.
    pub fn open_local(&self, path: &str) -> Option<Arc<Vec<u8>>> {
        self.lock().files.get(path).cloned()
    }

    /// Device-side file write.
    pub fn write_local(&self, path: &str, bytes: Vec<u8>) {
        self.lock().files.insert(path.to_string(), Arc::new(bytes));
    }

    /// Hard-reboot the device: the watchdog's recovery action when an
    /// agent hangs. USB power comes back (the switch is master-side), the
    /// state block resets to factory defaults (WiFi on, short timeout —
    /// the master must re-assert the benchmark state), and flash contents
    /// survive, exactly like power-cycling a real phone.
    pub fn hard_reboot(&self) {
        let mut inner = self.lock();
        inner.usb.power_restore();
        inner.state = DeviceState::default();
        inner.reboots += 1;
    }

    /// How many times the device has been hard-rebooted.
    pub fn reboots(&self) -> u32 {
        self.lock().reboots
    }

    /// Device-side state snapshot.
    pub fn state(&self) -> DeviceState {
        self.lock().state.clone()
    }

    /// Device-side state mutation.
    pub fn set_state(&self, f: impl FnOnce(&mut DeviceState)) {
        f(&mut self.lock().state);
    }
}

/// The master-side adb connection to one device.
#[derive(Debug, Clone)]
pub struct Adb {
    endpoint: DeviceEndpoint,
}

impl Adb {
    /// Attach to a device endpoint.
    pub fn connect(endpoint: DeviceEndpoint) -> Adb {
        Adb { endpoint }
    }

    fn check_link(&self) -> Result<()> {
        if self.endpoint.usb().adb_reachable() {
            Ok(())
        } else {
            Err(HarnessError::AdbUnreachable)
        }
    }

    /// `adb push`.
    pub fn push(&self, path: &str, bytes: Vec<u8>) -> Result<()> {
        self.check_link()?;
        self.endpoint.write_local(path, bytes);
        Ok(())
    }

    /// `adb pull`.
    pub fn pull(&self, path: &str) -> Result<Vec<u8>> {
        self.check_link()?;
        self.endpoint
            .read_local(path)
            .ok_or_else(|| HarnessError::Device(format!("no such file: {path}")))
    }

    /// `adb shell rm`.
    pub fn rm(&self, path: &str) -> Result<()> {
        self.check_link()?;
        self.endpoint.lock().files.remove(path);
        Ok(())
    }

    /// Assert the §3.3 initial device state, fixing what it can: WiFi and
    /// sensors off, screen pinned on with a long timeout.
    pub fn assert_benchmark_state(&self) -> Result<()> {
        self.check_link()?;
        self.endpoint.set_state(|s| {
            s.wifi_on = false;
            s.sensors_on = false;
            s.screen_on = true;
            s.screen_timeout_s = 1800;
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pull_roundtrip() {
        let ep = DeviceEndpoint::new();
        let adb = Adb::connect(ep.clone());
        adb.push("/data/local/tmp/model.tflite", vec![1, 2, 3]).unwrap();
        assert_eq!(adb.pull("/data/local/tmp/model.tflite").unwrap(), vec![1, 2, 3]);
        adb.rm("/data/local/tmp/model.tflite").unwrap();
        assert!(adb.pull("/data/local/tmp/model.tflite").is_err());
    }

    #[test]
    fn adb_fails_when_usb_power_cut() {
        let ep = DeviceEndpoint::new();
        let adb = Adb::connect(ep.clone());
        adb.push("/x", vec![0]).unwrap();
        ep.usb_power_off();
        assert!(matches!(adb.pull("/x"), Err(HarnessError::AdbUnreachable)));
        assert!(matches!(adb.push("/y", vec![]), Err(HarnessError::AdbUnreachable)));
        ep.usb_power_restore();
        assert!(adb.pull("/x").is_ok());
    }

    #[test]
    fn device_reads_its_own_storage_while_unpowered() {
        let ep = DeviceEndpoint::new();
        let adb = Adb::connect(ep.clone());
        adb.push("/job.cfg", b"job=1".to_vec()).unwrap();
        ep.usb_power_off();
        // The headless script keeps running from local storage.
        assert_eq!(ep.read_local("/job.cfg").unwrap(), b"job=1");
        ep.write_local("/result.txt", b"ok".to_vec());
    }

    #[test]
    fn state_assertions_fix_the_device() {
        let ep = DeviceEndpoint::new();
        assert!(ep.state().wifi_on, "factory state has wifi on");
        let adb = Adb::connect(ep.clone());
        adb.assert_benchmark_state().unwrap();
        let s = ep.state();
        assert!(!s.wifi_on && !s.sensors_on && s.screen_on);
        assert!(s.screen_timeout_s >= 600);
    }
}
