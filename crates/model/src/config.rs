//! User-defined platforms from JSON.
//!
//! A downstream user modelling their own cluster writes a JSON file in
//! human units (nanoseconds, MB/s, bytes) instead of constructing
//! [`NicModel`]s by hand:
//!
//! ```json
//! {
//!   "host": { "name": "epyc", "memcpy_mbs": 12000, "bus_mbs": 6000,
//!             "cores": 2 },
//!   "rails": [
//!     { "name": "cx5-eth", "latency_ns": 1300, "bandwidth_mbs": 3100,
//!       "pio_threshold": 4096, "rdv_threshold": 65536 },
//!     { "name": "cx5-ib",  "latency_ns": 900,  "bandwidth_mbs": 2900 }
//!   ]
//! }
//! ```
//!
//! Unspecified knobs fall back to paper-platform-like defaults, so a
//! two-line rail description is enough to start experimenting.

use serde::{de, ser, DeError, Deserialize, Serialize, Value};

use nmad_sim::SimDuration;

use crate::host::HostModel;
use crate::nic::NicModel;
use crate::platform::Platform;
use crate::{KIB, MB, MIB};

/// JSON description of one rail (human units).
#[derive(Clone, Debug)]
pub struct NicSpec {
    /// Rail name (figure legends, traces).
    pub name: String,
    /// One-way wire latency in nanoseconds.
    pub latency_ns: u64,
    /// Sustained link bandwidth in decimal MB/s.
    pub bandwidth_mbs: f64,
    /// PIO/DMA switch in bytes (default 8 KiB).
    pub pio_threshold: usize,
    /// Rendezvous threshold in bytes (default 32 KiB).
    pub rdv_threshold: usize,
    /// PIO injection rate in MB/s (default 75% of link bandwidth).
    pub pio_mbs: Option<f64>,
    /// Per-packet send-side software overhead in ns (default 400).
    pub tx_overhead_ns: u64,
    /// Per-packet receive-side software overhead in ns (default 600).
    pub rx_overhead_ns: u64,
    /// Poll cost in ns (default 100).
    pub poll_ns: u64,
}

impl Serialize for NicSpec {
    fn to_value(&self) -> Value {
        ser::object([
            ("name", ser::v(&self.name)),
            ("latency_ns", ser::v(&self.latency_ns)),
            ("bandwidth_mbs", ser::v(&self.bandwidth_mbs)),
            ("pio_threshold", ser::v(&self.pio_threshold)),
            ("rdv_threshold", ser::v(&self.rdv_threshold)),
            ("pio_mbs", ser::v(&self.pio_mbs)),
            ("tx_overhead_ns", ser::v(&self.tx_overhead_ns)),
            ("rx_overhead_ns", ser::v(&self.rx_overhead_ns)),
            ("poll_ns", ser::v(&self.poll_ns)),
        ])
    }
}

impl Deserialize for NicSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        de::require_object(v, "rail")?;
        Ok(NicSpec {
            name: de::field(v, "name")?,
            latency_ns: de::field(v, "latency_ns")?,
            bandwidth_mbs: de::field(v, "bandwidth_mbs")?,
            pio_threshold: de::field_or(v, "pio_threshold", default_pio_threshold)?,
            rdv_threshold: de::field_or(v, "rdv_threshold", default_rdv_threshold)?,
            pio_mbs: de::field_or(v, "pio_mbs", || None)?,
            tx_overhead_ns: de::field_or(v, "tx_overhead_ns", default_tx_overhead_ns)?,
            rx_overhead_ns: de::field_or(v, "rx_overhead_ns", default_rx_overhead_ns)?,
            poll_ns: de::field_or(v, "poll_ns", default_poll_ns)?,
        })
    }
}

fn default_pio_threshold() -> usize {
    8 * KIB
}
fn default_rdv_threshold() -> usize {
    32 * KIB
}
fn default_tx_overhead_ns() -> u64 {
    400
}
fn default_rx_overhead_ns() -> u64 {
    600
}
fn default_poll_ns() -> u64 {
    100
}

impl NicSpec {
    /// Materialize the rail model. The name is interned (leaked) — config
    /// loading happens a handful of times per process.
    pub fn build(&self) -> NicModel {
        let name: &'static str = Box::leak(self.name.clone().into_boxed_str());
        NicModel {
            name,
            wire_latency: SimDuration::from_ns(self.latency_ns),
            link_bandwidth: self.bandwidth_mbs * MB,
            pio_threshold: self.pio_threshold,
            pio_bandwidth: self.pio_mbs.unwrap_or(self.bandwidth_mbs * 0.75) * MB,
            pio_fixed: SimDuration::from_ns(250),
            dma_setup: SimDuration::from_ns(350),
            rdv_threshold: self.rdv_threshold,
            tx_overhead: SimDuration::from_ns(self.tx_overhead_ns),
            rx_overhead: SimDuration::from_ns(self.rx_overhead_ns),
            poll_cost: SimDuration::from_ns(self.poll_ns),
            mtu: 16 * MIB,
        }
    }
}

/// JSON description of the host (human units).
#[derive(Clone, Debug)]
pub struct HostSpec {
    /// Host name.
    pub name: String,
    /// Memcpy bandwidth in MB/s (default 6400).
    pub memcpy_mbs: f64,
    /// Effective I/O bus capacity in MB/s (default 1950).
    pub bus_mbs: f64,
    /// CPU cores available to the engine (default 1).
    pub cores: usize,
}

impl Serialize for HostSpec {
    fn to_value(&self) -> Value {
        ser::object([
            ("name", ser::v(&self.name)),
            ("memcpy_mbs", ser::v(&self.memcpy_mbs)),
            ("bus_mbs", ser::v(&self.bus_mbs)),
            ("cores", ser::v(&self.cores)),
        ])
    }
}

impl Deserialize for HostSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        de::require_object(v, "host")?;
        Ok(HostSpec {
            name: de::field_or(v, "name", default_host_name)?,
            memcpy_mbs: de::field_or(v, "memcpy_mbs", default_memcpy_mbs)?,
            bus_mbs: de::field_or(v, "bus_mbs", default_bus_mbs)?,
            cores: de::field_or(v, "cores", default_cores)?,
        })
    }
}

fn default_host_name() -> String {
    "custom-host".into()
}
fn default_memcpy_mbs() -> f64 {
    6400.0
}
fn default_bus_mbs() -> f64 {
    1950.0
}
fn default_cores() -> usize {
    1
}

impl Default for HostSpec {
    fn default() -> Self {
        HostSpec {
            name: default_host_name(),
            memcpy_mbs: default_memcpy_mbs(),
            bus_mbs: default_bus_mbs(),
            cores: default_cores(),
        }
    }
}

impl HostSpec {
    /// Materialize the host model.
    pub fn build(&self) -> HostModel {
        let name: &'static str = Box::leak(self.name.clone().into_boxed_str());
        HostModel {
            name,
            memcpy_bandwidth: self.memcpy_mbs * MB,
            memcpy_fixed: SimDuration::from_ns(40),
            bus_capacity: self.bus_mbs * MB,
            submit_cost: SimDuration::from_ns(30),
            sched_cost: SimDuration::from_ns(50),
            cores: self.cores,
        }
    }
}

/// JSON description of a whole platform.
#[derive(Clone, Debug)]
pub struct PlatformSpec {
    /// Host model (defaults mirror the paper's Opteron node).
    pub host: HostSpec,
    /// Rails in rail-id order (at least one).
    pub rails: Vec<NicSpec>,
}

impl Serialize for PlatformSpec {
    fn to_value(&self) -> Value {
        ser::object([("host", ser::v(&self.host)), ("rails", ser::v(&self.rails))])
    }
}

impl Deserialize for PlatformSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        de::require_object(v, "platform")?;
        Ok(PlatformSpec {
            host: de::field_or(v, "host", HostSpec::default)?,
            rails: de::field(v, "rails")?,
        })
    }
}

impl PlatformSpec {
    /// Parse from a JSON string.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("platform config: {e}"))
    }

    /// Materialize and validate the platform.
    pub fn build(&self) -> Platform {
        Platform::new(
            self.host.build(),
            self.rails.iter().map(NicSpec::build).collect(),
        )
    }
}

/// Load a platform from a JSON file.
pub fn load_platform(path: &std::path::Path) -> Result<Platform, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(PlatformSpec::from_json(&text)?.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"{
        "host": { "name": "epyc", "memcpy_mbs": 12000, "bus_mbs": 6000, "cores": 2 },
        "rails": [
            { "name": "cx5-eth", "latency_ns": 1300, "bandwidth_mbs": 3100,
              "pio_threshold": 4096, "rdv_threshold": 65536 },
            { "name": "cx5-ib", "latency_ns": 900, "bandwidth_mbs": 2900 }
        ]
    }"#;

    #[test]
    fn full_config_roundtrip() {
        let spec = PlatformSpec::from_json(EXAMPLE).unwrap();
        let p = spec.build();
        assert_eq!(p.rail_count(), 2);
        assert_eq!(p.host.name, "epyc");
        assert_eq!(p.host.cores, 2);
        assert_eq!(p.rails[0].name, "cx5-eth");
        assert!((p.rails[0].link_bandwidth - 3100.0 * MB).abs() < 1.0);
        assert_eq!(p.rails[0].pio_threshold, 4096);
        // Defaults fill in for the second rail.
        assert_eq!(p.rails[1].pio_threshold, 8 * KIB);
        assert_eq!(p.rails[1].rdv_threshold, 32 * KIB);
        assert!((p.rails[1].pio_bandwidth - 2900.0 * 0.75 * MB).abs() < 1.0);
    }

    #[test]
    fn minimal_config() {
        let spec = PlatformSpec::from_json(
            r#"{ "rails": [ { "name": "x", "latency_ns": 1000, "bandwidth_mbs": 500 } ] }"#,
        )
        .unwrap();
        let p = spec.build();
        assert_eq!(p.rail_count(), 1);
        assert_eq!(p.host.name, "custom-host");
        assert_eq!(p.host.cores, 1);
    }

    #[test]
    fn bad_json_reports_context() {
        let err = PlatformSpec::from_json("{").unwrap_err();
        assert!(err.contains("platform config"));
    }

    #[test]
    fn spec_serializes_back() {
        let spec = PlatformSpec::from_json(EXAMPLE).unwrap();
        let text = serde_json::to_string(&spec).unwrap();
        let again = PlatformSpec::from_json(&text).unwrap();
        assert_eq!(again.rails.len(), 2);
    }

    #[test]
    fn built_platform_runs_an_engine() {
        // End-to-end: a JSON-defined platform drives the real engine.
        let p = PlatformSpec::from_json(EXAMPLE).unwrap().build();
        p.host.validate();
        for r in &p.rails {
            r.validate();
        }
        let widest = p
            .rails
            .iter()
            .max_by(|a, b| a.link_bandwidth.total_cmp(&b.link_bandwidth));
        assert_eq!(widest.unwrap().name, "cx5-eth");
    }
}
