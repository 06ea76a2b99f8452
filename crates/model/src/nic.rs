//! Per-rail NIC model.
//!
//! A [`NicModel`] captures everything the NewMadeleine engine can observe
//! about one network interface: how long an injection keeps the host CPU
//! (PIO) or only the NIC (DMA), the wire latency, the sustained link rate,
//! and the bookkeeping costs (per-packet overheads, polling).

use nmad_sim::SimDuration;

/// How a given payload is moved from host memory onto the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TxMode {
    /// Programmed I/O: the host CPU writes the payload to the NIC doorbell
    /// region. Cheap to start, but the CPU is monopolized for the entire
    /// injection, so concurrent PIO on two rails serializes (paper §3.2).
    Pio,
    /// Eager DMA: the CPU programs a descriptor and the NIC pulls the
    /// payload; the transfer overlaps with computation and with other rails,
    /// subject to the shared I/O bus.
    EagerDma,
    /// Rendezvous: a request/ack handshake precedes a (possibly zero-copy)
    /// DMA of the full payload; used above [`NicModel::rdv_threshold`].
    Rendezvous,
}

/// Model of one network interface card and its driver stack.
///
/// User-defined rails can be loaded from JSON through
/// [`crate::config::PlatformSpec`].
#[derive(Clone, Debug)]
pub struct NicModel {
    /// Human-readable rail name (shows up in traces and figure legends).
    pub name: &'static str,
    /// One-way hardware latency: NIC-to-NIC time for a minimal packet.
    pub wire_latency: SimDuration,
    /// Sustained DMA link bandwidth in bytes/second.
    pub link_bandwidth: f64,
    /// Payloads strictly below this use PIO; at or above, DMA.
    pub pio_threshold: usize,
    /// Host-CPU injection rate for PIO transfers, bytes/second.
    pub pio_bandwidth: f64,
    /// Fixed CPU cost to start a PIO injection (doorbell, header build).
    pub pio_fixed: SimDuration,
    /// CPU cost to build and ring a DMA descriptor.
    pub dma_setup: SimDuration,
    /// Payloads at or above this use the rendezvous protocol.
    pub rdv_threshold: usize,
    /// Per-packet host software overhead on the send side (driver entry,
    /// header construction) — paid on the CPU for every packet regardless
    /// of mode.
    pub tx_overhead: SimDuration,
    /// Per-packet host software overhead on the receive side (event
    /// demultiplex, header parse, completion bookkeeping).
    pub rx_overhead: SimDuration,
    /// Cost of polling this NIC once for activity. The engine must poll
    /// every enabled rail, which is exactly the small penalty the paper
    /// observes in Figure 6 when the Myri-10G NIC is present but unused.
    pub poll_cost: SimDuration,
    /// Largest single packet the driver accepts (larger payloads must be
    /// split by the strategy or the rendezvous track).
    pub mtu: usize,
}

impl NicModel {
    /// Transmission mode for a payload of `bytes`.
    pub fn tx_mode(&self, bytes: usize) -> TxMode {
        if bytes >= self.rdv_threshold {
            TxMode::Rendezvous
        } else if bytes >= self.pio_threshold {
            TxMode::EagerDma
        } else {
            TxMode::Pio
        }
    }

    /// CPU time consumed injecting `bytes` via PIO.
    pub fn pio_injection_time(&self, bytes: usize) -> SimDuration {
        self.pio_fixed + SimDuration::for_bytes(bytes as u64, self.pio_bandwidth)
    }

    /// Pure serialization time of `bytes` at the DMA link rate (no bus
    /// contention — the fluid bus model handles that).
    pub fn serialization_time(&self, bytes: usize) -> SimDuration {
        SimDuration::for_bytes(bytes as u64, self.link_bandwidth)
    }

    /// Analytic one-way time for an isolated eager (PIO) packet of `bytes`:
    /// send overhead + PIO injection + wire latency + receive overhead.
    /// Used by calibration tests and by the sampling module's seed tables.
    pub fn analytic_pio_oneway(&self, bytes: usize) -> SimDuration {
        self.tx_overhead + self.pio_injection_time(bytes) + self.wire_latency + self.rx_overhead
    }

    /// Analytic one-way time for an isolated DMA packet of `bytes`,
    /// assuming an uncontended bus.
    pub fn analytic_dma_oneway(&self, bytes: usize) -> SimDuration {
        self.tx_overhead
            + self.dma_setup
            + self.serialization_time(bytes)
            + self.wire_latency
            + self.rx_overhead
    }

    /// Analytic uncontended one-way time for `bytes`, picking the mode the
    /// driver would pick (rendezvous adds one extra control round trip).
    pub fn analytic_oneway(&self, bytes: usize) -> SimDuration {
        match self.tx_mode(bytes) {
            TxMode::Pio => self.analytic_pio_oneway(bytes),
            TxMode::EagerDma => self.analytic_dma_oneway(bytes),
            TxMode::Rendezvous => {
                // Request + ack are minimal PIO packets, then the bulk DMA.
                let handshake = self.analytic_pio_oneway(0) + self.analytic_pio_oneway(0);
                handshake + self.analytic_dma_oneway(bytes)
            }
        }
    }

    /// Effective bandwidth (MB/s, decimal) of an isolated `bytes`-sized
    /// transfer, from the analytic one-way time.
    pub fn analytic_bandwidth_mbs(&self, bytes: usize) -> f64 {
        let t = self.analytic_oneway(bytes).as_secs_f64();
        bytes as f64 / t / crate::MB
    }

    /// Validate internal consistency; call from platform constructors.
    pub fn validate(&self) {
        assert!(self.link_bandwidth > 0.0, "{}: link bandwidth", self.name);
        assert!(self.pio_bandwidth > 0.0, "{}: pio bandwidth", self.name);
        assert!(
            self.pio_threshold <= self.rdv_threshold,
            "{}: pio threshold {} must not exceed rdv threshold {}",
            self.name,
            self.pio_threshold,
            self.rdv_threshold
        );
        assert!(
            self.mtu >= self.rdv_threshold.max(1),
            "{}: mtu too small",
            self.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform;

    #[test]
    fn mode_thresholds() {
        let nic = platform::myri_10g();
        assert_eq!(nic.tx_mode(0), TxMode::Pio);
        assert_eq!(nic.tx_mode(nic.pio_threshold - 1), TxMode::Pio);
        assert_eq!(nic.tx_mode(nic.pio_threshold), TxMode::EagerDma);
        assert_eq!(nic.tx_mode(nic.rdv_threshold - 1), TxMode::EagerDma);
        assert_eq!(nic.tx_mode(nic.rdv_threshold), TxMode::Rendezvous);
    }

    #[test]
    fn pio_time_scales_with_bytes() {
        let nic = platform::myri_10g();
        let small = nic.pio_injection_time(64);
        let large = nic.pio_injection_time(4096);
        assert!(large > small);
        // Fixed part dominates tiny payloads.
        assert!(nic.pio_injection_time(0) == nic.pio_fixed);
    }

    #[test]
    fn analytic_latency_matches_paper_targets() {
        // Paper §3.1: Myri-10G 2.8 us, Quadrics 1.7 us for minimal messages.
        let myri = platform::myri_10g();
        let quad = platform::quadrics_qm500();
        let t_myri = myri.analytic_pio_oneway(4).as_us_f64();
        let t_quad = quad.analytic_pio_oneway(4).as_us_f64();
        assert!(
            (t_myri - 2.8).abs() < 0.15,
            "Myri-10G 4B latency {t_myri} us != ~2.8 us"
        );
        assert!(
            (t_quad - 1.7).abs() < 0.15,
            "Quadrics 4B latency {t_quad} us != ~1.7 us"
        );
        // Quadrics must be the lower-latency rail (strategy §3.3 relies on it).
        assert!(t_quad < t_myri);
    }

    #[test]
    fn analytic_bandwidth_matches_paper_targets() {
        // Paper §3.1: ~1200 MB/s Myri-10G, ~850 MB/s Quadrics at 8 MB.
        let myri = platform::myri_10g();
        let quad = platform::quadrics_qm500();
        let bw_myri = myri.analytic_bandwidth_mbs(8 * crate::MIB);
        let bw_quad = quad.analytic_bandwidth_mbs(8 * crate::MIB);
        assert!(
            (bw_myri - 1200.0).abs() < 40.0,
            "Myri-10G 8MB bandwidth {bw_myri} MB/s != ~1200"
        );
        assert!(
            (bw_quad - 850.0).abs() < 30.0,
            "Quadrics 8MB bandwidth {bw_quad} MB/s != ~850"
        );
        assert!(bw_myri > bw_quad, "Myri must be the higher-bandwidth rail");
    }

    #[test]
    fn rendezvous_adds_handshake() {
        let nic = platform::myri_10g();
        let b = nic.rdv_threshold;
        let eager_like = nic.analytic_dma_oneway(b);
        let rdv = nic.analytic_oneway(b);
        assert!(rdv > eager_like, "rendezvous must cost a handshake");
    }

    #[test]
    fn presets_validate() {
        platform::myri_10g().validate();
        platform::quadrics_qm500().validate();
        platform::gige().validate();
        platform::sci_dolphin().validate();
    }
}
