//! Platform presets calibrated to the paper's testbed.
//!
//! Calibration targets (paper §3.1–3.4):
//!
//! | Observable | Paper | Model |
//! |---|---|---|
//! | Myri-10G 4 B one-way latency | 2.8 µs | tx 600 + pio 400 + wire 1000 + rx 750 ns |
//! | Myri-10G 8 MB bandwidth | ~1200 MB/s | link 1202 MB/s minus overheads |
//! | Quadrics 4 B one-way latency | 1.7 µs | tx 300 + pio 250 + wire 550 + rx 550 ns |
//! | Quadrics 8 MB bandwidth | ~850 MB/s | link 851 MB/s minus overheads |
//! | PIO/DMA regime switch | 8 KB segments (Fig 4: gains above 16 KB total) | `pio_threshold` = 8 KiB |
//! | Aggregation copy cost | "very low" (§3.1) | memcpy 6.4 GB/s + 40 ns/op |
//! | Multi-rail loses below 16 KB | per-packet host costs dominate (§3.2) | overhead-heavy latency split above |
//! | Greedy 2-rail plateau | 1675 MB/s | equal split bound: 2 x min-rail = 1702 MB/s minus per-chunk costs |
//! | I/O bus | "theoretically ~2 GB/s", *not* the greedy bottleneck | effective 1950 MB/s |
//!
//! The bus figure deserves a note: the paper credits the bus for *allowing*
//! 1675 MB/s, and the greedy plateau is actually bound by the equal-split
//! rule (both rails carry the same bytes, so the slower rail paces the
//! transfer: 2 x 851 = 1702 MB/s). The bus only binds the *hetero-split*
//! strategy of Fig. 7, which would otherwise reach the 2053 MB/s rail sum.

use nmad_sim::SimDuration;

use crate::host::HostModel;
use crate::nic::NicModel;
use crate::{KIB, MB, MIB};

/// Index of a rail within a [`Platform`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RailId(pub usize);

impl std::fmt::Display for RailId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rail{}", self.0)
    }
}

/// A node configuration: one host and the set of rails connecting it to its
/// peer. Both ends of the paper's two-node testbed are identical.
#[derive(Clone, Debug)]
pub struct Platform {
    /// Host (CPU, memcpy, I/O bus) model.
    pub host: HostModel,
    /// NICs, in rail-id order.
    pub rails: Vec<NicModel>,
}

impl Platform {
    /// Build and validate a platform.
    pub fn new(host: HostModel, rails: Vec<NicModel>) -> Self {
        assert!(!rails.is_empty(), "a platform needs at least one rail");
        host.validate();
        for r in &rails {
            r.validate();
        }
        Platform { host, rails }
    }

    /// Number of rails.
    pub fn rail_count(&self) -> usize {
        self.rails.len()
    }

    /// NIC model of `rail`.
    pub fn rail(&self, rail: RailId) -> &NicModel {
        &self.rails[rail.0]
    }
}

/// The dual-core 1.8 GHz Opteron node of the paper (§3.1).
pub fn opteron_node() -> HostModel {
    HostModel {
        name: "opteron-1.8GHz",
        memcpy_bandwidth: 6400.0 * MB,
        memcpy_fixed: SimDuration::from_ns(40),
        bus_capacity: 1950.0 * MB,
        submit_cost: SimDuration::from_ns(30),
        sched_cost: SimDuration::from_ns(50),
        // The paper's library is single-threaded even on the dual-core
        // node; multi-core engines are the explicit future work of §4.
        cores: 1,
    }
}

/// Myri-10G with the MX 1.2.0 driver: 2.8 µs latency, ~1200 MB/s.
pub fn myri_10g() -> NicModel {
    NicModel {
        name: "myri-10g",
        wire_latency: SimDuration::from_ns(1000),
        link_bandwidth: 1202.0 * MB,
        pio_threshold: 8 * KIB,
        pio_bandwidth: 800.0 * MB,
        pio_fixed: SimDuration::from_ns(400),
        dma_setup: SimDuration::from_ns(400),
        rdv_threshold: 32 * KIB,
        tx_overhead: SimDuration::from_ns(600),
        rx_overhead: SimDuration::from_ns(750),
        poll_cost: SimDuration::from_ns(100),
        mtu: 16 * MIB,
    }
}

/// Quadrics QM500 with the Elan driver: 1.7 µs latency, ~850 MB/s.
pub fn quadrics_qm500() -> NicModel {
    NicModel {
        name: "quadrics-qm500",
        wire_latency: SimDuration::from_ns(550),
        link_bandwidth: 851.0 * MB,
        pio_threshold: 8 * KIB,
        pio_bandwidth: 900.0 * MB,
        pio_fixed: SimDuration::from_ns(250),
        dma_setup: SimDuration::from_ns(300),
        rdv_threshold: 32 * KIB,
        tx_overhead: SimDuration::from_ns(300),
        rx_overhead: SimDuration::from_ns(550),
        poll_cost: SimDuration::from_ns(100),
        mtu: 16 * MIB,
    }
}

/// Gigabit Ethernet over the socket API — the library's legacy fallback
/// driver (paper §2 lists TCP/IP support). Useful for 3-rail experiments.
pub fn gige() -> NicModel {
    NicModel {
        name: "gige-tcp",
        wire_latency: SimDuration::from_ns(25_000),
        link_bandwidth: 110.0 * MB,
        pio_threshold: 0, // sockets never PIO: the kernel copies, CPU-cheap here
        pio_bandwidth: 1000.0 * MB,
        pio_fixed: SimDuration::from_ns(2_000),
        dma_setup: SimDuration::from_ns(3_000),
        rdv_threshold: 64 * KIB,
        tx_overhead: SimDuration::from_ns(4_000),
        rx_overhead: SimDuration::from_ns(5_000),
        poll_cost: SimDuration::from_ns(400),
        mtu: 16 * MIB,
    }
}

/// Dolphin SCI via SiSCI (paper §2 lists a SiSCI driver): very low latency,
/// modest bandwidth.
pub fn sci_dolphin() -> NicModel {
    NicModel {
        name: "sci-dolphin",
        wire_latency: SimDuration::from_ns(500),
        link_bandwidth: 320.0 * MB,
        pio_threshold: 8 * KIB,
        pio_bandwidth: 700.0 * MB,
        pio_fixed: SimDuration::from_ns(150),
        dma_setup: SimDuration::from_ns(350),
        rdv_threshold: 32 * KIB,
        tx_overhead: SimDuration::from_ns(180),
        rx_overhead: SimDuration::from_ns(350),
        poll_cost: SimDuration::from_ns(100),
        mtu: 16 * MIB,
    }
}

/// Myrinet-2000 with the GM-2 driver (paper §2 lists a GM-2 driver; see
/// also the paper's reference 17, the two-port GM-2 evaluation).
pub fn myrinet_2000_gm() -> NicModel {
    NicModel {
        name: "myrinet2000-gm2",
        wire_latency: SimDuration::from_ns(2_600),
        link_bandwidth: 245.0 * MB,
        pio_threshold: 4 * KIB,
        pio_bandwidth: 350.0 * MB,
        pio_fixed: SimDuration::from_ns(500),
        dma_setup: SimDuration::from_ns(600),
        rdv_threshold: 32 * KIB,
        tx_overhead: SimDuration::from_ns(900),
        rx_overhead: SimDuration::from_ns(1_100),
        poll_cost: SimDuration::from_ns(150),
        mtu: 16 * MIB,
    }
}

/// A 4x SDR InfiniBand HCA of the era (the paper's introduction names
/// "the various Infiniband solutions" among the candidate rails).
pub fn infiniband_sdr4x() -> NicModel {
    NicModel {
        name: "infiniband-4xsdr",
        wire_latency: SimDuration::from_ns(1_900),
        link_bandwidth: 950.0 * MB,
        pio_threshold: 8 * KIB,
        pio_bandwidth: 700.0 * MB,
        pio_fixed: SimDuration::from_ns(350),
        dma_setup: SimDuration::from_ns(450),
        rdv_threshold: 32 * KIB,
        tx_overhead: SimDuration::from_ns(650),
        rx_overhead: SimDuration::from_ns(800),
        poll_cost: SimDuration::from_ns(120),
        mtu: 16 * MIB,
    }
}

/// The exact two-rail platform of the paper: rail 0 = Myri-10G,
/// rail 1 = Quadrics QM500, on an Opteron node.
pub fn paper_platform() -> Platform {
    Platform::new(opteron_node(), vec![myri_10g(), quadrics_qm500()])
}

/// A single-rail platform (used for the reference curves of Figs. 2–3 and
/// for the Fig. 6 "no second NIC to poll" baseline).
pub fn single_rail_platform(nic: NicModel) -> Platform {
    Platform::new(opteron_node(), vec![nic])
}

/// A three-rail heterogeneous platform (extension experiments).
pub fn three_rail_platform() -> Platform {
    Platform::new(
        opteron_node(),
        vec![myri_10g(), quadrics_qm500(), sci_dolphin()],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rail with the lowest minimal-message latency.
    fn lowest_latency(p: &Platform) -> &str {
        let fastest = p.rails.iter().min_by_key(|r| r.analytic_pio_oneway(0));
        fastest.unwrap().name
    }

    /// The rail with the highest link bandwidth.
    fn highest_bandwidth(p: &Platform) -> &str {
        let widest = p
            .rails
            .iter()
            .max_by(|a, b| a.link_bandwidth.total_cmp(&b.link_bandwidth));
        widest.unwrap().name
    }

    #[test]
    fn paper_platform_shape() {
        let p = paper_platform();
        assert_eq!(p.rail_count(), 2);
        assert_eq!(p.rail(RailId(0)).name, "myri-10g");
        assert_eq!(p.rail(RailId(1)).name, "quadrics-qm500");
    }

    #[test]
    fn quadrics_is_lowest_latency_myri_is_highest_bandwidth() {
        let p = paper_platform();
        assert_eq!(lowest_latency(&p), "quadrics-qm500");
        assert_eq!(highest_bandwidth(&p), "myri-10g");
    }

    #[test]
    fn greedy_plateau_bound_is_near_1675() {
        // Equal split of a large message over both rails is paced by the
        // slower rail: bandwidth bound = 2 x min(link). Paper measures 1675.
        let p = paper_platform();
        let min_link = p
            .rails
            .iter()
            .map(|r| r.link_bandwidth)
            .fold(f64::INFINITY, f64::min);
        let bound_mbs = 2.0 * min_link / MB;
        assert!((bound_mbs - 1702.0).abs() < 1.0);
        assert!(bound_mbs > 1675.0 && bound_mbs < 1750.0);
    }

    #[test]
    fn bus_binds_only_hetero_split() {
        let p = paper_platform();
        let sum = p.rails.iter().map(|r| r.link_bandwidth).sum::<f64>() / MB; // 2053
        let bus = p.host.bus_capacity / MB; // 1950
        assert!(bus < sum, "bus must cap the hetero-split rail sum");
        assert!(
            bus > 1702.0,
            "bus must NOT cap the greedy equal-split plateau"
        );
    }

    #[test]
    #[should_panic(expected = "at least one rail")]
    fn empty_platform_rejected() {
        Platform::new(opteron_node(), vec![]);
    }

    #[test]
    fn extra_presets_validate_and_rank_sanely() {
        let gm = myrinet_2000_gm();
        let ib = infiniband_sdr4x();
        gm.validate();
        ib.validate();
        // Era-accurate ordering: Myri-10G > IB 4x SDR > Quadrics > GM-2 in
        // bandwidth; Quadrics fastest in latency among these.
        assert!(myri_10g().link_bandwidth > ib.link_bandwidth);
        assert!(ib.link_bandwidth > quadrics_qm500().link_bandwidth);
        assert!(quadrics_qm500().link_bandwidth > gm.link_bandwidth);
        assert!(quadrics_qm500().analytic_pio_oneway(4) < ib.analytic_pio_oneway(4));
        // An IB + Myri-10G platform still picks sensible roles.
        let p = Platform::new(opteron_node(), vec![infiniband_sdr4x(), myri_10g()]);
        assert_eq!(highest_bandwidth(&p), "myri-10g");
    }

    #[test]
    fn three_rail_platform_validates() {
        let p = three_rail_platform();
        assert_eq!(p.rail_count(), 3);
        // SCI's full analytic path (180+150+500+350 = 1180 ns) undercuts
        // Quadrics (1650 ns), so SCI becomes the latency rail here.
        assert_eq!(lowest_latency(&p), "sci-dolphin");
        assert_eq!(highest_bandwidth(&p), "myri-10g");
    }
}
