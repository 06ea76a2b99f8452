//! Host (node) model: CPU costs, memcpy engine, shared I/O bus.

use nmad_sim::SimDuration;

/// Model of one compute node of the testbed.
#[derive(Clone, Debug)]
pub struct HostModel {
    /// Human-readable name.
    pub name: &'static str,
    /// Sustained memory-copy bandwidth in bytes/second. The aggregation
    /// strategy copies segments into a contiguous staging buffer; the paper
    /// notes this overhead is "very low", which holds when memcpy is 2-3x
    /// the fastest link.
    pub memcpy_bandwidth: f64,
    /// Fixed CPU cost per copy operation (call + cache warmup).
    pub memcpy_fixed: SimDuration,
    /// Effective aggregate I/O bus capacity in bytes/second, shared by all
    /// concurrent DMA flows of this node. The paper quotes ~2 GB/s
    /// theoretical; the effective value is lower (protocol and arbitration
    /// overheads) and is what produces the 1675 MB/s two-rail plateau.
    pub bus_capacity: f64,
    /// CPU cost of one application-level submit (`send`) call: queueing the
    /// request in the collect layer. NewMadeleine keeps this low by design —
    /// request processing is disconnected from the API call (paper §2).
    pub submit_cost: SimDuration,
    /// CPU cost of one optimizing-scheduler invocation (strategy decision
    /// over the backlog).
    pub sched_cost: SimDuration,
    /// Number of CPU cores the communication engine may use. The paper's
    /// 2007 implementation was single-threaded (`1`) even though the nodes
    /// were dual-core; §4 announces a multi-threaded version processing
    /// "parallel PIO transfers on multiprocessor machines" — set `2` to
    /// simulate that future-work design point.
    pub cores: usize,
}

impl HostModel {
    /// CPU time to copy `bytes` between host buffers.
    pub fn memcpy_time(&self, bytes: usize) -> SimDuration {
        self.memcpy_fixed + SimDuration::for_bytes(bytes as u64, self.memcpy_bandwidth)
    }

    /// Validate internal consistency.
    pub fn validate(&self) {
        assert!(
            self.memcpy_bandwidth > 0.0,
            "{}: memcpy bandwidth",
            self.name
        );
        assert!(self.bus_capacity > 0.0, "{}: bus capacity", self.name);
        assert!(self.cores >= 1, "{}: need at least one core", self.name);
    }

    /// This host with a different core count (future-work experiments).
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }
}

#[cfg(test)]
mod tests {
    use crate::platform;

    #[test]
    fn memcpy_cost_is_low_relative_to_links() {
        let host = platform::opteron_node();
        let myri = platform::myri_10g();
        // Copying 8 KB must be much cheaper than sending it: the paper's
        // opportunistic aggregation relies on cheap copies.
        let copy = host.memcpy_time(8 * 1024).as_us_f64();
        let send = myri.analytic_pio_oneway(8 * 1024).as_us_f64();
        assert!(
            copy < send / 2.0,
            "memcpy ({copy} us) must be well below send cost ({send} us)"
        );
    }

    #[test]
    fn bus_sits_between_one_and_two_rails() {
        let host = platform::opteron_node();
        let myri = platform::myri_10g();
        let quad = platform::quadrics_qm500();
        // The bus must cap the two-rail sum (2050 MB/s) but exceed each
        // single rail, otherwise the multi-rail shape of Fig. 4/7 is lost.
        assert!(host.bus_capacity > myri.link_bandwidth);
        assert!(host.bus_capacity > quad.link_bandwidth);
        assert!(host.bus_capacity < myri.link_bandwidth + quad.link_bandwidth);
    }

    #[test]
    fn memcpy_time_monotonic() {
        let host = platform::opteron_node();
        assert!(host.memcpy_time(1024) < host.memcpy_time(64 * 1024));
        assert_eq!(host.memcpy_time(0), host.memcpy_fixed);
    }

    #[test]
    fn preset_validates() {
        platform::opteron_node().validate();
    }
}
