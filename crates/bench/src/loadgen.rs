//! Deterministic traffic generation for the chaos soak (`nmad loadgen`,
//! `nmad soak`).
//!
//! Realistic overload comes from realistic arrival and size processes,
//! not uniform ones: message sizes in communication traces are heavy
//! tailed (many tiny control messages, a few huge bulk transfers) and
//! arrivals are bursty, not evenly spaced. This module provides the
//! three primitives the soak composes, all driven by a seeded
//! [`Xoshiro256StarStar`] so any run is replayable from its recorded
//! seed:
//!
//! * [`BoundedPareto`] — heavy-tailed message sizes with a hard cap (an
//!   unbounded Pareto would eventually draw a message bigger than the
//!   soak's whole byte budget);
//! * [`Arrivals`] — Poisson (exponential inter-arrivals) or a two-state
//!   Markov-modulated Poisson process (MMPP-2), the standard minimal
//!   model of bursty traffic: a quiet state and a burst state with
//!   different rates, switching at exponential sojourn times;
//! * [`TenantSpec`]/[`TrafficSpec`] — a multi-tenant channel mix:
//!   every tenant has its own channel, size distribution, arrival
//!   process, and loop mode (open = submit on schedule regardless of
//!   completions; closed = keep a window of requests outstanding).

use std::time::Duration;

use nmad_sim::Xoshiro256StarStar;
use serde::{ser, Serialize, Value};

/// Heavy-tailed size distribution: Pareto with shape `alpha`, truncated
/// to `[min, max]` by inverse-CDF sampling (not rejection, so one draw
/// consumes exactly one uniform and the stream stays replayable).
#[derive(Clone, Copy, Debug)]
pub struct BoundedPareto {
    /// Smallest sample (bytes).
    pub min: u64,
    /// Largest sample (bytes).
    pub max: u64,
    /// Tail index; smaller = heavier tail. Typical traffic fits 1.1–1.5.
    pub alpha: f64,
}

impl BoundedPareto {
    /// Construct, validating the parameters.
    pub fn new(min: u64, max: u64, alpha: f64) -> Self {
        assert!(min >= 1, "min must be positive");
        assert!(max >= min, "max must be >= min");
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        BoundedPareto { min, max, alpha }
    }

    /// One sample in `[min, max]`.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> u64 {
        if self.min == self.max {
            return self.min;
        }
        let u = rng.next_f64();
        let ratio = (self.min as f64 / self.max as f64).powf(self.alpha);
        // Inverse CDF of the truncated Pareto: F(x) = (1 - (m/x)^a) /
        // (1 - (m/M)^a) for x in [m, M].
        let x = self.min as f64 / (1.0 - u * (1.0 - ratio)).powf(1.0 / self.alpha);
        (x as u64).clamp(self.min, self.max)
    }
}

/// Arrival process of one tenant's open-loop schedule.
#[derive(Clone, Copy, Debug)]
pub enum Arrivals {
    /// Poisson arrivals: exponential inter-arrival times at `rate_hz`.
    Poisson {
        /// Mean arrivals per second.
        rate_hz: f64,
    },
    /// Two-state Markov-modulated Poisson process. The process spends
    /// exponentially distributed sojourns in a quiet state and a burst
    /// state, emitting Poisson arrivals at the state's rate.
    Mmpp2 {
        /// Arrival rate in the quiet state (per second).
        quiet_hz: f64,
        /// Arrival rate in the burst state (per second).
        burst_hz: f64,
        /// Mean sojourn in each state, seconds.
        mean_sojourn_s: f64,
    },
}

/// Stateful sampler for an [`Arrivals`] process.
#[derive(Clone, Debug)]
pub struct ArrivalSampler {
    model: Arrivals,
    /// MMPP state: true = burst. Unused for Poisson.
    burst: bool,
    /// Remaining sojourn in the current MMPP state, seconds.
    sojourn_left_s: f64,
}

impl ArrivalSampler {
    /// New sampler starting in the quiet state.
    pub fn new(model: Arrivals, rng: &mut Xoshiro256StarStar) -> Self {
        let sojourn = match model {
            Arrivals::Poisson { .. } => 0.0,
            Arrivals::Mmpp2 { mean_sojourn_s, .. } => rng.exponential(mean_sojourn_s),
        };
        ArrivalSampler {
            model,
            burst: false,
            sojourn_left_s: sojourn,
        }
    }

    /// Next inter-arrival gap.
    pub fn next_gap(&mut self, rng: &mut Xoshiro256StarStar) -> Duration {
        match self.model {
            Arrivals::Poisson { rate_hz } => {
                Duration::from_secs_f64(rng.exponential(1.0 / rate_hz))
            }
            Arrivals::Mmpp2 {
                quiet_hz,
                burst_hz,
                mean_sojourn_s,
            } => {
                let mut rate = if self.burst { burst_hz } else { quiet_hz };
                let mut gap = rng.exponential(1.0 / rate);
                let mut elapsed = 0.0f64;
                // Walk through state switches the gap spans: each switch
                // rescales the remaining wait from the old rate to the
                // new one (memorylessness makes this exact). `rate` must
                // track the current state or the rescale diverges.
                while gap > self.sojourn_left_s {
                    gap -= self.sojourn_left_s;
                    elapsed += self.sojourn_left_s;
                    self.burst = !self.burst;
                    self.sojourn_left_s = rng.exponential(mean_sojourn_s);
                    let new_rate = if self.burst { burst_hz } else { quiet_hz };
                    gap = gap * rate / new_rate;
                    rate = new_rate;
                }
                self.sojourn_left_s -= gap;
                Duration::from_secs_f64(elapsed + gap)
            }
        }
    }
}

/// How a tenant issues requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopMode {
    /// Submit on the arrival schedule regardless of completions — the
    /// generator that actually overloads a slow system.
    Open,
    /// Keep at most this many requests outstanding; a completion frees
    /// a slot. Self-clocking: backs off when the system slows down.
    Closed {
        /// Outstanding-request window.
        window: usize,
    },
}

/// One tenant of the traffic mix.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name ("bulk", "rpc", ...).
    pub name: &'static str,
    /// Message-size distribution.
    pub sizes: BoundedPareto,
    /// Arrival process (drives open-loop pacing; closed-loop tenants
    /// use it as think time between a completion and the next submit).
    pub arrivals: Arrivals,
    /// Open or closed loop.
    pub mode: LoopMode,
}

/// The full mix: every tenant gets its own logical channel (conn id =
/// tenant index) and an rng stream decorrelated from the others.
#[derive(Clone, Debug)]
pub struct TrafficSpec {
    /// Tenants, one channel each.
    pub tenants: Vec<TenantSpec>,
    /// Master seed; tenant `i` derives its own stream from it.
    pub seed: u64,
}

impl TrafficSpec {
    /// The soak's default three-tenant mix: a heavy-tailed bulk mover,
    /// a latency-sensitive closed-loop RPC tenant, and a bursty MMPP
    /// telemetry tenant.
    pub fn standard(seed: u64) -> Self {
        TrafficSpec {
            tenants: vec![
                TenantSpec {
                    name: "bulk",
                    sizes: BoundedPareto::new(4 << 10, 1 << 20, 1.2),
                    arrivals: Arrivals::Poisson { rate_hz: 40.0 },
                    mode: LoopMode::Closed { window: 4 },
                },
                TenantSpec {
                    name: "rpc",
                    sizes: BoundedPareto::new(64, 4 << 10, 1.5),
                    arrivals: Arrivals::Poisson { rate_hz: 400.0 },
                    mode: LoopMode::Closed { window: 8 },
                },
                TenantSpec {
                    name: "burst",
                    sizes: BoundedPareto::new(256, 64 << 10, 1.3),
                    arrivals: Arrivals::Mmpp2 {
                        quiet_hz: 20.0,
                        burst_hz: 600.0,
                        mean_sojourn_s: 0.5,
                    },
                    mode: LoopMode::Open,
                },
            ],
            seed,
        }
    }

    /// Rng stream for tenant `i`, decorrelated by a splitmix-style odd
    /// multiplier (the same idiom the transports use per rail).
    pub fn tenant_rng(&self, i: usize) -> Xoshiro256StarStar {
        Xoshiro256StarStar::new(self.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// A dry-run sample of one tenant's schedule: what `nmad loadgen`
/// prints and the determinism tests pin down.
#[derive(Clone, Debug)]
pub struct SchedulePreview {
    /// Tenant name.
    pub name: String,
    /// Loop mode rendered as text.
    pub mode: String,
    /// Events previewed.
    pub events: usize,
    /// Total bytes across the preview.
    pub total_bytes: u64,
    /// Mean message size, bytes.
    pub mean_size: f64,
    /// Largest sampled message.
    pub max_size: u64,
    /// Mean inter-arrival gap, microseconds.
    pub mean_gap_us: f64,
    /// Largest inter-arrival gap, microseconds.
    pub max_gap_us: f64,
}

impl Serialize for SchedulePreview {
    fn to_value(&self) -> Value {
        ser::object([
            ("name", ser::v(&self.name)),
            ("mode", ser::v(&self.mode)),
            ("events", ser::v(&self.events)),
            ("total_bytes", ser::v(&self.total_bytes)),
            ("mean_size", ser::v(&self.mean_size)),
            ("max_size", ser::v(&self.max_size)),
            ("mean_gap_us", ser::v(&self.mean_gap_us)),
            ("max_gap_us", ser::v(&self.max_gap_us)),
        ])
    }
}

/// Sample `events` (size, gap) pairs per tenant without running any
/// engine — the generator's output, summarized.
pub fn preview(spec: &TrafficSpec, events: usize) -> Vec<SchedulePreview> {
    spec.tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut rng = spec.tenant_rng(i);
            let mut arrivals = ArrivalSampler::new(t.arrivals, &mut rng);
            let mut total = 0u64;
            let mut max_size = 0u64;
            let mut gap_sum = 0.0f64;
            let mut gap_max = 0.0f64;
            for _ in 0..events {
                let size = t.sizes.sample(&mut rng);
                total += size;
                max_size = max_size.max(size);
                let gap = arrivals.next_gap(&mut rng).as_secs_f64() * 1e6;
                gap_sum += gap;
                gap_max = gap_max.max(gap);
            }
            SchedulePreview {
                name: t.name.to_string(),
                mode: match t.mode {
                    LoopMode::Open => "open".to_string(),
                    LoopMode::Closed { window } => format!("closed/{window}"),
                },
                events,
                total_bytes: total,
                mean_size: total as f64 / events.max(1) as f64,
                max_size,
                mean_gap_us: gap_sum / events.max(1) as f64,
                max_gap_us: gap_max,
            }
        })
        .collect()
}

/// Aligned text table of a preview.
pub fn render_preview(rows: &[SchedulePreview]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>8} {:>12} {:>10} {:>10} {:>12} {:>12}",
        "tenant", "mode", "events", "bytes", "mean B", "max B", "mean gap us", "max gap us"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>8} {:>12} {:>10.0} {:>10} {:>12.1} {:>12.1}",
            r.name,
            r.mode,
            r.events,
            r.total_bytes,
            r.mean_size,
            r.max_size,
            r.mean_gap_us,
            r.max_gap_us
        );
    }
    out
}

// ---------------------------------------------------------------------
// Trace replay: a recorded flight-recorder stream as a traffic source
// ---------------------------------------------------------------------

/// One replayed submit: offset from the start of the trace, payload
/// size, and the tenant it maps to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayEvent {
    /// Nanoseconds since the first submit in the trace.
    pub t_ns: u64,
    /// Submitted bytes.
    pub size: u64,
    /// Index into [`ReplayTrace::tenants`].
    pub tenant: usize,
}

/// A deterministic traffic source reconstructed from a flight-recorder
/// JSONL trace (`nmad trace --format jsonl`): the `submit` events'
/// sizes and inter-arrival gaps, replayed verbatim.
///
/// Tenant mapping: a rail-attributed event maps to tenant `rail<K>`;
/// `submit` events are engine-wide (rail `null` — the rail decision
/// happens later, at split time), so they fall back to the recording
/// actor, tenant `node<K>`. Tenants are numbered in order of first
/// appearance, so the mapping is stable across re-parses of the same
/// trace.
#[derive(Clone, Debug)]
pub struct ReplayTrace {
    /// Replayable submits, ordered by time, re-based to the first.
    pub events: Vec<ReplayEvent>,
    /// Tenant display names, indexed by [`ReplayEvent::tenant`].
    pub tenants: Vec<String>,
    /// Lines that were not replayable submits (other event kinds,
    /// blank or malformed lines).
    pub skipped: usize,
    /// Events the recorder ring dropped before the trace was exported
    /// (from the stream's leading overflow marker, if any): the replay
    /// is faithful to what survived, not to the full run.
    pub truncated_by: u64,
}

impl ReplayTrace {
    /// Parse a flight-recorder JSONL stream. Unparseable or non-submit
    /// lines are counted, not fatal; a stream with no submits at all is
    /// an error (there is nothing to replay).
    pub fn parse(jsonl: &str) -> Result<ReplayTrace, String> {
        let mut raw: Vec<(u64, u64, String)> = Vec::new();
        let mut skipped = 0usize;
        let mut truncated_by = 0u64;
        for line in jsonl.lines() {
            let line = line.trim();
            if line.is_empty() {
                skipped += 1;
                continue;
            }
            let Ok(v) = serde_json::from_str::<Value>(line) else {
                skipped += 1;
                continue;
            };
            if v.get("overflow").and_then(Value::as_bool) == Some(true) {
                truncated_by += v.get("dropped").and_then(Value::as_u64).unwrap_or(0);
                continue;
            }
            if v.get("kind").and_then(Value::as_str) != Some("submit") {
                skipped += 1;
                continue;
            }
            let (Some(ts), Some(size)) = (
                v.get("ts_ns").and_then(Value::as_u64),
                v.get("size").and_then(Value::as_u64),
            ) else {
                skipped += 1;
                continue;
            };
            let tenant = match v.get("rail").and_then(Value::as_u64) {
                Some(r) => format!("rail{r}"),
                None => format!(
                    "node{}",
                    v.get("actor").and_then(Value::as_u64).unwrap_or(0)
                ),
            };
            raw.push((ts, size, tenant));
        }
        if raw.is_empty() {
            return Err("trace contains no submit events to replay".into());
        }
        raw.sort_by_key(|&(ts, _, _)| ts);
        let t0 = raw[0].0;
        let mut tenants: Vec<String> = Vec::new();
        let events = raw
            .into_iter()
            .map(|(ts, size, name)| {
                let tenant = match tenants.iter().position(|t| *t == name) {
                    Some(i) => i,
                    None => {
                        tenants.push(name);
                        tenants.len() - 1
                    }
                };
                ReplayEvent {
                    t_ns: ts - t0,
                    size,
                    tenant,
                }
            })
            .collect();
        Ok(ReplayTrace {
            events,
            tenants,
            skipped,
            truncated_by,
        })
    }

    /// Trace span from first to last submit.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.events.last().map_or(0, |e| e.t_ns))
    }

    /// Total replayed payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.events.iter().map(|e| e.size).sum()
    }

    /// Per-tenant schedule summary, same shape as the synthetic
    /// generator's [`preview`] so `nmad loadgen` renders both alike.
    pub fn preview(&self) -> Vec<SchedulePreview> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let mut events = 0usize;
                let mut total = 0u64;
                let mut max_size = 0u64;
                let mut gap_sum = 0.0f64;
                let mut gap_max = 0.0f64;
                let mut prev_t: Option<u64> = None;
                for e in self.events.iter().filter(|e| e.tenant == i) {
                    events += 1;
                    total += e.size;
                    max_size = max_size.max(e.size);
                    if let Some(p) = prev_t {
                        let gap = (e.t_ns - p) as f64 / 1e3;
                        gap_sum += gap;
                        gap_max = gap_max.max(gap);
                    }
                    prev_t = Some(e.t_ns);
                }
                SchedulePreview {
                    name: name.clone(),
                    mode: "replay".to_string(),
                    events,
                    total_bytes: total,
                    mean_size: total as f64 / events.max(1) as f64,
                    max_size,
                    mean_gap_us: gap_sum / (events.saturating_sub(1)).max(1) as f64,
                    max_gap_us: gap_max,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_respects_bounds_and_tail() {
        let d = BoundedPareto::new(64, 1 << 20, 1.2);
        let mut rng = Xoshiro256StarStar::new(7);
        let mut small = 0usize;
        let mut seen_large = false;
        let n = 20_000;
        for _ in 0..n {
            let s = d.sample(&mut rng);
            assert!((64..=1 << 20).contains(&s), "sample {s} out of bounds");
            if s < 256 {
                small += 1;
            }
            if s > 256 << 10 {
                seen_large = true;
            }
        }
        // Heavy tail: most samples are near the floor, yet the cap
        // region is still reached.
        assert!(small > n / 2, "tail not heavy: {small}/{n} small");
        assert!(seen_large, "cap region never sampled");
    }

    #[test]
    fn poisson_mean_matches_rate() {
        let mut rng = Xoshiro256StarStar::new(11);
        let mut s = ArrivalSampler::new(Arrivals::Poisson { rate_hz: 1000.0 }, &mut rng);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| s.next_gap(&mut rng).as_secs_f64()).sum();
        let mean_ms = total / n as f64 * 1e3;
        assert!(
            (0.9..1.1).contains(&mean_ms),
            "mean gap {mean_ms} ms, expected ~1 ms"
        );
    }

    #[test]
    fn mmpp_bursts_faster_than_quiet() {
        let mut rng = Xoshiro256StarStar::new(13);
        let model = Arrivals::Mmpp2 {
            quiet_hz: 10.0,
            burst_hz: 1000.0,
            mean_sojourn_s: 0.2,
        };
        let mut s = ArrivalSampler::new(model, &mut rng);
        let n = 20_000;
        let gaps: Vec<f64> = (0..n).map(|_| s.next_gap(&mut rng).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / n as f64;
        // The blended rate sits strictly between the two states' rates.
        assert!(
            mean < 1.0 / 10.0 && mean > 1.0 / 1000.0,
            "blended mean gap {mean}"
        );
        // Bursts exist: a meaningful share of gaps is at burst pacing.
        let fast = gaps.iter().filter(|g| **g < 5e-3).count();
        assert!(fast > n / 10, "no burst phase visible: {fast}/{n}");
    }

    #[test]
    fn schedules_are_replayable_from_seed() {
        let spec = TrafficSpec::standard(42);
        let a = preview(&spec, 500);
        let b = preview(&spec, 500);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.total_bytes, y.total_bytes);
            assert_eq!(x.max_size, y.max_size);
            assert_eq!(x.mean_gap_us, y.mean_gap_us);
        }
        let c = preview(&TrafficSpec::standard(43), 500);
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.total_bytes != y.total_bytes),
            "different seeds must give different schedules"
        );
    }

    #[test]
    fn preview_renders_every_tenant() {
        let spec = TrafficSpec::standard(1);
        let rows = preview(&spec, 100);
        let table = render_preview(&rows);
        for t in &spec.tenants {
            assert!(table.contains(t.name), "{table}");
        }
    }

    fn sample_trace() -> String {
        // The exact shape `nmad trace --format jsonl` emits, with an
        // overflow marker, submits from two actors, one rail-attributed
        // submit, and non-submit noise lines.
        [
            r#"{"overflow":true,"dropped":12,"resume_ts_ns":1000}"#,
            r#"{"ts_ns":1000,"kind":"submit","cat":"api","actor":0,"rail":null,"seq":1,"size":4096,"aux":1}"#,
            r#"{"ts_ns":1500,"kind":"tx_post","cat":"tx","actor":0,"rail":0,"seq":1,"size":4096,"aux":0}"#,
            r#"{"ts_ns":2500,"kind":"submit","cat":"api","actor":1,"rail":null,"seq":2,"size":64,"aux":1}"#,
            r#"{"ts_ns":4000,"kind":"submit","cat":"api","actor":0,"rail":null,"seq":3,"size":1024,"aux":1}"#,
            r#"{"ts_ns":5000,"kind":"submit","cat":"api","actor":0,"rail":1,"seq":4,"size":256,"aux":1}"#,
            "not json at all",
        ]
        .join("\n")
    }

    #[test]
    fn replay_parses_submits_and_maps_tenants() {
        let t = ReplayTrace::parse(&sample_trace()).expect("parses");
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.tenants, vec!["node0", "node1", "rail1"]);
        assert_eq!(t.truncated_by, 12);
        assert_eq!(t.skipped, 2, "tx_post and the garbage line");
        // Re-based to the first submit, order preserved.
        assert_eq!(
            t.events[0],
            ReplayEvent {
                t_ns: 0,
                size: 4096,
                tenant: 0
            }
        );
        assert_eq!(
            t.events[1],
            ReplayEvent {
                t_ns: 1500,
                size: 64,
                tenant: 1
            }
        );
        assert_eq!(
            t.events[3],
            ReplayEvent {
                t_ns: 4000,
                size: 256,
                tenant: 2
            }
        );
        assert_eq!(t.duration(), Duration::from_nanos(4000));
        assert_eq!(t.total_bytes(), 4096 + 64 + 1024 + 256);
    }

    #[test]
    fn replay_is_deterministic_and_previews_like_the_generator() {
        let a = ReplayTrace::parse(&sample_trace()).unwrap();
        let b = ReplayTrace::parse(&sample_trace()).unwrap();
        assert_eq!(a.events, b.events);
        assert_eq!(a.tenants, b.tenants);
        let rows = a.preview();
        assert_eq!(rows.len(), 3);
        let node0 = &rows[0];
        assert_eq!(node0.mode, "replay");
        assert_eq!(node0.events, 2);
        assert_eq!(node0.total_bytes, 4096 + 1024);
        // node0 submits at 0 and 3000ns -> one 3.0us gap.
        assert!(
            (node0.mean_gap_us - 3.0).abs() < 1e-9,
            "{}",
            node0.mean_gap_us
        );
        let table = render_preview(&rows);
        assert!(
            table.contains("node0") && table.contains("rail1"),
            "{table}"
        );
    }

    #[test]
    fn replay_rejects_traces_without_submits() {
        assert!(ReplayTrace::parse("").is_err());
        let only_tx = r#"{"ts_ns":1,"kind":"tx_post","cat":"tx","actor":0,"rail":0,"seq":1,"size":10,"aux":0}"#;
        assert!(ReplayTrace::parse(only_tx).is_err());
    }
}
