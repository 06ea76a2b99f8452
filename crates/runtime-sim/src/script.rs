//! The scripted application: what every simulated experiment but the
//! ping-pong asks of a node, written as data.
//!
//! A [`Script`] works on conn 0. At start it posts its receives, then
//! runs its [`Step`]s in order: it submits sends, computes, and waits for
//! its sends to drain. At most `window` sends are outstanding (submitted
//! and not yet locally complete); a [`Step::Send`] that finds the window
//! full waits for a completion, and the [`Step::Compute`]s just before it
//! wait with it, so a computation always runs right before the submit it
//! precedes. A `Compute` with no `Send` after it runs when it is reached.
//!
//! What the node sees is recorded: each delivery as (payload bytes,
//! time), each send's *first* local completion as (id, time), and the
//! segments of the most recent delivery. Under acked delivery a
//! retransmitted send can complete again; that later completion frees
//! nothing and is not recorded.

use bytes::Bytes;
use nmad_core::request::{RecvId, SendId};
use nmad_sim::{SimDuration, SimTime};
use nmad_wire::reassembly::MessageAssembly;

use crate::world::{AppLogic, NodeApi};

/// One step of a [`Script`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Submit one message of these segments.
    Send(Vec<Bytes>),
    /// Occupy the CPU ([`NodeApi::compute`]).
    Compute(SimDuration),
    /// Wait until no send is outstanding.
    Drain,
}

/// A node's application as a list of [`Step`]s (see the module docs).
/// The default script posts no receive and has no step: a purely
/// reactive peer.
#[derive(Clone, Debug)]
pub struct Script {
    recvs: usize,
    window: usize,
    steps: Vec<Step>,
    next: usize,
    outstanding: Vec<SendId>,
    deliveries: Vec<(usize, SimTime)>,
    completions: Vec<(SendId, SimTime)>,
    last: Vec<Bytes>,
}

impl Default for Script {
    fn default() -> Self {
        Script::new(Vec::new())
    }
}

impl Script {
    /// Run `steps` with no window, posting no receive.
    pub fn new(steps: Vec<Step>) -> Self {
        Script {
            recvs: 0,
            window: usize::MAX,
            steps,
            next: 0,
            outstanding: Vec::new(),
            deliveries: Vec::new(),
            completions: Vec::new(),
            last: Vec::new(),
        }
    }

    /// A node that only posts `n` receives.
    pub fn receiver(n: usize) -> Self {
        Script::new(Vec::new()).recvs(n)
    }

    /// Post `n` receives at start, before the first step.
    pub fn recvs(mut self, n: usize) -> Self {
        self.recvs = n;
        self
    }

    /// Keep at most `n` sends outstanding.
    pub fn window(mut self, n: usize) -> Self {
        assert!(n > 0, "a window of 0 sends nothing");
        self.window = n;
        self
    }

    /// Every delivery so far: (payload bytes, time), in order.
    pub fn deliveries(&self) -> &[(usize, SimTime)] {
        &self.deliveries
    }

    /// When the last message was delivered (`SimTime::ZERO` if none was).
    pub fn last_delivery_at(&self) -> SimTime {
        self.deliveries.last().map_or(SimTime::ZERO, |&(_, t)| t)
    }

    /// Every send's first local completion: (id, time), in order.
    pub fn completions(&self) -> &[(SendId, SimTime)] {
        &self.completions
    }

    /// The segments of the most recent delivery (empty if none).
    pub fn last_message(&self) -> &[Bytes] {
        &self.last
    }

    /// Whether the step at `i` must wait: a drain with sends outstanding,
    /// a send (or the computes right before one) with the window full.
    fn blocked(&self, i: usize) -> bool {
        let mut ahead = self.steps[i..].iter();
        match (
            &self.steps[i],
            ahead.find(|s| !matches!(s, Step::Compute(_))),
        ) {
            (Step::Drain, _) => !self.outstanding.is_empty(),
            (_, Some(Step::Send(_))) => self.outstanding.len() >= self.window,
            _ => false,
        }
    }

    /// Run steps until one must wait or none is left.
    fn advance(&mut self, api: &mut NodeApi<'_>) {
        while self.next < self.steps.len() && !self.blocked(self.next) {
            match &mut self.steps[self.next] {
                Step::Send(segments) => {
                    let id = api.submit_send(0, std::mem::take(segments));
                    self.outstanding.push(id);
                }
                Step::Compute(dur) => api.compute(*dur),
                Step::Drain => {}
            }
            self.next += 1;
        }
    }
}

impl AppLogic for Script {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        for _ in 0..self.recvs {
            api.post_recv(0);
        }
        self.advance(api);
    }

    fn on_recv_complete(&mut self, _recv: RecvId, msg: MessageAssembly, api: &mut NodeApi<'_>) {
        self.deliveries.push((msg.total_len(), api.now()));
        self.last = msg.segments;
    }

    fn on_send_complete(&mut self, send: SendId, api: &mut NodeApi<'_>) {
        let Some(at) = self.outstanding.iter().position(|&s| s == send) else {
            return; // a retransmitted send completing again
        };
        self.outstanding.remove(at);
        self.completions.push((send, api.now()));
        self.advance(api);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::SimWorld;
    use nmad_core::EngineConfig;
    use nmad_model::platform;

    fn send(fill: u8, len: usize) -> Step {
        Step::Send(vec![Bytes::from(vec![fill; len])])
    }

    fn world(sender: Script, recvs: usize) -> SimWorld<Script, Script> {
        let p = platform::paper_platform();
        let mut w = SimWorld::new(&p, EngineConfig::default(), sender, Script::receiver(recvs));
        w.open_conn();
        w
    }

    /// The oldest outstanding send of node 0's script.
    fn oldest(w: &SimWorld<Script, Script>) -> SendId {
        w.app0().outstanding[0]
    }

    #[test]
    fn the_window_holds_sends_until_a_completion_frees_a_slot() {
        let mut w = world(
            Script::new((0..5).map(|i| send(i, 64)).collect()).window(2),
            5,
        );
        w.start_apps();
        assert_eq!((w.app0().next, w.app0().outstanding.len()), (2, 2));
        let first = oldest(&w);
        w.complete_send(0, first);
        assert_eq!((w.app0().next, w.app0().outstanding.len()), (3, 2));
        assert_eq!(w.app0().completions().len(), 1);
    }

    #[test]
    fn a_second_completion_of_the_same_send_frees_nothing() {
        let mut w = world(
            Script::new((0..5).map(|i| send(i, 64)).collect()).window(2),
            5,
        );
        w.start_apps();
        let first = oldest(&w);
        w.complete_send(0, first);
        w.complete_send(0, first);
        assert_eq!((w.app0().next, w.app0().outstanding.len()), (3, 2));
        assert_eq!(w.app0().completions().len(), 1, "recorded once");
    }

    #[test]
    fn a_compute_waits_with_the_send_it_precedes() {
        let steps = vec![
            send(0, 64),
            Step::Compute(SimDuration::from_us(5)),
            send(1, 64),
        ];
        let mut w = world(Script::new(steps).window(1), 2);
        w.start_apps();
        assert_eq!(w.app0().next, 1, "the compute waits for the window");
        let first = oldest(&w);
        w.complete_send(0, first);
        assert_eq!(w.app0().next, 3, "compute and send run together");
    }

    #[test]
    fn a_trailing_compute_runs_when_it_is_reached() {
        let steps = vec![send(0, 64), Step::Compute(SimDuration::from_us(5))];
        let mut w = world(Script::new(steps).window(1), 1);
        w.start_apps();
        assert_eq!(w.app0().next, 2, "no send after it to wait for");
    }

    #[test]
    fn a_drain_waits_for_every_outstanding_send() {
        let steps = vec![send(0, 64), send(1, 64), Step::Drain, send(2, 64)];
        let mut w = world(Script::new(steps), 3);
        w.start_apps();
        assert_eq!(w.app0().next, 2);
        let first = oldest(&w);
        w.complete_send(0, first);
        assert_eq!(w.app0().next, 2, "one send still outstanding");
        let second = oldest(&w);
        w.complete_send(0, second);
        assert_eq!(w.app0().next, 4);
    }

    #[test]
    fn a_windowed_run_delivers_everything_and_keeps_the_last_message() {
        let mut steps: Vec<Step> = (0..6).map(|i| send(i, 1000)).collect();
        let last = vec![Bytes::from(vec![7u8; 16]), Bytes::from(vec![8u8; 48])];
        steps.push(Step::Send(last.clone()));
        let mut w = world(Script::new(steps).window(3), 7);
        w.run(1_000_000);
        assert_eq!(w.app0().completions().len(), 7);
        let sizes: Vec<usize> = w.app1().deliveries().iter().map(|&(n, _)| n).collect();
        assert_eq!(sizes, [1000, 1000, 1000, 1000, 1000, 1000, 64]);
        assert_eq!(w.app1().last_message(), last.as_slice());
        assert_eq!(w.app1().last_delivery_at(), w.app1().deliveries()[6].1);
    }
}
