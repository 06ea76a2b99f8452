//! The scripted application: what every simulated experiment asks of a
//! node, the paper's ping-pong included, written as data.
//!
//! A [`Script`] works on conn 0 and runs its [`Step`]s in order: it posts
//! receives, submits sends, computes, and waits for what it started to
//! finish. At most `window` sends are outstanding (submitted and not yet
//! locally complete); a [`Step::Send`] that finds the window full waits
//! for a completion, and the [`Step::Compute`]s just before it wait with
//! it, so a computation always runs right before the submit it precedes.
//! A `Compute` with no `Send` after it runs when it is reached. A
//! [`Step::Drain`] waits until no send is outstanding and every receive
//! posted so far has been delivered.
//!
//! What the node sees is recorded: each delivery as (payload bytes,
//! time), each send's *first* local completion as (id, time), and the
//! segments of the most recent delivery. Under acked delivery a
//! retransmitted send can complete again; that later completion frees
//! nothing and is not recorded.

use bytes::Bytes;
use nmad_core::request::SendId;
use nmad_sim::{SimDuration, SimTime};
use nmad_wire::reassembly::MessageAssembly;

use crate::world::NodeApi;

/// One step of a [`Script`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Post one receive.
    Recv,
    /// Submit one message of these segments.
    Send(Vec<Bytes>),
    /// Occupy the node's CPU for this long.
    Compute(SimDuration),
    /// Wait until no send is outstanding and every posted receive has
    /// been delivered.
    Drain,
}

/// A node's application as a list of [`Step`]s (see the module docs).
/// The default script has no step: a purely reactive peer.
#[derive(Clone, Debug)]
pub struct Script {
    window: usize,
    steps: Vec<Step>,
    next: usize,
    outstanding: Vec<SendId>,
    posted: usize,
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
    /// Run `steps` with no window.
    pub fn new(steps: Vec<Step>) -> Self {
        Script {
            window: usize::MAX,
            steps,
            next: 0,
            outstanding: Vec::new(),
            posted: 0,
            deliveries: Vec::new(),
            completions: Vec::new(),
            last: Vec::new(),
        }
    }

    /// A node that only posts `n` receives.
    pub fn receiver(n: usize) -> Self {
        Script::new(vec![Step::Recv; n])
    }

    /// Post `n` receives before the first step.
    pub fn recvs(mut self, n: usize) -> Self {
        self.steps.splice(0..0, std::iter::repeat_n(Step::Recv, n));
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

    /// Whether the step at `i` must wait: a drain with a send outstanding
    /// or a receive undelivered, a send (or the computes right before one)
    /// with the window full.
    fn blocked(&self, i: usize) -> bool {
        let mut ahead = self.steps[i..].iter();
        match (
            &self.steps[i],
            ahead.find(|s| !matches!(s, Step::Compute(_))),
        ) {
            (Step::Drain, _) => !self.outstanding.is_empty() || self.deliveries.len() < self.posted,
            (_, Some(Step::Send(_))) => self.outstanding.len() >= self.window,
            _ => false,
        }
    }

    /// Run steps until one must wait or none is left (also the start
    /// hook: the world calls it once at time zero).
    pub(crate) fn advance(&mut self, api: &mut NodeApi<'_>) {
        while self.next < self.steps.len() && !self.blocked(self.next) {
            match &mut self.steps[self.next] {
                Step::Recv => {
                    api.post_recv();
                    self.posted += 1;
                }
                Step::Send(segments) => {
                    let id = api.submit_send(std::mem::take(segments));
                    self.outstanding.push(id);
                }
                Step::Compute(dur) => api.compute(*dur),
                Step::Drain => {}
            }
            self.next += 1;
        }
    }

    /// One of the posted receives delivered `msg`.
    pub(crate) fn on_recv_complete(&mut self, msg: MessageAssembly, api: &mut NodeApi<'_>) {
        self.deliveries.push((msg.total_len(), api.now()));
        self.last = msg.segments;
        self.advance(api);
    }

    /// `send` reached local completion.
    pub(crate) fn on_send_complete(&mut self, send: SendId, api: &mut NodeApi<'_>) {
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

    fn world(sender: Script, recvs: usize) -> SimWorld {
        let p = platform::paper_platform();
        SimWorld::new(&p, EngineConfig::default(), sender, Script::receiver(recvs))
    }

    /// The oldest outstanding send of node 0's script.
    fn oldest(w: &SimWorld) -> SendId {
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
    fn a_drain_waits_for_every_send_and_every_posted_receive() {
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

        // Receives are posted in step order: the one after the drain
        // waits with the send it precedes.
        let steps = vec![
            Step::Recv,
            send(0, 64),
            Step::Recv,
            Step::Drain,
            Step::Recv,
            send(1, 64),
        ];
        let mut w = world(Script::new(steps), 2);
        w.start_apps();
        assert_eq!((w.app0().next, w.app0().posted), (3, 2));
        let first = oldest(&w);
        w.complete_send(0, first);
        assert_eq!(w.app0().next, 3, "two receives undelivered");
        w.complete_recv(0, 16);
        assert_eq!(w.app0().next, 3, "one receive undelivered");
        w.complete_recv(0, 16);
        assert_eq!((w.app0().next, w.app0().posted), (6, 3));
        assert_eq!(w.app0().outstanding.len(), 1);
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
