//! The simulated network: nodes, links, and the execution loop.

use std::any::Any;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::context::{Context, Effect};
use crate::event::EventKind;
use crate::interface::Interface;
use crate::link::{Link, LinkConfig, LinkQuality};
use crate::node::{Node, NodeId, Payload};
use crate::rng::SimRng;
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::timer::TimerTable;
use crate::trace::Trace;
use crate::wheel::CalendarWheel;

/// Object-safe shim adding downcast support to every [`Node`].
///
/// `Send` is required so a whole [`Network`] can be handed between
/// worker threads — the load engine keeps every shard alive across
/// epochs and runs each epoch on whichever thread picks it up.
trait AnyNode<M: Payload>: Node<M> + Send {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<M: Payload, T: Node<M> + Send + 'static> AnyNode<M> for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Fibonacci-multiply hasher for link keys, which are looked up once per
/// message send. The keys are two small `NodeId`s under simulation
/// control (no adversarial input), so the default SipHash buys nothing
/// but latency on the hot path. Lookup-only: link iteration order never
/// reaches traces, stats, or fingerprints.
#[derive(Default)]
struct LinkKeyHasher(u64);

impl Hasher for LinkKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(32) ^ u64::from(n)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

type LinkMap = HashMap<(NodeId, NodeId), Link, BuildHasherDefault<LinkKeyHasher>>;

/// Result of an execution call such as
/// [`Network::run_until_quiescent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Number of events processed by this call.
    pub events: u64,
    /// Simulated time when the call returned.
    pub at: SimTime,
    /// True if the queue drained; false if the event cap stopped the run.
    pub quiescent: bool,
}

/// A deterministic simulated network of [`Node`]s.
///
/// See the [crate-level documentation](crate) for a worked example.
pub struct Network<M: Payload> {
    now: SimTime,
    nodes: Vec<Option<Box<dyn AnyNode<M>>>>,
    links: LinkMap,
    queue: CalendarWheel<EventKind<M>>,
    rng: SimRng,
    stats: Stats,
    trace: Trace,
    timers: TimerTable,
    started: bool,
    max_events: u64,
    trace_details: bool,
    trace_capture: bool,
    /// Scratch buffer reused across dispatches so steady-state callbacks
    /// do not allocate an effects vector per event.
    fx: Vec<Effect<M>>,
    // Kernel counters, batched per run call instead of a name lookup per
    // event; flushed into `stats` by `flush_counts`.
    k_delivered: u64,
    k_fired: u64,
    k_cancelled: u64,
    k_lost: u64,
}

impl<M: Payload> Network<M> {
    /// Creates an empty network seeded with `seed`. Identical seeds and
    /// identical scenario code produce identical traces.
    pub fn new(seed: u64) -> Self {
        Network {
            now: SimTime::ZERO,
            nodes: Vec::new(),
            links: LinkMap::default(),
            queue: CalendarWheel::new(),
            rng: SimRng::new(seed),
            stats: Stats::new(),
            trace: Trace::new(),
            timers: TimerTable::new(),
            started: false,
            max_events: 50_000_000,
            trace_details: true,
            trace_capture: true,
            fx: Vec::new(),
            k_delivered: 0,
            k_fired: 0,
            k_cancelled: 0,
            k_lost: 0,
        }
    }

    /// Disables per-message `Debug` detail capture in the trace (labels
    /// are always recorded). Load sweeps that never scan message
    /// contents turn this off to avoid formatting every delivery.
    pub fn set_trace_details(&mut self, enabled: bool) {
        self.trace_details = enabled;
    }

    /// Disables trace capture entirely — no labels, no notes. Node names
    /// stay registered so diagnostics still resolve ids. Population-scale
    /// runs keep every shard's network alive for the whole busy hour, so
    /// even label-only capture would grow without bound; they turn the
    /// trace off and rely on [`Stats`] instead.
    pub fn set_trace_capture(&mut self, enabled: bool) {
        self.trace_capture = enabled;
    }

    /// Caps the number of events a single run call may process (a runaway
    /// guard; the default is fifty million).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn set_max_events(&mut self, cap: u64) {
        assert!(cap > 0, "event cap must be positive");
        self.max_events = cap;
    }

    /// Registers a node under a display name and returns its id.
    ///
    /// If the network has already started running, the node's
    /// [`Node::on_start`] is invoked immediately.
    pub fn add_node<N>(&mut self, name: &str, node: N) -> NodeId
    where
        N: Node<M> + Send + 'static,
    {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(Box::new(node)));
        self.trace.register_node(name);
        if self.started {
            // Deferred so the caller can still provision links before the
            // node's on_start sends anything.
            self.queue.push(self.now, EventKind::Start { node: id });
        }
        id
    }

    /// Provisions a symmetric link between `a` and `b` with fixed `latency`,
    /// tagged with the given interface.
    ///
    /// # Panics
    ///
    /// Panics if a link between the pair already exists, or if `a == b`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, iface: Interface, latency: SimDuration) {
        self.connect_with(
            a,
            b,
            LinkConfig::symmetric(iface, LinkQuality::new(latency)),
        );
    }

    /// Provisions a link with full [`LinkConfig`] control.
    ///
    /// # Panics
    ///
    /// Panics on duplicate links or self-links; both indicate topology bugs.
    pub fn connect_with(&mut self, a: NodeId, b: NodeId, config: LinkConfig) {
        assert_ne!(a, b, "cannot link a node to itself");
        assert!(
            (a.0 as usize) < self.nodes.len() && (b.0 as usize) < self.nodes.len(),
            "link endpoints must be registered nodes"
        );
        let key = Self::link_key(a, b);
        let prev = self.links.insert(key, Link { a, b, config });
        assert!(
            prev.is_none(),
            "duplicate link between {a} and {b} (interface {})",
            config.interface
        );
    }

    fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a.0 <= b.0 {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// The link between two nodes, if provisioned.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<&Link> {
        self.links.get(&Self::link_key(a, b))
    }

    /// Iterates over all provisioned links.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.values()
    }

    /// Replaces the quality of an existing link (both directions).
    ///
    /// # Panics
    ///
    /// Panics if no link exists between the pair.
    pub fn set_link_quality(&mut self, a: NodeId, b: NodeId, quality: LinkQuality) {
        let link = self
            .links
            .get_mut(&Self::link_key(a, b))
            .unwrap_or_else(|| panic!("no link between {a} and {b}"));
        link.config.forward = quality;
        link.config.reverse = quality;
    }

    /// Schedules `msg` for delivery to `to` after `delay`, bypassing links.
    ///
    /// The delivery is attributed to `to` itself over [`Interface::Internal`];
    /// scenario drivers use this to issue local commands ("dial", "answer",
    /// "power on") to nodes.
    pub fn inject(&mut self, delay: SimDuration, to: NodeId, msg: M) {
        self.queue.push(
            self.now + delay,
            EventKind::Deliver {
                from: to,
                to,
                iface: Interface::Internal,
                msg,
            },
        );
    }

    /// Immediately delivers pending work until the event queue drains.
    ///
    /// Returns how many events were processed. Stops early (with
    /// `quiescent == false`) if the event cap is reached.
    pub fn run_until_quiescent(&mut self) -> RunOutcome {
        self.ensure_started();
        let mut events = 0;
        let mut quiescent = false;
        while events < self.max_events {
            let Some((at, kind)) = self.queue.pop() else {
                quiescent = true;
                break;
            };
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.process_event(kind);
            events += 1;
        }
        self.flush_counts();
        RunOutcome {
            events,
            at: self.now,
            quiescent,
        }
    }

    /// Processes events up to and including `deadline`, then sets the clock
    /// to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.ensure_started();
        let mut events = 0;
        while events < self.max_events {
            let Some((at, kind)) = self.queue.pop_at_or_before(deadline) else {
                break;
            };
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.process_event(kind);
            events += 1;
        }
        let quiescent = events < self.max_events;
        if self.now < deadline {
            self.now = deadline;
        }
        self.flush_counts();
        RunOutcome {
            events,
            at: self.now,
            quiescent,
        }
    }

    /// Processes a single event. Returns false if the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let stepped = match self.queue.pop() {
            Some((at, kind)) => {
                debug_assert!(at >= self.now, "time went backwards");
                self.now = at;
                self.process_event(kind);
                true
            }
            None => false,
        };
        self.flush_counts();
        stepped
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for idx in 0..self.nodes.len() {
            self.dispatch(NodeId(idx as u32), |n, ctx| n.on_start(ctx));
        }
    }

    /// Moves the batched kernel counters into [`Stats`]. Called at the end
    /// of every run entry point so external readers always see totals.
    fn flush_counts(&mut self) {
        if self.k_delivered > 0 {
            self.stats.count_by("sim.delivered", self.k_delivered);
            self.k_delivered = 0;
        }
        if self.k_fired > 0 {
            self.stats.count_by("sim.timer_fired", self.k_fired);
            self.k_fired = 0;
        }
        if self.k_cancelled > 0 {
            self.stats.count_by("sim.timer_cancelled", self.k_cancelled);
            self.k_cancelled = 0;
        }
        if self.k_lost > 0 {
            self.stats.count_by("sim.lost", self.k_lost);
            self.k_lost = 0;
        }
    }

    fn process_event(&mut self, kind: EventKind<M>) {
        match kind {
            EventKind::Deliver {
                from,
                to,
                iface,
                msg,
            } => {
                self.k_delivered += 1;
                if self.trace_capture && msg.traceable() {
                    let detail = if self.trace_details {
                        format!("{msg:?}")
                    } else {
                        String::new()
                    };
                    self.trace
                        .record_message(self.now, from, to, iface, msg.label(), detail);
                }
                self.dispatch(to, |n, ctx| n.on_message(ctx, from, iface, msg));
            }
            EventKind::Timer { node, token, tag } => {
                if self.timers.try_fire(token) {
                    self.k_fired += 1;
                    self.dispatch(node, |n, ctx| n.on_timer(ctx, token, tag));
                } else {
                    // Stale event: the timer was cancelled after this event
                    // was queued.
                    self.k_cancelled += 1;
                }
            }
            EventKind::Start { node } => {
                self.dispatch(node, |n, ctx| n.on_start(ctx));
            }
        }
    }

    fn dispatch<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut dyn AnyNode<M>, &mut Context<'_, M>),
    {
        let idx = id.0 as usize;
        let mut node = self.nodes[idx]
            .take()
            .unwrap_or_else(|| panic!("node {id} is missing or re-entered"));
        let mut ctx = Context {
            now: self.now,
            self_id: id,
            effects: std::mem::take(&mut self.fx),
            rng: &mut self.rng,
            stats: &mut self.stats,
            timers: &mut self.timers,
        };
        f(&mut *node, &mut ctx);
        let mut effects = std::mem::take(&mut ctx.effects);
        self.nodes[idx] = Some(node);
        self.apply_effects(id, &mut effects);
        // Hand the (now drained) buffer back for the next dispatch.
        self.fx = effects;
    }

    fn apply_effects(&mut self, from: NodeId, effects: &mut Vec<Effect<M>>) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    // Field-level access (not `link_between`) so the link
                    // borrow stays disjoint from `self.rng` and
                    // `self.queue` below — no per-send copy of the link.
                    let link = self.links.get(&Self::link_key(from, to)).unwrap_or_else(|| {
                        panic!(
                            "node {from} ({}) sent {} to {to} ({}) but no link exists",
                            self.trace.node_name(from),
                            msg.label(),
                            self.trace.node_name(to),
                        )
                    });
                    let quality = if from == link.a {
                        &link.config.forward
                    } else {
                        &link.config.reverse
                    };
                    match quality.sample(msg.wire_size(), msg.reliable(), &mut self.rng) {
                        Some(delay) => {
                            self.queue.push(
                                self.now + delay,
                                EventKind::Deliver {
                                    from,
                                    to,
                                    iface: link.interface(),
                                    msg,
                                },
                            );
                        }
                        None => {
                            self.k_lost += 1;
                        }
                    }
                }
                Effect::Timer { at, token, tag } => {
                    self.queue.push(at, EventKind::Timer { node: from, token, tag });
                }
                Effect::CancelTimer { token } => {
                    self.timers.cancel(token);
                }
                Effect::Note { text } => {
                    if self.trace_capture {
                        self.trace.record_note(self.now, from, text);
                    }
                }
            }
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Pending (not yet processed) events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// The message trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable trace access (e.g. [`Trace::clear`] between procedures).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Statistics collected so far.
    ///
    /// Kernel counters (`sim.delivered`, `sim.timer_fired`, …) are batched
    /// during a run and flushed when each run call returns, so totals read
    /// between runs are always exact.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Mutable statistics access for scenario-level counters.
    pub fn stats_mut(&mut self) -> &mut Stats {
        self.flush_counts();
        &mut self.stats
    }

    /// Number of currently armed timers (set but neither fired nor
    /// cancelled). Cancel-after-fire and double-cancel leave no residue.
    pub fn armed_timers(&self) -> usize {
        self.timers.live()
    }

    /// Immutable access to a node's concrete state.
    ///
    /// Returns `None` if the node's concrete type is not `N`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this network.
    pub fn node<N: 'static>(&self, id: NodeId) -> Option<&N> {
        self.nodes[id.0 as usize]
            .as_ref()
            .expect("node is missing")
            .as_any()
            .downcast_ref::<N>()
    }

    /// Mutable access to a node's concrete state (for scenario setup only;
    /// mutating nodes mid-run bypasses the deterministic event order).
    pub fn node_mut<N: 'static>(&mut self, id: NodeId) -> Option<&mut N> {
        self.nodes[id.0 as usize]
            .as_mut()
            .expect("node is missing")
            .as_any_mut()
            .downcast_mut::<N>()
    }

    /// The display name a node was registered with.
    pub fn node_name(&self, id: NodeId) -> &str {
        self.trace.node_name(id)
    }
}

impl<M: Payload> std::fmt::Debug for Network<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("pending", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TimerToken;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
        Tick,
    }

    impl Payload for Msg {
        fn label(&self) -> String {
            match self {
                Msg::Ping(_) => "Ping".into(),
                Msg::Pong(_) => "Pong".into(),
                Msg::Tick => "Tick".into(),
            }
        }
        // These test messages model unreliable datagrams so the loss
        // tests exercise the drop path.
        fn reliable(&self) -> bool {
            false
        }
    }

    struct Echo {
        seen: u32,
    }

    impl Node<Msg> for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, _i: Interface, msg: Msg) {
            if let Msg::Ping(n) = msg {
                self.seen += 1;
                ctx.send(from, Msg::Pong(n + 1));
            }
        }
    }

    struct Caller {
        peer: NodeId,
        reply: Option<u32>,
        reply_at: Option<SimTime>,
    }

    impl Node<Msg> for Caller {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send(self.peer, Msg::Ping(10));
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _f: NodeId, _i: Interface, msg: Msg) {
            if let Msg::Pong(n) = msg {
                self.reply = Some(n);
                self.reply_at = Some(ctx.now());
            }
        }
    }

    fn ping_net() -> (Network<Msg>, NodeId, NodeId) {
        let mut net = Network::new(1);
        let echo = net.add_node("echo", Echo { seen: 0 });
        let caller = net.add_node(
            "caller",
            Caller {
                peer: echo,
                reply: None,
                reply_at: None,
            },
        );
        net.connect(caller, echo, Interface::Lan, SimDuration::from_millis(4));
        (net, echo, caller)
    }

    #[test]
    fn round_trip_latency() {
        let (mut net, echo, caller) = ping_net();
        let outcome = net.run_until_quiescent();
        assert!(outcome.quiescent);
        assert_eq!(outcome.events, 2);
        let c = net.node::<Caller>(caller).unwrap();
        assert_eq!(c.reply, Some(11));
        assert_eq!(c.reply_at, Some(SimTime::from_micros(8_000)));
        assert_eq!(net.node::<Echo>(echo).unwrap().seen, 1);
    }

    #[test]
    fn trace_records_labels_and_interfaces() {
        let (mut net, _, _) = ping_net();
        net.run_until_quiescent();
        assert_eq!(net.trace().labels(), vec!["Ping", "Pong"]);
        assert_eq!(net.trace().count_interface(Interface::Lan), 2);
    }

    #[test]
    fn downcast_to_wrong_type_is_none() {
        let (net, echo, _) = ping_net();
        assert!(net.node::<Caller>(echo).is_none());
    }

    #[test]
    fn inject_delivers_internal_command() {
        struct Sink {
            got: Vec<(Interface, Msg)>,
        }
        impl Node<Msg> for Sink {
            fn on_message(
                &mut self,
                _c: &mut Context<'_, Msg>,
                _f: NodeId,
                i: Interface,
                m: Msg,
            ) {
                self.got.push((i, m));
            }
        }
        let mut net = Network::new(0);
        let sink = net.add_node("sink", Sink { got: Vec::new() });
        net.inject(SimDuration::from_millis(2), sink, Msg::Tick);
        net.run_until_quiescent();
        let s = net.node::<Sink>(sink).unwrap();
        assert_eq!(s.got, vec![(Interface::Internal, Msg::Tick)]);
        assert_eq!(net.now(), SimTime::from_micros(2_000));
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct Timed {
            fired: Vec<u64>,
        }
        impl Node<Msg> for Timed {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(1), 1);
                let t = ctx.set_timer(SimDuration::from_millis(2), 2);
                ctx.cancel_timer(t);
                ctx.set_timer(SimDuration::from_millis(3), 3);
            }
            fn on_message(&mut self, _c: &mut Context<'_, Msg>, _f: NodeId, _i: Interface, _m: Msg) {}
            fn on_timer(&mut self, _c: &mut Context<'_, Msg>, _t: TimerToken, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut net = Network::new(0);
        let id = net.add_node("timed", Timed { fired: Vec::new() });
        net.run_until_quiescent();
        assert_eq!(net.node::<Timed>(id).unwrap().fired, vec![1, 3]);
        assert_eq!(net.stats().counter("sim.timer_cancelled"), 1);
    }

    #[test]
    fn cancel_after_fire_leaves_no_residual_state() {
        // Regression test for the old `cancelled: HashSet<TimerToken>`
        // leak: cancelling a timer whose event had already fired (or
        // cancelling twice) inserted a token nothing would ever remove.
        struct LateCancel {
            token: Option<TimerToken>,
            fired: u32,
        }
        impl Node<Msg> for LateCancel {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                self.token = Some(ctx.set_timer(SimDuration::from_millis(1), 1));
                // Fires after the first timer; cancels it post-fire.
                ctx.set_timer(SimDuration::from_millis(2), 2);
            }
            fn on_message(&mut self, _c: &mut Context<'_, Msg>, _f: NodeId, _i: Interface, _m: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _t: TimerToken, tag: u64) {
                self.fired += 1;
                if tag == 2 {
                    let stale = self.token.take().expect("token stored on start");
                    ctx.cancel_timer(stale); // cancel-after-fire
                    ctx.cancel_timer(stale); // double cancel
                }
            }
        }
        let mut net = Network::new(0);
        let id = net.add_node("late", LateCancel { token: None, fired: 0 });
        net.run_until_quiescent();
        assert_eq!(net.node::<LateCancel>(id).unwrap().fired, 2);
        // Cancelling after the fire must not count as a cancellation…
        assert_eq!(net.stats().counter("sim.timer_cancelled"), 0);
        assert_eq!(net.stats().counter("sim.timer_fired"), 2);
        // …and must leave no residual bookkeeping behind.
        assert_eq!(net.armed_timers(), 0);
        assert_eq!(net.timers.slots(), 2);
    }

    #[test]
    fn timer_churn_reuses_slots() {
        // A long chain of set → fire → cancel-after-fire cycles must not
        // grow the timer table: the table is bounded by peak concurrency.
        struct Chain {
            prev: Option<TimerToken>,
            remaining: u32,
        }
        impl Node<Msg> for Chain {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                self.prev = Some(ctx.set_timer(SimDuration::from_millis(1), 0));
            }
            fn on_message(&mut self, _c: &mut Context<'_, Msg>, _f: NodeId, _i: Interface, _m: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _t: TimerToken, _tag: u64) {
                if let Some(stale) = self.prev.take() {
                    ctx.cancel_timer(stale); // always post-fire, always a no-op
                }
                if self.remaining > 0 {
                    self.remaining -= 1;
                    self.prev = Some(ctx.set_timer(SimDuration::from_millis(1), 0));
                }
            }
        }
        let mut net = Network::new(0);
        net.add_node("chain", Chain { prev: None, remaining: 1_000 });
        net.run_until_quiescent();
        assert_eq!(net.stats().counter("sim.timer_fired"), 1_001);
        assert_eq!(net.armed_timers(), 0);
        assert!(
            net.timers.slots() <= 2,
            "slot churn must stay bounded, got {}",
            net.timers.slots()
        );
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut net, _, _) = ping_net();
        let out = net.run_until(SimTime::from_micros(5_000));
        assert_eq!(out.events, 1); // only the Ping delivered by then
        assert_eq!(net.now(), SimTime::from_micros(5_000));
        assert_eq!(net.pending_events(), 1);
        net.run_until_quiescent();
        assert_eq!(net.trace().labels(), vec!["Ping", "Pong"]);
    }

    #[test]
    fn lossy_link_counts_drops() {
        let mut net = Network::new(3);
        let echo = net.add_node("echo", Echo { seen: 0 });
        let caller = net.add_node(
            "caller",
            Caller {
                peer: echo,
                reply: None,
                reply_at: None,
            },
        );
        net.connect_with(
            caller,
            echo,
            LinkConfig::symmetric(
                Interface::Lan,
                LinkQuality::new(SimDuration::from_millis(1)).with_loss(1.0),
            ),
        );
        net.run_until_quiescent();
        assert_eq!(net.stats().counter("sim.lost"), 1);
        assert_eq!(net.node::<Echo>(echo).unwrap().seen, 0);
    }

    #[test]
    #[should_panic(expected = "no link exists")]
    fn sending_without_link_panics() {
        let mut net = Network::new(0);
        let echo = net.add_node("echo", Echo { seen: 0 });
        let _caller = net.add_node(
            "caller",
            Caller {
                peer: echo,
                reply: None,
                reply_at: None,
            },
        );
        net.run_until_quiescent();
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_link_panics() {
        let (mut net, echo, caller) = ping_net();
        net.connect(caller, echo, Interface::Lan, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "cannot link a node to itself")]
    fn self_link_panics() {
        let mut net = Network::new(0);
        let echo = net.add_node("echo", Echo { seen: 0 });
        net.connect(echo, echo, Interface::Lan, SimDuration::ZERO);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut net = Network::new(seed);
            let echo = net.add_node("echo", Echo { seen: 0 });
            let caller = net.add_node(
                "caller",
                Caller {
                    peer: echo,
                    reply: None,
                    reply_at: None,
                },
            );
            net.connect_with(
                caller,
                echo,
                LinkConfig::symmetric(
                    Interface::Lan,
                    LinkQuality::new(SimDuration::from_millis(2))
                        .with_jitter(SimDuration::from_millis(3)),
                ),
            );
            net.run_until_quiescent();
            net.node::<Caller>(caller).unwrap().reply_at
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn event_cap_halts_runaway() {
        struct Looper {
            peer: Option<NodeId>,
        }
        impl Node<Msg> for Looper {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                if let Some(p) = self.peer {
                    ctx.send(p, Msg::Tick);
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, _i: Interface, _m: Msg) {
                ctx.send(from, Msg::Tick);
            }
        }
        let mut net = Network::new(0);
        let a = net.add_node("a", Looper { peer: None });
        let b = net.add_node("b", Looper { peer: Some(a) });
        net.connect(a, b, Interface::Lan, SimDuration::from_millis(1));
        net.set_max_events(100);
        let out = net.run_until_quiescent();
        assert!(!out.quiescent);
        assert_eq!(out.events, 100);
    }

    #[test]
    fn late_added_node_gets_on_start() {
        struct Starter {
            started: bool,
        }
        impl Node<Msg> for Starter {
            fn on_start(&mut self, _c: &mut Context<'_, Msg>) {
                self.started = true;
            }
            fn on_message(&mut self, _c: &mut Context<'_, Msg>, _f: NodeId, _i: Interface, _m: Msg) {}
        }
        let mut net: Network<Msg> = Network::new(0);
        net.run_until_quiescent();
        let id = net.add_node("late", Starter { started: false });
        assert!(!net.node::<Starter>(id).unwrap().started, "deferred");
        net.run_until_quiescent();
        assert!(net.node::<Starter>(id).unwrap().started);
    }
}
