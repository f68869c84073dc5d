//! Input-buffered wormhole routing through a digital crossbar (§5).
//!
//! "For a wormhole message, the delay through the switch includes the time
//! required to schedule the first flit of the message, which is 80 ns. All
//! subsequent flits in the same worm are routed in 10 ns. ... worm sizes
//! are limited and in our simulation we set this limit to 128 bytes. The
//! flit size is 8 bytes. ... if a message is broken up into two worms, the
//! cable delay is only seen once as the second worm is buffered within the
//! crossbar switch."
//!
//! Model: each message is cut into worms of at most 128 bytes. Worms from
//! one source traverse the input link in FIFO order (head-of-line
//! semantics of an input-buffered switch), land in a two-worm staging
//! buffer at the crossbar input (double buffering: the next worm uploads
//! while the current one drains), then compete for their output port. A
//! granted worm occupies the output for the 80 ns scheduling of its head
//! flit plus 10 ns per flit. Blocked worms wait in FIFO arrival order.

use crate::engine::{Effect, Engine};
use crate::faultrt::{FaultRt, NicOutcome};
use crate::message::MsgState;
use crate::params::SimParams;
use crate::stats::SimStats;
use pms_faults::{FaultKind, FaultPlan};
use pms_trace::{span::SpanTracker, EvictCause, SpanPhase, TraceEvent, Tracer};
use pms_workloads::Workload;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Input-queue organization of the wormhole switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WormholeQueueing {
    /// One FIFO per input: worms depart in injection order, so a blocked
    /// head worm stalls everything behind it (head-of-line blocking) —
    /// the classical input-queued switch and this simulator's default.
    #[default]
    SingleFifo,
    /// Virtual output queues: one FIFO per (input, destination); the
    /// upload stage picks, round-robin, a queue whose output port is
    /// currently free, bypassing blocked heads. An ablation showing what
    /// wormhole gains from VOQs (per-destination order is preserved).
    Voq,
}

#[derive(Debug, Clone, Copy)]
struct Worm {
    msg: usize,
    bytes: u32,
    last: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Re-poll the program engine.
    EngineWake,
    /// A worm finished uploading into input `u`'s staging buffer.
    UploadDone(usize),
    /// The worm draining from input `u` through output `v` finished.
    DrainDone(usize, usize),
    /// A fault boundary is due: poll the fault replay.
    FaultWake,
    /// Grant-drop backoff on input `u` expired: retry the grant.
    GrantRetry(usize),
    /// A NIC-corrupted message retransmits: re-cut it into worms.
    Reinject(usize),
}

/// The wormhole-routing simulator.
pub struct WormholeSim {
    params: SimParams,
    workload_name: String,
    msgs: Vec<MsgState>,
    engine: Engine,
    events: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    seq: u64,
    queueing: WormholeQueueing,
    /// Per input, per destination: worms awaiting upload. `SingleFifo`
    /// uses index 0 only.
    queues: Vec<Vec<VecDeque<Worm>>>,
    /// Per input: round-robin cursor over destination queues (VOQ mode).
    rr: Vec<usize>,
    /// Per input: is the input link currently uploading a worm?
    uploading: Vec<Option<Worm>>,
    /// Per input: staged worms at the switch (capacity 2).
    staged: Vec<VecDeque<Worm>>,
    /// Per input: the worm currently draining through the crossbar, if any
    /// (removed from `staged` at grant time).
    draining: Vec<Option<Worm>>,
    /// Per input: is this input parked in some output's wait queue?
    waiting: Vec<bool>,
    /// Per output: inputs waiting for the port, FIFO.
    out_waiters: Vec<VecDeque<usize>>,
    /// Scratch list of the waiters a drained output wakes.
    woken: Vec<usize>,
    /// Per output: busy until this time.
    out_busy: Vec<u64>,
    undelivered: usize,
    grants: u64,
    /// Optional fault-injection runtime; `None` (also for an empty plan)
    /// takes exactly the unfaulted code path.
    faults: Option<FaultRt>,
    /// Per output: the input whose path is held open by a stuck-release
    /// fault (the worm drained but the cross-point cannot open).
    held: Vec<Option<usize>>,
    /// The fault boundary a `FaultWake` event is already scheduled for.
    fault_wake_at: Option<u64>,
    /// The future time the one pending `EngineWake` event is scheduled
    /// for; cleared when that event pops.
    engine_wake_at: Option<u64>,
    /// `EngineWake` events popped, and the distinct times among them.
    engine_wakes: u64,
    engine_wake_times: u64,
    msg_retries: u64,
    msgs_abandoned: u64,
    /// Event sink; a wormhole switch has no TDM slots, so records are
    /// stamped `slot = 0`.
    tracer: Tracer,
    spans: SpanTracker,
}

impl WormholeSim {
    /// Builds the simulator for a workload with single-FIFO inputs (the
    /// paper's baseline).
    pub fn new(workload: &Workload, params: &SimParams) -> Self {
        Self::with_queueing(workload, params, WormholeQueueing::SingleFifo)
    }

    /// Builds the simulator with an explicit input-queue organization.
    pub fn with_queueing(
        workload: &Workload,
        params: &SimParams,
        queueing: WormholeQueueing,
    ) -> Self {
        let table = workload.message_table();
        let msgs: Vec<MsgState> = table.iter().map(|m| MsgState::new(*m)).collect();
        let engine = Engine::new(workload, &table, params.nic_cycle_ns);
        let n = params.ports;
        assert_eq!(workload.ports, n, "workload/params port mismatch");
        let lanes = match queueing {
            WormholeQueueing::SingleFifo => 1,
            WormholeQueueing::Voq => n,
        };
        Self {
            params: params.clone(),
            workload_name: workload.name.clone(),
            msgs,
            engine,
            events: BinaryHeap::new(),
            seq: 0,
            queueing,
            queues: vec![vec![VecDeque::new(); lanes]; n],
            rr: vec![0; n],
            uploading: vec![None; n],
            staged: vec![VecDeque::new(); n],
            draining: vec![None; n],
            waiting: vec![false; n],
            out_waiters: vec![VecDeque::new(); n],
            woken: Vec::new(),
            out_busy: vec![0; n],
            undelivered: 0,
            grants: 0,
            faults: None,
            held: vec![None; n],
            fault_wake_at: None,
            engine_wake_at: None,
            engine_wakes: 0,
            engine_wake_times: 0,
            msg_retries: 0,
            msgs_abandoned: 0,
            tracer: Tracer::Null,
            spans: SpanTracker::new(),
        }
    }

    /// Attaches a deterministic fault plan. An empty plan is a strict
    /// no-op (byte-identical stats and traces). A worm already granted
    /// drains to completion; faults take effect at the next grant
    /// decision.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = FaultRt::new(self.params.ports, plan, self.msgs.len());
        self
    }

    fn push_event(&mut self, t: u64, ev: Ev) {
        self.seq += 1;
        self.events.push(Reverse((t, self.seq, ev)));
    }

    /// Attaches an event tracer; retrieve it via
    /// [`run_traced`](Self::run_traced).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Runs to completion and returns the statistics.
    pub fn run(self) -> SimStats {
        self.run_traced().0
    }

    /// Like [`run`](Self::run) but also returns the tracer and its
    /// collected records.
    pub fn run_traced(mut self) -> (SimStats, Tracer) {
        let end_t = self.run_events();
        assert!(
            self.engine.all_done() && self.undelivered == 0,
            "wormhole simulation stalled with {} undelivered messages",
            self.undelivered
        );
        let mut stats = SimStats::from_messages("wormhole", self.workload_name, &self.msgs);
        stats.sched_passes = self.grants;
        stats.msg_retries = self.msg_retries;
        stats.msgs_abandoned = self.msgs_abandoned;
        let mut spans = std::mem::take(&mut self.spans);
        let mut tracer = self.tracer;
        spans.finish(&mut tracer, 0, 0);
        tracer.seal(end_t, 0);
        let _ = tracer.finish();
        (stats, tracer)
    }

    /// Pops events until the queue empties or only stale wake-ups remain;
    /// returns the time of the last event popped.
    fn run_events(&mut self) -> u64 {
        self.poll_faults(0);
        self.poll_engine(0);
        let mut end_t = 0;
        let mut last_wake = None;
        while let Some(Reverse((t, _, ev))) = self.events.pop() {
            end_t = end_t.max(t);
            if self.engine.all_done() && self.undelivered == 0 {
                // Only stale wake-ups remain (fault boundaries can extend
                // far past the last delivery).
                break;
            }
            assert!(
                t <= self.params.max_sim_ns,
                "wormhole simulation exceeded {} ns (deadlock?)",
                self.params.max_sim_ns
            );
            self.poll_faults(t);
            match ev {
                Ev::EngineWake => {
                    self.engine_wakes += 1;
                    if last_wake != Some(t) {
                        self.engine_wake_times += 1;
                        last_wake = Some(t);
                    }
                    if self.engine_wake_at == Some(t) {
                        self.engine_wake_at = None;
                    }
                    self.poll_engine(t);
                }
                Ev::UploadDone(u) => self.upload_done(u, t),
                Ev::DrainDone(u, v) => self.drain_done(u, v, t),
                // Handled by the poll_faults above.
                Ev::FaultWake => {}
                Ev::GrantRetry(u) => self.try_grant(u, t),
                Ev::Reinject(msg) => self.reinject(msg, t),
            }
        }
        end_t
    }

    fn poll_engine(&mut self, now: u64) {
        let drained = self.undelivered == 0;
        let effects = self.engine.poll(now, drained);
        for (t, fx) in effects {
            match fx {
                Effect::Inject(id) => self.inject(id, t),
                // A wormhole network has no connection state to flush or
                // preload; the commands are no-ops here.
                Effect::Flush | Effect::Preload(_) => {}
            }
        }
        // One pending wake suffices: the engine's next wake cannot move
        // while a later-timed wake is pending, and a pending wake at or
        // before `now` has just been served by this poll.
        if let Some(wake) = self.engine.next_wake() {
            if wake > now && self.engine_wake_at.is_none_or(|w| w <= now || wake < w) {
                debug_assert!(
                    self.engine_wake_at.is_none_or(|w| w <= now),
                    "a second engine wake would be pending"
                );
                self.engine_wake_at = Some(wake);
                self.push_event(wake, Ev::EngineWake);
            }
        }
    }

    fn inject(&mut self, id: usize, t: u64) {
        let spec = self.msgs[id].spec;
        self.msgs[id].enqueued_at = Some(t);
        self.undelivered += 1;
        if self.tracer.enabled() {
            self.tracer.emit(
                t,
                0,
                TraceEvent::MsgInjected {
                    src: spec.src as u32,
                    dst: spec.dst as u32,
                    bytes: spec.bytes,
                    msg: id as u32,
                },
            );
            self.tracer.emit(
                t,
                0,
                TraceEvent::ConnRequested {
                    src: spec.src as u32,
                    dst: spec.dst as u32,
                },
            );
            self.spans.msg_start(
                &mut self.tracer,
                t,
                0,
                id as u32,
                spec.src as u32,
                spec.dst as u32,
            );
        }
        self.queue_worms(id, t);
    }

    /// Cuts message `id` into worms of at most `worm_max_bytes` and
    /// queues them at its source input.
    fn queue_worms(&mut self, id: usize, t: u64) {
        let spec = self.msgs[id].spec;
        let mut left = spec.bytes;
        let max = self.params.worm_max_bytes;
        let lane = match self.queueing {
            WormholeQueueing::SingleFifo => 0,
            WormholeQueueing::Voq => spec.dst,
        };
        while left > 0 {
            let chunk = left.min(max);
            left -= chunk;
            self.queues[spec.src][lane].push_back(Worm {
                msg: id,
                bytes: chunk,
                last: left == 0,
            });
        }
        self.try_upload(spec.src, t);
    }

    /// A NIC-corrupted message retransmits from scratch after backoff.
    fn reinject(&mut self, msg: usize, t: u64) {
        self.msgs[msg].remaining = self.msgs[msg].spec.bytes;
        self.queue_worms(msg, t);
    }

    /// Replays fault boundaries up to `now`: trace events, releasing
    /// stuck outputs, resetting grant-drop backoff, and re-kicking every
    /// input after a clear (a fault-blocked input has nothing else to
    /// wake it).
    fn poll_faults(&mut self, now: u64) {
        let transitions = match &mut self.faults {
            Some(f) => f.poll(now),
            None => return,
        };
        let mut kick = false;
        for tr in transitions {
            FaultRt::trace_transition(&mut self.tracer, 0, &tr);
            let (u32u, u32v) = tr.kind.pair();
            let (u, v) = (u32u as usize, u32v as usize);
            match tr.kind {
                FaultKind::LinkDown { .. } | FaultKind::StuckGrant { .. } if !tr.injected => {
                    kick = true;
                }
                FaultKind::GrantDrop { .. } if !tr.injected => {
                    if let Some(f) = &mut self.faults {
                        f.clear_drop_state(u, v);
                    }
                    kick = true;
                }
                FaultKind::StuckRelease { .. } if !tr.injected => {
                    let still_stuck = self.faults.as_ref().is_some_and(|f| f.stuck_release(u, v));
                    if self.held[v] == Some(u) && !still_stuck {
                        self.held[v] = None;
                        self.out_busy[v] = now;
                        if self.tracer.enabled() {
                            self.tracer.emit(
                                tr.t_ns,
                                0,
                                TraceEvent::ConnEvicted {
                                    src: u as u32,
                                    dst: v as u32,
                                    cause: EvictCause::Fault,
                                },
                            );
                            self.spans
                                .conn_end(&mut self.tracer, tr.t_ns, 0, u as u32, v as u32);
                        }
                        kick = true;
                    }
                }
                _ => {}
            }
        }
        if kick {
            for u in 0..self.params.ports {
                self.try_grant(u, now);
                self.try_upload(u, now);
            }
        }
        self.schedule_fault_wake();
    }

    /// Keeps one `FaultWake` event pending for the next fault boundary so
    /// the event loop cannot sleep through it.
    fn schedule_fault_wake(&mut self) {
        let Some(c) = self.faults.as_ref().and_then(|f| f.next_change()) else {
            return;
        };
        if self.fault_wake_at != Some(c) {
            self.fault_wake_at = Some(c);
            self.push_event(c, Ev::FaultWake);
        }
    }

    /// Starts uploading the next worm if the link is idle and the staging
    /// buffer has room (double buffering: one draining + one waiting).
    fn try_upload(&mut self, u: usize, now: u64) {
        if self.uploading[u].is_some() || self.staged[u].len() >= 2 {
            return;
        }
        let Some(worm) = self.next_worm(u, now) else {
            return;
        };
        let dur = self.params.worm_stream_ns(worm.bytes);
        self.uploading[u] = Some(worm);
        self.push_event(now + dur, Ev::UploadDone(u));
    }

    /// Picks the next worm to upload from input `u`'s queues.
    fn next_worm(&mut self, u: usize, now: u64) -> Option<Worm> {
        match self.queueing {
            WormholeQueueing::SingleFifo => self.queues[u][0].pop_front(),
            WormholeQueueing::Voq => {
                let lanes = self.queues[u].len();
                // Prefer, round-robin, a non-empty queue whose output is
                // currently free; otherwise take the first non-empty one.
                let mut fallback = None;
                for step in 0..lanes {
                    let v = (self.rr[u] + step) % lanes;
                    if self.queues[u][v].is_empty() {
                        continue;
                    }
                    if self.out_busy[v] <= now {
                        self.rr[u] = (v + 1) % lanes;
                        return self.queues[u][v].pop_front();
                    }
                    fallback.get_or_insert(v);
                }
                let v = fallback?;
                self.rr[u] = (v + 1) % lanes;
                self.queues[u][v].pop_front()
            }
        }
    }

    fn upload_done(&mut self, u: usize, now: u64) {
        let worm = self.uploading[u].take().expect("upload must be in flight");
        self.staged[u].push_back(worm);
        self.try_grant(u, now);
        self.try_upload(u, now);
    }

    /// Requests the output port for input `u`'s staged head worm.
    fn try_grant(&mut self, u: usize, now: u64) {
        if self.draining[u].is_some() || self.staged[u].is_empty() {
            return;
        }
        // SingleFifo grants strictly in staging order; Voq may bypass a
        // blocked head with any staged worm whose output is free
        // (per-destination order is preserved: same-destination worms
        // travel the same queue).
        let candidates = match self.queueing {
            WormholeQueueing::SingleFifo => 1,
            WormholeQueueing::Voq => self.staged[u].len(),
        };
        let pick = (0..candidates).find(|&i| {
            let worm = self.staged[u][i];
            let v = self.msgs[worm.msg].spec.dst;
            self.out_busy[v] <= now
                && self.faults.as_ref().is_none_or(|f| {
                    // Dead links cannot be granted; grant-drop backoff
                    // keeps the request line down until the timer expires.
                    f.link_ok(u, v) && !f.request_suppressed(u, v, now)
                })
        });
        let Some(i) = pick else {
            // Everything eligible is blocked: park behind the head's output
            // (at most one registration at a time). Fault-blocked inputs
            // are re-kicked by `poll_faults` when the fault clears.
            if !self.waiting[u] {
                let head = self.staged[u][0];
                let v = self.msgs[head.msg].spec.dst;
                self.waiting[u] = true;
                self.out_waiters[v].push_back(u);
            }
            return;
        };
        {
            let worm = self.staged[u][i];
            let v = self.msgs[worm.msg].spec.dst;
            if self.faults.as_ref().is_some_and(|f| f.grant_drop(u, v)) {
                // The switch would commit the connection but the grant
                // line eats the notification: the worm stays staged and
                // the NIC retries after exponential backoff.
                let (attempt, resume_at) = self
                    .faults
                    .as_mut()
                    .expect("checked above")
                    .grant_dropped(u, v, now);
                self.msg_retries += 1;
                if self.tracer.enabled() {
                    self.tracer.emit(
                        now,
                        0,
                        TraceEvent::MsgRetried {
                            src: u as u32,
                            dst: v as u32,
                            msg: worm.msg as u32,
                            attempt,
                        },
                    );
                }
                self.push_event(resume_at, Ev::GrantRetry(u));
                return;
            }
        }
        let worm = self.staged[u].remove(i).expect("index in range");
        let v = self.msgs[worm.msg].spec.dst;
        // Grant: 80 ns to schedule the head flit, then one flit per 10 ns.
        self.grants += 1;
        self.draining[u] = Some(worm);
        if self.tracer.enabled() {
            self.tracer.emit(
                now,
                0,
                TraceEvent::ConnEstablished {
                    src: u as u32,
                    dst: v as u32,
                    slot_idx: 0,
                },
            );
            self.spans
                .conn_start(&mut self.tracer, now, 0, u as u32, v as u32);
            // The grant ends `arrival`; `admit` is the 80 ns head-flit
            // schedule; no slot alignment exists, so `align` is zero-length
            // and `transfer` starts as the worm begins to drain. Later
            // worms of the same message no-op (monotone advance).
            let msg = worm.msg as u32;
            let drain = now + self.params.sched_ns;
            self.spans
                .msg_advance(&mut self.tracer, now, 0, msg, SpanPhase::Admit);
            self.spans
                .msg_advance(&mut self.tracer, drain, 0, msg, SpanPhase::Align);
            self.spans
                .msg_advance(&mut self.tracer, drain, 0, msg, SpanPhase::Transfer);
        }
        let end = now + self.params.sched_ns + self.params.worm_stream_ns(worm.bytes);
        self.out_busy[v] = end;
        self.push_event(end, Ev::DrainDone(u, v));
    }

    fn drain_done(&mut self, u: usize, v: usize, now: u64) {
        let worm = self.draining[u].take().expect("a worm was draining");
        // A never-release SL cell keeps the cross-point closed: the output
        // stays occupied (and its eviction untraced) until the fault
        // clears in `poll_faults`.
        let stuck = self.faults.as_ref().is_some_and(|f| f.stuck_release(u, v));
        if stuck {
            self.held[v] = Some(u);
            self.out_busy[v] = u64::MAX;
        } else if self.tracer.enabled() {
            // The crossbar path is held only for the worm's drain.
            self.tracer.emit(
                now,
                0,
                TraceEvent::ConnEvicted {
                    src: u as u32,
                    dst: v as u32,
                    cause: EvictCause::Drop,
                },
            );
            self.spans
                .conn_end(&mut self.tracer, now, 0, u as u32, v as u32);
        }
        if worm.last {
            // Tail latency: second wire hop + deserialization + NIC receive.
            let tail =
                self.params.link.wire_ns + self.params.link.s2p_ns + self.params.nic_cycle_ns;
            let outcome = self.faults.as_mut().map_or(NicOutcome::Deliver, |f| {
                f.nic_completion(worm.msg, u, now + tail)
            });
            let spec = self.msgs[worm.msg].spec;
            match outcome {
                NicOutcome::Deliver => {
                    self.msgs[worm.msg].delivered_at = Some(now + tail);
                    self.undelivered -= 1;
                    if self.tracer.enabled() {
                        self.tracer.emit(
                            now + tail,
                            0,
                            TraceEvent::MsgDelivered {
                                src: spec.src as u32,
                                dst: spec.dst as u32,
                                bytes: spec.bytes,
                                msg: worm.msg as u32,
                                latency_ns: self.msgs[worm.msg].latency_ns(),
                            },
                        );
                        self.spans
                            .msg_end(&mut self.tracer, now + tail, 0, worm.msg as u32);
                    }
                }
                NicOutcome::Retry { resume_at, attempt } => {
                    // Corrupted serialization: the whole message goes
                    // again after backoff.
                    self.msg_retries += 1;
                    if self.tracer.enabled() {
                        self.tracer.emit(
                            now + tail,
                            0,
                            TraceEvent::MsgRetried {
                                src: spec.src as u32,
                                dst: spec.dst as u32,
                                msg: worm.msg as u32,
                                attempt,
                            },
                        );
                    }
                    self.push_event(resume_at, Ev::Reinject(worm.msg));
                }
                NicOutcome::Abandon { retries } => {
                    self.undelivered -= 1;
                    self.msgs_abandoned += 1;
                    if self.tracer.enabled() {
                        self.tracer.emit(
                            now + tail,
                            0,
                            TraceEvent::MsgAbandoned {
                                src: spec.src as u32,
                                dst: spec.dst as u32,
                                msg: worm.msg as u32,
                                retries,
                            },
                        );
                        self.spans
                            .msg_end(&mut self.tracer, now + tail, 0, worm.msg as u32);
                    }
                }
            }
        }
        if !stuck {
            // Wake everyone waiting for this output: with VOQ bypass a
            // woken input may grant a different output, so waking only one
            // waiter could strand the port. Blocked inputs re-register.
            let mut woken = std::mem::take(&mut self.woken);
            woken.extend(self.out_waiters[v].drain(..));
            for &w in &woken {
                self.waiting[w] = false;
                self.try_grant(w, now);
            }
            woken.clear();
            self.woken = woken;
        }
        self.try_grant(u, now);
        self.try_upload(u, now);
        // Deliveries may release a barrier.
        self.poll_engine(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_workloads::{ordered_mesh, scatter, MeshSpec, Program, Workload};

    fn small_params(ports: usize) -> SimParams {
        SimParams::default().with_ports(ports)
    }

    fn single_send(ports: usize, dst: usize, bytes: u32) -> Workload {
        let mut programs = vec![Program::new(); ports];
        programs[0].send(dst, bytes);
        Workload::new("single", ports, programs)
    }

    #[test]
    fn single_small_message_timing() {
        // One 64-byte message: upload 80 ns, schedule 80 ns, drain 80 ns,
        // tail 20+30+10. Delivered at 80 + 160 + 60 = 300.
        let w = single_send(4, 1, 64);
        let stats = WormholeSim::new(&w, &small_params(4)).run();
        assert_eq!(stats.delivered_messages, 1);
        assert_eq!(stats.delivered_bytes, 64);
        assert_eq!(stats.makespan_ns, 80 + 80 + 80 + 60);
    }

    #[test]
    fn message_larger_than_worm_is_fragmented() {
        // 256 bytes = two 128-byte worms. Upload1 160; drain1 160..400;
        // upload2 160..320 overlaps; drain2 400..640; tail 60 -> 700.
        let w = single_send(4, 1, 256);
        let stats = WormholeSim::new(&w, &small_params(4)).run();
        assert_eq!(stats.delivered_messages, 1);
        assert_eq!(stats.makespan_ns, 700);
    }

    #[test]
    fn output_contention_serializes() {
        // Two inputs send 128B to the same output: the second worm waits
        // for the first to drain.
        let mut programs = vec![Program::new(); 4];
        programs[0].send(2, 128);
        programs[1].send(2, 128);
        let w = Workload::new("conflict", 4, programs);
        let stats = WormholeSim::new(&w, &small_params(4)).run();
        assert_eq!(stats.delivered_messages, 2);
        // Serial drains: worm1 drains 160..400, worm2 400..640 (+60 tail).
        assert_eq!(stats.makespan_ns, 700);
    }

    #[test]
    fn distinct_outputs_proceed_in_parallel() {
        let mut programs = vec![Program::new(); 4];
        programs[0].send(2, 128);
        programs[1].send(3, 128);
        let w = Workload::new("parallel", 4, programs);
        let stats = WormholeSim::new(&w, &small_params(4)).run();
        // Both drain concurrently; same finish as a single message.
        assert_eq!(stats.makespan_ns, 160 + 240 + 60);
    }

    #[test]
    fn scatter_delivers_everything() {
        let w = scatter(16, 64);
        let stats = WormholeSim::new(&w, &small_params(16)).run();
        assert_eq!(stats.delivered_messages, 15);
        assert_eq!(stats.delivered_bytes, 15 * 64);
        assert_eq!(stats.active_senders, 1);
        let eff = stats.efficiency(0.8);
        assert!(eff > 0.2 && eff < 0.7, "scatter efficiency {eff}");
    }

    #[test]
    fn ordered_mesh_is_conflict_light() {
        let w = ordered_mesh(MeshSpec { rows: 4, cols: 4 }, 64, 2, 0, 0);
        let stats = WormholeSim::new(&w, &small_params(16)).run();
        assert_eq!(stats.delivered_messages, 16 * 4 * 2);
        let eff = stats.efficiency(0.8);
        // 64B message: ~160 ns service for 80 ns of payload -> ~40 %.
        assert!(eff > 0.25 && eff < 0.55, "ordered mesh efficiency {eff}");
    }

    #[test]
    fn barrier_workload_completes() {
        let mut programs = vec![Program::new(); 4];
        programs[0].send(1, 128);
        for p in programs.iter_mut() {
            p.barrier();
        }
        programs[2].send(3, 128);
        let w = Workload::new("barrier", 4, programs);
        let stats = WormholeSim::new(&w, &small_params(4)).run();
        assert_eq!(stats.delivered_messages, 2);
        // Second message strictly after the first (barrier drained).
        assert!(stats.makespan_ns > 700);
    }

    #[test]
    fn voq_mode_bypasses_head_of_line_blocking() {
        // Input 0 queues: [to 2 (blocked by input 1), to 3 (free)].
        // SingleFifo: the message to 3 waits behind the blocked head.
        // Voq: it overtakes.
        let mk = || {
            let mut programs = vec![Program::new(); 4];
            programs[1].send(2, 128); // occupies output 2 first
            programs[0].delay(5); // ensure input 1 wins output 2
            programs[0].send(2, 128); // blocked behind input 1
            programs[0].send(3, 128); // HOL victim
            Workload::new("hol", 4, programs)
        };
        let fifo =
            WormholeSim::with_queueing(&mk(), &small_params(4), WormholeQueueing::SingleFifo).run();
        let voq = WormholeSim::with_queueing(&mk(), &small_params(4), WormholeQueueing::Voq).run();
        assert_eq!(fifo.delivered_messages, 3);
        assert_eq!(voq.delivered_messages, 3);
        assert!(
            voq.makespan_ns < fifo.makespan_ns,
            "VOQ {} must beat FIFO {}",
            voq.makespan_ns,
            fifo.makespan_ns
        );
    }

    #[test]
    fn voq_preserves_per_destination_order() {
        let mut programs = vec![Program::new(); 4];
        programs[0].send(1, 64).send(1, 64).send(1, 64);
        let w = Workload::new("order", 4, programs);
        let stats = WormholeSim::with_queueing(&w, &small_params(4), WormholeQueueing::Voq).run();
        assert_eq!(stats.delivered_messages, 3);
        assert_eq!(stats.delivered_bytes, 192);
    }

    #[test]
    fn voq_mode_helps_loaded_random_traffic() {
        // Under sustained random load, HOL blocking costs the single-FIFO
        // switch real throughput (VOQ wins by ~8-10% here; being a greedy
        // heuristic it can occasionally lose a little on light loads).
        let w = pms_workloads::uniform(32, 128, 40, 1);
        let fifo =
            WormholeSim::with_queueing(&w, &small_params(32), WormholeQueueing::SingleFifo).run();
        let voq = WormholeSim::with_queueing(&w, &small_params(32), WormholeQueueing::Voq).run();
        assert_eq!(fifo.delivered_bytes, voq.delivered_bytes);
        assert!(
            voq.makespan_ns < fifo.makespan_ns,
            "VOQ {} must beat FIFO {} under load",
            voq.makespan_ns,
            fifo.makespan_ns
        );
    }

    /// Each engine wake time is popped once: a poll never queues a
    /// second `EngineWake` while one is pending, so wakes do not pile up
    /// behind the worms that drain between them.
    #[test]
    fn one_engine_wake_per_wake_time() {
        use pms_workloads::random_mesh;
        let w = random_mesh(MeshSpec::for_ports(64), 64, 4, 500, 100, 7);
        let mut sim = WormholeSim::new(&w, &small_params(64));
        sim.run_events();
        assert_eq!(sim.undelivered, 0);
        assert!(sim.engine_wake_times > 0);
        assert!(
            sim.engine_wakes <= sim.engine_wake_times + 1,
            "{} engine wakes popped for {} distinct wake times",
            sim.engine_wakes,
            sim.engine_wake_times
        );
    }

    #[test]
    fn conservation_of_bytes() {
        let w = ordered_mesh(MeshSpec { rows: 2, cols: 4 }, 24, 3, 0, 0);
        let stats = WormholeSim::new(&w, &small_params(8)).run();
        assert_eq!(stats.delivered_bytes, w.total_bytes());
        assert_eq!(stats.delivered_messages as usize, w.message_count());
    }
}
