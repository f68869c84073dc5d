//! Per-call layer costs, replayed from outside through the public API.
//!
//! Each replay feeds one layer inputs built from the workload's own
//! `connection_trace()` and message table and times it in isolation:
//! `Scheduler::pass`, `sl_pass`, `presched_matrix`,
//! `Voqs::visible_requests`, `Engine::poll` and the `TimeoutPredictor`.
//! Multiplied by exact call counts from `SimStats` these give the
//! *estimated* layer shares of a simulator run; they are estimates until
//! the simulator records its own layer spans.

use crate::cells::{SLOTS, TIMEOUT_NS};
use pms_bitmat::BitMatrix;
use pms_predict::{ConnectionPredictor, TimeoutPredictor};
use pms_sched::{presched_matrix, sl_pass, HoldPolicy, Priority, Scheduler, SchedulerConfig};
use pms_sim::voq::Voqs;
use pms_sim::{Engine, MsgState, SimParams};
use pms_workloads::Workload;
use std::hint::black_box;
use std::time::Instant;

/// Each replay repeats until it has run at least this long.
const MIN_REPLAY_S: f64 = 0.01;

/// Request matrices replayed through the scheduler.
const MAX_WINDOWS: usize = 256;

/// Per-call costs of one workload pattern, in nanoseconds (except
/// `engine_s`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Costs {
    /// One `Scheduler::pass` (pre-scheduling plus SL pass plus commit).
    pub pass_ns: f64,
    /// One `sl_pass`.
    pub sl_pass_ns: f64,
    /// One `presched_matrix` (Table 1).
    pub presched_ns: f64,
    /// One `Voqs::visible_requests` scan.
    pub visible_ns: f64,
    /// One `Engine::poll` while driving the programs to completion.
    pub poll_ns: f64,
    /// Seconds to drive every program through `Engine::poll` once.
    pub engine_s: f64,
    /// One time-out predictor step (`on_use` plus `take_evictions`).
    pub timeout_ns: f64,
}

/// Calls `step` (which reports how many calls it made) until
/// [`MIN_REPLAY_S`] has passed; returns nanoseconds per call.
fn per_call(mut step: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_secs_f64() < MIN_REPLAY_S || calls == 0 {
        calls += step();
    }
    start.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Request matrices: consecutive `ports`-pair windows of the
/// connection trace.
fn windows(w: &Workload) -> Vec<BitMatrix> {
    let n = w.ports;
    w.connection_trace()
        .chunks(n)
        .take(MAX_WINDOWS)
        .map(|ch| BitMatrix::from_pairs(n, n, ch.iter().copied()))
        .collect()
}

/// Replays every layer on `w` under `params`.
pub fn costs(w: &Workload, params: &SimParams) -> Costs {
    let n = w.ports;
    let reqs = windows(w);
    let mut sched = Scheduler::new(SchedulerConfig::new(n, SLOTS).with_hold(HoldPolicy::Drop));
    let pass_ns = per_call(|| {
        for r in &reqs {
            black_box(sched.pass(r));
        }
        reqs.len() as u64
    });

    // Table 1 and the SL pass, on the register state the replay left.
    let b_star = sched.b_star().clone();
    let b_s = sched.config(0).clone();
    let presched_ns = per_call(|| {
        for r in &reqs {
            black_box(presched_matrix(r, &b_star, &b_s));
        }
        reqs.len() as u64
    });
    let ls: Vec<BitMatrix> = reqs
        .iter()
        .map(|r| presched_matrix(r, &b_star, &b_s))
        .collect();
    let sl_pass_ns = per_call(|| {
        for l in &ls {
            black_box(sl_pass(l, &b_s, Priority::default()));
        }
        ls.len() as u64
    });

    // VOQ scan with the head of the message table queued.
    let table = w.message_table();
    let mut msgs: Vec<MsgState> = table.iter().map(|m| MsgState::new(*m)).collect();
    let mut voqs = Voqs::new(n);
    for (id, m) in msgs.iter_mut().enumerate().take(4 * n) {
        m.enqueued_at = Some(0);
        voqs.push(m.spec.src, m.spec.dst, id);
    }
    let visible_ns = per_call(|| {
        black_box(voqs.visible_requests(&msgs, params.request_wire_ns, 1_000));
        1
    });

    // The program engine, driven to completion with the network always
    // drained (so barriers release as soon as every processor reaches
    // them).
    let (mut polls, mut drives, mut poll_s) = (0u64, 0u32, 0.0);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < MIN_REPLAY_S || drives == 0 {
        let mut e = Engine::new(w, &table, params.nic_cycle_ns);
        let drive = Instant::now();
        let mut t = 0u64;
        loop {
            black_box(e.poll(t, true));
            polls += 1;
            if e.all_done() {
                break;
            }
            t = e.next_wake().map_or(t + 1, |wake| wake.max(t + 1));
        }
        poll_s += drive.elapsed().as_secs_f64();
        drives += 1;
    }
    let poll_ns = poll_s * 1e9 / polls as f64;
    let engine_s = poll_s / f64::from(drives);

    // The time-out predictor over the connection trace, one use per
    // 10 ns, evicting as the simulator does once per scheduling pass.
    let trace = w.connection_trace();
    let timeout_ns = per_call(|| {
        let mut pred = TimeoutPredictor::new(TIMEOUT_NS);
        let mut live = BitMatrix::square(n);
        for (i, &(u, v)) in trace.iter().enumerate() {
            let now = i as u64 * 10;
            if live.get(u, v) {
                pred.on_use(u, v, now);
            } else {
                pred.on_establish(u, v, now);
                live.set(u, v, true);
            }
            for (a, b) in pred.take_evictions(now) {
                live.set(a, b, false);
            }
        }
        trace.len() as u64
    });

    Costs {
        pass_ns,
        sl_pass_ns,
        presched_ns,
        visible_ns,
        poll_ns,
        engine_s,
        timeout_ns,
    }
}
