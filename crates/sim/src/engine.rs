//! The processor/program execution engine shared by all paradigm
//! simulators.
//!
//! Each processor executes its command file sequentially: a `send` costs
//! one NIC cycle (10 ns) and injects a message into the VOQ; `delay` models
//! computation; `barrier` blocks until every processor reaches its barrier
//! *and* the network has drained; `flush`/`preload` raise control effects
//! the paradigm simulator forwards to the scheduler.
//!
//! Runnable processors sit in time buckets (an ordered map from due time
//! to processors; lockstep processors share one), beside a parked list
//! and a finished count. [`Engine::poll`] runs only the due processors,
//! in index order — the `(time, proc, command)` effect order of a scan
//! over every processor. [`Engine::next_wake`] and [`Engine::all_done`]
//! are O(1); barrier release is a counter comparison.

use pms_workloads::{Command, MsgSpec, Workload};
use std::collections::BTreeMap;

/// A control effect produced by program execution, timestamped with the
/// exact processor-local time at which the command executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Message (by canonical id) entered its source NIC queue.
    Inject(usize),
    /// The processor issued a network flush request.
    Flush,
    /// The processor requested preloading workload pattern `usize`.
    Preload(usize),
}

/// Program-execution state for one processor.
struct Proc {
    cmds: Vec<Command>,
    pc: usize,
    ready_at: u64,
    at_barrier: bool,
    /// Canonical message ids originating here, in command order.
    msgs: Vec<usize>,
    next_msg: usize,
}

impl Proc {
    /// Executes this processor up to `now`, buffering effects.
    fn execute(&mut self, now: u64, nic_cycle_ns: u64, effects: &mut Vec<(u64, Effect)>) {
        while !self.at_barrier && self.pc < self.cmds.len() && self.ready_at <= now {
            let t = self.ready_at;
            match self.cmds[self.pc] {
                Command::Send { .. } => {
                    let id = self.msgs[self.next_msg];
                    self.next_msg += 1;
                    effects.push((t, Effect::Inject(id)));
                    self.ready_at = t + nic_cycle_ns;
                    self.pc += 1;
                }
                Command::Delay { ns } => {
                    self.ready_at = t + ns;
                    self.pc += 1;
                }
                Command::Barrier => {
                    self.at_barrier = true;
                    // pc advances at release
                    break;
                }
                Command::Flush => {
                    effects.push((t, Effect::Flush));
                    self.ready_at = t + nic_cycle_ns;
                    self.pc += 1;
                }
                Command::Preload { pattern } => {
                    effects.push((t, Effect::Preload(pattern)));
                    self.ready_at = t + nic_cycle_ns;
                    self.pc += 1;
                }
            }
        }
    }
}

/// Runnable processors (neither parked nor finished) bucketed by the
/// time their next command is due; each appears exactly once.
#[derive(Default)]
struct ReadyIndex {
    buckets: BTreeMap<u64, Vec<usize>>,
    /// Emptied buckets kept for reuse.
    spare: Vec<Vec<usize>>,
}

impl ReadyIndex {
    fn push(&mut self, t: u64, p: usize) {
        let spare = &mut self.spare;
        self.buckets
            .entry(t)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push(p);
    }

    /// Moves every processor due by `now` into `due`, in index order.
    fn pop_due(&mut self, now: u64, due: &mut Vec<usize>) {
        due.clear();
        while let Some(entry) = self.buckets.first_entry() {
            if *entry.key() > now {
                break;
            }
            let mut bucket = entry.remove();
            due.append(&mut bucket);
            self.spare.push(bucket);
        }
        due.sort_unstable();
    }
}

/// Program-execution state for all processors.
pub struct Engine {
    procs: Vec<Proc>,
    nic_cycle_ns: u64,
    ready: ReadyIndex,
    /// Processors parked at the current barrier.
    parked: Vec<usize>,
    /// Processors that executed their whole program.
    finished: usize,
    /// Scratch list of the processors due in one poll round.
    due: Vec<usize>,
}

impl Engine {
    /// Builds an engine from a workload and its canonical message table
    /// (the table must come from [`Workload::message_table`] so ids line
    /// up).
    pub fn new(workload: &Workload, table: &[MsgSpec], nic_cycle_ns: u64) -> Self {
        let n = workload.ports;
        let mut msgs_by_src = vec![Vec::new(); n];
        for m in table {
            msgs_by_src[m.src].push(m.id);
        }
        let procs: Vec<Proc> = workload
            .programs
            .iter()
            .zip(msgs_by_src)
            .map(|(p, msgs)| Proc {
                cmds: p.cmds.clone(),
                pc: 0,
                ready_at: 0,
                at_barrier: false,
                msgs,
                next_msg: 0,
            })
            .collect();
        let mut ready = ReadyIndex::default();
        let mut finished = 0;
        for (i, p) in procs.iter().enumerate() {
            if p.cmds.is_empty() {
                finished += 1;
            } else {
                ready.push(0, i);
            }
        }
        Self {
            procs,
            nic_cycle_ns,
            ready,
            parked: Vec::new(),
            finished,
            due: Vec::new(),
        }
    }

    /// True when every processor has executed its whole program.
    pub fn all_done(&self) -> bool {
        self.finished == self.procs.len()
    }

    /// The earliest future time at which a processor has work to run, or
    /// `None` if all are done or blocked on a barrier.
    pub fn next_wake(&self) -> Option<u64> {
        self.ready.buckets.first_key_value().map(|(&t, _)| t)
    }

    /// Runs every processor forward to `now`. `network_drained` must be
    /// true iff no injected message is still undelivered; it gates barrier
    /// release. Returns timestamped effects in nondecreasing time order.
    ///
    /// Release and execution iterate to a fixpoint, so a processor that
    /// reaches its barrier during this poll can still be released by it —
    /// but only while no message has been injected in the meantime (an
    /// injection invalidates `network_drained`).
    pub fn poll(&mut self, now: u64, network_drained: bool) -> Vec<(u64, Effect)> {
        let mut effects = Vec::new();
        loop {
            self.run_due(now, &mut effects);
            let drained =
                network_drained && !effects.iter().any(|(_, e)| matches!(e, Effect::Inject(_)));
            if !self.try_release_barrier(now, drained) {
                break;
            }
        }
        effects.sort_by_key(|&(t, _)| t);
        effects
    }

    /// Runs every processor due by `now`, in index order, and files each
    /// back as runnable, parked, or finished.
    fn run_due(&mut self, now: u64, effects: &mut Vec<(u64, Effect)>) {
        self.ready.pop_due(now, &mut self.due);
        for &p in &self.due {
            let proc = &mut self.procs[p];
            proc.execute(now, self.nic_cycle_ns, effects);
            if proc.at_barrier {
                self.parked.push(p);
            } else if proc.pc < proc.cmds.len() {
                self.ready.push(proc.ready_at, p);
            } else {
                self.finished += 1;
            }
        }
    }

    /// Releases the barrier if every processor is parked (or finished) and
    /// the network is empty. Returns whether a release happened.
    fn try_release_barrier(&mut self, now: u64, network_drained: bool) -> bool {
        if !network_drained
            || self.parked.is_empty()
            || self.parked.len() + self.finished < self.procs.len()
        {
            return false;
        }
        for &p in &self.parked {
            let proc = &mut self.procs[p];
            proc.at_barrier = false;
            proc.pc += 1;
            proc.ready_at = proc.ready_at.max(now);
            if proc.pc < proc.cmds.len() {
                self.ready.push(proc.ready_at, p);
            } else {
                self.finished += 1;
            }
        }
        self.parked.clear();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pms_workloads::Program;
    use proptest::prelude::*;

    fn wl(programs: Vec<Program>) -> (Workload, Vec<MsgSpec>) {
        let n = programs.len();
        let w = Workload::new("t", n, programs);
        let table = w.message_table();
        (w, table)
    }

    #[test]
    fn sends_are_paced_by_nic_cycle() {
        let mut p = Program::new();
        p.send(1, 8).send(1, 8).send(1, 8);
        let (w, table) = wl(vec![p, Program::new()]);
        let mut e = Engine::new(&w, &table, 10);
        let fx = e.poll(100, true);
        assert_eq!(
            fx,
            vec![
                (0, Effect::Inject(0)),
                (10, Effect::Inject(1)),
                (20, Effect::Inject(2)),
            ]
        );
        assert!(e.all_done());
    }

    #[test]
    fn delay_postpones_following_sends() {
        let mut p = Program::new();
        p.send(1, 8).delay(500).send(1, 8);
        let (w, table) = wl(vec![p, Program::new()]);
        let mut e = Engine::new(&w, &table, 10);
        let fx = e.poll(0, true);
        assert_eq!(fx, vec![(0, Effect::Inject(0))]);
        // The delay command itself executes at t=10 (after the send's NIC
        // cycle), pushing the next send to t=510.
        assert_eq!(e.next_wake(), Some(10));
        assert!(e.poll(509, true).is_empty());
        assert_eq!(e.next_wake(), Some(510));
        assert_eq!(e.poll(510, true), vec![(510, Effect::Inject(1))]);
    }

    #[test]
    fn barrier_waits_for_all_and_drain() {
        let mut a = Program::new();
        a.send(1, 8).barrier().send(1, 8);
        let mut b = Program::new();
        b.delay(100).barrier();
        let (w, table) = wl(vec![a, b]);
        let mut e = Engine::new(&w, &table, 10);
        // t=0: proc 0 sends then parks; proc 1 still delaying.
        let fx = e.poll(0, false);
        assert_eq!(fx, vec![(0, Effect::Inject(0))]);
        // t=100: both at barrier but network not drained.
        assert!(e.poll(100, false).is_empty());
        assert!(!e.all_done());
        // Drained: barrier releases and proc 0 continues.
        let fx = e.poll(200, true);
        assert_eq!(fx, vec![(200, Effect::Inject(1))]);
        assert!(e.all_done());
    }

    #[test]
    fn barrier_release_waits_for_stragglers_even_if_drained() {
        let mut a = Program::new();
        a.barrier();
        let mut b = Program::new();
        b.delay(1_000).barrier();
        let (w, table) = wl(vec![a, b]);
        let mut e = Engine::new(&w, &table, 10);
        assert!(e.poll(500, true).is_empty());
        assert!(!e.all_done(), "proc 1 has not reached the barrier yet");
        e.poll(1_000, true);
        assert!(e.all_done());
    }

    #[test]
    fn flush_and_preload_effects() {
        let mut p = Program::new();
        p.cmds.push(Command::Preload { pattern: 1 });
        p.cmds.push(Command::Flush);
        let (w, table) = wl(vec![p, Program::new()]);
        let mut e = Engine::new(&w, &table, 10);
        let fx = e.poll(50, true);
        assert_eq!(fx, vec![(0, Effect::Preload(1)), (10, Effect::Flush)]);
    }

    #[test]
    fn finished_engine_has_no_wake() {
        let (w, table) = wl(vec![Program::new(), Program::new()]);
        let mut e = Engine::new(&w, &table, 10);
        assert!(e.all_done());
        assert_eq!(e.next_wake(), None);
        assert!(e.poll(0, true).is_empty());
    }

    /// The linear-scan engine the ready index replaced: every poll scans
    /// every processor, and barrier release is a flag scan. Kept as the
    /// equivalence oracle.
    struct ScanEngine {
        procs: Vec<Proc>,
        nic_cycle_ns: u64,
    }

    impl ScanEngine {
        fn new(workload: &Workload, table: &[MsgSpec], nic_cycle_ns: u64) -> Self {
            let e = Engine::new(workload, table, nic_cycle_ns);
            Self {
                procs: e.procs,
                nic_cycle_ns,
            }
        }

        fn done(p: &Proc) -> bool {
            p.pc >= p.cmds.len() && !p.at_barrier
        }

        fn all_done(&self) -> bool {
            self.procs.iter().all(Self::done)
        }

        fn next_wake(&self) -> Option<u64> {
            self.procs
                .iter()
                .filter(|p| !Self::done(p) && !p.at_barrier)
                .map(|p| p.ready_at)
                .min()
        }

        fn poll(&mut self, now: u64, network_drained: bool) -> Vec<(u64, Effect)> {
            let mut effects = Vec::new();
            // One more scan after a pass that released nothing finds
            // nothing due, so the fixpoint ends at the first such pass.
            loop {
                for p in &mut self.procs {
                    p.execute(now, self.nic_cycle_ns, &mut effects);
                }
                let drained =
                    network_drained && !effects.iter().any(|(_, e)| matches!(e, Effect::Inject(_)));
                let released = drained
                    && self.procs.iter().any(|p| p.at_barrier)
                    && self.procs.iter().all(|p| p.at_barrier || Self::done(p));
                if !released {
                    break;
                }
                for p in &mut self.procs {
                    if p.at_barrier {
                        p.at_barrier = false;
                        p.pc += 1;
                        p.ready_at = p.ready_at.max(now);
                    }
                }
            }
            effects.sort_by_key(|&(t, _)| t);
            effects
        }
    }

    fn cmd_strategy(n: usize) -> impl Strategy<Value = Command> {
        prop_oneof![
            4 => (0..n, 1u32..300).prop_map(|(dst, bytes)| Command::Send { dst, bytes }),
            1 => Just(Command::Delay { ns: 0 }),
            2 => (1u64..400).prop_map(|ns| Command::Delay { ns }),
            2 => Just(Command::Barrier),
            1 => Just(Command::Flush),
            1 => (0usize..3).prop_map(|pattern| Command::Preload { pattern }),
        ]
    }

    /// Programs for `n` processors (some empty); self-sends are skewed to
    /// the next processor, and a lone processor sends nothing.
    fn programs_strategy() -> impl Strategy<Value = Vec<Program>> {
        (1usize..10).prop_flat_map(|n| {
            prop::collection::vec(prop::collection::vec(cmd_strategy(n), 0..9), n).prop_map(
                move |procs| {
                    procs
                        .into_iter()
                        .enumerate()
                        .map(|(p, cmds)| {
                            let mut prog = Program::new();
                            for c in cmds {
                                match c {
                                    Command::Send { .. } if n == 1 => {}
                                    Command::Send { dst, bytes } => {
                                        let dst = if dst == p { (dst + 1) % n } else { dst };
                                        prog.send(dst, bytes);
                                    }
                                    c => prog.cmds.push(c),
                                }
                            }
                            prog
                        })
                        .collect()
                },
            )
        })
    }

    /// Poll steps: a time advance (often zero, sometimes to the engine's
    /// own next wake) and the `network_drained` flag.
    fn steps_strategy() -> impl Strategy<Value = Vec<(Option<u64>, bool)>> {
        let advance = prop_oneof![
            2 => Just(Some(0u64)),
            3 => (1u64..40).prop_map(Some),
            1 => (100u64..600).prop_map(Some),
            2 => Just(None),
        ];
        let drained = prop_oneof![1 => Just(false), 2 => Just(true)];
        prop::collection::vec((advance, drained), 1..60)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The ready-indexed engine and the linear-scan oracle agree on
        /// every effect vector, `next_wake` and `all_done` at every step,
        /// whatever the programs and drain flags.
        #[test]
        fn ready_index_matches_linear_scan(
            programs in programs_strategy(),
            steps in steps_strategy(),
        ) {
            let (w, table) = wl(programs);
            let mut fast = Engine::new(&w, &table, 10);
            let mut scan = ScanEngine::new(&w, &table, 10);
            prop_assert_eq!(fast.next_wake(), scan.next_wake());
            prop_assert_eq!(fast.all_done(), scan.all_done());
            let mut now = 0u64;
            // `None` jumps to the next wake (or one tick on when nothing
            // is runnable); a drained tail then finishes every program.
            let tail = std::iter::repeat_n((None, true), 2 * 9 * w.ports + 16);
            for (i, (advance, drained)) in steps.into_iter().chain(tail).enumerate() {
                now += advance.unwrap_or_else(|| {
                    scan.next_wake().map_or(1, |t| t.saturating_sub(now))
                });
                prop_assert_eq!(
                    fast.poll(now, drained),
                    scan.poll(now, drained),
                    "effects diverge at step {} (t={})", i, now
                );
                prop_assert_eq!(fast.next_wake(), scan.next_wake(), "next_wake at step {}", i);
                prop_assert_eq!(fast.all_done(), scan.all_done(), "all_done at step {}", i);
            }
            prop_assert!(fast.all_done(), "a drained tail must finish every program");
        }
    }
}
