//! The four workloads: their seeded inputs, their cells, and how one
//! cell is built, run, and checked.
//!
//! A cell is one paradigm (or admission policy) on one input pattern.
//! Building it (simulator or engine construction) is set-up work; running
//! it is the timed phase. Every call into a layer goes through the
//! [`SpanLog`], so the traced run sees each boundary from outside.

use crate::drift::{RAW_EXPONENT, SIMULATOR_EXPONENT, TRACKING_EXPONENT};
use crate::spans::SpanLog;
use pms_admit::{
    AdmitConfig, AdmitEngine, AdmitStats, Backpressure, Decision, PolicyKind, RateConfig,
};
use pms_analyze::{build_report, parse_jsonl, ReportConfig};
use pms_multistage::{MultistageRouter, StageGraph};
use pms_sched::SlotRouter;
use pms_sim::{CircuitSim, PredictorKind, SimParams, SimStats, TdmMode, TdmSim, WormholeSim};
use pms_trace::{record_json, AlertRules, SnapshotConfig, Tracer, DEFAULT_WINDOW_SLOTS};
use pms_workloads::{
    arrivals, hotspot, random_mesh, two_phase, uniform, ArrivalConfig, ConnRequest, MeshSpec,
    Workload,
};
use std::cell::Cell as SharedCell;
use std::rc::Rc;
use std::time::Instant;

/// TDM configuration registers `K` (the paper's evaluation system).
pub const SLOTS: usize = 4;

/// Idle time-out of the `dynamic_timeout` cells, in ns.
pub const TIMEOUT_NS: u64 = 400;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The paper's system: N=128, K=4, one lane, every paradigm.
    PaperN128,
    /// Dense 512-port traffic, incl. the multistage router.
    FabricN512,
    /// The `paper-n128` dynamic and wormhole two-phase cells at N=64, run
    /// with tracing, alerts, the report and a JSONL replay.
    ObserveN64,
    /// The streaming admission engine over a seeded arrival stream.
    AdmitN128,
}

impl WorkloadKind {
    /// Every workload, in documentation order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::PaperN128,
        WorkloadKind::FabricN512,
        WorkloadKind::ObserveN64,
        WorkloadKind::AdmitN128,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::PaperN128 => "paper-n128",
            WorkloadKind::FabricN512 => "fabric-n512",
            WorkloadKind::ObserveN64 => "observe-n64",
            WorkloadKind::AdmitN128 => "admit-n128",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker lanes (`SimParams::threads`) of the untimed warm-up. The
    /// timed repetitions run on one lane and must reproduce the warm-up's
    /// outputs, so on `fabric-n512`, whose sizes cross every `pms-par`
    /// threshold, every repetition checks the byte-identity contract
    /// between two lanes and one.
    pub fn warm_up_lanes(self) -> usize {
        match self {
            WorkloadKind::FabricN512 => 2,
            _ => 1,
        }
    }

    /// The exponents its set-up and run times are drift-adjusted with
    /// (see [`crate::stats::drift_adjust`]), in that order.
    pub fn drift_exponents(self) -> (f64, f64) {
        match self {
            WorkloadKind::PaperN128 | WorkloadKind::ObserveN64 => {
                (SIMULATOR_EXPONENT, SIMULATOR_EXPONENT)
            }
            WorkloadKind::AdmitN128 => (RAW_EXPONENT, TRACKING_EXPONENT),
            _ => (TRACKING_EXPONENT, TRACKING_EXPONENT),
        }
    }
}

/// Input scale: `Full` is what the benchmark measures, `Tiny` a
/// seconds-fast version of the same workload for the benchmark's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// Small ports and message counts, same cells and metrics.
    Tiny,
}

/// A simulated switching paradigm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Paradigm {
    /// Input-buffered wormhole crossbar.
    Wormhole,
    /// Circuit switching (TDM degree 1).
    Circuit,
    /// Dynamic TDM, Drop predictor (Table 1 behaviour).
    Dynamic,
    /// Dynamic TDM, time-out predictor.
    DynamicTimeout,
    /// Preloaded (compiled) TDM.
    Preload,
    /// Dynamic TDM (Drop) over an Omega multistage fabric.
    Omega,
}

impl Paradigm {
    fn tag(self) -> &'static str {
        match self {
            Paradigm::Wormhole => "wormhole",
            Paradigm::Circuit => "circuit",
            Paradigm::Dynamic => "dynamic",
            Paradigm::DynamicTimeout => "dynamic_timeout",
            Paradigm::Preload => "preload",
            Paradigm::Omega => "omega",
        }
    }

    /// Whether the cell runs the `pms-sched` scheduler (and so scans the
    /// VOQs once per pass).
    pub fn scheduled(self) -> bool {
        !matches!(self, Paradigm::Wormhole | Paradigm::Preload)
    }
}

/// A seeded input pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// §5 Two Phase: all-to-all, barrier, 16 random nearest-neighbour rounds.
    TwoPhase,
    /// §5 Random Mesh, 16 rounds.
    RandomMesh,
    /// Uniform random destinations at 512 ports.
    Uniform512,
    /// 5 % of messages to one hot port, the rest uniform, at 512 ports.
    Hotspot512,
    /// The uniform stream behind the admission arrivals.
    Uniform,
}

impl Pattern {
    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Pattern::TwoPhase => "two_phase",
            Pattern::RandomMesh => "random_mesh",
            Pattern::Uniform512 => "uniform512",
            Pattern::Hotspot512 => "hotspot512",
            Pattern::Uniform => "uniform",
        }
    }
}

/// What a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// A simulator run with tracing off.
    Sim(Paradigm),
    /// A simulator run the way `simulate --report --alerts` runs it.
    Observe(Paradigm),
    /// One admission-engine run under one policy.
    Admit(PolicyKind),
}

/// One cell of a workload's mix.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Metric-name suffix, e.g. `dynamic.two_phase`.
    pub name: String,
    /// What runs.
    pub kind: CellKind,
    /// Index of the input pattern the cell runs on.
    pub pattern: usize,
}

/// A workload's fixed shape.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub kind: WorkloadKind,
    /// Scale.
    pub size: Size,
    /// Crossbar ports.
    pub ports: usize,
    /// Input patterns, by index.
    pub patterns: Vec<Pattern>,
    /// The mix, in run order.
    pub cells: Vec<CellSpec>,
}

impl Spec {
    /// The shape of workload `kind` at scale `size`.
    pub fn new(kind: WorkloadKind, size: Size) -> Spec {
        let full = size == Size::Full;
        let (ports, patterns, paradigms, observe, policies): (
            usize,
            Vec<Pattern>,
            Vec<Paradigm>,
            bool,
            Vec<PolicyKind>,
        ) = match kind {
            WorkloadKind::PaperN128 => (
                if full { 128 } else { 16 },
                vec![Pattern::TwoPhase, Pattern::RandomMesh],
                vec![
                    Paradigm::Wormhole,
                    Paradigm::Circuit,
                    Paradigm::Dynamic,
                    Paradigm::DynamicTimeout,
                    Paradigm::Preload,
                ],
                false,
                vec![],
            ),
            WorkloadKind::FabricN512 => (
                if full { 512 } else { 16 },
                vec![Pattern::Uniform512, Pattern::Hotspot512],
                vec![Paradigm::Dynamic, Paradigm::Omega, Paradigm::Wormhole],
                false,
                vec![],
            ),
            WorkloadKind::ObserveN64 => (
                if full { 64 } else { 16 },
                vec![Pattern::TwoPhase],
                vec![Paradigm::Dynamic, Paradigm::Wormhole],
                true,
                vec![],
            ),
            WorkloadKind::AdmitN128 => (
                if full { 128 } else { 16 },
                vec![Pattern::Uniform],
                vec![],
                false,
                vec![PolicyKind::Fifo, PolicyKind::Strict, PolicyKind::Pifo],
            ),
        };
        let mut cells = Vec::new();
        for (pattern, pat) in patterns.iter().enumerate() {
            let pname = pat.name();
            for &p in &paradigms {
                let (name, kind) = if observe {
                    (format!("traced_{}.{pname}", p.tag()), CellKind::Observe(p))
                } else {
                    (format!("{}.{pname}", p.tag()), CellKind::Sim(p))
                };
                cells.push(CellSpec {
                    name,
                    kind,
                    pattern,
                });
            }
            for &pol in &policies {
                cells.push(CellSpec {
                    name: pol.name().to_string(),
                    kind: CellKind::Admit(pol),
                    pattern,
                });
            }
        }
        Spec {
            kind,
            size,
            ports,
            patterns,
            cells,
        }
    }

    /// Simulator parameters for a run on `lanes` worker lanes.
    pub fn params(&self, lanes: usize) -> SimParams {
        SimParams::default()
            .with_ports(self.ports)
            .with_tdm_slots(SLOTS)
            .with_threads(lanes)
    }

    /// Admission-engine configuration: rate limiter on and shed-oldest
    /// backpressure, tight enough that grants, rate rejects and sheds all
    /// happen on the seeded stream.
    pub fn admit_config(&self) -> AdmitConfig {
        let mut cfg = AdmitConfig::new(self.ports);
        cfg.backpressure = Backpressure::ShedOldest;
        cfg.queue_cap = self.ports;
        cfg.rate = Some(RateConfig {
            rate_per_sec: 60_000_000,
            burst: 8,
        });
        cfg
    }

    /// Generates the seeded inputs: one workload per pattern, plus the
    /// arrival stream for `admit-n128`. Same seed, same inputs.
    pub fn inputs(&self, seed: u64) -> Inputs {
        let full = self.size == Size::Full;
        let n = self.ports;
        let mesh = || MeshSpec::for_ports(n);
        let workloads: Vec<Workload> = self
            .patterns
            .iter()
            .enumerate()
            .map(|(i, pattern)| {
                let s = mix_seed(seed, i as u64);
                match pattern {
                    Pattern::TwoPhase => two_phase(mesh(), 64, 16, 500, 100, s),
                    Pattern::RandomMesh => {
                        random_mesh(mesh(), 64, if full { 16 } else { 2 }, 500, 100, s)
                    }
                    Pattern::Uniform512 => uniform(n, 64, if full { 8 } else { 4 }, s),
                    Pattern::Hotspot512 => hotspot(n, 64, if full { 8 } else { 4 }, 0.05, s),
                    Pattern::Uniform => uniform(n, 64, if full { 4096 } else { 32 }, s),
                }
            })
            .collect();
        let stream = if self.kind == WorkloadKind::AdmitN128 {
            let cfg = ArrivalConfig {
                send_gap_ns: 100,
                tenants: 8,
            };
            arrivals(&workloads[0], &cfg).as_slice().to_vec()
        } else {
            Vec::new()
        };
        Inputs { workloads, stream }
    }
}

/// SplitMix64 of `seed` and a pattern index: decorrelated per-pattern
/// seeds from the one `--seed`.
fn mix_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One repetition's generated inputs.
pub struct Inputs {
    /// One workload per pattern.
    pub workloads: Vec<Workload>,
    /// The admission stream (`admit-n128` only).
    pub stream: Vec<ConnRequest>,
}

/// A 64-bit output digest (FxHash-style multiply-rotate over words).
/// Digests are compared between runs of the same program, never
/// attacked, so speed matters more than strength.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds a number in.
    fn u64(self, x: u64) -> Self {
        Digest((self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95))
    }

    /// Folds bytes in, eight at a time, then their length.
    fn bytes(self, b: &[u8]) -> Self {
        let mut h = self;
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            h = h.u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        h.u64(u64::from_le_bytes(tail)).u64(b.len() as u64)
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Route-layer timings gathered by [`TimingRouter`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteTimes {
    /// Nanoseconds inside `try_admit`.
    pub try_admit_ns: u64,
    /// Nanoseconds inside `release`.
    pub release_ns: u64,
    /// `try_admit` calls.
    pub attempts: u64,
    /// `try_admit` calls that routed the connection.
    pub admitted: u64,
}

/// A [`SlotRouter`] that times every call into the wrapped
/// [`MultistageRouter`] and otherwise forwards it unchanged.
pub struct TimingRouter {
    inner: MultistageRouter,
    times: Rc<SharedCell<RouteTimes>>,
}

impl TimingRouter {
    /// Wraps `inner`; timings accumulate into `times`.
    pub fn new(inner: MultistageRouter, times: Rc<SharedCell<RouteTimes>>) -> Self {
        TimingRouter { inner, times }
    }
}

impl SlotRouter for TimingRouter {
    fn try_admit(&mut self, slot: usize, u: usize, v: usize) -> bool {
        let start = Instant::now();
        let ok = self.inner.try_admit(slot, u, v);
        let ns = start.elapsed().as_nanos() as u64;
        let mut t = self.times.get();
        t.try_admit_ns += ns;
        t.attempts += 1;
        t.admitted += u64::from(ok);
        self.times.set(t);
        ok
    }

    fn release(&mut self, slot: usize, u: usize, v: usize) {
        let start = Instant::now();
        self.inner.release(slot, u, v);
        let ns = start.elapsed().as_nanos() as u64;
        let mut t = self.times.get();
        t.release_ns += ns;
        self.times.set(t);
    }

    fn stages(&self) -> usize {
        self.inner.stages()
    }
}

/// A built, not yet run, simulator. One lives per cell run and is
/// consumed by it, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Built {
    Tdm(TdmSim),
    Circuit(CircuitSim),
    Wormhole(WormholeSim),
}

impl Built {
    fn new(
        p: Paradigm,
        w: &Workload,
        params: &SimParams,
        tracer: Tracer,
        route: Option<&Rc<SharedCell<RouteTimes>>>,
    ) -> Built {
        let dynamic = |pred| TdmMode::Dynamic { predictor: pred };
        match p {
            Paradigm::Wormhole => Built::Wormhole(WormholeSim::new(w, params).with_tracer(tracer)),
            Paradigm::Circuit => Built::Circuit(CircuitSim::new(w, params).with_tracer(tracer)),
            Paradigm::Dynamic => {
                Built::Tdm(TdmSim::new(w, params, dynamic(PredictorKind::Drop)).with_tracer(tracer))
            }
            Paradigm::DynamicTimeout => Built::Tdm(
                TdmSim::new(w, params, dynamic(PredictorKind::Timeout(TIMEOUT_NS)))
                    .with_tracer(tracer),
            ),
            Paradigm::Preload => {
                Built::Tdm(TdmSim::new(w, params, TdmMode::Preload).with_tracer(tracer))
            }
            Paradigm::Omega => {
                let router = MultistageRouter::new(StageGraph::omega(params.ports), SLOTS);
                let router: Box<dyn SlotRouter> = match route {
                    Some(times) => Box::new(TimingRouter::new(router, Rc::clone(times))),
                    None => Box::new(router),
                };
                Built::Tdm(
                    TdmSim::new(w, params, dynamic(PredictorKind::Drop))
                        .with_router(router)
                        .with_mode_label("mstdm-omega")
                        .with_tracer(tracer),
                )
            }
        }
    }

    fn run(self) -> (SimStats, Tracer) {
        match self {
            Built::Tdm(s) => s.run_traced(),
            Built::Circuit(s) => s.run_traced(),
            Built::Wormhole(s) => s.run_traced(),
        }
    }
}

/// The exact counters of a simulator run the per-layer table reports
/// (the full `SimStats` carries latency samples; repetitions keep only
/// these, so the benchmark's own memory does not grow with the run).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounts {
    /// Scheduler passes (wormhole: arbitration grants).
    pub sched_passes: u64,
    /// Connections established.
    pub established: u64,
    /// Predictor evictions.
    pub evictions: u64,
    /// Working-set lookups.
    pub ws_lookups: u64,
    /// Working-set hits.
    pub ws_hits: u64,
}

impl SimCounts {
    fn of(s: &SimStats) -> Self {
        SimCounts {
            sched_passes: s.sched_passes,
            established: s.connections_established,
            evictions: s.predictor_evictions,
            ws_lookups: s.ws_lookups,
            ws_hits: s.ws_hits,
        }
    }
}

/// How a cell is run beyond its spec.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOpts {
    /// Wrap the Omega router in a [`TimingRouter`].
    pub time_routes: bool,
    /// Run `Observe` cells with tracing off (the untraced twin used for
    /// `trace.overhead_frac`).
    pub untraced_observe: bool,
}

/// What one cell run produced.
#[derive(Debug, Clone, Default)]
pub struct CellRun {
    /// Set-up seconds (simulator / engine construction).
    pub build_s: f64,
    /// Timed-phase seconds.
    pub run_s: f64,
    /// Operations completed: messages delivered, or requests decided.
    pub ops: u64,
    /// Operations the inputs call for.
    pub expected_ops: u64,
    /// Digest of the cell's full output (serialized `SimStats`, or the
    /// admission decision stream).
    pub digest: u64,
    /// Exact simulator counters (simulator cells).
    pub stats: Option<SimCounts>,
    /// Engine counters (admission cells).
    pub admit: Option<AdmitStats>,
    /// Observe cells: trace records collected.
    pub records: u64,
    /// Observe cells: seconds in the simulator itself.
    pub sim_s: f64,
    /// Observe cells: seconds in `Tracer::finish`.
    pub finish_s: f64,
    /// Observe cells: seconds building the live report.
    pub report_s: f64,
    /// Observe cells: seconds in the JSONL write -> parse -> report trip.
    pub roundtrip_s: f64,
    /// Observe cells: whether the replayed report equals the live one.
    pub replay_matches: bool,
    /// Omega cells with [`RunOpts::time_routes`]: route timings.
    pub route: Option<RouteTimes>,
}

impl CellRun {
    /// Whether the run's own checks passed and its digest equals
    /// `reference` (the same cell's output from the reference run).
    pub fn passes(&self, spec: &CellSpec, reference: u64) -> bool {
        let observe_ok = !matches!(spec.kind, CellKind::Observe(_)) || self.replay_matches;
        self.ops == self.expected_ops && self.digest == reference && observe_ok
    }
}

/// Builds and runs cell `idx` of `spec` on `inputs`, with `lanes` worker
/// lanes, recording spans into `log`.
pub fn run_cell(
    spec: &Spec,
    idx: usize,
    inputs: &Inputs,
    lanes: usize,
    opts: RunOpts,
    log: &mut SpanLog,
) -> CellRun {
    let cell = &spec.cells[idx];
    let w = &inputs.workloads[cell.pattern];
    let c = Some(idx);
    match cell.kind {
        CellKind::Sim(p) => {
            let params = spec.params(lanes);
            let times = (opts.time_routes && p == Paradigm::Omega)
                .then(|| Rc::new(SharedCell::new(RouteTimes::default())));
            let (built, build_s) = log.time("sim.build", c, || {
                Built::new(p, w, &params, Tracer::Null, times.as_ref())
            });
            let ((stats, _), run_s) = log.time("sim.run", c, || built.run());
            let (digest, _) = log.time("bench.check", c, || stats_digest(&stats));
            CellRun {
                build_s,
                run_s,
                ops: stats.delivered_messages,
                expected_ops: w.message_count() as u64,
                digest,
                stats: Some(SimCounts::of(&stats)),
                route: times.map(|t| t.get()),
                ..CellRun::default()
            }
        }
        CellKind::Observe(p) => {
            let params = spec.params(lanes);
            let (built, build_s) = log.time("sim.build", c, || {
                let tracer = if opts.untraced_observe {
                    Tracer::Null
                } else {
                    let snaps = SnapshotConfig::per_slots(params.slot_ns, DEFAULT_WINDOW_SLOTS);
                    Tracer::pipeline(snaps, Some(AlertRules::default_flight()), Tracer::vec())
                };
                Built::new(p, w, &params, tracer, None)
            });
            let timed = log.open("observe.run", c);
            let ((stats, mut tracer), sim_s) = log.time("sim.run", c, || built.run());
            let (records, finish_s) = log.time("trace.finish", c, || {
                tracer
                    .finish()
                    .expect("in-memory tracer cannot fail to flush");
                tracer.records()
            });
            let cfg = ReportConfig::default();
            let (live, report_s) = log.time("analyze.report", c, || {
                build_report(&records, &cfg).to_json().render_pretty()
            });
            let (replayed, roundtrip_s) = log.time("analyze.jsonl_roundtrip", c, || {
                let mut jsonl = String::new();
                for rec in &records {
                    jsonl.push_str(&record_json(rec).render());
                    jsonl.push('\n');
                }
                let replay = parse_jsonl(&jsonl).expect("JSONL written by the tracer parses");
                build_report(&replay.records, &cfg)
                    .to_json()
                    .render_pretty()
            });
            let run_s = log.close(timed);
            let (digest, _) = log.time("bench.check", c, || stats_digest(&stats));
            CellRun {
                build_s,
                run_s,
                ops: stats.delivered_messages,
                expected_ops: w.message_count() as u64,
                digest,
                stats: Some(SimCounts::of(&stats)),
                records: records.len() as u64,
                sim_s,
                finish_s,
                report_s,
                roundtrip_s,
                replay_matches: live == replayed,
                ..CellRun::default()
            }
        }
        CellKind::Admit(pol) => {
            let (mut engine, build_s) = log.time("admit.build", c, || {
                AdmitEngine::new(spec.admit_config(), pol.build())
            });
            let (out, run_s) = log.time("admit.run", c, || {
                engine.run(inputs.stream.iter().copied(), &mut Tracer::Null)
            });
            let (digest, _) = log.time("bench.check", c, || decisions_digest(&out.decisions));
            CellRun {
                build_s,
                run_s,
                ops: out.stats.granted + out.stats.rejected(),
                expected_ops: inputs.stream.len() as u64,
                digest,
                admit: Some(out.stats),
                ..CellRun::default()
            }
        }
    }
}

/// Digest of the serialized statistics block.
pub fn stats_digest(stats: &SimStats) -> u64 {
    Digest::default()
        .bytes(stats.to_json().render().as_bytes())
        .finish()
}

/// Digest of a decision stream (every field of every decision, in order).
pub fn decisions_digest(decisions: &[Decision]) -> u64 {
    let mut h = Digest::default().u64(decisions.len() as u64);
    for d in decisions {
        h = match *d {
            Decision::Grant {
                req,
                tenant,
                src,
                dst,
                wait_ns,
            } => h
                .u64(1)
                .u64(req.into())
                .u64(tenant.into())
                .u64(src.into())
                .u64(dst.into())
                .u64(wait_ns),
            Decision::Evict { src, dst } => h.u64(2).u64(src.into()).u64(dst.into()),
            Decision::Reject {
                req,
                tenant,
                src,
                dst,
                cause,
            } => h
                .u64(3)
                .u64(req.into())
                .u64(tenant.into())
                .u64(src.into())
                .u64(dst.into())
                .bytes(cause.label().as_bytes()),
        };
    }
    h.finish()
}
