//! The measurement loop: warm-up, timed repetitions, output checks, and
//! the metric table.
//!
//! Untraced run (`--trace 0`): one untimed warm-up repetition, then
//! repetitions of the whole mix, on one lane, until `--seconds` have
//! passed. Each
//! repetition generates the inputs from the seed and builds and runs
//! every cell, timing the drift reference before the generation and
//! again before each cell; each piece of work is scaled by the reference
//! timed right before it. The end-to-end metrics are per-repetition
//! medians of drift-adjusted times.
//!
//! Traced run (`--trace 1`): the same warm-up, then rounds of an
//! untraced repetition, a traced one (spans plus `pms_trace::prof`), and
//! a workload-specific twin (2 lanes on `fabric-n512`, tracing off on
//! `observe-n64`), followed by the layer replays. Only per-layer
//! metrics come out of it.

use crate::cells::{
    run_cell, CellKind, CellRun, Inputs, Paradigm, RouteTimes, RunOpts, Size, Spec, WorkloadKind,
};
use crate::drift::{Reference, REF_NOMINAL_S};
use crate::replay::{self, Costs};
use crate::spans::SpanLog;
use crate::stats::{drift_adjust, fit_estimates, median, quartiles, shares, LayerTime};
use pms_trace::{prof, Json};
use std::time::Instant;

/// Fewest timed repetitions an untraced run makes.
const MIN_REPS: usize = 3;

/// Fewest rounds (untraced, traced, twin) a traced run makes.
const MIN_ROUNDS: usize = 2;

/// Most timed repetitions a run makes, however short they are.
const MAX_REPS: usize = 1000;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: WorkloadKind,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds to keep repeating the timed phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted: one cell of one repetition each.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Raw and adjusted figures for auditing the drift adjustment.
    pub audit: Json,
    /// Traced run: the recorded spans as JSON Lines.
    pub spans: Option<String>,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Float(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Object(metrics)),
        ])
    }
}

/// One repetition of the whole mix.
#[derive(Debug, Clone)]
struct Rep {
    /// Reference-loop seconds, measured at the start of the repetition,
    /// before input generation.
    ref_s: f64,
    /// Reference-loop seconds measured right before each cell, in mix
    /// order.
    cell_ref_s: Vec<f64>,
    /// The workload's drift exponents for set-up and run times.
    exponents: (f64, f64),
    /// Input generation seconds.
    gen_s: f64,
    /// Cell runs, in mix order.
    cells: Vec<CellRun>,
}

impl Rep {
    /// Raw set-up seconds: input generation plus every build.
    fn setup_s(&self) -> f64 {
        self.gen_s + self.cells.iter().map(|c| c.build_s).sum::<f64>()
    }

    /// Raw timed-phase seconds: every cell's run.
    fn wall_s(&self) -> f64 {
        self.cells.iter().map(|c| c.run_s).sum()
    }

    /// Operations completed.
    fn ops(&self) -> u64 {
        self.cells.iter().map(|c| c.ops).sum()
    }

    /// Sum over the cells of `f(cell)`, each scaled by the reference
    /// timed right before that cell with exponent `e`.
    fn adjusted(&self, f: fn(&CellRun) -> f64, e: f64) -> f64 {
        self.cells
            .iter()
            .zip(&self.cell_ref_s)
            .map(|(c, &r)| drift_adjust(f(c), r, REF_NOMINAL_S, e))
            .sum()
    }

    /// Input generation (one thread, scaled by the repetition's first
    /// reference) plus every build.
    fn adj_setup_s(&self) -> f64 {
        let e = self.exponents.0;
        drift_adjust(self.gen_s, self.ref_s, REF_NOMINAL_S, e) + self.adjusted(|c| c.build_s, e)
    }

    fn adj_wall_s(&self) -> f64 {
        self.adjusted(|c| c.run_s, self.exponents.1)
    }

    /// Median of the per-cell reference times.
    fn cell_ref_median(&self) -> f64 {
        median(&self.cell_ref_s)
    }
}

struct Bench {
    spec: Spec,
    seed: u64,
    reference: Reference,
    log: SpanLog,
    /// Per-cell output digests of the warm-up repetition.
    expected: Vec<u64>,
    attempted: u64,
    failed: u64,
}

impl Bench {
    fn rep(&mut self, lanes: usize, opts: RunOpts) -> Rep {
        let root = self.log.open("rep", None);
        let ref_s = self.reference();
        let (spec, seed) = (&self.spec, self.seed);
        let (inputs, gen_s): (Inputs, f64) =
            self.log.time("workloads.gen", None, || spec.inputs(seed));
        let n = self.spec.cells.len();
        let (mut cells, mut cell_ref_s) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for i in 0..n {
            cell_ref_s.push(self.reference());
            cells.push(run_cell(&self.spec, i, &inputs, lanes, opts, &mut self.log));
        }
        self.log.close(root);
        Rep {
            ref_s,
            cell_ref_s,
            exponents: self.spec.kind.drift_exponents(),
            gen_s,
            cells,
        }
    }

    /// Times the reference loop.
    fn reference(&mut self) -> f64 {
        let reference = &mut self.reference;
        let (secs, _) = self.log.time("drift.ref", None, || reference.measure());
        secs
    }

    /// Counts one operation per cell and a failure per failed check.
    fn check(&mut self, rep: &Rep) {
        for (i, (cell, run)) in self.spec.cells.iter().zip(&rep.cells).enumerate() {
            self.attempted += 1;
            if !run.passes(cell, self.expected[i]) {
                self.failed += 1;
                eprintln!(
                    "check failed: {} (ops {} of {}, digest {:016x} vs {:016x})",
                    cell.name, run.ops, run.expected_ops, run.digest, self.expected[i]
                );
            }
        }
    }

    /// Warm-up: one untimed repetition, on the workload's warm-up lanes,
    /// whose digests every later repetition must reproduce — at any lane
    /// count.
    fn warm_up(&mut self) {
        let rep = self.rep(self.spec.kind.warm_up_lanes(), RunOpts::default());
        self.expected = rep.cells.iter().map(|c| c.digest).collect();
    }
}

/// Settles the allocator before anything is measured. glibc serves
/// large allocations with `mmap` and raises that threshold, up to 32 MiB,
/// whenever such a block is freed; left alone, the order in which the
/// first large blocks happen to be freed decides where later ones live,
/// and the peak resident memory of identical runs differs by megabytes.
/// Reserving (never touching) and freeing one block just under the
/// ceiling raises the threshold once, up front. It adds nothing to the
/// resident memory.
fn settle_allocator() {
    let block: Vec<u8> = Vec::with_capacity((32 << 20) - (64 << 10));
    drop(std::hint::black_box(block));
}

/// Runs the benchmark.
pub fn run(opts: &Options) -> Outcome {
    settle_allocator();
    let spec = Spec::new(opts.workload, opts.size);
    let mut b = Bench {
        spec,
        seed: opts.seed,
        reference: Reference::new(),
        log: SpanLog::new(false),
        expected: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    b.warm_up();
    if opts.trace {
        traced(&mut b, opts)
    } else {
        untraced(&mut b, opts)
    }
}

/// What the untraced run keeps of one repetition: plain numbers, so
/// that keeping them allocates nothing once the run is going, and the
/// peak resident memory does not depend on how many repetitions fit.
#[derive(Debug, Clone, Copy)]
struct Sample {
    ref_s: f64,
    cell_ref_s: f64,
    setup_s: f64,
    wall_s: f64,
    adj_setup_s: f64,
    adj_wall_s: f64,
    ops: f64,
}

impl Sample {
    fn of(rep: &Rep) -> Sample {
        Sample {
            ref_s: rep.ref_s,
            cell_ref_s: rep.cell_ref_median(),
            setup_s: rep.setup_s(),
            wall_s: rep.wall_s(),
            adj_setup_s: rep.adj_setup_s(),
            adj_wall_s: rep.adj_wall_s(),
            ops: rep.ops() as f64,
        }
    }
}

fn untraced(b: &mut Bench, opts: &Options) -> Outcome {
    let start = Instant::now();
    let mut reps: Vec<Sample> = Vec::with_capacity(MAX_REPS);
    while reps.len() < MIN_REPS
        || (start.elapsed().as_secs_f64() < opts.seconds && reps.len() < MAX_REPS)
    {
        let rep = b.rep(1, RunOpts::default());
        b.check(&rep);
        reps.push(Sample::of(&rep));
    }
    let col = |f: fn(&Sample) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let adj_setup = col(|r| r.adj_setup_s);
    let adj_wall = col(|r| r.adj_wall_s);
    let rates = col(|r| r.ops / r.adj_wall_s);
    let metric = |name: &str, value: f64, unit| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    let metrics = vec![
        metric("setup_s", median(&adj_setup), "s"),
        metric("wall_s", median(&adj_wall), "s"),
        metric("ops_per_s", median(&rates), "1/s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];
    let raw_setup = col(|r| r.setup_s);
    let raw_wall = col(|r| r.wall_s);
    let raw_rates = col(|r| r.ops / r.wall_s);
    let refs = col(|r| r.ref_s);
    let cell_refs = col(|r| r.cell_ref_s);
    let audit = Json::obj([
        ("reps", Json::UInt(reps.len() as u64)),
        ("ref_s", summary(&refs)),
        ("cell_ref_s", summary(&cell_refs)),
        ("raw_setup_s", summary(&raw_setup)),
        ("raw_wall_s", summary(&raw_wall)),
        ("raw_ops_per_s", summary(&raw_rates)),
        ("adj_setup_s", summary(&adj_setup)),
        ("adj_wall_s", summary(&adj_wall)),
        ("adj_ops_per_s", summary(&rates)),
    ]);
    Outcome {
        attempted: b.attempted,
        failed: b.failed,
        metrics,
        audit,
        spans: None,
    }
}

/// Median and quartiles of a sample, for the audit line.
fn summary(xs: &[f64]) -> Json {
    let (q1, q3) = quartiles(xs);
    Json::obj([
        ("median", Json::Float(median(xs))),
        ("q1", Json::Float(q1)),
        ("q3", Json::Float(q3)),
    ])
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// The twin repetition a traced round adds for its workload.
fn twin(kind: WorkloadKind) -> Option<(usize, RunOpts)> {
    match kind {
        WorkloadKind::FabricN512 => Some((2, RunOpts::default())),
        WorkloadKind::ObserveN64 => Some((
            1,
            RunOpts {
                untraced_observe: true,
                ..RunOpts::default()
            },
        )),
        _ => None,
    }
}

/// Every simulator cell name across all workloads: the per-cell metric
/// names are the same on every workload (0 where a cell does not run).
fn all_sim_cells(size: Size) -> Vec<(WorkloadKind, String)> {
    WorkloadKind::ALL
        .iter()
        .flat_map(|&k| {
            Spec::new(k, size)
                .cells
                .into_iter()
                .filter(|c| !matches!(c.kind, CellKind::Admit(_)))
                .map(move |c| (k, c.name))
        })
        .collect()
}

fn traced(b: &mut Bench, opts: &Options) -> Outcome {
    let kind = opts.workload;
    let traced_opts = RunOpts {
        time_routes: true,
        ..RunOpts::default()
    };
    let (mut base, mut spanned, mut twins) = (Vec::new(), Vec::new(), Vec::new());
    let mut roots = Vec::new();
    prof::set_enabled(false);
    prof::reset();
    let start = Instant::now();
    while base.len() < MIN_ROUNDS
        || (start.elapsed().as_secs_f64() < opts.seconds && base.len() < MAX_REPS)
    {
        let rep = b.rep(1, RunOpts::default());
        b.check(&rep);
        base.push(rep);

        b.log.set_enabled(true);
        prof::set_enabled(true);
        roots.push(b.log.spans().len());
        let rep = b.rep(1, traced_opts);
        prof::set_enabled(false);
        b.log.set_enabled(false);
        b.check(&rep);
        spanned.push(rep);

        if let Some((twin_lanes, twin_opts)) = twin(kind) {
            let rep = b.rep(twin_lanes, twin_opts);
            b.check(&rep);
            twins.push(rep);
        }
    }
    let inputs = b.spec.inputs(b.seed);
    let params = b.spec.params(1);
    let costs: Vec<Costs> = inputs
        .workloads
        .iter()
        .map(|w| replay::costs(w, &params))
        .collect();

    let mut m = Table::default();
    let spec = &b.spec;
    let n = spanned.len() as f64;
    let cell_med = |reps: &[Rep], i: usize, f: fn(&CellRun) -> f64| {
        median(&reps.iter().map(|r| f(&r.cells[i])).collect::<Vec<_>>())
    };
    // Median over repetitions of a per-repetition sum over the cells.
    let sum_med = |reps: &[Rep], f: &dyn Fn(&CellRun) -> f64| {
        median(
            &reps
                .iter()
                .map(|r| r.cells.iter().map(f).sum())
                .collect::<Vec<f64>>(),
        )
    };
    let first = &spanned[0];

    // Host and benchmark overhead.
    let refs: Vec<f64> = base.iter().map(|r| r.ref_s).collect();
    m.push("host.ref_ms", median(&refs) * 1e3, "ms");
    let raw_wall: Vec<f64> = base.iter().map(Rep::wall_s).collect();
    let raw_setup: Vec<f64> = base.iter().map(Rep::setup_s).collect();
    m.push("host.raw_wall_s", median(&raw_wall), "s");
    m.push("host.raw_setup_s", median(&raw_setup), "s");
    let total = |r: &Rep| r.setup_s() + r.wall_s();
    let base_total = median(&base.iter().map(total).collect::<Vec<_>>());
    let span_total = median(&spanned.iter().map(total).collect::<Vec<_>>());
    m.push(
        "bench.trace_overhead_frac",
        span_total / base_total - 1.0,
        "fraction",
    );
    let traced_wall: f64 = roots.iter().map(|&i| b.log.spans()[i].seconds()).sum();
    m.push("bench.traced_wall_s", traced_wall / n, "s");

    // Set-up and run time per cell.
    m.push(
        "workloads.gen_s",
        median(&spanned.iter().map(|r| r.gen_s).collect::<Vec<_>>()),
        "s",
    );
    let names = all_sim_cells(opts.size);
    let index = |name: &str| spec.cells.iter().position(|c| c.name == name);
    for (_, name) in &names {
        let v = index(name).map_or(0.0, |i| cell_med(&spanned, i, |c| c.build_s));
        m.push(&format!("sim.build_s.{name}"), v, "s");
    }
    for (_, name) in &names {
        let v = index(name).map_or(0.0, |i| {
            let observe = matches!(spec.cells[i].kind, CellKind::Observe(_));
            if observe {
                cell_med(&spanned, i, |c| c.sim_s)
            } else {
                cell_med(&spanned, i, |c| c.run_s)
            }
        });
        m.push(&format!("sim.run_s.{name}"), v, "s");
    }

    // Lanes: 2-lane over 1-lane run time, both untraced.
    for (k, name) in &names {
        if *k != WorkloadKind::FabricN512 {
            continue;
        }
        let (one, two) = index(name).map_or((0.0, 0.0), |i| {
            (
                cell_med(&base, i, |c| c.run_s),
                cell_med(&twins, i, |c| c.run_s),
            )
        });
        let lane_ratio = if one > 0.0 { two / one } else { 0.0 };
        m.push(&format!("par.lane_ratio.{name}"), lane_ratio, "ratio");
        m.push(&format!("par.run_1lane_s.{name}"), one, "s");
        m.push(&format!("par.run_2lane_s.{name}"), two, "s");
    }

    // Route layer, through the timing router (Omega cells).
    let route_sum = |r: &Rep| {
        r.cells
            .iter()
            .filter_map(|c| c.route)
            .fold(RouteTimes::default(), |mut a, t| {
                a.try_admit_ns += t.try_admit_ns;
                a.release_ns += t.release_ns;
                a.attempts += t.attempts;
                a.admitted += t.admitted;
                a
            })
    };
    let routes: Vec<_> = spanned.iter().map(route_sum).collect();
    let rt = routes[0];
    m.push(
        "route.try_admit_s",
        median(
            &routes
                .iter()
                .map(|t| t.try_admit_ns as f64 * 1e-9)
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    m.push(
        "route.release_s",
        median(
            &routes
                .iter()
                .map(|t| t.release_ns as f64 * 1e-9)
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    m.push("route.calls", rt.attempts as f64, "count");
    m.push(
        "route.admit_ratio",
        ratio(rt.admitted, rt.attempts),
        "ratio",
    );

    // Tracing and analysis (observe cells; the fields are 0 elsewhere).
    m.push("trace.finish_s", sum_med(&spanned, &|x| x.finish_s), "s");
    m.push(
        "trace.records",
        first.cells.iter().map(|c| c.records).sum::<u64>() as f64,
        "count",
    );
    m.push("analyze.report_s", sum_med(&spanned, &|x| x.report_s), "s");
    m.push(
        "analyze.jsonl_roundtrip_s",
        sum_med(&spanned, &|x| x.roundtrip_s),
        "s",
    );
    let overhead = if kind == WorkloadKind::ObserveN64 {
        sum_med(&spanned, &|x| x.sim_s) / sum_med(&twins, &|x| x.sim_s) - 1.0
    } else {
        0.0
    };
    m.push("trace.overhead_frac", overhead, "fraction");

    // Admission engine.
    let admit_run = |x: &CellRun| if x.admit.is_some() { x.run_s } else { 0.0 };
    m.push("admit.run_s", sum_med(&spanned, &admit_run), "s");
    let (mut granted, mut rejected, mut shed, mut batches) = (0, 0, 0, 0);
    for s in first.cells.iter().filter_map(|c| c.admit) {
        granted += s.granted;
        rejected += s.rejected();
        shed += s.rejected_shed;
        batches += s.batches;
    }
    m.push("admit.granted", granted as f64, "count");
    m.push("admit.rejected", rejected as f64, "count");
    m.push("admit.shed", shed as f64, "count");
    m.push("admit.batches", batches as f64, "count");
    let capacity = batches * spec.admit_config().batch as u64;
    m.push("admit.batch_fill", ratio(granted, capacity), "ratio");

    // Exact simulator counts (scheduled cells).
    let (mut passes, mut est, mut evict, mut lookups, mut hits) = (0, 0, 0, 0, 0);
    for (c, x) in spec.cells.iter().zip(&first.cells) {
        let (CellKind::Sim(p) | CellKind::Observe(p)) = c.kind else {
            continue;
        };
        let s = x.stats.as_ref().expect("simulator cell has stats");
        if p.scheduled() {
            passes += s.sched_passes;
            est += s.established;
        }
        evict += s.evictions;
        lookups += s.ws_lookups;
        hits += s.ws_hits;
    }
    m.push("sched.passes", passes as f64, "count");
    m.push("sched.established", est as f64, "count");
    m.push("predict.evictions", evict as f64, "count");
    m.push("predict.ws_lookups", lookups as f64, "count");
    m.push("predict.ws_hit_ratio", ratio(hits, lookups), "ratio");

    // Kernel profiler counts, per traced repetition.
    for snap in prof::snapshot() {
        let label = snap.kernel.label();
        let per_rep = |v: u64| v as f64 / n;
        m.push(&format!("prof.{label}.calls"), per_rep(snap.calls), "count");
        m.push(&format!("prof.{label}.words"), per_rep(snap.words), "count");
        let est_s = if snap.timed_calls > 0 {
            snap.timed_ns as f64 * snap.calls as f64 / snap.timed_calls as f64 * 1e-9 / n
        } else {
            0.0
        };
        m.push(&format!("prof.{label}.est_s"), est_s, "s");
    }

    // Per-call replay costs, averaged over the workload's patterns.
    let mean = |f: fn(&Costs) -> f64| costs.iter().map(f).sum::<f64>() / costs.len() as f64;
    m.push("sched.pass_ns", mean(|c| c.pass_ns), "ns");
    m.push("sched.sl_pass_ns", mean(|c| c.sl_pass_ns), "ns");
    m.push("sched.presched_ns", mean(|c| c.presched_ns), "ns");
    m.push("voq.visible_ns", mean(|c| c.visible_ns), "ns");
    m.push("engine.poll_ns", mean(|c| c.poll_ns), "ns");
    m.push("predict.timeout_ns", mean(|c| c.timeout_ns), "ns");

    // Layer shares of the traced wall time.
    let twin_sim: Vec<f64> = (0..spec.cells.len())
        .map(|i| {
            if twins.is_empty() {
                0.0
            } else {
                cell_med(&twins, i, |c| c.sim_s)
            }
        })
        .collect();
    let layers = attribute(&b.log, &roots, spec, &spanned, &costs, &twin_sim);
    for (name, share) in shares(&layers, traced_wall) {
        m.push(&format!("layer.{name}.share"), share, "fraction");
    }

    let audit = Json::obj([
        ("base_reps", Json::UInt(base.len() as u64)),
        ("traced_reps", Json::UInt(spanned.len() as u64)),
        ("twin_reps", Json::UInt(twins.len() as u64)),
        ("ref_s", summary(&refs)),
    ]);
    let cell_names: Vec<String> = spec.cells.iter().map(|c| c.name.clone()).collect();
    Outcome {
        attempted: b.attempted,
        failed: b.failed,
        metrics: m.0,
        audit,
        spans: Some(b.log.to_jsonl(&cell_names)),
    }
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[derive(Default)]
struct Table(Vec<Metric>);

impl Table {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// The named layers, in table order.
pub const LAYERS: [&str; 11] = [
    "workloads",
    "build",
    "sched",
    "voq",
    "engine",
    "predict",
    "route",
    "trace",
    "analyze",
    "admit",
    "bench",
];

/// Attributes the traced repetitions' span self times to layers. Spans
/// map to layers by name; a simulator run (`sim.run`) is split by
/// estimate — replay cost times exact call count for the scheduler, VOQ
/// scan, engine and predictor, measured time for the route layer, and
/// the traced-minus-untraced difference for trace emission — and
/// whatever the estimates leave is `other`.
fn attribute(
    log: &SpanLog,
    roots: &[usize],
    spec: &Spec,
    reps: &[Rep],
    costs: &[Costs],
    twin_sim_s: &[f64],
) -> Vec<LayerTime> {
    let mut t = [0.0f64; LAYERS.len()];
    let mut add = |name: &str, s: f64| {
        let i = LAYERS.iter().position(|l| *l == name).expect("known layer");
        t[i] += s;
    };
    let spans = log.spans();
    let rep_of = |mut i: usize| loop {
        match spans[i].parent {
            Some(p) => i = p,
            None => {
                break roots
                    .iter()
                    .position(|&r| r == i)
                    .expect("span under a rep")
            }
        }
    };
    for (i, s) in spans.iter().enumerate() {
        let own = log.self_seconds(i);
        match s.name {
            "drift.ref" | "bench.check" => add("bench", own),
            "workloads.gen" => add("workloads", own),
            "sim.build" | "admit.build" => add("build", own),
            "trace.finish" => add("trace", own),
            "analyze.report" | "analyze.jsonl_roundtrip" => add("analyze", own),
            "admit.run" => add("admit", own),
            "sim.run" => {
                let c = s.cell.expect("sim.run names its cell");
                let cell = &spec.cells[c];
                let run = &reps[rep_of(i)].cells[c];
                let mut left = own;
                if let CellKind::Observe(_) = cell.kind {
                    let emit = (own - twin_sim_s[c]).clamp(0.0, own);
                    add("trace", emit);
                    left -= emit;
                }
                let (CellKind::Sim(p) | CellKind::Observe(p)) = cell.kind else {
                    unreachable!("sim.run on an admission cell");
                };
                let k = &costs[cell.pattern];
                let passes = run.stats.as_ref().map_or(0, |s| s.sched_passes) as f64;
                let mut est = vec![LayerTime {
                    name: "engine",
                    seconds: k.engine_s,
                }];
                if p.scheduled() {
                    est.push(LayerTime {
                        name: "sched",
                        seconds: k.pass_ns * passes * 1e-9,
                    });
                    est.push(LayerTime {
                        name: "voq",
                        seconds: k.visible_ns * passes * 1e-9,
                    });
                }
                if p == Paradigm::DynamicTimeout {
                    est.push(LayerTime {
                        name: "predict",
                        seconds: k.timeout_ns * passes * 1e-9,
                    });
                }
                if let Some(r) = run.route {
                    est.push(LayerTime {
                        name: "route",
                        seconds: (r.try_admit_ns + r.release_ns) as f64 * 1e-9,
                    });
                }
                fit_estimates(&mut est, left);
                for l in est {
                    add(l.name, l.seconds);
                }
            }
            // `rep` and `observe.run` self time is unattributed: other.
            _ => {}
        }
    }
    LAYERS
        .iter()
        .zip(t)
        .map(|(&name, seconds)| LayerTime { name, seconds })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_cell_is_scaled_by_the_reference_timed_before_it() {
        let cell = |build_s, run_s| CellRun {
            build_s,
            run_s,
            ..CellRun::default()
        };
        let rep = Rep {
            ref_s: REF_NOMINAL_S * 2.0,
            cell_ref_s: vec![REF_NOMINAL_S, REF_NOMINAL_S * 4.0],
            exponents: (1.5, 1.5),
            gen_s: 0.1,
            cells: vec![cell(0.2, 1.0), cell(0.4, 2.0)],
        };
        let eighth = 0.125;
        assert!((rep.adj_wall_s() - (1.0 + 2.0 * eighth)).abs() < 1e-12);
        let gen = 0.1 * 0.5f64.powf(1.5);
        assert!((rep.adj_setup_s() - (gen + 0.2 + 0.4 * eighth)).abs() < 1e-12);
        assert_eq!(rep.wall_s(), 3.0);
        assert!((rep.setup_s() - 0.7).abs() < 1e-12);
    }
}
