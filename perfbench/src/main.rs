//! `perfbench`: the simulator's end-to-end and per-layer host-time
//! benchmark.
//!
//! ```text
//! perfbench --workload <lebench_sweep|datacenter|warm_rerun> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --pin <seed>...     # print reference digest lines
//! ```
//!
//! The seed is written into `KernelConfig::seed` of the paper-scale
//! kernel. Human-readable lines go to stdout; the last stdout line is the
//! JSON result. See `NOTES.md`.

use perfbench::cells::{self, Cell, CellSet};
use perfbench::output::{result_line, Metric};
use perfbench::pmu::{Counters, Sample, Scope};
use perfbench::replay::replay_cell;
use perfbench::stats::{median, percentile, tail_percentile};
use perfbench::trace::{self_by_name, Recorder, Span};
use persp_kernel::kernel::KernelImage;
use persp_uarch::config::CoreConfig;
use persp_workloads::memo::{self, CacheConfig, Protocol};
use persp_workloads::report::{measurement_from_json, Json};
use persp_workloads::runner::try_measure_image_full;
use persp_workloads::{run_parallel_with, Measurement};
use perspective::policy::PerspectiveConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Worker threads for every parallel phase: the 2 cores the workloads are sized for.
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Tail percentiles a sample count may support (see `stats::tail_percentile`).
const TAILS: &[f64] = &[50.0, 90.0, 99.0];
/// Library environment variables that would change what a cell does.
const SCRUBBED_ENV: &[&str] = &[
    "PERSPECTIVE_CACHE",
    "PERSPECTIVE_CACHE_DIR",
    "PERSPECTIVE_CACHE_STATS_FILE",
    "PERSPECTIVE_NO_FASTFWD",
    "PERSPECTIVE_THREADS",
    "PERSPECTIVE_KERNEL",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    LebenchSweep,
    Datacenter,
    WarmRerun,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "lebench_sweep" => Ok(Workload::LebenchSweep),
            "datacenter" => Ok(Workload::Datacenter),
            "warm_rerun" => Ok(Workload::WarmRerun),
            _ => Err(format!(
                "unknown workload {name:?} (expected lebench_sweep, datacenter or warm_rerun)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::LebenchSweep => "lebench_sweep",
            Workload::Datacenter => "datacenter",
            Workload::WarmRerun => "warm_rerun",
        }
    }

    fn set(self) -> CellSet {
        match self {
            Workload::Datacenter => CellSet::Datacenter,
            Workload::LebenchSweep | Workload::WarmRerun => CellSet::Lebench,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    /// Internal: simulate the warm_rerun cell set cold into a cell cache
    /// at `dir` and print each result, one line per cell.
    Prefill {
        seed: u64,
        dir: PathBuf,
    },
    Pin(Vec<u64>),
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let seed_of = |v: &str| v.parse::<u64>().map_err(|_| format!("bad seed {v:?}"));
    if argv.first().map(String::as_str) == Some("--pin") {
        let seeds = argv[1..]
            .iter()
            .map(|s| seed_of(s))
            .collect::<Result<Vec<_>, _>>()?;
        return if seeds.is_empty() {
            Err("--pin needs at least one seed".into())
        } else {
            Ok(Mode::Pin(seeds))
        };
    }
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            k @ ("--workload" | "--seed" | "--seconds" | "--trace" | "--prefill") => k,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        if flags.insert(key, value).is_some() {
            return Err(format!("{key} given twice"));
        }
    }
    let seed = match flags.get("--seed") {
        Some(v) => seed_of(v)?,
        None => cells::default_seed(),
    };
    if let Some(dir) = flags.get("--prefill") {
        return Ok(Mode::Prefill {
            seed,
            dir: PathBuf::from(dir),
        });
    }
    let workload = Workload::parse(flags.get("--workload").ok_or("--workload is required")?)?;
    let seconds: f64 = match flags.get("--seconds") {
        None => 10.0,
        Some(v) => v
            .parse()
            .ok()
            .filter(|s: &f64| s.is_finite() && *s > 0.0)
            .ok_or_else(|| format!("bad --seconds {v:?}"))?,
    };
    let trace = match flags.get("--trace").copied() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("bad --trace {v:?} (expected 0 or 1)")),
    };
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Where the benchmark writes its working files: under the cargo target
/// directory, inside the checkout it runs from.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target.join("perfbench-out")
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Set-up: generate the kernel image and the cell set. Returns the last
/// image and cells with the median total and median image-build time.
fn setup(seed: u64, set: CellSet) -> (KernelImage, Vec<Cell>, f64, f64) {
    let mut totals = Vec::new();
    let mut builds = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let image = KernelImage::build(cells::kernel_config(seed));
        let built = t0.elapsed().as_secs_f64();
        let cells = set.cells();
        totals.push(t0.elapsed().as_secs_f64());
        builds.push(built);
        last = Some((image, cells));
    }
    let (image, cells) = last.expect("SETUP_REPS > 0");
    let med = |v: &[f64]| median(v).expect("SETUP_REPS > 0");
    (image, cells, med(&totals), med(&builds))
}

/// The correctness check every simulated result passes through: no
/// error, the pinned digest (when this seed is pinned), byte-identity
/// with the first result seen for the cell, and the stall partition.
struct Checker<'a> {
    cells: &'a [Cell],
    pinned: Option<Vec<u64>>,
    first: Vec<Option<String>>,
    attempted: u64,
    failed: u64,
}

impl<'a> Checker<'a> {
    fn new(cells: &'a [Cell], pinned: Option<Vec<u64>>) -> Self {
        Checker {
            cells,
            pinned,
            first: vec![None; cells.len()],
            attempted: 0,
            failed: 0,
        }
    }

    fn fail(&mut self, i: usize, why: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            let c = &self.cells[i];
            eprintln!("FAILED {} / {}: {why}", c.workload.name, c.scheme);
        }
    }

    /// Check cell `i`'s result, rendered with [`cells::render`].
    fn check(&mut self, i: usize, result: Result<&Measurement, &String>, what: &str) {
        self.attempted += 1;
        let m = match result {
            Ok(m) => m,
            Err(e) => return self.fail(i, &format!("{what}: {e}")),
        };
        let text = cells::render(m);
        if let Some(p) = &self.pinned {
            if memo::fnv1a64(text.as_bytes()) != p[i] {
                return self.fail(i, &format!("{what}: differs from the pinned digest"));
            }
        }
        if m.stats.stalls.total() != m.stats.stall_cycles || m.stats.committed_insts == 0 {
            return self.fail(i, &format!("{what}: broken stall partition or empty ROI"));
        }
        match &self.first[i] {
            None => self.first[i] = Some(text),
            Some(f) if *f != text => {
                self.fail(i, &format!("{what}: differs from the first result"))
            }
            Some(_) => {}
        }
    }

    fn check_all(&mut self, results: &[Result<Measurement, String>], what: &str) {
        for (i, r) in results.iter().enumerate() {
            self.check(i, r.as_ref(), what);
        }
    }
}

/// One pass over the cell set, summarised: wall time (s), host counts,
/// the sum of per-cell latencies (s), and per-cell percentiles of
/// latency (s) and host instructions.
struct Timing {
    wall: f64,
    host: Sample,
    busy: f64,
    cells: usize,
    lat_p50: f64,
    lat_p90: f64,
    insts_p50: f64,
    insts_p90: f64,
}

thread_local! {
    /// The calling worker thread's own counters, opened on first use.
    static THREAD_COUNTERS: Counters =
        Counters::open(Scope::Thread).expect("hardware counters opened for the process already");
}

fn thread_sample() -> Sample {
    THREAD_COUNTERS.with(|c| c.sample().expect("reading an open hardware counter"))
}

/// The calling thread's retired instructions: the traced spans' work.
fn thread_insts() -> u64 {
    thread_sample().insts
}

/// Run `job` over every cell index on the worker pool, timing each call;
/// `host` counts the whole process.
fn parallel_pass<T: Send>(
    host: &Counters,
    n: usize,
    job: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, Timing) {
    let h0 = host.sample().expect("reading an open hardware counter");
    let t0 = Instant::now();
    let out = run_parallel_with(WORKERS, (0..n).collect(), |i| {
        let c = thread_sample();
        let t = Instant::now();
        let r = job(i);
        let lat = t.elapsed().as_secs_f64();
        (r, (lat, thread_sample().since(c)))
    });
    let wall = t0.elapsed().as_secs_f64();
    let h = host
        .sample()
        .expect("reading an open hardware counter")
        .since(h0);
    let (results, per_cell): (Vec<T>, Vec<(f64, Sample)>) = out.into_iter().unzip();
    let lat: Vec<f64> = per_cell.iter().map(|c| c.0).collect();
    let insts: Vec<f64> = per_cell.iter().map(|c| c.1.insts as f64).collect();
    let pct = |v: &[f64], p| percentile(v, p).expect("a pass has cells");
    let timing = Timing {
        wall,
        host: h,
        busy: lat.iter().sum(),
        cells: n,
        lat_p50: pct(&lat, 50.0),
        lat_p90: pct(&lat, 90.0),
        insts_p50: pct(&insts, 50.0),
        insts_p90: pct(&insts, 90.0),
    };
    (results, timing)
}

/// Run passes until `seconds` are used up (at least one), handing each
/// pass's results to `consume` as it completes; a pass is started only
/// if the longest so far still fits.
fn timed_passes<T>(
    seconds: f64,
    mut pass: impl FnMut() -> (Vec<T>, Timing),
    mut consume: impl FnMut(Vec<T>),
) -> Vec<Timing> {
    let start = Instant::now();
    let mut timings: Vec<Timing> = Vec::new();
    let mut longest: f64 = 0.0;
    while timings.is_empty() || start.elapsed().as_secs_f64() + longest <= seconds {
        let (results, timing) = pass();
        longest = longest.max(timing.wall);
        consume(results);
        timings.push(timing);
    }
    timings
}

fn measure_cell(image: &KernelImage, c: &Cell) -> Result<Measurement, String> {
    try_measure_image_full(
        c.scheme,
        image,
        &c.workload,
        PerspectiveConfig::default(),
        CoreConfig::paper_default(),
    )
}

fn cached(
    cfg: &CacheConfig,
    image: &KernelImage,
    c: &Cell,
    compute: impl FnOnce() -> Result<Measurement, String>,
) -> Result<Measurement, String> {
    memo::cached_measure(
        cfg,
        Protocol::Standard,
        c.scheme,
        &image.cfg,
        &PerspectiveConfig::default(),
        &CoreConfig::paper_default(),
        &c.workload,
        compute,
    )
}

/// One cell's spans and counts.
type Recording = (Vec<Span>, BTreeMap<&'static str, u64>);

/// Append one pass's spans to `log` as JSON lines; `cell` is the span's
/// request identifier.
fn log_spans(log: &mut String, phase: &str, recs: &[Recording]) {
    for (cell, (spans, _)) in recs.iter().enumerate() {
        for s in spans {
            let parent = s.parent.map_or("null".into(), |p| p.to_string());
            let _ = writeln!(
                log,
                "{{\"phase\": \"{phase}\", \"cell\": {cell}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
    }
}

/// Self times, self instructions and counts summed over traced passes.
#[derive(Default)]
struct Layers {
    self_ns: BTreeMap<&'static str, u64>,
    self_insts: BTreeMap<&'static str, u64>,
    counts: BTreeMap<&'static str, u64>,
    passes: u32,
}

impl Layers {
    fn add_pass(&mut self, recs: &[Recording]) {
        for (spans, counts) in recs {
            for (name, (ns, insts)) in self_by_name(spans) {
                *self.self_ns.entry(name).or_default() += ns;
                *self.self_insts.entry(name).or_default() += insts;
            }
            for (&name, &n) in counts {
                *self.counts.entry(name).or_default() += n;
            }
        }
        self.passes += 1;
    }

    fn per_pass(&self, total: Option<&u64>) -> f64 {
        total.copied().unwrap_or(0) as f64 / f64::from(self.passes.max(1))
    }

    /// Mean self time of `span` per pass, in seconds.
    fn secs(&self, span: &str) -> f64 {
        self.per_pass(self.self_ns.get(span)) / 1e9
    }

    /// Mean self instructions of `span` per pass, in millions.
    fn minsts(&self, span: &str) -> f64 {
        self.per_pass(self.self_insts.get(span)) / 1e6
    }

    /// Mean count per pass.
    fn count(&self, name: &str) -> f64 {
        self.per_pass(self.counts.get(name))
    }
}

/// The codec layers over one pass's results, serially: memo keying,
/// encode, decode (which must round-trip), and — where `store` names a
/// fresh directory — a store-and-load round trip through the cell cache.
/// Returns the layers and the number of cells whose round trip failed.
fn codec_pass(
    image: &KernelImage,
    cells: &[Cell],
    results: &[Measurement],
    store: Option<&Path>,
) -> (Layers, u64) {
    let mut layers = Layers::default();
    let mut failed = 0;
    let origin = Instant::now();
    let mut recs = Vec::new();
    for (c, m) in cells.iter().zip(results) {
        let mut rec = Recorder::with_work(origin, thread_insts);
        rec.span("memo.key", |_| {
            let canonical = memo::canonical_cell(
                Protocol::Standard,
                c.scheme,
                &image.cfg,
                &PerspectiveConfig::default(),
                &CoreConfig::paper_default(),
                &c.workload,
            );
            std::hint::black_box(memo::cell_key(&canonical));
        });
        let text = rec.span("report.encode", |_| cells::render(m));
        let back = rec.span("report.decode", |_| {
            Json::parse(&text).and_then(|j| measurement_from_json(&j, c.scheme, c.workload.name))
        });
        let mut ok = back.map(|b| cells::render(&b)) == Ok(text.clone());
        if let Some(dir) = store {
            let cfg = CacheConfig::on(dir);
            let stored = rec.span("memo.store", |rec| {
                cached(&cfg, image, c, || {
                    rec.span("memo.compute", |_| Ok(m.clone()))
                })
            });
            let loaded = rec.span("memo.load", |_| {
                cached(&cfg, image, c, || {
                    Err("the entry just stored was not found".into())
                })
            });
            ok &= stored.is_ok() && loaded.map(|l| cells::render(&l)) == Ok(text);
        }
        if !ok {
            failed += 1;
            eprintln!(
                "FAILED {} / {}: codec round trip",
                c.workload.name, c.scheme
            );
        }
        recs.push(rec.finish());
    }
    layers.add_pass(&recs);
    (layers, failed)
}

/// A working directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    /// A fresh (emptied) directory at `path`.
    fn fresh(path: PathBuf) -> Self {
        let _ = std::fs::remove_dir_all(&path);
        WorkDir(path)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn entry_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for e in std::fs::read_dir(dir).map_err(|e| format!("reading {dir:?}: {e}"))? {
        let e = e.map_err(|e| e.to_string())?;
        if e.file_name().to_string_lossy().starts_with("cell-") {
            total += e.metadata().map_err(|e| e.to_string())?.len();
        }
    }
    Ok(total)
}

struct Outcome {
    /// The figures of the result line.
    metrics: Vec<Metric>,
    /// Figures printed in the table only.
    printed: Vec<Metric>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

/// The end-to-end figures of the untraced passes.
struct EndToEnd {
    /// Host instructions, set-up time and memory: the result line's figures.
    gated: Vec<Metric>,
    /// Wall-clock, cycle and per-cell figures, printed beside them.
    printed: Vec<Metric>,
    notes: Vec<String>,
}

fn end_to_end(
    args: &Args,
    passes: &[Timing],
    setup_s: f64,
    roi_insts: u64,
) -> Result<EndToEnd, String> {
    let med = |f: &dyn Fn(&Timing) -> f64| {
        median(&passes.iter().map(f).collect::<Vec<f64>>()).expect("at least one pass")
    };
    let wall_s = med(&|p| p.wall);
    let cells = passes[0].cells;
    let supported = tail_percentile(cells, TAILS).map_or("none".into(), |p| format!("p{p}"));
    let notes = vec![
        format!(
            "{} timed passes of {cells} cells; each figure is the median over passes",
            passes.len()
        ),
        format!("per-cell percentiles are taken within a pass of {cells} cells; the highest they support is {supported}"),
    ];
    let mut gated = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("host_ginsts", med(&|p| p.host.insts as f64) / 1e9, "Ginst"),
    ];
    if !args.trace {
        gated.push(Metric::new("peak_rss_mb", peak_rss_mb()?, "MiB"));
    }
    let printed = vec![
        Metric::new("wall_s", wall_s, "s"),
        Metric::new(
            "host_gcycles",
            med(&|p| p.host.cycles as f64) / 1e9,
            "Gcycle",
        ),
        Metric::new(
            "sim_kinsts_per_s",
            roi_insts as f64 / wall_s / 1e3,
            "kinst/s",
        ),
        Metric::new("cell_p50_ms", med(&|p| p.lat_p50) * 1e3, "ms"),
        Metric::new("cell_p90_ms", med(&|p| p.lat_p90) * 1e3, "ms"),
        Metric::new("cell_p50_minsts", med(&|p| p.insts_p50) / 1e6, "Minst"),
        Metric::new("cell_p90_minsts", med(&|p| p.insts_p90) / 1e6, "Minst"),
    ];
    Ok(EndToEnd {
        gated,
        printed,
        notes,
    })
}

/// ROI instructions committed per pass (identical on every pass).
fn roi_insts(results: &[Result<Measurement, String>]) -> u64 {
    results
        .iter()
        .flatten()
        .map(|m| m.stats.committed_insts)
        .sum()
}

/// The warm_rerun pre-fill in a child process, so the timed process's
/// memory high-water mark is that of the warm lookups alone.
fn prefill_child(seed: u64, dir: &Path) -> Result<Vec<Result<Measurement, String>>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .arg("--prefill")
        .arg(dir)
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the pre-fill: {e}"))?;
    if !out.status.success() {
        return Err(format!("the pre-fill exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    let cells = CellSet::Lebench.cells();
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != cells.len() {
        return Err(format!(
            "the pre-fill printed {} results for {} cells",
            lines.len(),
            cells.len()
        ));
    }
    Ok(lines
        .iter()
        .zip(&cells)
        .map(|(l, c)| match l.strip_prefix("ok ") {
            Some(doc) => {
                Json::parse(doc).and_then(|j| measurement_from_json(&j, c.scheme, c.workload.name))
            }
            None => Err(l.trim_start_matches("err ").to_string()),
        })
        .collect())
}

fn prefill_main(seed: u64, dir: &Path) -> Result<(), String> {
    std::env::set_var("PERSPECTIVE_CACHE", "on");
    std::env::set_var("PERSPECTIVE_CACHE_DIR", dir);
    let image = KernelImage::build(cells::kernel_config(seed));
    let cells = CellSet::Lebench.cells();
    let results = run_parallel_with(WORKERS, (0..cells.len()).collect(), |i| {
        measure_cell(&image, &cells[i])
    });
    let mut out = String::new();
    for r in &results {
        match r {
            Ok(m) => writeln!(out, "ok {}", cells::render(m)),
            Err(e) => writeln!(out, "err {}", e.replace('\n', " ")),
        }
        .expect("writing to a String");
    }
    print!("{out}");
    Ok(())
}

fn run(args: &Args) -> Result<Outcome, String> {
    let host = Counters::open(Scope::Process)
        .map_err(|e| format!("cannot open the host CPU counters (perf_event_open): {e}"))?;
    let set = args.workload.set();
    let (image, cells, setup_s, image_build_s) = setup(args.seed, set);
    let mut checker = Checker::new(&cells, cells::pinned(args.seed, set)?);
    let out = out_dir();
    let cache = WorkDir::fresh(out.join(format!("cache-{}", std::process::id())));
    let cache_dir = cache.0.as_path();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {out:?}: {e}"))?;

    let warm = args.workload == Workload::WarmRerun;
    let mut layers = Layers::default();
    let mut spans_log = String::new();
    if warm {
        std::env::set_var("PERSPECTIVE_CACHE", "on");
        std::env::set_var("PERSPECTIVE_CACHE_DIR", cache_dir);
        if args.trace {
            // Pre-fill in process through the traced replay: the layers
            // this workload's timed phase bypasses are measured here.
            let cfg = CacheConfig::on(cache_dir);
            let origin = Instant::now();
            let (pass, _) = parallel_pass(&host, cells.len(), |i| {
                let mut rec = Recorder::with_work(origin, thread_insts);
                let c = &cells[i];
                let r = rec.span("memo.store", |rec| {
                    cached(&cfg, &image, c, || {
                        rec.span("memo.compute", |rec| {
                            replay_cell(rec, c.scheme, &image, &c.workload)
                        })
                    })
                });
                (r, rec.finish())
            });
            let (results, recs): (Vec<_>, Vec<_>) = pass.into_iter().unzip();
            checker.check_all(&results, "cold replay");
            layers.add_pass(&recs);
            log_spans(&mut spans_log, "prefill", &recs);
        } else {
            let results = prefill_child(args.seed, cache_dir)?;
            checker.check_all(&results, "cold pre-fill");
        }
    }

    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut first = None;
    let passes = timed_passes(
        untraced_s,
        || parallel_pass(&host, cells.len(), |i| measure_cell(&image, &cells[i])),
        |results| {
            checker.check_all(&results, if warm { "cache hit" } else { "measurement" });
            first.get_or_insert(results);
        },
    );
    let first = first.expect("at least one pass");
    let insts = roi_insts(&first);
    let EndToEnd {
        gated: mut metrics,
        mut printed,
        mut notes,
    } = end_to_end(args, &passes, setup_s, insts)?;
    let cycles: u64 = first.iter().flatten().map(|m| m.stats.cycles).sum();
    notes.push(format!(
        "simulated ROI work per pass: {cycles} cycles, {insts} committed instructions"
    ));

    if args.trace {
        let cfg = CacheConfig::on(cache_dir);
        let mut last = Vec::new();
        let mut memo_load = Layers::default();
        let mut last_recs = Vec::new();
        let traced = timed_passes(
            args.seconds - untraced_s,
            || {
                let origin = Instant::now();
                parallel_pass(&host, cells.len(), |i| {
                    let mut rec = Recorder::with_work(origin, thread_insts);
                    let c = &cells[i];
                    let r = if warm {
                        rec.span("memo.load", |_| {
                            cached(&cfg, &image, c, || Err("unexpected cache miss".into()))
                        })
                    } else {
                        replay_cell(&mut rec, c.scheme, &image, &c.workload)
                    };
                    (r, rec.finish())
                })
            },
            |pass| {
                let (results, recs): (Vec<_>, Vec<_>) = pass.into_iter().unzip();
                checker.check_all(&results, if warm { "traced cache hit" } else { "replay" });
                if warm {
                    memo_load.add_pass(&recs);
                } else {
                    layers.add_pass(&recs);
                }
                last = results;
                last_recs = recs;
            },
        );
        // The spans of the last traced pass (and of a traced pre-fill).
        log_spans(&mut spans_log, "traced", &last_recs);
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall).collect();
        let ok: Vec<Measurement> = last.into_iter().flatten().collect();
        if ok.len() != cells.len() {
            return Err("a traced pass failed; see the errors above".into());
        }
        let round_trip = WorkDir::fresh(out.join(format!("roundtrip-{}", std::process::id())));
        let (codec, codec_failed) = codec_pass(
            &image,
            &cells,
            &ok,
            (!warm).then_some(round_trip.0.as_path()),
        );
        checker.failed += codec_failed;
        let bytes = entry_bytes(if warm { cache_dir } else { &round_trip.0 })?;

        let spans_file = out.join(format!("spans-{}.jsonl", args.workload.name()));
        std::fs::write(&spans_file, &spans_log)
            .map_err(|e| format!("writing {spans_file:?}: {e}"))?;
        notes.push(format!("spans written to {}", spans_file.display()));

        let untraced_wall = printed[0].value;
        let traced_wall = median(&traced_walls).ok_or("no traced passes")?;
        let (store_src, load_src) = if warm {
            (&layers, &memo_load)
        } else {
            (&codec, &codec)
        };
        printed.splice(0..0, metrics);
        metrics = layer_metrics(
            &layers,
            &codec,
            store_src,
            load_src,
            &passes,
            image_build_s,
            bytes,
            traced_wall / untraced_wall - 1.0,
        );
        metrics.extend(policy_metrics(&first));
        notes.push(format!(
            "{} traced passes; overhead from traced wall {traced_wall:.4} s vs untraced {untraced_wall:.4} s",
            traced_walls.len()
        ));
    }
    Ok(Outcome {
        metrics,
        printed,
        attempted: checker.attempted,
        failed: checker.failed,
        notes,
    })
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    sim: &Layers,
    codec: &Layers,
    store: &Layers,
    load: &Layers,
    untraced: &[Timing],
    image_build_s: f64,
    entry_bytes: u64,
    overhead_frac: f64,
) -> Vec<Metric> {
    // Each span gives its self time, as `<span>_<unit>`, and its self
    // instructions, as `<span>_minsts`.
    let spans = [
        (sim, "workloads.instance_build", "ms"),
        (sim, "workloads.trace_resolve", "ms"),
        (sim, "core.isv_build", "ms"),
        (sim, "scanner.scan_bounded", "ms"),
        (sim, "uarch.warmup_run", "s"),
        (sim, "uarch.roi_run", "s"),
        (codec, "memo.key", "us"),
        (load, "memo.load", "us"),
        (store, "memo.store", "us"),
        (codec, "report.encode", "us"),
        (codec, "report.decode", "us"),
    ];
    let mut m = vec![Metric::new("kernel.image_build_s", image_build_s, "s")];
    for (src, span, unit) in spans {
        let scale = match unit {
            "s" => 1.0,
            "ms" => 1e3,
            _ => 1e6,
        };
        m.push(Metric::new(
            format!("{span}_{unit}"),
            src.secs(span) * scale,
            unit,
        ));
        m.push(Metric::new(
            format!("{span}_minsts"),
            src.minsts(span),
            "Minst",
        ));
    }

    let runs = ["uarch.warmup_run", "uarch.roi_run"];
    let run_ns: f64 = runs.iter().map(|r| sim.secs(r) * 1e9).sum();
    let run_insts: f64 = runs.iter().map(|r| sim.minsts(r) * 1e6).sum();
    let cycles = sim.count("uarch.sim_cycles");
    let committed = sim.count("uarch.committed_insts");
    let squashed = sim.count("uarch.squashed_insts");
    m.extend([
        Metric::new("uarch.host_ns_per_sim_cycle", run_ns / cycles, "ns"),
        Metric::new("uarch.host_ns_per_committed_inst", run_ns / committed, "ns"),
        Metric::new("uarch.host_insts_per_sim_cycle", run_insts / cycles, "inst"),
        Metric::new(
            "uarch.host_insts_per_committed_inst",
            run_insts / committed,
            "inst",
        ),
        Metric::new("uarch.sim_cycles", cycles, "count"),
        Metric::new("uarch.committed_insts", committed, "count"),
        Metric::new("uarch.squashed_insts", squashed, "count"),
        Metric::new(
            "uarch.useful_inst_frac",
            committed / (committed + squashed),
            "frac",
        ),
    ]);
    for name in [
        "mem.l1d.hits",
        "mem.l1d.misses",
        "mem.l1i.hits",
        "mem.l1i.misses",
        "mem.l2.hits",
        "mem.l2.misses",
        "mem.prefetches",
    ] {
        m.push(Metric::new(name, sim.count(name), "count"));
    }

    let busy: Vec<f64> = untraced.iter().map(|p| p.busy).collect();
    let idle: Vec<f64> = untraced
        .iter()
        .zip(&busy)
        .map(|(p, b)| WORKERS as f64 * p.wall - b)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    m.extend([
        Metric::new("memo.entry_bytes", entry_bytes as f64, "bytes"),
        Metric::new("runner.worker_busy_s", mean(&busy) / WORKERS as f64, "s"),
        Metric::new("runner.tail_idle_s", mean(&idle), "s"),
        Metric::new("trace.overhead_frac", overhead_frac, "frac"),
    ]);
    m
}

/// Policy counters come from the measurements themselves, summed over the
/// Perspective-family cells of one pass.
fn policy_metrics(results: &[Result<Measurement, String>]) -> Vec<Metric> {
    [
        "policy.decisions.loads_checked",
        "policy.fences.isv",
        "policy.fences.dsv",
        "policy.isv_cache.hits",
        "policy.isv_cache.misses",
        "policy.dsvmt_cache.hits",
        "policy.dsvmt_cache.misses",
    ]
    .into_iter()
    .map(|name| {
        let total: u64 = results
            .iter()
            .flatten()
            .filter_map(|m| m.metrics.get(name))
            .sum();
        Metric::new(name, total as f64, "count")
    })
    .collect()
}

fn pin(seeds: &[u64]) -> Result<(), String> {
    println!("# Reference digests: FNV-1a 64 of each cell's lossless Measurement JSON,");
    println!("# one line per (kernel seed, cell set), cells workload-major, scheme-minor.");
    println!(
        "# Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- --pin <seed>..."
    );
    for &seed in seeds {
        let image = KernelImage::build(cells::kernel_config(seed));
        for set in [CellSet::Lebench, CellSet::Datacenter] {
            let cells = set.cells();
            let results = run_parallel_with(WORKERS, (0..cells.len()).collect(), |i| {
                measure_cell(&image, &cells[i])
            });
            let digests = results
                .iter()
                .map(|r| r.as_ref().map(cells::digest))
                .collect::<Result<Vec<u64>, &String>>()
                .map_err(|e| format!("seed {seed}: {e}"))?;
            println!("{}", cells::reference_line(seed, set, &digests));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&argv) {
        Err(e) => Err(e),
        Ok(Mode::Pin(seeds)) => pin(&seeds),
        Ok(Mode::Prefill { seed, dir }) => prefill_main(seed, &dir),
        Ok(Mode::Run(args)) => run(&args).and_then(|o| report(&args, o)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn report(args: &Args, o: Outcome) -> Result<(), String> {
    println!(
        "perfbench {} seed={} kernel=paper ({} functions) workers={WORKERS} trace={}",
        args.workload.name(),
        args.seed,
        cells::kernel_config(args.seed).num_functions,
        u8::from(args.trace)
    );
    for n in &o.notes {
        println!("  # {n}");
    }
    let row = |m: &Metric, tag: &str| {
        println!("  {:<34} {:>18.6} {:<9} {tag}", m.name, m.value, m.unit);
    };
    for m in &o.metrics {
        row(m, "");
    }
    for m in &o.printed {
        row(m, "(printed only)");
    }
    let frac = o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "  {:<34} {:>18.6} {:<9} ({} of {} cells)",
        "cell_fail_frac", frac, "frac", o.failed, o.attempted
    );
    let line = result_line(o.failed == 0, o.attempted, o.failed, &o.metrics)?;
    println!("{line}");
    Ok(())
}
