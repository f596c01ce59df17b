//! Closed-loop benchmark of the whole stack, driven from one process
//! through the public client and registry APIs.
//!
//! `afc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` a run first times several set-ups of the workload's
//! cluster in child processes (`--setup-only <n>`), for the median set-up
//! time; then it sets the cluster up, warms up, measures one window of
//! `--seconds`, reads back a seeded sample of blocks, requires a clean
//! deep scrub and prints the end-to-end metrics. With `--trace 1` it
//! measures the same window twice on fresh clusters, untraced and then
//! traced (client spans written out, per-second registry snapshots),
//! derives the per-layer ledger from the traced one, runs the standalone
//! layer probes and prints the per-layer metrics plus the tracing
//! overhead. The last stdout line is
//! one JSON object; the exit code is 0 only when every check passed.

mod driver;
mod probes;
mod stats;
mod workload;

use afc_common::metrics::{Histogram, MetricsSnapshot};
use afc_core::{Cluster, RadosClient};
use driver::{Done, Driver, Kind, Op, BLOCK};
use stats::{median, Delta, Samples};
use std::fmt::Write as _;
use std::io::Read as _;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{BlockBook, OpStream, Workload, HOP, NODES, OSDS_PER_NODE};

/// Far above any healthy latency (tens of ms at worst), and above the up
/// to ~2 s that reads issued right after the prefill wait for its writes to
/// be applied; an op without a reply by then counts as failed and frees its
/// slot.
const DEADLINE: Duration = Duration::from_secs(10);
/// Three times the slowest healthy latency seen (about 35 ms): an op that
/// completes after this long is printed and counted as slow.
const SLOW: Duration = Duration::from_millis(100);
/// Load run right after the prefill, before the window, so connections,
/// caches and queues settle.
const WARMUP: Duration = Duration::from_secs(1);
/// Blocks read back and compared after the window. At QD1 the pass
/// takes about four seconds, long enough that a short host stall does not
/// decide its rate, and its p99 has 120 samples beyond it.
const READBACK: usize = 12_000;
/// Longest the set-up child may run before it is killed.
const SETUP_LIMIT: Duration = Duration::from_secs(60);
/// Longest wait for background device writes to stop before a measured
/// phase starts.
const SETTLE: Duration = Duration::from_secs(2);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    /// Only set the cluster up this many times and print the times.
    setup_only: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            "--setup-only" => {
                setup_only = Some(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|n| (1..=100).contains(n))
                        .ok_or(format!("bad set-up count {value}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

/// One op of a window: submit and completion, ns from the window start.
struct Span {
    start_ns: u64,
    end_ns: u64,
    op: Op,
    ok: bool,
}

/// One per-second registry sample of the traced window.
struct SeriesRow {
    t_s: f64,
    snap: MetricsSnapshot,
}

/// Everything measured over one window.
struct Window {
    /// Every op issued in the window, in completion order.
    spans: Vec<Span>,
    /// Window start to last completion.
    secs: f64,
    cpu_us: u64,
    driver_cpu_us: u64,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    series: Vec<SeriesRow>,
}

/// Rate and latency of one op kind, with the sample count.
struct Figures {
    iops: f64,
    p50_us: f64,
    p99_us: f64,
    n: usize,
    source: &'static str,
}

impl Figures {
    fn of(samples: &Samples, secs: f64, source: &'static str) -> Figures {
        Figures {
            iops: samples.len() as f64 / secs,
            p50_us: samples.quantile_us(0.5),
            p99_us: samples.quantile_us(0.99),
            n: samples.len(),
            source,
        }
    }
}

impl Window {
    fn ok(&self, kind: Option<Kind>) -> impl Iterator<Item = &Span> {
        self.spans
            .iter()
            .filter(move |s| s.ok && kind.is_none_or(|k| s.op.kind == k))
    }

    /// Completed ops of every kind.
    fn ops(&self) -> u64 {
        self.ok(None).count() as u64
    }

    /// Latencies of the completed ops of `kind`, sorted.
    fn samples(&self, kind: Kind) -> Samples {
        let mut v = Samples::default();
        for s in self.ok(Some(kind)) {
            v.push(s.end_ns - s.start_ns);
        }
        v.sort();
        v
    }

    fn figures(&self, kind: Kind) -> Figures {
        Figures::of(&self.samples(kind), self.secs, "window")
    }

    fn delta(&self) -> Delta<'_> {
        Delta {
            before: &self.before,
            after: &self.after,
        }
    }
}

/// What became of every op of a run.
struct OpLog {
    workload: Workload,
    seed: u64,
    book: BlockBook,
    attempted: u64,
    failed: u64,
    /// Ops that completed, but only after [`SLOW`].
    slow: u64,
}

impl OpLog {
    fn object_name(&self) -> impl Fn(u32) -> String {
        let (workload, seed) = (self.workload, self.seed);
        move |o| workload.object_name(seed, o)
    }

    /// Count `d`, print it if it failed or was slow, and book a write's
    /// outcome.
    fn record(&mut self, d: &Done) {
        self.attempted += 1;
        self.book.record(d);
        let took = d.end - d.start;
        let (label, error) = match &d.result {
            Err(e) => {
                self.failed += 1;
                ("FAILED", format!(" error={e}"))
            }
            Ok(_) if took >= SLOW => {
                self.slow += 1;
                ("SLOW", String::new())
            }
            Ok(_) => return,
        };
        println!(
            "{label} op: workload={} kind={} object={} offset={} after_ms={:.3}{error}",
            self.workload.name(),
            d.op.kind.label(),
            self.workload.object_name(self.seed, d.op.object),
            u64::from(d.op.block) * BLOCK as u64,
            took.as_secs_f64() * 1e3,
        );
    }

    fn driver<'a>(
        &self,
        client: &'a RadosClient,
        depth: usize,
        names: &'a dyn Fn(u32) -> String,
    ) -> Driver<'a> {
        Driver {
            client,
            object_name: names,
            depth,
            deadline: DEADLINE,
            seed: self.seed,
        }
    }
}

/// A built cluster, its client session, the seeded op stream and the log.
struct Session {
    cluster: Cluster,
    client: Arc<RadosClient>,
    stream: OpStream,
    log: OpLog,
}

impl Session {
    /// Build the workload's cluster and open its client session.
    fn setup(workload: Workload, seed: u64) -> Result<Session, String> {
        let cluster = workload
            .build()
            .map_err(|e| format!("cluster build: {e}"))?;
        let client = cluster.client().map_err(|e| format!("client: {e}"))?;
        let log = OpLog {
            workload,
            seed,
            book: BlockBook::default(),
            attempted: 0,
            failed: 0,
            slow: 0,
        };
        Ok(Session {
            cluster,
            client,
            stream: OpStream::new(workload, seed),
            log,
        })
    }

    /// Issue the prefill writes, then the op stream until `warm_up` has
    /// passed since the last prefill write was issued. Prefill writes go
    /// through the driver like any op: one that fails or passes its
    /// deadline is printed and counted. The two are one closed loop, as a
    /// FIO job's ramp follows its fill: a write left in a PG's pending FIFO
    /// is drained by the next op to that PG, and a stop after the prefill
    /// would leave the prefill's last writes none.
    fn prefill_and_warm_up(&mut self, warm_up: Duration) {
        let Session {
            client,
            stream,
            log,
            ..
        } = self;
        let names = log.object_name();
        let mut prefill = log.workload.prefill().into_iter();
        let mut end = None;
        log.driver(client, log.workload.depth(), &names).run(
            || {
                prefill.next().or_else(|| {
                    let end = *end.get_or_insert_with(|| Instant::now() + warm_up);
                    (Instant::now() < end).then(|| stream.next_op())
                })
            },
            |d| log.record(&d),
        );
    }
}

/// Run the workload's op stream for `dur` and measure it; with `trace`
/// set, also take a registry snapshot every second.
fn run_load(s: &mut Session, dur: Duration, trace: bool) -> Window {
    let Session {
        cluster,
        client,
        stream,
        log,
    } = s;
    let names = log.object_name();
    let driver = log.driver(client, log.workload.depth(), &names);
    settle(cluster);
    let before = cluster.metrics_snapshot();
    let cpu0 = stats::process_cpu_us();
    let drv0 = stats::thread_cpu_us();
    let start = Instant::now();
    let end = start + dur;
    let mut spans = Vec::new();
    let stop = AtomicBool::new(false);
    let mut series = Vec::new();
    std::thread::scope(|scope| {
        // The traced run's second thread: one registry snapshot a second.
        let sampler = trace.then(|| {
            let (cluster, stop) = (&*cluster, &stop);
            scope.spawn(move || {
                let mut rows = Vec::new();
                let mut next = start + Duration::from_secs(1);
                // ordering: a stop flag that publishes no data; the join
                // below orders everything else.
                while !stop.load(Ordering::Relaxed) {
                    if Instant::now() >= next {
                        rows.push(SeriesRow {
                            t_s: start.elapsed().as_secs_f64(),
                            snap: cluster.metrics_snapshot(),
                        });
                        next += Duration::from_secs(1);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                rows
            })
        });
        driver.run(
            || (Instant::now() < end).then(|| stream.next_op()),
            |done| {
                log.record(&done);
                spans.push(Span {
                    start_ns: (done.start - start).as_nanos() as u64,
                    end_ns: (done.end - start).as_nanos() as u64,
                    op: done.op,
                    ok: done.result.is_ok(),
                });
            },
        );
        stop.store(true, Ordering::Relaxed);
        if let Some(h) = sampler {
            series = h.join().expect("sampler thread panicked");
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let cpu_us = stats::process_cpu_us() - cpu0;
    let driver_cpu_us = stats::thread_cpu_us() - drv0;
    cluster.quiesce();
    let after = cluster.metrics_snapshot();
    Window {
        spans,
        secs,
        cpu_us,
        driver_cpu_us,
        before,
        after,
        series,
    }
}

/// Quiesce, then wait (at most [`SETTLE`]) until background device
/// writes — KV flushes and compactions, FTL GC — stop, so that a measured
/// phase does not start inside the previous phase's tail.
fn settle(cluster: &Cluster) {
    let device_bytes = || {
        stats::counter_total(&cluster.metrics_snapshot(), |m| {
            m.ends_with(".bytes_written") || m.ends_with(".gc.copied_bytes")
        })
    };
    cluster.quiesce();
    let deadline = Instant::now() + SETTLE;
    let mut last = device_bytes();
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(100));
        let now = device_bytes();
        if now == last {
            return;
        }
        last = now;
    }
}

/// Read-back pass: latencies of the reads and the mismatches found.
struct ReadBack {
    reads: Samples,
    secs: f64,
    mismatches: Vec<String>,
}

/// Read back a seeded sample of blocks whose content is known and
/// compare each with its last acknowledged write, then deep-scrub. The
/// reads run at QD1 on the settled cluster.
fn verify(s: &mut Session) -> ReadBack {
    let Session {
        cluster,
        client,
        log,
        ..
    } = s;
    let sample = log.book.sample(log.seed, READBACK);
    let names = log.object_name();
    let driver = log.driver(client, 1, &names);
    settle(cluster);
    let mut reads = Samples::default();
    let start = Instant::now();
    let (compared, mut mismatches) = workload::read_back(&driver, &sample, |done| {
        log.record(done);
        if done.result.is_ok() {
            reads.push((done.end - done.start).as_nanos() as u64);
        }
    });
    let secs = start.elapsed().as_secs_f64();
    reads.sort();
    // Fewer blocks than this leave a read-back p99 without ten samples
    // beyond it.
    if compared < 1000 {
        mismatches.push(format!(
            "only {compared} of {} sampled blocks were read back and compared",
            sample.len()
        ));
    }
    cluster.quiesce();
    let scrub_start = Instant::now();
    let scrub = cluster.deep_scrub();
    println!(
        "read-back pass {secs:.2}s, deep scrub {:.2}s",
        scrub_start.elapsed().as_secs_f64()
    );
    match scrub {
        Ok(r) if r.is_clean() => println!(
            "deep scrub: clean ({} objects in {} PGs)",
            r.objects_checked, r.pgs_checked
        ),
        Ok(r) => mismatches.push(format!(
            "deep scrub: {} inconsistent objects, first {:?}",
            r.inconsistent.len(),
            r.inconsistent.first()
        )),
        Err(e) => mismatches.push(format!("deep scrub failed: {e}")),
    }
    println!(
        "read-back: {compared} of {} sampled blocks compared, {} unknown after failed writes, {} mismatches",
        sample.len(),
        log.book.unknown(),
        mismatches.len()
    );
    ReadBack {
        reads,
        secs,
        mismatches,
    }
}

/// Metrics collected for printing — name, value, unit, note — and
/// figures printed beside them that are not part of the JSON result.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str, String)>,
    info: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics
            .push((name.to_string(), value, unit, note.into()));
    }

    /// Print every mismatch found, the human-readable lines and then the
    /// one-line JSON result; true when the run was correct.
    fn finish(&self, rb: &ReadBack, attempted: u64, failed: u64) -> bool {
        for m in &rb.mismatches {
            println!("MISMATCH {m}");
        }
        let correct = rb.mismatches.is_empty();
        for line in &self.info {
            println!("{line}");
        }
        for (name, value, unit, note) in &self.metrics {
            println!("{name:<36} {value:>16.4} {unit:<6} {note}");
        }
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit, _)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
        correct
    }

    /// IOPS and p50 as metrics; p99 printed beside them. On a shared
    /// 2-vCPU VM host preemption moves a sub-millisecond p99 by 30–40%
    /// from run to run, too much for a regression bound, so it is
    /// reported but not gated.
    fn figures(&mut self, kind: &str, f: &Figures) {
        let note = format!("{}, n={}", f.source, f.n);
        self.put(&format!("{kind}_iops"), f.iops, "1/s", note.clone());
        self.put(&format!("{kind}_p50_us"), f.p50_us, "us", note);
        self.info.push(format!(
            "{:<36} {:>16.4} us     {} (not gated)",
            format!("{kind}_p99_us"),
            f.p99_us,
            p99_note(f)
        ));
    }
}

/// Read figures: the window's, or for a write-only workload the
/// read-back pass's.
fn reads(workload: Workload, w: &Window, rb: &ReadBack) -> Figures {
    if workload.reads_in_window() {
        w.figures(Kind::Read)
    } else {
        Figures::of(&rb.reads, rb.secs, "read-back")
    }
}

/// Source and sample count of a p99, flagged when fewer than ten samples
/// lie beyond it.
fn p99_note(f: &Figures) -> String {
    let mut note = format!("{}, n={}", f.source, f.n);
    if !stats::supports(f.n as u64, 0.99) {
        note.push_str("; fewer than 10 samples beyond p99");
    }
    note
}

fn end_to_end(workload: Workload, seed: u64, seconds: u64) -> Result<bool, String> {
    let mut setup = setup_times(workload, seed)?;
    let mut s = Session::setup(workload, seed)?;
    s.prefill_and_warm_up(WARMUP);
    let w = run_load(&mut s, Duration::from_secs(seconds), false);
    let rb = verify(&mut s);
    let delta = w.delta();
    let data = delta.sum_of("osd", "data.bytes_written");
    let journal = delta.sum_of("node", "journal.dev.bytes_written");
    let gc = delta.sum_of("osd", "data.gc.copied_bytes");
    let client_bytes = (w.ok(Some(Kind::Write)).count() * BLOCK) as f64;
    let ops = w.ops().max(1) as f64;
    let (attempted, failed) = (s.log.attempted, s.log.failed);

    let mut r = Report::default();
    r.figures("write", &w.figures(Kind::Write));
    r.figures("read", &reads(workload, &w, &rb));
    r.put(
        "ok_op_ratio",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "ratio",
        format!("{failed} failed of {attempted} attempted"),
    );
    r.put(
        "write_amp",
        (data + journal) as f64 / client_bytes,
        "ratio",
        "(data SSD + journal) / client",
    );
    r.put(
        "flash_write_amp",
        (data + gc) as f64 / data.max(1) as f64,
        "ratio",
        "(host + GC copy) / host",
    );
    r.put(
        "cpu_us_per_op",
        w.cpu_us as f64 / ops,
        "us",
        format!("driver thread {:.1} us/op", w.driver_cpu_us as f64 / ops),
    );
    r.put("peak_rss_mib", stats::peak_rss_mib(), "MiB", "VmHWM");
    r.put(
        "setup_s",
        median(&mut setup),
        "s",
        format!("median of {setup:.4?}, set up in child processes"),
    );
    Ok(r.finish(&rb, attempted, failed))
}

/// Set the workload's cluster up `n` times, dropping each, and print the
/// times, s, on one line.
fn setup_only(workload: Workload, seed: u64, n: usize) -> Result<bool, String> {
    stats::die_with_parent();
    let mut line = String::from("setup_times");
    for _ in 0..n {
        let t = Instant::now();
        let mut s = Session::setup(workload, seed)?;
        s.prefill_and_warm_up(Duration::ZERO);
        let _ = write!(line, " {}", t.elapsed().as_secs_f64());
        // The session is torn down only now, outside the timed part.
        drop(s);
    }
    println!("{line}");
    Ok(true)
}

/// Set-up times of the workload's cluster, s, from child processes that
/// run [`setup_only`] as [`Workload::setup_plan`] says. A fresh process
/// times set-up more steadily than one that has just torn a loaded cluster
/// down, and the memory a dropped cluster keeps stays out of this
/// process's peak RSS.
fn setup_times(workload: Workload, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let (processes, each) = workload.setup_plan();
    let mut times = Vec::new();
    for _ in 0..processes {
        let mut child = Command::new(&exe)
            .args(["--workload", workload.name(), "--seed", &seed.to_string()])
            .args(["--setup-only", &each.to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("set-up child: {e}"))?;
        let deadline = Instant::now() + SETUP_LIMIT;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                waited => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("set-up child did not finish: {waited:?}"));
                }
            }
        };
        let mut out = String::new();
        child
            .stdout
            .take()
            .expect("stdout is piped")
            .read_to_string(&mut out)
            .map_err(|e| format!("set-up child output: {e}"))?;
        // Pass on what else the child printed, such as failed prefill ops.
        for line in out.lines().filter(|l| !l.starts_with("setup_times")) {
            println!("set-up child: {line}");
        }
        let got: Vec<f64> = out
            .lines()
            .find_map(|l| l.strip_prefix("setup_times"))
            .map(|t| {
                t.split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        if !status.success() || got.len() != each {
            return Err(format!("set-up child failed ({status}): {out}"));
        }
        times.extend(got);
    }
    Ok(times)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("afc-perfbench: {e}");
            std::process::exit(2);
        }
    };
    stats::tighten_timer_slack();
    let outcome = match (args.setup_only, args.seconds) {
        (Some(n), _) => setup_only(args.workload, args.seed, n),
        (None, None) => Err("--seconds is required".into()),
        (None, Some(seconds)) if args.trace => traced(args.workload, args.seed, seconds),
        (None, Some(seconds)) => end_to_end(args.workload, args.seed, seconds),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("afc-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn traced(workload: Workload, seed: u64, seconds: u64) -> Result<bool, String> {
    let dur = Duration::from_secs(seconds);
    let mut plain = Session::setup(workload, seed)?;
    plain.prefill_and_warm_up(WARMUP);
    let w0 = run_load(&mut plain, dur, false);
    let (mut attempted, mut failed) = (plain.log.attempted, plain.log.failed);
    let mut slow = plain.log.slow;
    drop(plain);
    let mut s = Session::setup(workload, seed)?;
    s.prefill_and_warm_up(WARMUP);
    let w = run_load(&mut s, dur, true);
    let rb = verify(&mut s);
    attempted += s.log.attempted;
    failed += s.log.failed;
    slow += s.log.slow;
    write_trace(workload, seed, &w)?;
    drop(s);
    let probes = probes::run(HOP);
    let mut r = Report::default();
    ledger(&mut r, workload, &w, &probes);
    for (name, f) in [
        ("client.write_p99_us", w.figures(Kind::Write)),
        ("client.read_p99_us", reads(workload, &w, &rb)),
    ] {
        r.put(name, f.p99_us, "us", p99_note(&f));
    }
    r.put(
        "client.slow_ops",
        slow as f64,
        "count",
        format!("completed after >= {SLOW:?}, every op of both sessions"),
    );
    let ops_s = |w: &Window| w.ops() as f64 / w.secs;
    r.put(
        "trace.write_p50_delta_us",
        w.figures(Kind::Write).p50_us - w0.figures(Kind::Write).p50_us,
        "us",
        "traced - untraced",
    );
    r.put(
        "trace.ops_delta_share",
        (ops_s(&w) - ops_s(&w0)) / ops_s(&w0).max(1e-9),
        "ratio",
        format!("untraced {:.1}/s, traced {:.1}/s", ops_s(&w0), ops_s(&w)),
    );
    Ok(r.finish(&rb, attempted, failed))
}

/// Per-layer figures of the traced window, from registry deltas, the
/// client spans and the probes.
fn ledger(r: &mut Report, workload: Workload, w: &Window, probes: &probes::Probes) {
    let d = w.delta();
    let devices = workload.devices();
    let osds = (NODES * OSDS_PER_NODE) as usize;
    let ssd_channels = (osds * devices.ssds_per_osd * devices.ssd.channels) as f64;
    let nvram_channels = (NODES as usize * devices.nvram.channels) as f64;
    let secs_us = w.secs * 1e6;
    let nw = w.ok(Some(Kind::Write)).count().max(1) as f64;
    let nr = w.ok(Some(Kind::Read)).count() as f64;
    let n = w.ops().max(1) as f64;
    let ratio = |a: u64, b: f64| if b == 0.0 { 0.0 } else { a as f64 / b };
    let osd = |suffix: &str| d.sum_of("osd", suffix);
    let node = |suffix: &str| d.sum_of("node", suffix);

    // OSD write-path stages, sampled 1 op in 16 and merged over OSDs.
    let stage = |name: &str| {
        let suffix = format!(".stage.{name}");
        d.hist(|m| m.starts_with("osd") && m.ends_with(&suffix))
    };
    let total = stage("total");
    // The OSD stages are bucketed, so the client writes go through the
    // same buckets before their p50s are subtracted.
    let client = Histogram::new();
    for s in w.ok(Some(Kind::Write)) {
        client.observe(Duration::from_nanos(s.end_ns - s.start_ns));
    }
    r.put(
        "client.unattributed_us",
        client.snapshot().quantile_us(0.5) as f64 - total.quantile_us(0.5) as f64,
        "us",
        "client write p50 - OSD stage.total p50, both as bucket upper bounds",
    );
    r.put(
        "client.driver_cpu_us_per_op",
        ratio(w.driver_cpu_us, n),
        "us",
        "",
    );
    r.put(
        "write_qd1.hw_floor_us",
        4.0 * HOP.as_nanos() as f64 / 1000.0 + probes.nvram_write_floor_us,
        "us",
        "4 x hop + NVRAM 4 KiB write service",
    );
    r.put(
        "messenger.msgs_per_op",
        ratio(d.sum(|m| m == "net.msgs"), n),
        "count",
        "",
    );
    r.put(
        "messenger.bytes_per_op",
        ratio(d.sum(|m| m == "net.bytes"), n),
        "B",
        "",
    );

    let tail = stats::tail_q(total.count);
    for name in ["pg_queue", "submit", "journal", "apply", "ack", "total"] {
        let h = stage(name);
        let note = |q: f64| format!("p{}, n={}", q * 100.0, h.count);
        r.put(
            &format!("osd.{name}_us"),
            h.quantile_us(0.5) as f64,
            "us",
            note(0.5),
        );
        r.put(
            &format!("osd.{name}_tail_us"),
            h.quantile_us(tail) as f64,
            "us",
            note(tail),
        );
    }
    r.put(
        "osd.stage_samples",
        total.count as f64,
        "count",
        "stage.total",
    );
    r.put(
        "osd.stage_tail_q",
        tail,
        "q",
        "highest of p99/p98/p95/p90 with 10 beyond",
    );

    let q = d.hist(|m| m.starts_with("osd") && m.contains(".qos.") && m.ends_with(".queue_wait"));
    let note = format!("n={}", q.count);
    r.put(
        "qos.queue_wait_p50_us",
        q.quantile_us(0.5) as f64,
        "us",
        note.clone(),
    );
    r.put(
        "qos.queue_wait_p99_us",
        q.quantile_us(0.99) as f64,
        "us",
        note,
    );

    let batches = node("journal.batches") as f64;
    let hits = osd("fs.cache_hits");
    let gets = osd("kv.gets");
    let ratios = [
        (
            "journal.ops_per_batch",
            ratio(node("journal.submits"), batches),
            "count",
        ),
        (
            "journal.inline_share",
            ratio(node("journal.inline_commits"), batches),
            "ratio",
        ),
        (
            "journal.bytes_per_write",
            ratio(node("journal.dev.bytes_written"), nw),
            "B",
        ),
        (
            "journal.dev_busy_frac",
            ratio(node("journal.dev.busy_us"), secs_us * nvram_channels),
            "ratio",
        ),
        (
            "filestore.metacache_hit_ratio",
            ratio(hits, (hits + osd("fs.cache_misses")) as f64),
            "ratio",
        ),
        (
            "filestore.meta_reads_per_write",
            ratio(osd("fs.meta_reads"), nw),
            "count",
        ),
        (
            "kvstore.wal_bytes_per_write",
            ratio(osd("kv.wal_bytes"), nw),
            "B",
        ),
        ("kvstore.gets_per_write", ratio(gets, nw), "count"),
        (
            "kvstore.table_reads_per_get",
            ratio(osd("kv.table_reads"), gets as f64),
            "count",
        ),
        (
            "device.data_busy_frac",
            ratio(osd("data.busy_us"), secs_us * ssd_channels),
            "ratio",
        ),
        (
            "device.reads_per_read",
            ratio(osd("data.reads"), nr),
            "count",
        ),
        (
            "logging.entries_per_op",
            ratio(osd("log.submitted"), n),
            "count",
        ),
    ];
    for (name, value, unit) in ratios {
        r.put(name, value, unit, "");
    }

    // Totals over the window.
    let mut totals = vec![
        ("osd.rep_resends", osd("op.rep_resends"), "count"),
        (
            "osd.client_throttle_wait_us",
            osd("op.client_throttle.wait_us"),
            "us",
        ),
        ("journal.full_stall_us", node("journal.full_stall_us"), "us"),
        (
            "filestore.throttle_wait_us",
            osd("fs.throttle.wait_us"),
            "us",
        ),
        ("filestore.apply_errors", osd("fs.apply_errors"), "count"),
        ("kvstore.flushes", osd("kv.flushes"), "count"),
        ("kvstore.compactions", osd("kv.compactions"), "count"),
        (
            "kvstore.compact_write_bytes",
            osd("kv.compact_write_bytes"),
            "B",
        ),
        ("kvstore.stall_us", osd("kv.stall_us"), "us"),
        (
            "device.interfered_reads",
            osd("data.interfered_reads"),
            "count",
        ),
        ("device.gc_copied_bytes", osd("data.gc.copied_bytes"), "B"),
        ("device.gc_pauses", osd("data.gc.pauses"), "count"),
        ("logging.dropped", osd("log.dropped"), "count"),
    ];
    for (stream, name) in [
        ("journal", "device.stream.journal.bytes"),
        ("kv_wal", "device.stream.kv_wal.bytes"),
        ("kv_compaction", "device.stream.kv_compaction.bytes"),
        ("meta", "device.stream.meta.bytes"),
        ("hot", "device.stream.hot.bytes"),
        ("cold", "device.stream.cold.bytes"),
    ] {
        totals.push((name, osd(&format!("data.stream.{stream}.bytes")), "B"));
    }
    for (name, value, unit) in totals {
        r.put(name, value as f64, unit, "total over window");
    }

    for &(name, value, unit) in &probes.values {
        r.put(name, value, unit, "probe");
    }
}

/// Write the traced window's client spans and per-second series.
fn write_trace(workload: Workload, seed: u64, w: &Window) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut spans = String::from("start_ns,end_ns,kind,object,block,ok\n");
    for s in &w.spans {
        let _ = writeln!(
            spans,
            "{},{},{},{},{},{}",
            s.start_ns,
            s.end_ns,
            s.op.kind.label(),
            workload.object_name(seed, s.op.object),
            s.op.block,
            s.ok
        );
    }
    let mut series = String::from(
        "t_s,client_ops,client_writes,write_amp,kv_flushes,kv_compactions,gc_copied_bytes\n",
    );
    let mut wa_line = String::new();
    for row in &w.series {
        let d = Delta {
            before: &w.before,
            after: &row.snap,
        };
        let writes = d.sum_of("osd", "op.writes");
        let wa = (d.sum_of("osd", "data.bytes_written")
            + d.sum_of("node", "journal.dev.bytes_written")) as f64
            / (writes.max(1) as usize * BLOCK) as f64;
        let _ = writeln!(
            series,
            "{:.3},{},{writes},{wa:.4},{},{},{}",
            row.t_s,
            d.sum_of("osd", "op.client_ops"),
            d.sum_of("osd", "kv.flushes"),
            d.sum_of("osd", "kv.compactions"),
            d.sum_of("osd", "data.gc.copied_bytes"),
        );
        let _ = write!(wa_line, " {wa:.3}");
    }
    println!("write_amp by second:{wa_line}");
    let base = format!("{}-seed{seed}", workload.name());
    for (suffix, text) in [("spans.csv", spans), ("series.csv", series)] {
        let path = dir.join(format!("{base}.{suffix}"));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}
