//! Seeded end-to-end and per-layer benchmark of `cornet-serve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_read --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run builds a fixture store from the seed, then runs rounds of
//! timed cold starts, an open-loop slice, a closed-loop `/score` slice and
//! a closed-loop `/learn` pass against a real socket, then replays the
//! same stream in-process to check every response. With
//! `--trace 1` the replay also records a span around each call into each
//! layer and the run reports per-layer metrics instead of end-to-end
//! ones. The last line of standard output is the result object; the line
//! before it is the run record. See `perfbench/README.md`.

mod client;
mod oracle;
mod replay;
mod stats;
mod trace;
mod workload;

use client::{Client, Outcome, Scheduled};
use cornet_serve::{Server, ServerConfig};
use oracle::Oracle;
use replay::{open_service, Replay};
use stats::{median, percentile, sorted};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use workload::{learn_pass, Fixture, Op, Plan, Req, Workload};

/// Cold starts timed per round; `setup_s` is the median of all of them.
const SETUPS_PER_ROUND: usize = 3;
/// A read meets the service-level objective when it returns a correct
/// 200 within this many microseconds of its due time.
const READ_SLO_US: f64 = 5_000.0;
/// Connections the generator opens (and threads it uses): `nproc` of
/// the 2-core machine the benchmark was sized on.
const CONNECTIONS: usize = 2;
/// Scratch space inside the checkout; each run uses its own directory.
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.filter(|s| *s > 0.0).unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <serve_read|serve_mixed|learn_long> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Copies a store directory tree.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// CPU time the hypervisor took from this machine's virtual CPUs (the
/// `steal` column of `/proc/stat`, summed over CPUs), in seconds since
/// boot. Zero where the kernel does not report it.
fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8)?.parse::<f64>().ok())
        })
        // The kernel reports USER_HZ ticks, 100 per second on Linux.
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The revision under test: `git rev-parse HEAD` where the checkout is a
/// repository, else a SHA-256 over the sources the benchmark builds.
fn revision() -> String {
    // Only this directory's own repository: git must not walk up out of
    // the checkout and report some enclosing repository's revision.
    if Path::new(".git").exists() {
        let git = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output();
        if let Some(out) = git.ok().filter(|o| o.status.success()) {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    walk(Path::new("crates"), &mut files);
    walk(Path::new("vendor"), &mut files);
    files.sort();
    let mut hasher = cornet_serve::sha256::Sha256::new();
    for f in files {
        hasher.update(f.to_string_lossy().as_bytes());
        hasher.update(&std::fs::read(&f).unwrap_or_default());
    }
    let digest: String = hasher.finish()[..10]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    format!("src-sha256:{digest}")
}

/// One served response, with what the generator measured.
struct Served<'a> {
    req: &'a Req,
    outcome: Outcome,
    phase: &'static str,
    round: usize,
}

/// Cold start: service over the store, server, first correct `/score`.
fn start(
    dir: &Path,
    plan: &Plan,
    fixture: &Fixture,
    oracle: &mut Oracle,
) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let service = open_service(dir).map_err(|e| format!("service open: {e}"))?;
    let server = Server::start_with("127.0.0.1:0", Arc::new(service), ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let (status, body) = client
        .post(plan.probe.path, &plan.probe.body)
        .map_err(|e| format!("probe: {e}"))?;
    let Op::Score { rule } = plan.probe.op else {
        unreachable!("the probe is a /score")
    };
    oracle
        .check_score(fixture, rule, Some(status), &body)
        .map_err(|e| format!("probe: {e}"))?;
    Ok((server, t.elapsed().as_secs_f64()))
}

fn scheduled(reqs: &[Req], conn: usize) -> Vec<Scheduled<'_>> {
    reqs.iter()
        .enumerate()
        .filter(|(_, r)| r.conn == conn)
        .map(|(index, r)| Scheduled {
            index,
            due_us: r.due_us,
            path: r.path,
            body: &r.body,
        })
        .collect()
}

/// Runs `first` on the calling thread and `second` on one more thread.
fn on_two_connections<T: Send>(
    addr: std::net::SocketAddr,
    first: impl FnOnce(&mut Client) -> T + Send,
    second: impl FnOnce(&mut Client) -> T + Send,
) -> Result<(T, T), String> {
    let mut a = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut b = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    Ok(std::thread::scope(|s| {
        let other = s.spawn(move || second(&mut b));
        let mine = first(&mut a);
        (mine, other.join().expect("load thread panicked"))
    }))
}

/// Metric values by name, printed with their units.
struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value.filter(|v| v.is_finite()) {
            self.0.insert(name, (v, unit));
        }
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

fn run(args: &Args, work: &Path) -> Result<Vec<String>, String> {
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).map_err(io("work dir"))?;
    let profile = args.workload.profile();
    let fixture = Fixture::generate(args.seed);
    let plan = Plan::generate(args.workload, args.seed, args.seconds, &fixture);
    let pristine = work.join("fixture");
    fixture
        .write_store(&pristine)
        .map_err(io("fixture store"))?;
    let serve_dir = work.join("serve");
    copy_dir(&pristine, &serve_dir).map_err(io("store copy"))?;

    // The server that takes the load; the timed cold starts run beside it
    // over their own copy of the store, never sharing its directory.
    let mut oracle = Oracle::new(&fixture);
    let (server, _) = start(&serve_dir, &plan, &fixture, &mut oracle)?;
    let addr = server.addr();
    let setup_dir = work.join("setup");
    copy_dir(&pristine, &setup_dir).map_err(io("store copy"))?;
    let mut learn_client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;

    let rounds = plan.rounds;
    let open_slice_us = plan.open_secs * 1e6 / rounds as f64;
    let peak_slice = plan.peak_secs / rounds as f64;
    let mut setups = Vec::new();
    let mut open_out: Vec<(usize, Outcome)> = Vec::new();
    let mut peak_out: Vec<(usize, Outcome)> = Vec::new();
    let mut peak_elapsed = Vec::new();
    let mut learn_reqs: Vec<Req> = Vec::new();
    let mut learn_out: Vec<(usize, Outcome)> = Vec::new();
    let mut learn_elapsed = Vec::new();
    // Steal seconds (summed over CPUs) per round, and within each
    // round's closed-loop phases.
    let (mut round_steal, mut peak_steal, mut learn_steal) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..rounds {
        let steal_before = steal_s();
        // Set-up: cold starts over the same store, a few per round.
        for _ in 0..SETUPS_PER_ROUND {
            let (probe_server, secs) = start(&setup_dir, &plan, &fixture, &mut oracle)?;
            setups.push(secs);
            drop(probe_server);
        }

        // Open loop: this round's slice of the stream (reads, and on
        // serve_mixed learns on the second connection), each request
        // timed from its due time.
        let lo = (round as f64 * open_slice_us) as u64;
        let hi = ((round + 1) as f64 * open_slice_us) as u64;
        let slice = |conn: usize| -> Vec<Scheduled<'_>> {
            plan.open
                .iter()
                .enumerate()
                .filter(|(_, r)| r.conn == conn && (lo..hi).contains(&r.due_us))
                .map(|(index, r)| Scheduled {
                    index,
                    due_us: r.due_us - lo,
                    path: r.path,
                    body: &r.body,
                })
                .collect()
        };
        let (c0, c1) = (slice(0), slice(1));
        let open_start = Instant::now() + std::time::Duration::from_millis(20);
        let (o0, o1) = on_two_connections(
            addr,
            |c| client::open_loop(c, open_start, &c0),
            |c| client::open_loop(c, open_start, &c1),
        )?;
        open_out.extend(o0.into_iter().chain(o1).map(|o| (round, o)));

        // Closed loop: two connections sending /score back to back.
        let (p0, p1) = (scheduled(&plan.peak, 0), scheduled(&plan.peak, 1));
        let peak_start = Instant::now();
        let peak_steal_before = steal_s();
        let (q0, q1) = on_two_connections(
            addr,
            |c| client::closed_loop(c, &p0, peak_start, peak_slice),
            |c| client::closed_loop(c, &p1, peak_start, peak_slice),
        )?;
        peak_elapsed.push(peak_start.elapsed().as_secs_f64());
        peak_steal.push(steal_s() - peak_steal_before);
        peak_out.extend(q0.into_iter().chain(q1).map(|o| (round, o)));

        // Closed-loop learns: one pass over the fixed set, one connection.
        let pass_start = Instant::now();
        let learn_steal_before = steal_s();
        for req in learn_pass(&plan.learn_set, round, &fixture) {
            let sent_s = pass_start.elapsed().as_secs_f64();
            let (status, body, latency_us) = client::timed(&mut learn_client, req.path, &req.body);
            learn_out.push((
                round,
                Outcome {
                    index: learn_reqs.len(),
                    status,
                    body,
                    latency_us,
                    late_us: 0.0,
                    sent_s,
                },
            ));
            learn_reqs.push(req);
        }
        learn_elapsed.push(pass_start.elapsed().as_secs_f64());
        learn_steal.push(steal_s() - learn_steal_before);
        round_steal.push(steal_s() - steal_before);
    }
    drop(learn_client);
    let rss = peak_rss_mb();
    drop(server);

    // Replay the stream in-process: open loop in due order, one cycle of
    // the closed-loop /score pool, then the learn passes as sent.
    let dirs: Vec<PathBuf> = (0..3).map(|i| work.join(format!("replay-{i}"))).collect();
    for d in dirs.iter().take(if args.trace { 3 } else { 1 }) {
        copy_dir(&pristine, d).map_err(io("store copy"))?;
    }
    let dir_refs: Vec<&Path> = dirs.iter().map(PathBuf::as_path).collect();
    let mut tracer = Tracer::new(args.trace);
    let mut replay =
        Replay::new(&fixture, &dir_refs, &mut tracer, args.trace).map_err(io("replay store"))?;
    let mut routed_open = vec![None; plan.open.len()];
    for (i, req) in plan.open.iter().enumerate() {
        if args.trace || matches!(req.op, Op::Learn { .. }) {
            routed_open[i] = Some(replay.request(&mut tracer, i as u64, req));
        }
    }
    if args.trace {
        for (i, req) in plan.peak.iter().enumerate() {
            replay.request(&mut tracer, (plan.open.len() + i) as u64, req);
        }
    }
    let base = (plan.open.len() + plan.peak.len()) as u64;
    let routed_learns: Vec<(u16, String)> = learn_reqs
        .iter()
        .enumerate()
        .map(|(i, req)| replay.request(&mut tracer, base + i as u64, req))
        .collect();

    // Check every response.
    let phases = [
        ("open", open_out, &plan.open),
        ("peak", peak_out, &plan.peak),
        ("learn", learn_out, &learn_reqs),
    ];
    let served: Vec<Served<'_>> = phases
        .into_iter()
        .flat_map(|(phase, outcomes, reqs)| {
            outcomes.into_iter().map(move |(round, o)| Served {
                req: &reqs[o.index],
                outcome: o,
                phase,
                round,
            })
        })
        .collect();
    let mut open_bodies: BTreeMap<usize, &str> = BTreeMap::new();
    for s in &served {
        if let (Op::Learn { req, .. }, Some(200)) = (&s.req.op, s.outcome.status) {
            let _ = oracle.learned(req.tenant.clone(), &s.outcome.body);
            if s.phase == "open" {
                open_bodies.insert(s.outcome.index, &s.outcome.body);
            }
        }
    }
    let mut ok = vec![true; served.len()];
    let mut failures: Vec<String> = Vec::new();
    for (i, s) in served.iter().enumerate() {
        let (status, body) = (s.outcome.status, s.outcome.body.as_str());
        let verdict = match &s.req.op {
            Op::Score { rule } => oracle.check_score(&fixture, *rule, status, body),
            Op::Suggest(req) => oracle.check_suggest(req, status, body),
            Op::Learn { repeat_of, .. } => {
                let routed = match s.phase {
                    "open" => routed_open[s.outcome.index]
                        .as_ref()
                        .expect("learns are replayed"),
                    _ => &routed_learns[s.outcome.index],
                };
                // A repeat of a learn that stored a rule must be a store
                // hit; a repeat of an agreed 422 learns (and fails) again,
                // which the comparison with the replay already covers.
                oracle::check_learn(status, body, (routed.0, &routed.1)).and_then(|()| {
                    match repeat_of.and_then(|k| open_bodies.get(&k)) {
                        Some(original) => oracle::check_repeat(body, original),
                        None => Ok(()),
                    }
                })
            }
        };
        if let Err(e) = verdict {
            ok[i] = false;
            if failures.len() < 5 {
                failures.push(format!("{} {}: {e}", s.phase, s.req.kind()));
            }
        }
    }
    failures.extend(replay.counts.stage_mismatches.iter().take(5).cloned());
    let attempted = served.len() + setups.len() + 1;
    let failed = ok.iter().filter(|&&o| !o).count();

    // Each metric's value per round (`None` where a round has no sample).
    let correct = |phase: &'static str, round: usize| {
        served
            .iter()
            .zip(&ok)
            .filter(move |(s, &ok)| ok && s.phase == phase && s.round == round)
            .map(|(s, _)| s)
    };
    let per_round = |value: &dyn Fn(usize) -> Option<f64>| -> Vec<Option<f64>> {
        (0..rounds).map(value).collect()
    };
    // The calmer half of the rounds: those the hypervisor stole least
    // from. The choice rests on steal alone, never on a metric's value,
    // so it cannot favour a faster or slower program.
    let mut calm: Vec<usize> = (0..rounds).collect();
    calm.sort_by(|&a, &b| round_steal[a].total_cmp(&round_steal[b]).then(a.cmp(&b)));
    calm.truncate(rounds.div_ceil(2));
    let calm_median = |values: &[Option<f64>]| -> Option<f64> {
        median(&calm.iter().filter_map(|&r| values[r]).collect::<Vec<_>>())
    };
    // A closed-loop phase keeps every CPU busy, so the time stolen from
    // it, spread over the CPUs, is time the phase did not get to run.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let unstolen = |elapsed: f64, stolen: f64| (elapsed - stolen / cpus).max(elapsed / 10.0);
    let open_us = |kind: &str, round: usize| -> Vec<f64> {
        correct("open", round)
            .filter(|s| s.req.kind() == kind)
            .map(|s| s.outcome.latency_us)
            .collect()
    };
    let score_p50_ms = per_round(&|r| median(&open_us("score", r)).map(|v| v / 1e3));
    let suggest_p50_ms = per_round(&|r| median(&open_us("suggest", r)).map(|v| v / 1e3));
    let read_slo_share = per_round(&|r| {
        let reads = served
            .iter()
            .filter(|s| s.phase == "open" && s.round == r && s.req.kind() != "learn")
            .count();
        let met = correct("open", r)
            .filter(|s| s.req.kind() != "learn" && s.outcome.latency_us <= READ_SLO_US)
            .count();
        (reads > 0).then(|| met as f64 / reads as f64)
    });
    let score_peak_rps = per_round(&|r| {
        Some(correct("peak", r).count() as f64 / unstolen(peak_elapsed[r], peak_steal[r]))
    });
    let pass_ms = |r: usize| -> Vec<f64> {
        correct("learn", r)
            .map(|s| s.outcome.latency_us / 1e3)
            .collect()
    };
    let learn_p50_ms = per_round(&|r| median(&pass_ms(r)));
    let learns_per_s =
        per_round(&|r| Some(pass_ms(r).len() as f64 / unstolen(learn_elapsed[r], learn_steal[r])));
    let count = |phase: &str, kind: &str| {
        served
            .iter()
            .filter(|s| s.phase == phase && s.req.kind() == kind)
            .count()
    };
    let fresh_learn_ms: Vec<f64> = (0..rounds).flat_map(pass_ms).collect();
    let steal_per_round: Vec<Option<f64>> = round_steal.iter().copied().map(Some).collect();
    let open_learn_ms: Vec<f64> = served
        .iter()
        .zip(&ok)
        .filter(|(s, &ok)| {
            ok && s.phase == "open"
                && matches!(
                    s.req.op,
                    Op::Learn {
                        repeat_of: None,
                        ..
                    }
                )
        })
        .map(|(s, _)| s.outcome.latency_us / 1e3)
        .collect();
    let sheds = served
        .iter()
        .filter(|s| matches!(s.outcome.status, Some(503 | 408)))
        .count();
    let lateness: Vec<f64> = served
        .iter()
        .filter(|s| s.phase == "open")
        .map(|s| s.outcome.late_us)
        .collect();
    // Requests still unsent 20 ms after their round's slice ended.
    let backlog = served
        .iter()
        .filter(|s| s.phase == "open" && s.outcome.sent_s * 1e6 > open_slice_us + 20_000.0)
        .count();
    let learn_sorted = sorted(&fresh_learn_ms);

    let mut m = Metrics(BTreeMap::new());
    if !args.trace {
        m.put("setup_s", median(&setups), "s");
        m.put("score_p50_ms", calm_median(&score_p50_ms), "ms");
        m.put("suggest_p50_ms", calm_median(&suggest_p50_ms), "ms");
        m.put("read_slo_share", calm_median(&read_slo_share), "ratio");
        m.put("score_peak_rps", calm_median(&score_peak_rps), "req/s");
        m.put("learn_p50_ms", calm_median(&learn_p50_ms), "ms");
        m.put("learns_per_s", calm_median(&learns_per_s), "1/s");
        m.put("peak_rss_mb", Some(rss), "MB");
    } else {
        layer_metrics(
            &mut m,
            &tracer,
            &replay,
            calm_median(&score_p50_ms),
            calm_median(&suggest_p50_ms),
            sheds,
        );
        // Tracing overhead: the open-loop reads replayed again, three
        // times with spans off and three on, alternating; the fastest of
        // each.
        let reads_only: Vec<&Req> = plan.open.iter().filter(|r| r.kind() != "learn").collect();
        let timed_replay = |on: bool| -> Result<f64, String> {
            let mut t = Tracer::new(on);
            let mut r =
                Replay::new(&fixture, &dir_refs, &mut t, true).map_err(io("replay store"))?;
            let start = Instant::now();
            for (i, req) in reads_only.iter().enumerate() {
                r.request(&mut t, i as u64, req);
            }
            Ok(start.elapsed().as_secs_f64())
        };
        let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            off = off.min(timed_replay(false)?);
            on = on.min(timed_replay(true)?);
        }
        m.put("trace.overhead_ratio", Some(on / off - 1.0), "ratio");
        std::fs::create_dir_all(WORK_DIR).map_err(io("trace dir"))?;
        let path = Path::new(WORK_DIR).join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tracer.write_jsonl(&path).map_err(io("trace file"))?;
    }

    let tail = stats::highest_supported(learn_sorted.len());
    let record = format!(
        concat!(
            "{{\"run_record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, ",
            "\"stream_sha256\": \"{}\", \"rev\": \"{}\", \"nproc\": {}, \"pool_threads\": {}, ",
            "\"server_workers\": {}, \"connections\": {}, \"read_rps\": {}, \"learn_rps\": {}, ",
            "\"rounds\": {}, \"phase_s\": {{\"open\": {:.3}, \"peak\": {:.3}, \"learn\": {:.3}}}, ",
            "\"samples\": {{\"setups\": {}, \"score\": {}, \"suggest\": {}, \"peak_score\": {}, ",
            "\"fresh_learns\": {}}}, \"learn_p90_ms\": {:.3}, ",
            "\"learn_p90_supported\": {}, \"open_learn_p50_ms\": {:.3}, \"open_fresh_learns\": {}, ",
            "\"open_late_p99_us\": {:.1}, \"open_backlog\": {}, \"fail_share\": {}, ",
            "\"http_shed\": {}, \"per_round\": {{\"steal_s\": {}, \"score_p50_ms\": {}, ",
            "\"score_peak_rps\": {}, \"learns_per_s\": {}}}, \"failures\": {:?}}}}}"
        ),
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        plan.hash(&fixture),
        revision(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cornet_pool::current_threads(),
        cornet_pool::current_threads().clamp(2, 16),
        CONNECTIONS,
        profile.read_rps,
        profile.learn_rps,
        rounds,
        plan.open_secs,
        peak_elapsed.iter().sum::<f64>(),
        learn_elapsed.iter().sum::<f64>(),
        setups.len(),
        count("open", "score"),
        count("open", "suggest"),
        count("peak", "score"),
        fresh_learn_ms.len(),
        if learn_sorted.is_empty() { 0.0 } else { percentile(&learn_sorted, 90.0) },
        tail.is_some_and(|p| p >= 90.0),
        median(&open_learn_ms).unwrap_or(0.0),
        open_learn_ms.len(),
        if lateness.is_empty() { 0.0 } else { percentile(&sorted(&lateness), 99.0) },
        backlog,
        failed as f64 / attempted as f64,
        sheds,
        json_list(&steal_per_round),
        json_list(&score_p50_ms),
        json_list(&score_peak_rps),
        json_list(&learns_per_s),
        failures,
    );
    let all_correct = failed == 0 && replay.counts.stage_mismatches.is_empty();
    let result = format!(
        "{{\"correct\": {all_correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.json()
    );
    Ok(vec![record, result])
}

/// A JSON list of `values` to three decimals, `null` for a missing one.
fn json_list(values: &[Option<f64>]) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|v| v.map_or("null".to_string(), |v| format!("{v:.3}")))
        .collect();
    format!("[{}]", items.join(", "))
}

/// Per-layer metrics from the traced replay's spans and counts.
fn layer_metrics(
    m: &mut Metrics,
    tracer: &Tracer,
    replay: &Replay<'_>,
    score_p50_ms: Option<f64>,
    suggest_p50_ms: Option<f64>,
    sheds: usize,
) {
    let med = |name: &str| median(&tracer.durations_us(name));
    let total = |name: &str| tracer.durations_us(name).iter().sum::<f64>();
    let c = &replay.counts;
    let l = &c.learner;
    let fresh = tracer.durations_us("service.learn").len() as f64;
    let per_fresh = |name: &str| (fresh > 0.0).then(|| total(name) / fresh / 1e3);
    let per_run = |v: f64| (l.stage_runs > 0).then(|| v / l.stage_runs as f64);

    let route = med("http.route.score");
    let route_suggest = med("http.route.suggest");
    m.put("http.parse_us", med("http.parse"), "us");
    m.put("http.route_us", route, "us");
    m.put("http.route_suggest_us", route_suggest, "us");
    m.put(
        "http.frontend_us",
        score_p50_ms.zip(route).map(|(c, r)| c * 1e3 - r),
        "us",
    );
    m.put(
        "http.frontend_suggest_us",
        suggest_p50_ms.zip(route_suggest).map(|(c, r)| c * 1e3 - r),
        "us",
    );
    m.put("http.shed", Some(sheds as f64), "count");

    let score = med("service.score");
    m.put("service.score_us", score, "us");
    m.put("service.suggest_us", med("service.suggest"), "us");
    m.put(
        "service.codec_us",
        route.zip(score).map(|(r, s)| r - s),
        "us",
    );
    m.put("service.learn_ms", per_fresh("service.learn"), "ms");
    m.put(
        "service.learn_hit_ratio",
        (c.learn_requests > 0).then(|| 1.0 - c.learns_performed as f64 / c.learn_requests as f64),
        "ratio",
    );

    let mem = tracer.durations_us("store.get_mem").len() as f64;
    let disk = tracer.durations_us("store.get_disk").len() as f64;
    m.put("store.open_ms", med("store.open").map(|v| v / 1e3), "ms");
    m.put("store.get_mem_us", med("store.get_mem"), "us");
    m.put("store.get_disk_us", med("store.get_disk"), "us");
    m.put(
        "store.lru_hit_ratio",
        (mem + disk > 0.0).then(|| mem / (mem + disk)),
        "ratio",
    );
    m.put("store.put_us", med("store.put"), "us");

    m.put(
        "suggest.rebuild_ms",
        med("suggest.rebuild").map(|v| v / 1e3),
        "ms",
    );
    m.put("suggest.embed_us", med("suggest.embed"), "us");
    m.put("suggest.query_us", med("suggest.query"), "us");
    m.put("suggest.insert_us", med("suggest.insert"), "us");
    m.put(
        "suggest.yield_ratio",
        (c.neighbours_fetched > 0)
            .then(|| c.suggestions_returned as f64 / c.neighbours_fetched as f64),
        "ratio",
    );

    m.put("table.parse_us", med("table.parse"), "us");
    m.put("table.execute_us", med("table.execute"), "us");

    let stages = [
        "learner.predgen",
        "learner.cluster",
        "learner.enumerate",
        "learner.rank",
    ];
    m.put("learner.predgen_ms", per_fresh(stages[0]), "ms");
    m.put("learner.cluster_ms", per_fresh(stages[1]), "ms");
    m.put("learner.enumerate_ms", per_fresh(stages[2]), "ms");
    m.put("learner.rank_ms", per_fresh(stages[3]), "ms");
    let learn_total = total("service.learn");
    m.put(
        "learner.stage_share",
        (learn_total > 0.0).then(|| stages.iter().map(|s| total(s)).sum::<f64>() / learn_total),
        "ratio",
    );
    m.put("learner.predicates", per_run(l.predicates as f64), "count");
    m.put(
        "learner.representatives",
        per_run(l.representatives as f64),
        "count",
    );
    m.put("learner.candidates", per_run(l.candidates as f64), "count");
    m.put(
        "learner.cluster_sweeps",
        per_run(l.cluster_sweeps as f64),
        "count",
    );
    m.put(
        "learner.distinct_row_ratio",
        per_run(l.distinct_row_ratio_sum),
        "ratio",
    );
    m.put(
        "learner.abstain_ratio",
        (l.class_learns > 0).then(|| l.abstained as f64 / l.class_learns as f64),
        "ratio",
    );
}
