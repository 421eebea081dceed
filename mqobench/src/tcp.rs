//! The TCP workloads, `stream` and `warm`: one in-process server and
//! two closed-loop clients speaking SQL over loopback, every reply
//! checked against the reference evaluator.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mqo::catalog::Catalog;
use mqo::core::{Options, VerifyLevel};
use mqo::exec::{generate_database, Database, ExecOptions};
use mqo::serve::{Client, FrontTotals, QueryResult, ServeFront, ServeOptions, Server};
use mqo::session::SessionOptions;
use mqo::workloads::Tpcd;

use crate::reference::{answer, check, Answer};
use crate::report::{median, peak_rss_mib, process_cpu_secs, quantile, Metrics, Outcome};
use crate::workload::{client_round, q11_nation, Job, PaperSet, Template, SERVE_SCALE};

/// Client connections: the CPU count of the 2-CPU machine the
/// reference figures come from.
pub const CLIENTS: usize = 2;
/// Planner worker threads of the serving front (also the CPU count).
pub const WORKERS: usize = 2;
/// Optimizer threads inside the front. One: a served batch is a handful
/// of statements, and with more threads Greedy starts its probing
/// workers afresh on every search; on `warm`, threads 2 cost 0.2–0.3 ms
/// more p50 and 25–40% more CPU per query than threads 1 on the same
/// seeds.
pub const OPT_THREADS: usize = 1;
/// `MvStore` budget of `stream`: 0, so every batch runs cold and the
/// engine does the work. The stream's working set is 1.8 MB of temps at
/// scale 0.004; at budgets between 4 KiB and 1 MiB the store's steady
/// state depends on the order of the first admissions, and throughput
/// differs up to 2.3× between runs of the same seed (see README.md).
pub const STREAM_BUDGET: usize = 0;
/// `MvStore` budget of `warm`: the default 256 MiB; the job's temps fit.
pub const WARM_BUDGET: usize = 256 << 20;
/// Set-ups timed before the traffic and in each pause between segments;
/// `setup_s` is the median of all of them.
const SETUP_REPS: usize = 3;
/// Timed traffic segments per run; optimizer rounds over the paper
/// batches (the optimizer figures every workload reports) run between
/// them.
const SEGMENTS: usize = 4;

/// Session options of the served front: the program's defaults, with
/// every knob that could come from the environment fixed.
pub fn session_options(stream: bool) -> SessionOptions {
    SessionOptions::new()
        .with_opt(
            Options::new()
                .with_threads(OPT_THREADS)
                .with_verify(VerifyLevel::Off),
        )
        .with_exec(ExecOptions::default())
        .with_mv_budget_bytes(if stream { STREAM_BUDGET } else { WARM_BUDGET })
        .with_time_budget(None)
        .with_mem_budget(None)
}

/// A started server with the data it serves.
pub struct Served {
    /// The TCP server (its front holds the database).
    pub server: Server,
    /// The serving catalog, as generated.
    pub catalog: Catalog,
    /// The generated database (shared, refcounted tables).
    pub db: Database,
}

/// One set-up: generates the data, builds the catalog and starts the
/// front and the TCP server. Returns them and the seconds it took.
pub fn setup(stream: bool, seed: u64) -> (Served, f64) {
    let start = Instant::now();
    let w = Tpcd::new(SERVE_SCALE);
    let db = generate_database(&w.catalog, seed, usize::MAX);
    let catalog = w.catalog.clone();
    let front = ServeFront::new(
        w.catalog,
        db.clone(),
        ServeOptions::new()
            .with_workers(WORKERS)
            .with_session(session_options(stream)),
    );
    let server = Server::start(front, "127.0.0.1:0").expect("bind a loopback port");
    let secs = start.elapsed().as_secs_f64();
    (
        Served {
            server,
            catalog,
            db,
        },
        secs,
    )
}

/// Times `n` more set-ups, shutting each server down again.
fn more_setups(stream: bool, seed: u64, n: usize, times: &mut Vec<f64>) {
    for _ in 0..n {
        let (mut extra, secs) = setup(stream, seed);
        extra.server.shutdown();
        times.push(secs);
    }
}

/// Reference answers of every template in `rounds`.
pub fn answers(rounds: &[Vec<Job>], served: &Served) -> Vec<(Template, Answer)> {
    let mut out: Vec<(Template, Answer)> = Vec::new();
    for t in rounds.iter().flatten().flat_map(|j| &j.templates) {
        if !out.iter().any(|(u, _)| u == t) {
            out.push((*t, answer(*t, &served.db, &served.catalog)));
        }
    }
    out
}

/// Checks one job's reply; returns how many of its queries failed.
pub fn check_reply(
    job: &Job,
    reply: &Result<Vec<QueryResult>, mqo::util::MqoError>,
    answers: &[(Template, Answer)],
) -> u64 {
    let results = match reply {
        Ok(r) => r,
        Err(e) => {
            eprintln!("job failed: {}", e.render());
            return job.templates.len() as u64;
        }
    };
    if results.len() != job.templates.len() {
        eprintln!(
            "job returned {} results for {} statements",
            results.len(),
            job.templates.len()
        );
        return job.templates.len() as u64;
    }
    let mut failed = 0;
    for (t, got) in job.templates.iter().zip(results) {
        let want = &answers
            .iter()
            .find(|(u, _)| u == t)
            .expect("every template has an answer")
            .1;
        if let Err(e) = check(got, want) {
            eprintln!("wrong answer to {t:?}: {e}");
            failed += 1;
        }
    }
    failed
}

/// What one client saw in the timed window.
#[derive(Debug, Default)]
struct ClientLog {
    /// Round trip of every job, ms.
    rts_ms: Vec<f64>,
    /// Queries answered (correctly or not).
    queries: u64,
    outcome: Outcome,
}

/// Keeps the clients in lockstep: each job is sent when every client
/// is ready to send its own, so the Former always finds the other
/// client's job inside its window. Left to themselves, closed-loop
/// clients drift between riding one batch together and riding separate
/// batches on the two workers, and the run's throughput flips between
/// the two modes.
struct Lockstep {
    barrier: Barrier,
    stop: AtomicBool,
}

impl Lockstep {
    fn new() -> Lockstep {
        Lockstep {
            barrier: Barrier::new(CLIENTS),
            stop: AtomicBool::new(false),
        }
    }

    /// True when the clients agree that `deadline` has passed; one
    /// client decides, so all stop after the same round.
    fn past(&self, deadline: Instant) -> bool {
        if self.barrier.wait().is_leader() {
            self.stop
                .store(Instant::now() >= deadline, Ordering::SeqCst);
        }
        self.barrier.wait();
        self.stop.load(Ordering::SeqCst)
    }
}

/// Sends whole rounds of `round` over `client` until `deadline`.
fn client_rounds(
    client: &mut Client,
    round: &[Job],
    answers: &[(Template, Answer)],
    deadline: Instant,
    lockstep: &Lockstep,
    log: &mut ClientLog,
) {
    loop {
        for job in round {
            lockstep.barrier.wait();
            let start = Instant::now();
            let reply = client.query(&job.sql);
            let rt = start.elapsed().as_secs_f64() * 1e3;
            let n = job.templates.len() as u64;
            log.rts_ms.push(rt);
            log.queries += n;
            log.outcome.attempted += n;
            log.outcome.failed += check_reply(job, &reply, answers);
        }
        if lockstep.past(deadline) {
            return;
        }
    }
}

/// The closed-loop traffic of one run.
pub struct Traffic {
    /// Round trip of every timed job, ms.
    pub rts_ms: Vec<f64>,
    /// Queries answered in the timed segments.
    pub queries: u64,
    /// Wall time of the timed segments, seconds.
    pub wall_s: f64,
    /// Process CPU time in the timed segments, seconds.
    pub cpu_s: f64,
    /// Front counters before the first and after the last segment.
    pub totals: (FrontTotals, FrontTotals),
    /// Operations of the warm-up and timed rounds.
    pub outcome: Outcome,
}

/// Runs `CLIENTS` clients in lockstep: one untimed warm-up round each,
/// then `segments` timed segments of whole rounds, each lasting at
/// least `segment_s`. The clients pause between segments while
/// `between` runs; its time is not part of the traffic's figures.
pub fn traffic(
    served: &Served,
    rounds: &[Vec<Job>],
    answers: &[(Template, Answer)],
    segments: usize,
    segment_s: f64,
    between: &mut dyn FnMut(),
) -> Traffic {
    let addr = served.server.local_addr().to_string();
    let go = Barrier::new(CLIENTS + 1);
    let done = Barrier::new(CLIENTS + 1);
    let segment = Duration::from_secs_f64(segment_s);
    let lockstep = Lockstep::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = rounds
            .iter()
            .enumerate()
            .map(|(c, round)| {
                let (addr, go, done, lockstep) = (&addr, &go, &done, &lockstep);
                scope.spawn(move || {
                    let mut client = Client::connect(addr, &format!("client-{c}"))
                        .expect("connect to the front");
                    let mut warm = ClientLog::default();
                    client_rounds(
                        &mut client,
                        round,
                        answers,
                        Instant::now(),
                        lockstep,
                        &mut warm,
                    );
                    done.wait();
                    let mut log = ClientLog::default();
                    for _ in 0..segments {
                        go.wait();
                        client_rounds(
                            &mut client,
                            round,
                            answers,
                            Instant::now() + segment,
                            lockstep,
                            &mut log,
                        );
                        done.wait();
                    }
                    client.close();
                    log.outcome.add(warm.outcome);
                    log
                })
            })
            .collect();
        done.wait();
        let before = served.server.front().stats().0;
        let (mut wall_s, mut cpu_s) = (0.0, 0.0);
        for _ in 0..segments {
            let cpu0 = process_cpu_secs();
            let start = Instant::now();
            go.wait();
            done.wait();
            wall_s += start.elapsed().as_secs_f64();
            cpu_s += process_cpu_secs() - cpu0;
            between();
        }
        let after = served.server.front().stats().0;
        let mut t = Traffic {
            rts_ms: Vec::new(),
            queries: 0,
            wall_s,
            cpu_s,
            totals: (before, after),
            outcome: Outcome::default(),
        };
        for h in handles {
            let log = h.join().expect("client thread panicked");
            t.rts_ms.extend(log.rts_ms);
            t.queries += log.queries;
            t.outcome.add(log.outcome);
        }
        t
    })
}

/// The rounds the two clients send to `served`.
pub fn rounds(stream: bool, seed: u64, served: &Served) -> Vec<Vec<Job>> {
    // `stream` sends no Q11-like job.
    let nation = if stream {
        0
    } else {
        q11_nation(&served.db, &served.catalog)
    };
    (0..CLIENTS)
        .map(|c| client_round(stream, seed, nation, c))
        .collect()
}

/// Checks the front's own counters against the clients' view: every
/// query the clients sent in the window was executed, nothing failed.
fn totals_agree(t: &Traffic) -> bool {
    let (a, b) = t.totals;
    let executed = b.queries - a.queries;
    let ok = executed == t.queries && b.failed == a.failed;
    if !ok {
        eprintln!(
            "front counters disagree: {executed} queries executed, clients sent {}; {} failed batches",
            t.queries,
            b.failed - a.failed
        );
    }
    ok
}

/// The untraced `stream` / `warm` run: every end-to-end metric.
pub fn run(stream: bool, seed: u64, seconds: f64) -> (Outcome, Metrics) {
    let mut setups = Vec::new();
    more_setups(stream, seed, SETUP_REPS - 1, &mut setups);
    let (mut served, last) = setup(stream, seed);
    setups.push(last);
    let rounds = rounds(stream, seed, &served);
    let answers = answers(&rounds, &served);
    println!(
        "{} answer rows per round of client 0",
        rounds[0]
            .iter()
            .flat_map(|j| &j.templates)
            .map(|t| answers
                .iter()
                .find(|(u, _)| u == t)
                .map_or(0, |(_, a)| a.rows.len()))
            .sum::<usize>()
    );
    let set = PaperSet::new(seed);
    let (reference, mut outcome) = crate::optimize::reference_round(&set);
    // Traffic takes two thirds of the run and optimizer rounds the
    // rest, alternating, so both sample the whole run; set-ups are
    // timed in the same pauses. Peak memory is read in the first pause,
    // before a second server ever exists beside the measured one.
    let slice = seconds / (3 * SEGMENTS) as f64;
    let mut opt_rounds = Vec::new();
    let mut peak_rss = None;
    let t = traffic(
        &served,
        &rounds,
        &answers,
        SEGMENTS,
        2.0 * slice,
        &mut || {
            peak_rss.get_or_insert_with(peak_rss_mib);
            let (r, o) = crate::optimize::timed_rounds(
                &set,
                &reference,
                Duration::from_secs_f64(slice),
                &mut || (),
            );
            opt_rounds.extend(r);
            outcome.add(o);
            more_setups(stream, seed, SETUP_REPS, &mut setups);
        },
    );
    outcome.add(t.outcome);
    outcome.broken |= !totals_agree(&t);
    served.server.shutdown();

    let (a, b) = t.totals;
    println!(
        "{}: {} jobs / {} queries in {:.2}s over {} batches; {} cache hits, {} temps built, \
         {} admitted, {} evicted, {} rejected",
        if stream { "stream" } else { "warm" },
        t.rts_ms.len(),
        t.queries,
        t.wall_s,
        b.batches - a.batches,
        b.cache_hits - a.cache_hits,
        b.temps_built - a.temps_built,
        b.admitted - a.admitted,
        b.evicted - a.evicted,
        b.rejected - a.rejected,
    );
    let p75_tail = t.rts_ms.len() / 4;
    if p75_tail < 10 {
        eprintln!("only {p75_tail} samples above p75: run longer");
        outcome.broken = true;
    }

    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("qps", t.queries as f64 / t.wall_s, "1/s");
    m.put("latency_p50_ms", quantile(&t.rts_ms, 0.5), "ms");
    m.put("latency_p75_ms", quantile(&t.rts_ms, 0.75), "ms");
    m.put(
        "cpu_ms_per_query",
        t.cpu_s * 1e3 / t.queries.max(1) as f64,
        "ms",
    );
    m.put("peak_rss_mib", peak_rss.unwrap_or_else(peak_rss_mib), "MiB");

    crate::optimize::put_optimizer_metrics(&mut m, &opt_rounds, &reference);
    (outcome, m)
}
