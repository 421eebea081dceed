//! The `optimize` workload: the in-process `Optimizer` over the paper's
//! batches, no data and no execution. Each round prepares every batch
//! once and searches it with all five strategies.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mqo::catalog::Catalog;
use mqo::core::{Optimized, Optimizer, Options, VerifyLevel};
use mqo::ks15::Ks15Greedy;
use mqo::verify::verify_result;

use crate::layers;
use crate::report::{median, peak_rss_mib, process_cpu_secs, quantile, Metrics, Outcome};
use crate::trace::Tracer;
use crate::workload::PaperSet;

/// `(registry name, metric key)` of every compared strategy.
pub const STRATEGIES: [(&str, &str); 5] = [
    ("Volcano", "volcano"),
    ("Volcano-SH", "volcano_sh"),
    ("Volcano-RU", "volcano_ru"),
    ("Greedy", "greedy"),
    ("KS15-Greedy", "ks15"),
];
const VOLCANO: usize = 0;
const GREEDY: usize = 3;
const KS15: usize = 4;

/// Optimizer threads of the timed rounds: sequential, so a round times
/// the search algorithms rather than thread hand-offs on a shared
/// machine. The reference round also runs at 2 threads to check that
/// costs do not depend on the thread count.
pub const THREADS: usize = 1;

/// An optimizer over `catalog` with the built-ins plus KS15, stage
/// verification off (the benchmark verifies plans itself).
pub fn optimizer(catalog: &Catalog, threads: usize) -> Optimizer<'_> {
    let options = Options::new()
        .with_threads(threads)
        .with_verify(VerifyLevel::Off);
    let mut o = Optimizer::with_options(catalog, options);
    o.register(Arc::new(Ks15Greedy))
        .expect("KS15-Greedy is not a built-in name");
    o
}

/// What one round measured for one batch.
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// Wall time of prepare + five searches, ms.
    pub ms: f64,
    /// Estimated cost per strategy, seconds, in `STRATEGIES` order.
    pub costs: [f64; 5],
}

/// Per-batch counters of a traced round, summed over the round.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundCounts {
    /// Batches prepared.
    pub batches: u64,
    /// Logical DAG groups.
    pub groups: u64,
    /// Logical DAG operations.
    pub ops: u64,
    /// Physical DAG nodes.
    pub nodes: u64,
    /// Cost propagations, all strategies.
    pub propagations: u64,
    /// Benefit recomputations, all strategies.
    pub recomputations: u64,
    /// Nodes Greedy chose to materialize.
    pub materialized: u64,
}

/// Runs one round over `set`. With `verify`, every plan is checked by
/// `verify_result` at `Full`; failures count in the outcome.
pub fn round(
    set: &PaperSet,
    threads: usize,
    verify: bool,
    tr: &mut Tracer,
    counts: &mut RoundCounts,
) -> (Vec<BatchRun>, Outcome) {
    let optimizers: Vec<Optimizer<'_>> =
        set.catalogs.iter().map(|c| optimizer(c, threads)).collect();
    let mut runs = Vec::with_capacity(set.batches.len());
    let mut outcome = Outcome::default();
    for (job, (name, catalog, batch)) in set.batches.iter().enumerate() {
        let o = &optimizers[*catalog];
        let job = job as u64;
        let start = Instant::now();
        let root = tr.enter("batch", job);
        let expanded = tr.time("dag.expand", job, || o.expand(batch));
        let ctx = tr.time("physical.physicalize", job, || o.physicalize(expanded));
        let mut results: Vec<Option<Optimized>> = Vec::with_capacity(5);
        for (strategy, key) in STRATEGIES {
            let r = tr.time(&format!("core.search.{key}"), job, || {
                o.search(&ctx, strategy)
            });
            results.push(r.map_err(|e| eprintln!("{name}/{strategy}: {e}")).ok());
        }
        if let Some(g) = &results[GREEDY] {
            tr.time("core.extract", job, || o.extract(&ctx, &g.mat));
        }
        tr.exit(root);
        let ms = start.elapsed().as_secs_f64() * 1e3;

        counts.batches += 1;
        counts.groups += ctx.dag.num_groups() as u64;
        counts.ops += ctx.dag.num_ops() as u64;
        counts.nodes += ctx.pdag.num_nodes() as u64;
        for r in results.iter().flatten() {
            counts.propagations += r.stats.cost_propagations;
            counts.recomputations += r.stats.benefit_recomputations;
        }
        if let Some(g) = &results[GREEDY] {
            counts.materialized += g.stats.materialized as u64;
        }

        let mut costs = [f64::NAN; 5];
        for (i, r) in results.iter().enumerate() {
            outcome.attempted += 1;
            let Some(r) = r else {
                outcome.failed += 1;
                continue;
            };
            costs[i] = r.cost.secs();
            if verify {
                let report = verify_result(
                    &ctx.dag,
                    &ctx.pdag,
                    &r.plan,
                    &r.mat,
                    &ctx.warm,
                    r.cost,
                    r.stats.sharable,
                    VerifyLevel::Full,
                );
                if !report.is_clean() {
                    eprintln!(
                        "{name}/{}: plan fails verification:\n{}",
                        STRATEGIES[i].0,
                        report.render()
                    );
                    outcome.failed += 1;
                }
            }
        }
        // Greedy commits only positive-benefit materializations and
        // KS15 keeps a Volcano floor: neither may cost more than Volcano.
        for i in [GREEDY, KS15] {
            if costs[i] > costs[VOLCANO] {
                eprintln!(
                    "{name}: {} cost {} above Volcano's {}",
                    STRATEGIES[i].0, costs[i], costs[VOLCANO]
                );
                outcome.failed += 1;
            }
        }
        runs.push(BatchRun { ms, costs });
    }
    (runs, outcome)
}

/// Counts the operations of `runs` whose cost is not bit-identical to
/// the reference round's.
pub fn cost_drift(reference: &[BatchRun], runs: &[BatchRun], label: &str) -> u64 {
    let mut drift = 0;
    for (i, (a, b)) in reference.iter().zip(runs).enumerate() {
        for ((strategy, _), (x, y)) in STRATEGIES.iter().zip(a.costs.iter().zip(b.costs)) {
            if x.to_bits() != y.to_bits() {
                eprintln!("batch {i} / {strategy}: cost {y} differs from reference {x} ({label})");
                drift += 1;
            }
        }
    }
    drift
}

/// Sum over the batches of each strategy's estimated cost.
pub fn cost_sums(runs: &[BatchRun]) -> [f64; 5] {
    let mut sums = [0.0; 5];
    for r in runs {
        for (s, c) in sums.iter_mut().zip(r.costs) {
            *s += c;
        }
    }
    sums
}

/// Reference round: threads 1 and 2, every plan verified at `Full`,
/// costs bit-identical between the two. Returns the threads-1 runs.
pub fn reference_round(set: &PaperSet) -> (Vec<BatchRun>, Outcome) {
    let mut counts = RoundCounts::default();
    let (one, mut outcome) = round(set, 1, true, &mut Tracer::new(false), &mut counts);
    let (two, o2) = round(set, 2, true, &mut Tracer::new(false), &mut counts);
    outcome.add(o2);
    outcome.failed += cost_drift(&one, &two, "threads 1 vs 2");
    (one, outcome)
}

/// Whole timed rounds until `duration` has passed, each checked for
/// bit-identical costs against `reference`; `between` runs after each
/// round, outside its timing. Returns every round's runs and the
/// outcome.
pub fn timed_rounds(
    set: &PaperSet,
    reference: &[BatchRun],
    duration: Duration,
    between: &mut dyn FnMut(),
) -> (Vec<Vec<BatchRun>>, Outcome) {
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut outcome = Outcome::default();
    while start.elapsed() < duration {
        let mut counts = RoundCounts::default();
        let (runs, o) = round(set, THREADS, false, &mut Tracer::new(false), &mut counts);
        outcome.add(o);
        outcome.failed += cost_drift(reference, &runs, "timed round");
        rounds.push(runs);
        between();
    }
    (rounds, outcome)
}

/// Median round time, ms.
pub fn round_ms(rounds: &[Vec<BatchRun>]) -> f64 {
    let totals: Vec<f64> = rounds
        .iter()
        .map(|r| r.iter().map(|b| b.ms).sum())
        .collect();
    median(&totals)
}

/// The optimizer metrics every workload reports: median round time and
/// the four plan-cost sums.
pub fn put_optimizer_metrics(m: &mut Metrics, rounds: &[Vec<BatchRun>], reference: &[BatchRun]) {
    m.put("opt_round_ms", round_ms(rounds), "ms");
    let sums = cost_sums(reference);
    m.put("greedy_cost_s", sums[GREEDY], "s");
    m.put("ks15_cost_s", sums[KS15], "s");
    m.put("volcano_ru_cost_s", sums[2], "s");
    m.put("volcano_sh_cost_s", sums[1], "s");
}

/// One set-up: build the paper set and its optimizers. Returns the set
/// and the seconds it took.
fn setup(seed: u64) -> (PaperSet, f64) {
    let start = Instant::now();
    let s = PaperSet::new(seed);
    let _: Vec<_> = s.catalogs.iter().map(|c| optimizer(c, THREADS)).collect();
    (s, start.elapsed().as_secs_f64())
}

/// The untraced `optimize` run: every end-to-end metric. A set-up takes
/// under a millisecond, so it is repeated after every timed round and
/// `setup_s` is the median over the whole run; the timed metrics leave
/// those repetitions out, except process CPU, which they add to by
/// about 0.3%.
pub fn run(seed: u64, seconds: f64) -> (Outcome, Metrics) {
    let (set, first) = setup(seed);
    let mut setups = vec![first];
    let (reference, mut outcome) = reference_round(&set);

    let cpu0 = process_cpu_secs();
    let (rounds, o) = timed_rounds(
        &set,
        &reference,
        Duration::from_secs_f64(seconds),
        &mut || setups.push(setup(seed).1),
    );
    let cpu = process_cpu_secs() - cpu0;
    outcome.add(o);

    let queries = (set.queries() * rounds.len()) as f64;
    let batch_ms: Vec<f64> = rounds.iter().flatten().map(|b| b.ms).collect();
    let planning_s = batch_ms.iter().sum::<f64>() / 1e3;
    println!(
        "optimize: {} rounds of {} batches ({} queries), {planning_s:.2}s planning; {} batch samples, {} set-ups",
        rounds.len(),
        set.batches.len(),
        set.queries(),
        batch_ms.len(),
        setups.len()
    );
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("qps", queries / planning_s, "1/s");
    m.put("latency_p50_ms", quantile(&batch_ms, 0.5), "ms");
    m.put("latency_p75_ms", quantile(&batch_ms, 0.75), "ms");
    m.put("cpu_ms_per_query", cpu * 1e3 / queries, "ms");
    m.put("peak_rss_mib", peak_rss_mib(), "MiB");
    put_optimizer_metrics(&mut m, &rounds, &reference);
    (outcome, m)
}

/// The traced `optimize` run: untraced rounds, then traced rounds over
/// the same batches for the per-layer metrics and the overhead.
pub fn run_traced(seed: u64, seconds: f64) -> (Outcome, Metrics, Tracer) {
    let (set, _) = setup(seed);
    let (reference, mut outcome) = reference_round(&set);
    let half = Duration::from_secs_f64(seconds / 2.0);
    let mut untraced = Vec::new();
    let start = Instant::now();
    while start.elapsed() < half {
        let (runs, o) = round(
            &set,
            THREADS,
            false,
            &mut Tracer::new(false),
            &mut RoundCounts::default(),
        );
        outcome.add(o);
        outcome.failed += cost_drift(&reference, &runs, "untraced replay");
        untraced.push(runs.iter().map(|b| b.ms).sum::<f64>());
    }
    let mut tr = Tracer::new(true);
    let mut counts = RoundCounts::default();
    let mut traced = Vec::new();
    for _ in 0..untraced.len() {
        let (runs, o) = round(&set, THREADS, false, &mut tr, &mut counts);
        outcome.add(o);
        outcome.failed += cost_drift(&reference, &runs, "traced replay");
        traced.push(runs.iter().map(|b| b.ms).sum::<f64>());
    }
    let mut m = layers::zeroed();
    let per_batch = |x: u64| x as f64 / counts.batches.max(1) as f64;
    let per_call = |name: &str| {
        let by = tr.by_name();
        by.get(name).map_or(0.0, |e| e.2 / e.0 as f64)
    };
    layers::set(&mut m, "dag.expand_ms", per_call("dag.expand"));
    layers::set(&mut m, "dag.groups", per_batch(counts.groups));
    layers::set(&mut m, "dag.ops", per_batch(counts.ops));
    layers::set(
        &mut m,
        "physical.physicalize_ms",
        per_call("physical.physicalize"),
    );
    layers::set(&mut m, "physical.nodes", per_batch(counts.nodes));
    for (_, key) in STRATEGIES {
        layers::set(
            &mut m,
            &format!("core.search_ms.{key}"),
            per_call(&format!("core.search.{key}")),
        );
    }
    layers::set(&mut m, "core.extract_ms", per_call("core.extract"));
    layers::set(
        &mut m,
        "core.cost_propagations",
        per_batch(counts.propagations),
    );
    layers::set(
        &mut m,
        "core.benefit_recomputations",
        per_batch(counts.recomputations),
    );
    layers::set(&mut m, "core.materialized", per_batch(counts.materialized));
    layers::set_overhead(&mut m, &untraced, &traced, tr.spans().len());
    (outcome, m, tr)
}
