//! The traced run of `stream` and `warm`: the same client traffic,
//! replayed in process through each layer's public entry point in the
//! order the serving front calls them (`Registrar::lower` → `Former` →
//! expand → physicalize → fingerprint → search → execute → price →
//! `commit_staged` → split → wire encode/decode), with a span around
//! each call.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mqo::catalog::Catalog;
use mqo::core::{Optimizer, Registry};
use mqo::exec::{try_execute_plan_seeded, Database, ExecOptions, MvStore, Table};
use mqo::ks15::Ks15Greedy;
use mqo::physical::{node_fingerprints, CostTable, MatSet, PhysNodeId};
use mqo::serve::protocol::{decode_results, encode_results};
use mqo::serve::{Former, FormerConfig, QueryResult, Registrar};
use mqo::session::{commit_staged, AdmissionOffer, BatchResult, StagedSubmit};
use mqo::sql::{apply_order, to_batch, PlannedQuery};
use mqo::util::{FxHashMap, MqoError};
use mqo::verify::VerifyLevel;

use crate::layers;
use crate::reference::Answer;
use crate::report::{median, Metrics, Outcome};
use crate::tcp::{self, check_reply, session_options};
use crate::trace::Tracer;
use crate::workload::{Job, Template};

/// Cap on traced batches, which bounds the span file (`warm` forms
/// thousands of batches a second).
const MAX_TRACED_BATCHES: usize = 2_000;

/// The replayed front: the same components `ServeFront` wires up.
struct Front {
    registrar: Registrar,
    former: Former<Vec<PlannedQuery>>,
    registry: Registry,
    db: Database,
    store: MvStore,
    options: mqo::session::SessionOptions,
    seq: u64,
}

/// Counters of the traced replay, summed over its batches.
#[derive(Debug, Default)]
struct Counts {
    batches: u64,
    queries: u64,
    groups: u64,
    ops: u64,
    nodes: u64,
    propagations: u64,
    recomputations: u64,
    materialized: u64,
    rows_out: u64,
    temps_built: u64,
    est_cost_s: f64,
    lookups: u64,
    hits: u64,
    offers: u64,
    admitted: u64,
    rejected: u64,
    evicted: u64,
    wire_bytes: u64,
    /// Per job: replayed time the job waits on, ms.
    job_stage_ms: Vec<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Front {
    fn new(stream: bool, catalog: Catalog, db: Database) -> Front {
        let mut registry = Registry::builtin();
        registry
            .register(Arc::new(Ks15Greedy))
            .expect("KS15-Greedy is not a built-in name");
        let options = session_options(stream);
        Front {
            registrar: Registrar::new(catalog),
            former: Former::new(FormerConfig::default()),
            registry,
            db,
            store: MvStore::new(options.mv_budget_bytes),
            options,
            seq: 0,
        }
    }

    /// Serves one formed batch of `jobs` (one per client, as the
    /// lockstep closed loop forms them). Returns each job's decoded
    /// results.
    fn batch(
        &mut self,
        jobs: &[&Job],
        tr: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<Vec<Vec<QueryResult>>, MqoError> {
        self.seq += 1;
        let seq = self.seq;
        let batch_start = Instant::now();
        let root = tr.enter("batch", seq);

        // Lowering, one job at a time, as the connection threads do.
        let mut own_ms = vec![0.0; jobs.len()];
        let now = Instant::now();
        for (j, job) in jobs.iter().enumerate() {
            let t = Instant::now();
            let planned = tr.time("sql.lower", seq, || self.registrar.lower(&job.sql))?;
            self.former
                .push(&format!("client-{j}"), planned.len(), planned, now);
            own_ms[j] += ms(t.elapsed());
        }
        let window = self.former.config().window;
        let formed = tr
            .time("former.form", seq, || self.former.form(now + window))
            .unwrap_or_default();
        // The former may rotate which tenant leads; keep each job's
        // client so replies go back to their sender.
        let planned: Vec<(usize, Vec<PlannedQuery>)> = formed
            .into_iter()
            .map(|f| {
                let client = f.tenant.trim_start_matches("client-").parse().unwrap_or(0);
                (client, f.payload)
            })
            .collect();

        // The worker: plan and execute against the store snapshot.
        let catalog = self.registrar.snapshot();
        let batch = to_batch(
            &planned
                .iter()
                .flat_map(|(_, p)| p.clone())
                .collect::<Vec<_>>(),
        );
        let optimizer = Optimizer::with_registry(&catalog, self.options.opt, self.registry.clone());
        let expanded = tr.time("dag.expand", seq, || optimizer.expand(&batch));
        let mut ctx = tr.time("physical.physicalize", seq, || {
            optimizer.physicalize(expanded)
        });

        let fp = tr.enter("session.fingerprint", seq);
        let group_fps = mqo::dag::try_group_fingerprints(&ctx.dag).map_err(|e| {
            MqoError::invariant(mqo::util::ErrorStage::Plan, "replay", e.to_string())
        })?;
        let node_fps = node_fingerprints(&ctx.pdag, &group_fps);
        let mut warm = MatSet::new();
        for (idx, &f) in node_fps.iter().enumerate() {
            let n = PhysNodeId::from_index(idx);
            counts.lookups += 1;
            if self.store.contains(f) && !ctx.dag.group(ctx.pdag.node(n).group).has_param {
                counts.hits += 1;
                warm.insert(&ctx.pdag, n);
            }
        }
        ctx.warm = warm;
        tr.exit(fp);

        let optimized = tr.time("core.search.greedy", seq, || {
            optimizer.search(&ctx, &self.options.strategy)
        })?;
        // Not on the front's path (search already extracted): timed on
        // its own so extraction shows as a layer.
        let t = Instant::now();
        let _ = tr.time("core.extract", seq, || {
            optimizer.extract(&ctx, &optimized.mat)
        });
        let extract_ms = ms(t.elapsed());
        let plan = &optimized.plan;

        let mut seeds: FxHashMap<PhysNodeId, Arc<Table>> = FxHashMap::default();
        let mut warm_fps = Vec::new();
        for &w in &plan.warm_used {
            let f = node_fps[w.index()];
            let t = self.store.peek(f).ok_or_else(|| {
                MqoError::invariant(
                    mqo::util::ErrorStage::Session,
                    "replay",
                    "warm temp not live",
                )
            })?;
            seeds.insert(w, t);
            warm_fps.push(f);
        }
        let exec = ExecOptions {
            deadline: None,
            mem_budget_bytes: None,
            ..self.options.exec.unwrap_or_default()
        };
        let params = FxHashMap::default();
        let seeded = tr.time("exec.execute", seq, || {
            try_execute_plan_seeded(&catalog, &ctx.pdag, plan, &self.db, &params, exec, &seeds)
        })?;

        // Admission offers priced by the optimizer's benefit estimate.
        let price = tr.enter("session.price", seq);
        let mut offers = Vec::new();
        if !seeded.built_temps.is_empty() && self.store.budget_bytes() > 0 {
            let table = CostTable::compute(&ctx.pdag, &optimized.mat);
            for (n, temp) in &seeded.built_temps {
                if ctx.dag.group(ctx.pdag.node(*n).group).has_param {
                    continue;
                }
                offers.push(AdmissionOffer {
                    fp: node_fps[n.index()],
                    table: Arc::clone(temp),
                    benefit_secs: (table.node_cost[n.index()] - ctx.pdag.reusecost(*n)).secs(),
                    blocks: ctx.pdag.node(*n).blocks,
                });
            }
        }
        tr.exit(price);
        let outcome = seeded.outcome;
        counts.offers += offers.len() as u64;
        let mut staged = StagedSubmit {
            result: BatchResult {
                cost: optimized.cost,
                stats: optimized.stats,
                exec_wall: outcome.wall,
                rows_out: outcome.rows_out,
                temps_built: outcome.temps_built,
                cache_hits: plan.warm_used.len(),
                admitted: 0,
                evicted: 0,
                rejected: 0,
                degraded: optimized.stats.degraded,
                query_errors: outcome.query_errors,
                results: outcome.results,
            },
            offers,
            warm_fps,
            env_fallback: false,
        };

        // The commit actor's clone-swap transaction.
        tr.time("commit.commit", seq, || {
            let mut next = self.store.clone();
            commit_staged(&mut next, &mut staged, seq, VerifyLevel::Off).map(|()| self.store = next)
        })?;

        let result = staged.result;
        counts.batches += 1;
        counts.groups += ctx.dag.num_groups() as u64;
        counts.ops += ctx.dag.num_ops() as u64;
        counts.nodes += ctx.pdag.num_nodes() as u64;
        counts.propagations += result.stats.cost_propagations;
        counts.recomputations += result.stats.benefit_recomputations;
        counts.materialized += result.stats.materialized as u64;
        counts.rows_out += result.rows_out as u64;
        counts.temps_built += result.temps_built as u64;
        counts.est_cost_s += result.cost.secs();
        counts.admitted += result.admitted as u64;
        counts.rejected += result.rejected as u64;
        counts.evicted += result.evicted as u64;

        // Split per job, then the wire: encode on the server side,
        // decode on the client side.
        let mut tables = result.results.into_iter();
        let mut replies = vec![Vec::new(); jobs.len()];
        for (j, pq_list) in &planned {
            let j = *j;
            let out: Vec<QueryResult> = tr.time("serve.split", seq, || {
                pq_list
                    .iter()
                    .zip(tables.by_ref())
                    .map(|(pq, table)| {
                        let table = if pq.order_by.is_empty() {
                            table
                        } else {
                            apply_order(&table, &pq.order_by)
                        };
                        QueryResult {
                            label: pq.label.clone(),
                            columns: table
                                .schema
                                .iter()
                                .map(|&c| catalog.column(c).name.clone())
                                .collect(),
                            rows: (0..table.len()).map(|i| table.row(i)).collect(),
                        }
                    })
                    .collect()
            });
            let t = Instant::now();
            let bytes = tr.time("wire.encode", seq, || encode_results(&out));
            counts.wire_bytes += bytes.len() as u64;
            counts.queries += out.len() as u64;
            replies[j] = tr.time("wire.decode", seq, || decode_results(&bytes, "replay"))?;
            own_ms[j] += ms(t.elapsed());
        }
        tr.exit(root);
        // A job waits on the whole batch except the other jobs' own
        // lowering and wire time, and except the off-path extraction.
        let total = ms(batch_start.elapsed()) - extract_ms;
        let others: f64 = own_ms.iter().sum();
        for own in &own_ms {
            counts.job_stage_ms.push(total - (others - own));
        }
        Ok(replies)
    }
}

/// Replays lockstep steps of the clients' rounds: step `k` forms one
/// batch of every client's `k`-th job. Returns per-batch wall times.
fn replay(
    front: &mut Front,
    rounds: &[Vec<Job>],
    answers: &[(Template, Answer)],
    steps: usize,
    tr: &mut Tracer,
    counts: &mut Counts,
    outcome: &mut Outcome,
) -> Vec<f64> {
    let mut walls = Vec::with_capacity(steps);
    for k in 0..steps {
        let jobs: Vec<&Job> = rounds.iter().map(|r| &r[k % r.len()]).collect();
        let start = Instant::now();
        let replies = front.batch(&jobs, tr, counts);
        walls.push(ms(start.elapsed()));
        for (j, job) in jobs.iter().enumerate() {
            outcome.attempted += job.templates.len() as u64;
            let reply = replies.as_ref().map(|r| r[j].clone()).map_err(Clone::clone);
            outcome.failed += check_reply(job, &reply, answers);
        }
    }
    walls
}

/// The traced `stream` / `warm` run: a timed TCP window (for round
/// trips and the front's batch forming), then the replay untraced and
/// traced, each for a quarter of `seconds` in whole rounds.
pub fn run_traced(stream: bool, seed: u64, seconds: f64) -> (Outcome, Metrics, Tracer) {
    let (mut served, _) = tcp::setup(stream, seed);
    let rounds = tcp::rounds(stream, seed, &served);
    let answers = tcp::answers(&rounds, &served);
    let t = tcp::traffic(&served, &rounds, &answers, 1, seconds / 2.0, &mut || ());
    served.server.shutdown();
    let mut outcome = t.outcome;
    let (a, b) = t.totals;
    let queries_per_batch = (b.queries - a.queries) as f64 / (b.batches - a.batches).max(1) as f64;

    let round_len = rounds.iter().map(Vec::len).max().unwrap_or(1);
    let mut front = Front::new(stream, served.catalog.clone(), served.db.clone());
    // Warm the replayed store with one round, as the TCP run did.
    let mut untimed = Counts::default();
    replay(
        &mut front,
        &rounds,
        &answers,
        round_len,
        &mut Tracer::new(false),
        &mut untimed,
        &mut outcome,
    );

    // Untraced replay: whole rounds for a quarter of the run.
    let quarter = Duration::from_secs_f64(seconds / 4.0);
    let start = Instant::now();
    let mut untraced = Vec::new();
    while start.elapsed() < quarter {
        untraced.extend(replay(
            &mut front,
            &rounds,
            &answers,
            round_len,
            &mut Tracer::new(false),
            &mut untimed,
            &mut outcome,
        ));
    }
    let steps = untraced.len().min(MAX_TRACED_BATCHES);
    let mut tr = Tracer::new(true);
    let mut c = Counts::default();
    let traced = replay(
        &mut front,
        &rounds,
        &answers,
        steps,
        &mut tr,
        &mut c,
        &mut outcome,
    );

    let mut m = layers::zeroed();
    let by = tr.by_name();
    let per_call = |name: &str| by.get(name).map_or(0.0, |e| e.2 / e.0 as f64);
    let per_batch = |x: u64| x as f64 / c.batches.max(1) as f64;
    layers::set(&mut m, "sql.lower_ms", per_call("sql.lower"));
    layers::set(&mut m, "former.queries_per_batch", queries_per_batch);
    layers::set(
        &mut m,
        "serve.wait_ms",
        median(&t.rts_ms) - median(&c.job_stage_ms),
    );
    layers::set(&mut m, "dag.expand_ms", per_call("dag.expand"));
    layers::set(&mut m, "dag.groups", per_batch(c.groups));
    layers::set(&mut m, "dag.ops", per_batch(c.ops));
    layers::set(
        &mut m,
        "physical.physicalize_ms",
        per_call("physical.physicalize"),
    );
    layers::set(&mut m, "physical.nodes", per_batch(c.nodes));
    layers::set(
        &mut m,
        "core.search_ms.greedy",
        per_call("core.search.greedy"),
    );
    layers::set(&mut m, "core.extract_ms", per_call("core.extract"));
    layers::set(&mut m, "core.cost_propagations", per_batch(c.propagations));
    layers::set(
        &mut m,
        "core.benefit_recomputations",
        per_batch(c.recomputations),
    );
    layers::set(&mut m, "core.materialized", per_batch(c.materialized));
    layers::set(
        &mut m,
        "session.fingerprint_ms",
        per_call("session.fingerprint"),
    );
    layers::set(&mut m, "commit.commit_ms", per_call("commit.commit"));
    let exec_ms = by.get("exec.execute").map_or(0.0, |e| e.2);
    layers::set(&mut m, "exec.execute_ms", exec_ms / c.batches.max(1) as f64);
    layers::set(&mut m, "exec.rows_out", per_batch(c.rows_out));
    layers::set(&mut m, "exec.temps_built", per_batch(c.temps_built));
    layers::set(
        &mut m,
        "cost.exec_ms_per_est_s",
        exec_ms / c.est_cost_s.max(1e-12),
    );
    layers::set(&mut m, "mv.lookups", per_batch(c.lookups));
    layers::set(&mut m, "mv.hits", per_batch(c.hits));
    layers::set(
        &mut m,
        "mv.hit_ratio",
        c.hits as f64 / c.lookups.max(1) as f64,
    );
    layers::set(&mut m, "mv.offers", per_batch(c.offers));
    layers::set(&mut m, "mv.admitted", per_batch(c.admitted));
    layers::set(&mut m, "mv.rejected", per_batch(c.rejected));
    layers::set(&mut m, "mv.evicted", per_batch(c.evicted));
    layers::set(&mut m, "mv.bytes_used", front.store.bytes_used() as f64);
    layers::set(&mut m, "wire.encode_ms", per_call("wire.encode"));
    layers::set(&mut m, "wire.decode_ms", per_call("wire.decode"));
    layers::set(
        &mut m,
        "wire.bytes_per_query",
        c.wire_bytes as f64 / c.queries.max(1) as f64,
    );
    layers::set_overhead(&mut m, &untraced, &traced, tr.spans().len());

    let root_ms: f64 = by.get("batch").map_or(0.0, |e| e.1);
    println!(
        "replay: {} batches traced; exec share {:.1}% of replayed batch time; \
         TCP p50 round trip {:.3} ms vs replayed job stages p50 {:.3} ms",
        c.batches,
        100.0 * exec_ms / root_ms.max(1e-9),
        median(&t.rts_ms),
        median(&c.job_stage_ms)
    );
    (outcome, m, tr)
}
