//! What the workloads send: the SQL templates, the serving stream built
//! from them, and the paper's optimizer batch set.

use mqo::catalog::Catalog;
use mqo::exec::Database;
use mqo::logical::Batch;
use mqo::workloads::{Scaleup, Tpcd};

/// TPC-D scale of the served database (`stream` and `warm`).
pub const SERVE_SCALE: f64 = 0.004;
/// TPC-D scale of the optimizer-only batches (Fig. 6 and Fig. 8).
pub const PAPER_SCALE: f64 = 1.0;
/// Nations of the TPC-D catalog; nation `k` is named `n_name_<k:06>`.
const NATIONS: u32 = 25;
/// Parts the Q11-like job's by-part statement should return: one
/// supplier's share of partsupp at the serving scale (3 200 rows over 40
/// suppliers).
pub const Q11_PARTS: usize = 80;

/// One SQL statement shape with its constants. Every template answers
/// `(group key, sum)` rows, or a single `(sum)` row for `Q11Total`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Template {
    /// Q3-like: revenue per order of one market segment around a date.
    Q3(i64),
    /// Q5-like: revenue per nation of one region over a year.
    Q5(i64),
    /// Q7-like: revenue per supplier nation over two years of shipping.
    Q7(i64),
    /// Q9-like: revenue per supplier nation of parts above a price.
    Q9(f64),
    /// Q10-like: returned-item revenue per customer over a quarter.
    Q10(i64),
    /// Q11-like: stock value per part for one nation's suppliers.
    Q11ByPart(u32),
    /// Q11-like: total stock value for one nation's suppliers.
    Q11Total(u32),
}

/// How a template's result rows must be ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// No ORDER BY.
    Unordered,
    /// `ORDER BY <sum> DESC`.
    SumDesc,
    /// `ORDER BY <key>` ascending.
    KeyAsc,
}

impl Template {
    /// The statement's SQL text (no trailing `;`).
    pub fn sql(self) -> String {
        match self {
            Template::Q3(d) => format!(
                "SELECT o_orderkey, SUM(l_extendedprice) AS rev3 \
                 FROM customer, orders, lineitem \
                 WHERE c_mktsegment = 'c_mktsegment_000001' AND o_orderdate < {d} \
                 AND l_shipdate > {d} AND c_custkey = o_custkey AND o_orderkey = l_orderkey \
                 GROUP BY o_orderkey ORDER BY rev3 DESC"
            ),
            Template::Q5(d) => format!(
                "SELECT n_nationkey, SUM(l_extendedprice) AS rev5 \
                 FROM customer, orders, lineitem, supplier, nation, region \
                 WHERE o_orderdate >= {d} AND o_orderdate < {} AND r_name = 'r_name_000002' \
                 AND c_custkey = o_custkey AND o_orderkey = l_orderkey \
                 AND l_suppkey = s_suppkey AND s_nationkey = n_nationkey \
                 AND n_regionkey = r_regionkey \
                 GROUP BY n_nationkey ORDER BY rev5 DESC",
                d + 365
            ),
            Template::Q7(d) => format!(
                "SELECT n_nationkey, SUM(l_extendedprice) AS rev7 \
                 FROM supplier, lineitem, orders, customer, nation \
                 WHERE l_shipdate >= {d} AND l_shipdate <= {} \
                 AND s_suppkey = l_suppkey AND l_orderkey = o_orderkey \
                 AND o_custkey = c_custkey AND s_nationkey = n_nationkey \
                 GROUP BY n_nationkey ORDER BY n_nationkey",
                d + 730
            ),
            Template::Q9(p) => format!(
                "SELECT n_nationkey, SUM(l_extendedprice) AS rev9 \
                 FROM part, lineitem, supplier, nation \
                 WHERE p_retailprice >= {p:.1} AND p_partkey = l_partkey \
                 AND l_suppkey = s_suppkey AND s_nationkey = n_nationkey \
                 GROUP BY n_nationkey ORDER BY n_nationkey"
            ),
            Template::Q10(d) => format!(
                "SELECT c_custkey, SUM(l_extendedprice) AS rev10 \
                 FROM customer, orders, lineitem, nation \
                 WHERE o_orderdate >= {d} AND o_orderdate < {} \
                 AND l_returnflag = 'l_returnflag_000002' \
                 AND c_custkey = o_custkey AND o_orderkey = l_orderkey \
                 AND c_nationkey = n_nationkey \
                 GROUP BY c_custkey ORDER BY rev10 DESC",
                d + 90
            ),
            Template::Q11ByPart(n) => format!(
                "SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value \
                 FROM partsupp, supplier, nation \
                 WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey \
                 AND n_name = '{}' \
                 GROUP BY ps_partkey ORDER BY value DESC",
                nation_name(n)
            ),
            Template::Q11Total(n) => format!(
                "SELECT SUM(ps_supplycost * ps_availqty) AS value \
                 FROM partsupp, supplier, nation \
                 WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey \
                 AND n_name = '{}'",
                nation_name(n)
            ),
        }
    }

    /// The ordering the statement's ORDER BY demands.
    pub fn order(self) -> Order {
        match self {
            Template::Q3(_) | Template::Q5(_) | Template::Q10(_) | Template::Q11ByPart(_) => {
                Order::SumDesc
            }
            Template::Q7(_) | Template::Q9(_) => Order::KeyAsc,
            Template::Q11Total(_) => Order::Unordered,
        }
    }
}

/// The Experiment-2 component pair `i` (Q3, Q5, Q7, Q9, Q10 at two
/// constants each), with the constants of `Tpcd`'s hand-built pairs.
pub fn component_pair(i: usize) -> [Template; 2] {
    match i % 5 {
        0 => [Template::Q3(1_200), Template::Q3(1_500)],
        1 => [Template::Q5(365), Template::Q5(730)],
        2 => [Template::Q7(730), Template::Q7(1_095)],
        3 => [Template::Q9(1_500.0), Template::Q9(1_800.0)],
        _ => [Template::Q10(600), Template::Q10(900)],
    }
}

/// One client job: statements sent as one `;`-separated text.
#[derive(Debug, Clone)]
pub struct Job {
    /// The statements, in order.
    pub templates: Vec<Template>,
    /// Their SQL, joined into one job text.
    pub sql: String,
}

impl Job {
    fn of(templates: Vec<Template>) -> Job {
        let sql = templates
            .iter()
            .map(|t| t.sql() + ";")
            .collect::<Vec<_>>()
            .join(" ");
        Job { templates, sql }
    }
}

/// Serving window `i`: pairs `i` and `i + 1`, the SQL twin of
/// `Tpcd::serving_batches(..)[i]`.
pub fn window(i: usize) -> Job {
    let mut t = component_pair(i).to_vec();
    t.extend(component_pair(i + 1));
    Job::of(t)
}

/// The value of `n_name` for nation `n`.
pub fn nation_name(n: u32) -> String {
    format!("n_name_{n:06}")
}

/// The nation the Q11-like job names on `db`: the one whose by-part
/// answer has the row count nearest `Q11_PARTS`, the lowest on a tie.
/// The suppliers' nations are drawn from the seed, so one fixed nation
/// returned anywhere from 0 to 139 parts on seeds 1–10, and the job's
/// work moved with the seed.
pub fn q11_nation(db: &Database, cat: &Catalog) -> u32 {
    (0..NATIONS)
        .min_by_key(|&n| {
            let parts = crate::reference::answer(Template::Q11ByPart(n), db, cat)
                .rows
                .len();
            parts.abs_diff(Q11_PARTS)
        })
        .unwrap_or(0)
}

/// The Q11-like two-statement job of the `warm` workload for `nation`.
pub fn q11_job(nation: u32) -> Job {
    Job::of(vec![
        Template::Q11ByPart(nation),
        Template::Q11Total(nation),
    ])
}

/// Client `c`'s round of jobs. A `stream` round is one pass over the
/// five windows, starting at a seed-chosen window; client `c` starts
/// `c` windows later. A `warm` round is one Q11-like job naming
/// `q11_nation`.
pub fn client_round(stream: bool, seed: u64, q11_nation: u32, c: usize) -> Vec<Job> {
    if stream {
        let start = (seed % 5) as usize + c;
        (0..5).map(|k| window(start + k)).collect()
    } else {
        vec![q11_job(q11_nation)]
    }
}

/// Scale-up catalogs per run. The scale-up relations' sizes are drawn
/// from the seed, and one catalog's CQ search times differ by up to a
/// quarter between seeds; a round over several catalogs averages that.
pub const SCALEUP_CATALOGS: u64 = 4;

/// The paper's optimizer batches: Q2, Q2-D, Q11, Q15 (Fig. 6) and
/// BQ1–BQ5 (Fig. 8) at `PAPER_SCALE`, and CQ1–CQ5 (Figs. 9–10) over each
/// of `SCALEUP_CATALOGS` scale-up catalogs drawn from the workload seed.
pub struct PaperSet {
    /// The TPC-D catalog at `PAPER_SCALE`, then the scale-up catalogs.
    pub catalogs: Vec<Catalog>,
    /// `(name, index into catalogs, batch)`, in figure order.
    pub batches: Vec<(String, usize, Batch)>,
}

impl PaperSet {
    /// Builds the catalogs and all batches.
    pub fn new(seed: u64) -> PaperSet {
        let t = Tpcd::new(PAPER_SCALE);
        let mut batches: Vec<(String, usize, Batch)> = t
            .standalone()
            .into_iter()
            .map(|(n, b)| (n.to_string(), 0, b))
            .collect();
        batches.extend((1..=5).map(|i| (format!("BQ{i}"), 0, t.bq(i))));
        let mut catalogs = vec![t.catalog];
        for k in 0..SCALEUP_CATALOGS {
            let s = Scaleup::new(seed.wrapping_mul(SCALEUP_CATALOGS).wrapping_add(k));
            batches.extend((1..=5).map(|i| (format!("CQ{i}/{k}"), catalogs.len(), s.cq(i))));
            catalogs.push(s.catalog);
        }
        PaperSet { catalogs, batches }
    }

    /// Queries across all batches.
    pub fn queries(&self) -> usize {
        self.batches.iter().map(|(_, _, b)| b.queries.len()).sum()
    }
}
