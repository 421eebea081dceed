//! The reference evaluator: answers every statement template the
//! workloads send by direct scan, hash join and group-by over the
//! generated `Database` columns. No planner, DAG, cost model or engine
//! operator is involved, so a wrong answer from the program cannot be
//! reproduced here by shared code.
//!
//! Checks follow SQL semantics where plans may legitimately differ:
//! rows compare as multisets, float sums by relative tolerance (a
//! different join or summation order changes the last bits), and
//! ORDER BY as an ordering property of the returned rows (ties have no
//! fixed order).

use std::collections::HashMap;

use mqo::catalog::Catalog;
use mqo::exec::Database;
use mqo::expr::Value;
use mqo::serve::QueryResult;

use crate::workload::{nation_name, Order, Template};

/// Relative tolerance for float sums.
pub const REL_TOL: f64 = 1e-9;

/// A reference answer: `(group key, sum)` rows (key `None` for a
/// scalar aggregate), sorted by key, plus the ordering to check.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Rows sorted by key.
    pub rows: Vec<(Option<i64>, f64)>,
    /// Required order of the returned rows.
    pub order: Order,
}

/// A comparison predicate of a scan.
#[derive(Debug, Clone)]
enum Pred {
    Eq(&'static str, Value),
    Lt(&'static str, Value),
    Le(&'static str, Value),
    Gt(&'static str, Value),
    Ge(&'static str, Value),
}

/// An intermediate relation: named columns and row-major values.
struct Rel {
    names: Vec<&'static str>,
    rows: Vec<Vec<Value>>,
}

impl Rel {
    fn pos(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("reference: no column {name} in {:?}", self.names))
    }
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        other => panic!("reference: {other:?} is not numeric"),
    }
}

/// SQL comparison of two non-null values of the same kind.
fn cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => num(a).total_cmp(&num(b)),
    }
}

/// Scans `table`, keeping the rows that satisfy every predicate and
/// the listed columns.
fn scan(db: &Database, cat: &Catalog, table: &str, cols: &[&'static str], preds: &[Pred]) -> Rel {
    let id = cat
        .table_by_name(table)
        .unwrap_or_else(|| panic!("reference: no table {table}"))
        .id;
    let data = db.table(id);
    let column = |name: &str| data.col_of(cat.col(table, name));
    let kept: Vec<_> = cols.iter().map(|c| column(c)).collect();
    let tests: Vec<_> = preds
        .iter()
        .map(|p| {
            let (name, v) = match p {
                Pred::Eq(n, v)
                | Pred::Lt(n, v)
                | Pred::Le(n, v)
                | Pred::Gt(n, v)
                | Pred::Ge(n, v) => (*n, v),
            };
            (column(name), p, v)
        })
        .collect();
    let mut rows = Vec::new();
    for i in 0..data.len() {
        let pass = tests.iter().all(|(col, p, v)| {
            let x = col.get(i);
            if matches!(x, Value::Null) {
                return false;
            }
            let o = cmp(&x, v);
            match p {
                Pred::Eq(..) => o.is_eq(),
                Pred::Lt(..) => o.is_lt(),
                Pred::Le(..) => o.is_le(),
                Pred::Gt(..) => o.is_gt(),
                Pred::Ge(..) => o.is_ge(),
            }
        });
        if pass {
            rows.push(kept.iter().map(|c| c.get(i)).collect());
        }
    }
    Rel {
        names: cols.to_vec(),
        rows,
    }
}

/// Inner hash join on `left.lk = right.rk` (integer keys); the output
/// carries the left columns followed by the right ones.
fn join(left: Rel, right: Rel, lk: &str, rk: &str) -> Rel {
    let (li, ri) = (left.pos(lk), right.pos(rk));
    let mut index: HashMap<i64, Vec<usize>> = HashMap::new();
    for (i, r) in right.rows.iter().enumerate() {
        if let Value::Int(k) = r[ri] {
            index.entry(k).or_default().push(i);
        }
    }
    let mut rows = Vec::new();
    for l in &left.rows {
        let Value::Int(k) = l[li] else { continue };
        for &i in index.get(&k).map_or(&[][..], Vec::as_slice) {
            let mut row = l.clone();
            row.extend(right.rows[i].iter().cloned());
            rows.push(row);
        }
    }
    let mut names = left.names;
    names.extend(right.names);
    Rel { names, rows }
}

/// `SELECT key, SUM(product of terms) GROUP BY key`, or the scalar sum
/// when `key` is `None`. A scalar aggregate over no rows is one NULL
/// row in SQL; it is kept out of the answer as `f64::NAN`.
fn group_sum(rel: &Rel, key: Option<&str>, terms: &[&str], order: Order) -> Answer {
    let tpos: Vec<usize> = terms.iter().map(|t| rel.pos(t)).collect();
    let term = |r: &Vec<Value>| tpos.iter().map(|&p| num(&r[p])).product::<f64>();
    let rows = match key {
        Some(k) => {
            let kp = rel.pos(k);
            let mut groups: HashMap<i64, f64> = HashMap::new();
            for r in &rel.rows {
                let Value::Int(g) = r[kp] else {
                    panic!("reference: non-integer group key {:?}", r[kp])
                };
                *groups.entry(g).or_insert(0.0) += term(r);
            }
            let mut rows: Vec<_> = groups.into_iter().map(|(g, s)| (Some(g), s)).collect();
            rows.sort_by_key(|r| r.0);
            rows
        }
        None if rel.rows.is_empty() => vec![(None, f64::NAN)],
        None => vec![(None, rel.rows.iter().map(term).sum())],
    };
    Answer { rows, order }
}

fn int(v: i64) -> Value {
    Value::Int(v)
}

/// Answers one template over `db`, reading columns by catalog name.
pub fn answer(t: Template, db: &Database, cat: &Catalog) -> Answer {
    let s = |x: &str| Value::str(x);
    let order = t.order();
    match t {
        Template::Q3(d) => {
            let c = scan(
                db,
                cat,
                "customer",
                &["c_custkey"],
                &[Pred::Eq("c_mktsegment", s("c_mktsegment_000001"))],
            );
            let o = scan(
                db,
                cat,
                "orders",
                &["o_orderkey", "o_custkey"],
                &[Pred::Lt("o_orderdate", int(d))],
            );
            let l = scan(
                db,
                cat,
                "lineitem",
                &["l_orderkey", "l_extendedprice"],
                &[Pred::Gt("l_shipdate", int(d))],
            );
            let r = join(
                join(c, o, "c_custkey", "o_custkey"),
                l,
                "o_orderkey",
                "l_orderkey",
            );
            group_sum(&r, Some("o_orderkey"), &["l_extendedprice"], order)
        }
        Template::Q5(d) => {
            let c = scan(db, cat, "customer", &["c_custkey"], &[]);
            let o = scan(
                db,
                cat,
                "orders",
                &["o_orderkey", "o_custkey"],
                &[
                    Pred::Ge("o_orderdate", int(d)),
                    Pred::Lt("o_orderdate", int(d + 365)),
                ],
            );
            let l = scan(
                db,
                cat,
                "lineitem",
                &["l_orderkey", "l_suppkey", "l_extendedprice"],
                &[],
            );
            let su = scan(db, cat, "supplier", &["s_suppkey", "s_nationkey"], &[]);
            let n = scan(db, cat, "nation", &["n_nationkey", "n_regionkey"], &[]);
            let re = scan(
                db,
                cat,
                "region",
                &["r_regionkey"],
                &[Pred::Eq("r_name", s("r_name_000002"))],
            );
            let r = join(
                join(c, o, "c_custkey", "o_custkey"),
                l,
                "o_orderkey",
                "l_orderkey",
            );
            let r = join(r, su, "l_suppkey", "s_suppkey");
            let r = join(
                r,
                join(n, re, "n_regionkey", "r_regionkey"),
                "s_nationkey",
                "n_nationkey",
            );
            group_sum(&r, Some("n_nationkey"), &["l_extendedprice"], order)
        }
        Template::Q7(d) => {
            let su = scan(db, cat, "supplier", &["s_suppkey", "s_nationkey"], &[]);
            let l = scan(
                db,
                cat,
                "lineitem",
                &["l_orderkey", "l_suppkey", "l_extendedprice"],
                &[
                    Pred::Ge("l_shipdate", int(d)),
                    Pred::Le("l_shipdate", int(d + 730)),
                ],
            );
            let o = scan(db, cat, "orders", &["o_orderkey", "o_custkey"], &[]);
            let c = scan(db, cat, "customer", &["c_custkey"], &[]);
            let n = scan(db, cat, "nation", &["n_nationkey"], &[]);
            let r = join(
                join(su, l, "s_suppkey", "l_suppkey"),
                o,
                "l_orderkey",
                "o_orderkey",
            );
            let r = join(
                join(r, c, "o_custkey", "c_custkey"),
                n,
                "s_nationkey",
                "n_nationkey",
            );
            group_sum(&r, Some("n_nationkey"), &["l_extendedprice"], order)
        }
        Template::Q9(p) => {
            let pa = scan(
                db,
                cat,
                "part",
                &["p_partkey"],
                &[Pred::Ge("p_retailprice", Value::Float(p))],
            );
            let l = scan(
                db,
                cat,
                "lineitem",
                &["l_partkey", "l_suppkey", "l_extendedprice"],
                &[],
            );
            let su = scan(db, cat, "supplier", &["s_suppkey", "s_nationkey"], &[]);
            let n = scan(db, cat, "nation", &["n_nationkey"], &[]);
            let r = join(
                join(pa, l, "p_partkey", "l_partkey"),
                su,
                "l_suppkey",
                "s_suppkey",
            );
            let r = join(r, n, "s_nationkey", "n_nationkey");
            group_sum(&r, Some("n_nationkey"), &["l_extendedprice"], order)
        }
        Template::Q10(d) => {
            let c = scan(db, cat, "customer", &["c_custkey", "c_nationkey"], &[]);
            let o = scan(
                db,
                cat,
                "orders",
                &["o_orderkey", "o_custkey"],
                &[
                    Pred::Ge("o_orderdate", int(d)),
                    Pred::Lt("o_orderdate", int(d + 90)),
                ],
            );
            let l = scan(
                db,
                cat,
                "lineitem",
                &["l_orderkey", "l_extendedprice"],
                &[Pred::Eq("l_returnflag", s("l_returnflag_000002"))],
            );
            let n = scan(db, cat, "nation", &["n_nationkey"], &[]);
            let r = join(
                join(c, o, "c_custkey", "o_custkey"),
                l,
                "o_orderkey",
                "l_orderkey",
            );
            let r = join(r, n, "c_nationkey", "n_nationkey");
            group_sum(&r, Some("c_custkey"), &["l_extendedprice"], order)
        }
        Template::Q11ByPart(nation) | Template::Q11Total(nation) => {
            let ps = scan(
                db,
                cat,
                "partsupp",
                &["ps_partkey", "ps_suppkey", "ps_supplycost", "ps_availqty"],
                &[],
            );
            let su = scan(db, cat, "supplier", &["s_suppkey", "s_nationkey"], &[]);
            let n = scan(
                db,
                cat,
                "nation",
                &["n_nationkey"],
                &[Pred::Eq("n_name", s(&nation_name(nation)))],
            );
            let r = join(
                join(ps, su, "ps_suppkey", "s_suppkey"),
                n,
                "s_nationkey",
                "n_nationkey",
            );
            let key = matches!(t, Template::Q11ByPart(_)).then_some("ps_partkey");
            group_sum(&r, key, &["ps_supplycost", "ps_availqty"], order)
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Checks one returned result against its reference answer. Returns a
/// description of the first disagreement.
pub fn check(got: &QueryResult, want: &Answer) -> Result<(), String> {
    let keyed = want.rows.first().is_some_and(|r| r.0.is_some());
    let width = if keyed { 2 } else { 1 };
    let mut rows = Vec::with_capacity(got.rows.len());
    for (i, r) in got.rows.iter().enumerate() {
        if r.len() != width {
            return Err(format!(
                "{}: row {i} has {} cells, want {width}",
                got.label,
                r.len()
            ));
        }
        let key = if keyed {
            match r[0] {
                Value::Int(k) => Some(k),
                ref v => {
                    return Err(format!(
                        "{}: row {i} key {v:?} is not an integer",
                        got.label
                    ))
                }
            }
        } else {
            None
        };
        let sum = match r[width - 1] {
            Value::Int(x) => x as f64,
            Value::Float(x) => x,
            Value::Null => f64::NAN,
            ref v => return Err(format!("{}: row {i} sum {v:?} is not numeric", got.label)),
        };
        rows.push((key, sum));
    }
    match want.order {
        Order::Unordered => {}
        Order::SumDesc => {
            if let Some(i) = rows.windows(2).position(|w| w[0].1 < w[1].1) {
                return Err(format!(
                    "{}: rows {i}..{} not in descending sum order",
                    got.label,
                    i + 2
                ));
            }
        }
        Order::KeyAsc => {
            if let Some(i) = rows.windows(2).position(|w| w[0].0 > w[1].0) {
                return Err(format!(
                    "{}: rows {i}..{} not in ascending key order",
                    got.label,
                    i + 2
                ));
            }
        }
    }
    // Multiset comparison: sort both sides by (key, sum).
    rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    if rows.len() != want.rows.len() {
        return Err(format!(
            "{}: {} rows, reference has {}",
            got.label,
            rows.len(),
            want.rows.len()
        ));
    }
    for (g, w) in rows.iter().zip(&want.rows) {
        if g.0 != w.0 || !close(g.1, w.1) {
            return Err(format!(
                "{}: row {g:?} where the reference has {w:?}",
                got.label
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo::catalog::{ColStats, ColType};
    use mqo::exec::Table;

    fn f(x: f64) -> Value {
        Value::Float(x)
    }

    /// A hand-built database: the three Q3 tables and the three Q11
    /// tables, a few rows each.
    fn tiny() -> (Catalog, Database) {
        let mut cat = Catalog::new();
        let str_col = |n: f64| ColStats::opaque(n);
        let customer = cat
            .table("customer")
            .rows(3.0)
            .int_key("c_custkey")
            .column("c_mktsegment", ColType::Str(10), str_col(2.0))
            .build();
        let orders = cat
            .table("orders")
            .rows(3.0)
            .int_key("o_orderkey")
            .int_uniform("o_custkey", 0, 2)
            .int_uniform("o_orderdate", 0, 2_000)
            .build();
        let lineitem = cat
            .table("lineitem")
            .rows(5.0)
            .int_uniform("l_orderkey", 0, 2)
            .column(
                "l_extendedprice",
                ColType::Float,
                ColStats::uniform_float(0.0, 100.0, 5.0),
            )
            .int_uniform("l_shipdate", 0, 2_000)
            .build();
        let nation = cat
            .table("nation")
            .rows(2.0)
            .int_key("n_nationkey")
            .column("n_name", ColType::Str(16), str_col(2.0))
            .build();
        let supplier = cat
            .table("supplier")
            .rows(3.0)
            .int_key("s_suppkey")
            .int_uniform("s_nationkey", 0, 1)
            .build();
        let partsupp = cat
            .table("partsupp")
            .rows(4.0)
            .int_uniform("ps_partkey", 0, 1)
            .int_uniform("ps_suppkey", 0, 2)
            .column(
                "ps_supplycost",
                ColType::Float,
                ColStats::uniform_float(1.0, 10.0, 4.0),
            )
            .int_uniform("ps_availqty", 1, 10)
            .build();
        let seg = |k: &str| Value::str(&format!("c_mktsegment_{k}"));
        let mut db = Database::new();
        let ids =
            |t: &str, cols: &[&str]| -> Vec<_> { cols.iter().map(|c| cat.col(t, c)).collect() };
        let tables = vec![
            (
                customer,
                ids("customer", &["c_custkey", "c_mktsegment"]),
                vec![
                    vec![int(0), seg("000001")],
                    vec![int(1), seg("000002")],
                    vec![int(2), seg("000001")],
                ],
            ),
            (
                orders,
                ids("orders", &["o_orderkey", "o_custkey", "o_orderdate"]),
                vec![
                    vec![int(0), int(0), int(1_000)],
                    vec![int(1), int(1), int(1_000)],
                    vec![int(2), int(2), int(1_300)],
                ],
            ),
            (
                lineitem,
                ids("lineitem", &["l_orderkey", "l_extendedprice", "l_shipdate"]),
                vec![
                    vec![int(0), f(10.0), int(1_300)],
                    vec![int(0), f(5.5), int(1_250)],
                    vec![int(0), f(7.0), int(1_100)],
                    vec![int(1), f(100.0), int(1_500)],
                    vec![int(2), f(3.0), int(1_400)],
                ],
            ),
            (
                nation,
                ids("nation", &["n_nationkey", "n_name"]),
                vec![
                    vec![int(0), Value::str("n_name_000000")],
                    vec![int(1), Value::str("n_name_000001")],
                ],
            ),
            (
                supplier,
                ids("supplier", &["s_suppkey", "s_nationkey"]),
                vec![
                    vec![int(0), int(1)],
                    vec![int(1), int(0)],
                    vec![int(2), int(1)],
                ],
            ),
            (
                partsupp,
                ids(
                    "partsupp",
                    &["ps_partkey", "ps_suppkey", "ps_supplycost", "ps_availqty"],
                ),
                vec![
                    vec![int(0), int(0), f(2.0), int(3)],
                    vec![int(0), int(1), f(9.0), int(9)],
                    vec![int(1), int(2), f(1.5), int(4)],
                    vec![int(1), int(0), f(4.0), int(2)],
                ],
            ),
        ];
        for (id, schema, rows) in tables {
            db.insert(&cat, id, Table::new(schema, rows));
        }
        (cat, db)
    }

    #[test]
    fn q3_by_hand() {
        let (cat, db) = tiny();
        // Segment 000001: customers 0 and 2. Orders before day 1200:
        // order 0 (customer 0); order 2 is dated 1300. Lineitems of
        // order 0 shipped after 1200: 10.0 and 5.5.
        let a = answer(Template::Q3(1_200), &db, &cat);
        assert_eq!(a.rows, vec![(Some(0), 15.5)]);
        assert_eq!(a.order, Order::SumDesc);
        // At day 1500 order 2 qualifies but ships at 1400 ≤ 1500, and
        // order 0's items all ship before 1500: nothing remains.
        assert!(answer(Template::Q3(1_500), &db, &cat).rows.is_empty());
    }

    #[test]
    fn q11_by_hand() {
        let (cat, db) = tiny();
        // Nation 1 owns suppliers 0 and 2. Part 0: supplier 0 → 2·3 = 6.
        // Part 1: supplier 2 → 1.5·4 = 6, supplier 0 → 4·2 = 8; total 14.
        let by_part = answer(Template::Q11ByPart(1), &db, &cat);
        assert_eq!(by_part.rows, vec![(Some(0), 6.0), (Some(1), 14.0)]);
        let total = answer(Template::Q11Total(1), &db, &cat);
        assert_eq!(total.rows, vec![(None, 20.0)]);
        // Nation 0 owns supplier 1 alone: part 0 → 9·9 = 81.
        let other = answer(Template::Q11ByPart(0), &db, &cat);
        assert_eq!(other.rows, vec![(Some(0), 81.0)]);
        // Nearest to `Q11_PARTS` parts: nation 1's two.
        assert_eq!(crate::workload::q11_nation(&db, &cat), 1);
    }

    fn result(rows: Vec<Vec<Value>>) -> QueryResult {
        QueryResult {
            label: "q1".into(),
            columns: vec!["k".into(), "s".into()],
            rows,
        }
    }

    #[test]
    fn check_is_multiset_tolerant_and_order_aware() {
        let want = Answer {
            rows: vec![(Some(0), 6.0), (Some(1), 14.0)],
            order: Order::SumDesc,
        };
        // Right rows in the demanded order, sums off in the last bits.
        let ok = result(vec![
            vec![int(1), f(14.000_000_000_001)],
            vec![int(0), f(6.0)],
        ]);
        assert_eq!(check(&ok, &want), Ok(()));
        // Right multiset, wrong order.
        let unordered = result(vec![vec![int(0), f(6.0)], vec![int(1), f(14.0)]]);
        assert!(check(&unordered, &want).is_err());
        // A wrong sum, a missing row, a duplicated row.
        assert!(check(
            &result(vec![vec![int(1), f(14.1)], vec![int(0), f(6.0)]]),
            &want
        )
        .is_err());
        assert!(check(&result(vec![vec![int(1), f(14.0)]]), &want).is_err());
        let dup = result(vec![
            vec![int(1), f(14.0)],
            vec![int(1), f(14.0)],
            vec![int(0), f(6.0)],
        ]);
        assert!(check(&dup, &want).is_err());
        // Ascending-key order property.
        let by_key = Answer {
            rows: want.rows.clone(),
            order: Order::KeyAsc,
        };
        assert_eq!(check(&unordered, &by_key), Ok(()));
        assert!(check(&ok, &by_key).is_err());
    }
}
