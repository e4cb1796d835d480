//! Inputs shared by the workloads: seeded Wisconsin data, the rows a
//! workload appends, and the final query text of each Table III action.

use polyframe::prelude::*;
use polyframe::Translator;
use polyframe_bench::expressions::Outcome;
use polyframe_bench::{BenchExpr, BenchParams};
use polyframe_datamodel::Record;
use polyframe_observe::Rng;
use polyframe_wisconsin::{string4, wisconsin_string, WisconsinConfig};

/// Namespace of every benchmark dataset.
pub const NS: &str = "Bench";
/// The dataset every action reads.
pub const DS: &str = "wisconsin";
/// The join partner of expression 12.
pub const DS2: &str = "wisconsin2";

/// The fixed-seed Wisconsin table every workload loads (the generator's
/// standard permutation, as the harness uses): the workload seed varies
/// what is asked of the data, never the data itself.
pub fn wisconsin(records: usize) -> Vec<Record> {
    polyframe_wisconsin::generate(&WisconsinConfig::new(records))
}

/// The row a writing workload appends as its `i`-th new row, `i` counted
/// from 0 past a resident table of `resident` rows: a Wisconsin record
/// with `unique1 = unique2 = resident + i`. The resident table plus the
/// first `k` appended rows is thus a Wisconsin table of `resident + k`
/// rows, so [`BenchExpr::expected`] still holds after every append.
pub fn appended_row(resident: usize, i: usize) -> Record {
    let n = resident + i;
    let u = n as i64;
    let mut r = Record::with_capacity(16);
    r.insert("unique1", u);
    r.insert("unique2", u);
    r.insert("two", u % 2);
    r.insert("four", u % 4);
    r.insert("ten", u % 10);
    r.insert("twenty", u % 20);
    r.insert("onePercent", u % 100);
    if !n.is_multiple_of(10) {
        r.insert("tenPercent", u % 10);
    }
    r.insert("twentyPercent", u % 5);
    r.insert("fiftyPercent", u % 2);
    r.insert("unique3", u);
    r.insert("evenOnePercent", (u % 100) * 2);
    r.insert("oddOnePercent", (u % 100) * 2 + 1);
    r.insert("stringu1", wisconsin_string(n));
    r.insert("stringu2", wisconsin_string(n));
    r.insert("string4", string4(n));
    r
}

/// Per-round expression parameters drawn from the workload seed.
pub struct ParamStream {
    rng: Rng,
}

impl ParamStream {
    /// A stream seeded by the workload seed.
    pub fn new(seed: u64) -> ParamStream {
        ParamStream {
            rng: Rng::seed_from_u64(seed ^ 0x7061_7261_6d73),
        }
    }

    /// The next round's parameters.
    pub fn next_params(&mut self) -> BenchParams {
        BenchParams::seeded(self.rng.next_u64())
    }
}

/// Every (expression, parameters) pair whose query text carries a
/// literal, over the whole domain [`BenchParams::seeded`] draws from:
/// `ten` in 0..10 (expressions 3 and 10) and `range_lo` in 0..80
/// (expression 11). Set-up runs them all so that measured rounds find
/// every text in the plan cache: left to chance, a cell would mix cache
/// hits and misses, and its median would jump between the two from seed
/// to seed.
pub fn literal_domain() -> Vec<(BenchExpr, BenchParams)> {
    let params = |ten: i64, range_lo: i64| BenchParams {
        ten,
        twenty_percent: ten % 5,
        two: ten % 2,
        range_lo,
        range_hi: range_lo + 15,
    };
    let mut out = Vec::new();
    for ten in 0..10 {
        out.push((BenchExpr(3), params(ten, 0)));
        out.push((BenchExpr(10), params(ten, 0)));
    }
    for range_lo in 0..80 {
        out.push((BenchExpr(11), params(0, range_lo)));
    }
    out
}

/// The action that ends a Table III expression.
#[derive(Debug, Clone, Copy)]
pub enum Action {
    /// `len(frame)`.
    Len,
    /// `frame.head(n)`, counted.
    Head(usize),
    /// `frame.collect()` of an aggregated frame, counted.
    Collect,
    /// `frame.max()` of the series on the named attribute.
    Max(&'static str),
    /// `frame.min()` of the series on the named attribute.
    Min(&'static str),
}

/// An expression split at its action: the frame the transformations
/// (query formation) produce, and the action run on it. `act(transform)`
/// is [`BenchExpr::run_polyframe`] with the two phases apart, so the
/// benchmark can time and trace each.
pub fn transform(
    expr: BenchExpr,
    df: &AFrame,
    df2: &AFrame,
    p: &BenchParams,
) -> polyframe::Result<(AFrame, Action)> {
    Ok(match expr.0 {
        1 => (df.clone(), Action::Len),
        2 => (df.select(&["two", "four"])?, Action::Head(5)),
        3 => (
            df.mask(
                &(col("ten").eq(p.ten)
                    & col("twentyPercent").eq(p.twenty_percent)
                    & col("two").eq(p.two)),
            )?,
            Action::Len,
        ),
        4 => (
            df.groupby("oddOnePercent").agg(AggFunc::Count)?,
            Action::Collect,
        ),
        5 => (df.col("stringu1")?.map(MapFunc::Upper)?, Action::Head(5)),
        6 => (df.col("unique1")?, Action::Max("unique1")),
        7 => (df.col("unique1")?, Action::Min("unique1")),
        8 => (
            df.groupby("twenty").agg_on("four", AggFunc::Max)?,
            Action::Collect,
        ),
        9 => (df.sort_values("unique1", false)?, Action::Head(5)),
        10 => (df.mask(&col("ten").eq(p.ten))?, Action::Head(5)),
        11 => (
            df.mask(&(col("onePercent").ge(p.range_lo) & col("onePercent").le(p.range_hi)))?,
            Action::Len,
        ),
        12 => (df.merge(df2, "unique1")?, Action::Len),
        13 => (df.mask(&col("tenPercent").is_na())?, Action::Len),
        n => unreachable!("Table III has no expression {n}"),
    })
}

/// Run `action` on `frame` (this sends the query).
pub fn act(frame: &AFrame, action: Action) -> polyframe::Result<Outcome> {
    Ok(match action {
        Action::Len => Outcome::Count(frame.len()?),
        Action::Head(n) => Outcome::Rows(frame.head(n)?.len()),
        Action::Collect => Outcome::Rows(frame.collect()?.len()),
        Action::Max(_) => Outcome::Scalar(frame.max()?),
        Action::Min(_) => Outcome::Scalar(frame.min()?),
    })
}

/// The query text `act(frame, action)` ships, rebuilt with the public
/// [`Translator`] and the connector's `preprocess`: exactly what the
/// backend receives, so a direct backend call on it times the backend
/// alone.
pub fn final_query(frame: &AFrame, action: Action) -> polyframe::Result<String> {
    let conn = frame.connector();
    let t = Translator::new(conn.rules());
    let q = frame.query();
    let text = match action {
        Action::Len => t.count_all(q)?,
        Action::Head(n) => t.limit(q, n)?,
        Action::Collect => t.return_value(q)?,
        Action::Max(attr) => t.return_value(&t.agg_value(q, attr, "max")?)?,
        Action::Min(attr) => t.return_value(&t.agg_value(q, attr, "min")?)?,
    };
    Ok(conn.preprocess(&text))
}

/// The outcome an expression must produce on a Wisconsin table of
/// `rows` rows joined against a partner of `partner_rows` rows, where
/// the generator defines one ([`BenchExpr::expected`]).
pub fn expected(
    expr: BenchExpr,
    rows: usize,
    partner_rows: usize,
    p: &BenchParams,
) -> Option<Outcome> {
    match expr.0 {
        // Every unique1 of the smaller side finds exactly one partner.
        12 => Some(Outcome::Count(rows.min(partner_rows))),
        _ => expr.expected(rows, p),
    }
}
