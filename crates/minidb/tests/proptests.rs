//! Property tests: the SQL engine agrees with naive in-memory filtering,
//! index usage never changes results, and the select pipeline agrees
//! with the executor it replaced (`tests/reference`) on generated
//! tables and statements.

mod reference;

use proptest::prelude::*;
use proptest::TestRng;
use s2s_minidb::value::like_match;
use s2s_minidb::{ColumnSink, Database, DbError, SelectStmt, Value};

/// Builds a database with one `items` table of `rows` (id, name, qty).
fn build_db(rows: &[(i64, String, i64)]) -> Database {
    let mut db = Database::new("p");
    db.execute("CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT, qty INTEGER)").unwrap();
    for (id, name, qty) in rows {
        let name = name.replace('\'', "''");
        db.execute(&format!("INSERT INTO items VALUES ({id}, '{name}', {qty})")).unwrap();
    }
    db
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, String, i64)>> {
    proptest::collection::btree_map(0i64..200, ("[a-d]{1,4}", -50i64..50), 0..40)
        .prop_map(|m| m.into_iter().map(|(id, (n, q))| (id, n, q)).collect())
}

fn pick<'a>(rng: &mut TestRng, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len())]
}

/// Literals drawn from few enough values that predicates hit, keys tie
/// and `DISTINCT` collapses rows.
fn literal(rng: &mut TestRng) -> String {
    match rng.below(8) {
        0 => "NULL".to_string(),
        1 => pick(rng, &["TRUE", "FALSE"]).to_string(),
        2 | 3 => format!("'{}'", pick(rng, &["a", "b", "ab", "ba", ""])),
        4 => format!("{}.5", rng.below(4)),
        _ => format!("{}", rng.below(6) as i64 - 1),
    }
}

/// Three tables: `t` (primary key, NULLs in every other column), `u`
/// (foreign key into `t`, sometimes indexed) and `v` (no key at all).
/// Any of them may be empty. A few UPDATEs and DELETEs run after the
/// load, so index buckets are not in row-id order, slots are
/// tombstoned and a column may be widened after its load.
fn database(rng: &mut TestRng) -> Database {
    let mut db = Database::new("p");
    let mut run = |sql: String| db.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    run("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, qty INTEGER, price REAL, ok BOOLEAN)"
        .into());
    run("CREATE TABLE u (id INTEGER PRIMARY KEY, t_id INTEGER, tag TEXT)".into());
    run("CREATE TABLE v (tag TEXT, w INTEGER)".into());
    if rng.below(2) == 0 {
        run(format!("CREATE INDEX ON t ({})", pick(rng, &["name", "qty"])));
    }
    if rng.below(2) == 0 {
        run(format!("CREATE INDEX ON u ({})", pick(rng, &["t_id", "tag"])));
    }
    let nullable = |rng: &mut TestRng, v: String| if rng.below(5) == 0 { "NULL".into() } else { v };
    let t_rows = [0, 1, 6, 12][rng.below(4)];
    for id in 0..t_rows {
        let name = format!("'{}'", pick(rng, &["a", "b", "ab", "ba"]));
        let qty = format!("{}", rng.below(5) as i64 - 1);
        let price = format!("{}.5", rng.below(4));
        let ok = pick(rng, &["TRUE", "FALSE"]).to_string();
        run(format!(
            "INSERT INTO t VALUES ({id}, {}, {}, {}, {})",
            nullable(rng, name),
            nullable(rng, qty),
            nullable(rng, price),
            nullable(rng, ok)
        ));
    }
    for id in 0..[0, 4, 10][rng.below(3)] {
        let t_id = format!("{}", rng.below(8));
        let tag = format!("'{}'", pick(rng, &["a", "b", "ab"]));
        run(format!(
            "INSERT INTO u VALUES ({id}, {}, {})",
            nullable(rng, t_id),
            nullable(rng, tag)
        ));
    }
    for _ in 0..[0, 3][rng.below(2)] {
        let tag = format!("'{}'", pick(rng, &["a", "b"]));
        run(format!("INSERT INTO v VALUES ({}, {})", nullable(rng, tag), rng.below(3)));
    }
    for _ in 0..rng.below(3) {
        match rng.below(3) {
            0 => run(format!("DELETE FROM t WHERE id = {}", rng.below(12))),
            1 => {
                let name = pick(rng, &["a", "wider"]);
                run(format!("UPDATE t SET name = '{name}' WHERE qty >= {}", rng.below(4)))
            }
            _ => run(format!("UPDATE u SET tag = 'b' WHERE t_id < {}", rng.below(8))),
        };
    }
    db
}

/// A column as a statement over `tables` might write it: bare,
/// qualified, in another case, or unknown. Over a join, bare `id` and
/// `tag` are ambiguous.
fn column(rng: &mut TestRng, tables: &[&str]) -> String {
    let table = tables[rng.below(tables.len())];
    let name = match table {
        "t" => pick(rng, &["id", "name", "qty", "price", "ok"]),
        "u" => pick(rng, &["id", "t_id", "tag"]),
        _ => pick(rng, &["tag", "w"]),
    };
    match rng.below(40) {
        0 => "nope".to_string(),
        1 => format!("{table}.nope"),
        2 => format!("nope.{name}"),
        3..=6 => name.to_uppercase(),
        7..=22 => format!("{table}.{name}"),
        _ => name.to_string(),
    }
}

fn predicate(rng: &mut TestRng, tables: &[&str], depth: usize) -> String {
    match rng.below(if depth == 0 { 5 } else { 9 }) {
        0 | 1 => {
            let op = pick(rng, &["=", "!=", "<>", "<", "<=", ">", ">="]);
            format!("{} {op} {}", column(rng, tables), literal(rng))
        }
        2 => format!(
            "{} {} {}",
            column(rng, tables),
            pick(rng, &["=", "<", ">="]),
            column(rng, tables)
        ),
        3 => format!(
            "{} {}LIKE '{}'",
            column(rng, tables),
            pick(rng, &["", "NOT "]),
            pick(rng, &["a%", "%b", "_", "%", "a_", "%a%", "1%", ""])
        ),
        4 => format!("{} IS {}NULL", column(rng, tables), pick(rng, &["", "NOT "])),
        5 | 6 => format!(
            "{} {} {}",
            predicate(rng, tables, depth - 1),
            pick(rng, &["AND", "OR"]),
            predicate(rng, tables, depth - 1)
        ),
        7 => format!("NOT {}", predicate(rng, tables, depth - 1)),
        _ => format!("({})", predicate(rng, tables, depth - 1)),
    }
}

/// A SELECT over `t`, optionally joined to `u` and `v`; returns the
/// statement and the tables it names. `sound_joins` keeps every ON
/// clause well-formed (the aggregate path of the reference indexes out
/// of bounds on a clause that names a later table).
fn from_clause(rng: &mut TestRng, sound_joins: bool) -> (String, Vec<&'static str>) {
    let mut from = "t".to_string();
    let mut tables = vec!["t"];
    if rng.below(3) == 0 {
        let on = match rng.below(if sound_joins { 2 } else { 5 }) {
            0 => "t.id = u.t_id",
            1 => "u.t_id = t.id",
            2 => "t.id = t.qty",
            3 => "u.tag = v.tag",
            _ => "t.qty = u.id",
        };
        from.push_str(&format!(" {}JOIN u ON {on}", pick(rng, &["", "INNER "])));
        tables.push("u");
        if rng.below(3) == 0 {
            from.push_str(&format!(" JOIN v ON {}", pick(rng, &["u.tag = v.tag", "v.w = t.qty"])));
            tables.push("v");
        }
    } else if rng.below(8) == 0 {
        from = pick(rng, &["T", "T", "missing"]).to_string();
    }
    (from, tables)
}

fn select(rng: &mut TestRng) -> String {
    let aggregate = rng.below(6) == 0;
    let (from, tables) = from_clause(rng, aggregate);
    let mut sql = "SELECT ".to_string();
    let group = column(rng, &tables);
    if aggregate {
        let calls: Vec<String> = (0..1 + rng.below(3))
            .map(|_| match rng.below(6) {
                0 => "COUNT(*)".to_string(),
                n => {
                    let func = ["COUNT", "SUM", "AVG", "MIN", "MAX"][n - 1];
                    format!("{func}({})", column(rng, &tables))
                }
            })
            .collect();
        match rng.below(3) {
            0 => sql.push_str(&calls.join(", ")),
            1 => sql.push_str(&format!("{group}, {}", calls.join(", "))),
            _ => sql.push_str(&format!("{}, {}", column(rng, &tables), calls.join(", "))),
        }
    } else {
        if rng.below(4) == 0 {
            sql.push_str("DISTINCT ");
        }
        if rng.below(4) == 0 {
            sql.push('*');
        } else {
            let cols: Vec<String> = (0..1 + rng.below(3)).map(|_| column(rng, &tables)).collect();
            sql.push_str(&cols.join(", "));
        }
    }
    sql.push_str(&format!(" FROM {from}"));
    if rng.below(3) > 0 {
        sql.push_str(&format!(" WHERE {}", predicate(rng, &tables, 2)));
    }
    if aggregate && rng.below(3) > 0 {
        sql.push_str(&format!(" GROUP BY {group}"));
        if rng.below(2) == 0 {
            let by = if rng.below(4) == 0 { column(rng, &tables) } else { group };
            sql.push_str(&format!(" ORDER BY {by}{}", pick(rng, &["", " ASC", " DESC"])));
        }
    } else if rng.below(2) == 0 {
        sql.push_str(&format!(
            " ORDER BY {}{}",
            column(rng, &tables),
            pick(rng, &["", " ASC", " DESC"])
        ));
    }
    if rng.below(4) == 0 {
        sql.push_str(&format!(" LIMIT {}", rng.below(5)));
    }
    sql
}

/// The rules of one SQL source: one to four statements over one `FROM`,
/// most of them equal but for their projection — columns, `*` or now
/// and then a `DISTINCT` one, which shares its rows with none — each
/// with the name of a result column to read (sometimes one it lacks),
/// and its rows part: the `FROM` and any `WHERE`, `ORDER BY` and
/// `LIMIT` [`select`] makes.
fn sharing_selects(rng: &mut TestRng) -> Vec<(String, String, String)> {
    let (from, tables) = from_clause(rng, false);
    let rows_part = |rng: &mut TestRng| {
        let mut rows = String::new();
        if rng.below(3) > 0 {
            rows.push_str(&format!(" WHERE {}", predicate(rng, &tables, 2)));
        }
        if rng.below(2) == 0 {
            let dir = pick(rng, &["", " ASC", " DESC"]);
            rows.push_str(&format!(" ORDER BY {}{dir}", column(rng, &tables)));
        }
        if rng.below(4) == 0 {
            rows.push_str(&format!(" LIMIT {}", rng.below(5)));
        }
        rows
    };
    let shared = rows_part(rng);
    (0..1 + rng.below(4))
        .map(|_| {
            let distinct = if rng.below(6) == 0 { "DISTINCT " } else { "" };
            let projection = if rng.below(5) == 0 {
                "*".to_string()
            } else {
                let cols: Vec<String> =
                    (0..1 + rng.below(2)).map(|_| column(rng, &tables)).collect();
                cols.join(", ")
            };
            let read = match rng.below(8) {
                0 => "nope".to_string(),
                _ => column(rng, &tables).rsplit('.').next().unwrap().to_string(),
            };
            let rows = if rng.below(5) == 0 { rows_part(rng) } else { shared.clone() };
            (
                format!("SELECT {distinct}{projection} FROM {from}{rows}"),
                read,
                format!("FROM {from}{rows}"),
            )
        })
        .collect()
}

/// `f` as a `REAL` renders: through the sink, `render()` and `Display`,
/// which are one function.
fn rendered(f: f64) -> String {
    let value = Value::Float(f);
    let mut sink = String::new();
    value.write_to(&mut sink).unwrap();
    assert_eq!((value.render(), value.to_string()), (sink.clone(), sink.clone()));
    assert_eq!(value.text_len(), sink.len(), "counted {sink}");
    sink
}

/// The renderings the fast path, its bounds and its fallback must each
/// get right, spelled out.
#[test]
fn float_rendering_pins() {
    for (f, text) in [
        (0.0, "0"),
        (-0.0, "-0"),
        (f64::NAN, "NaN"),
        (f64::INFINITY, "inf"),
        (f64::NEG_INFINITY, "-inf"),
        (0.1 + 0.2, "0.30000000000000004"),
        (1e15, "1000000000000000"),
        (999999999999999.9, "999999999999999.9"),
        (99999999999999.9, "99999999999999.9"),
        (1e21, "1000000000000000000000"),
        (299.0, "299"),
        (-299.0, "-299"),
        (59.5, "59.5"),
        (-59.5, "-59.5"),
        (129.99, "129.99"),
        (0.000001, "0.000001"),
        (0.0000001, "0.0000001"),
        (123456789.123456, "123456789.123456"),
        (0.1234567, "0.1234567"),
    ] {
        assert_eq!(rendered(f), text);
        assert_eq!(format!("{f}"), text, "what `Display` prints");
    }
    let tiny = rendered(5e-324);
    assert_eq!(tiny, format!("{}", 5e-324));
    assert!(tiny.starts_with("0.000") && tiny.ends_with('5') && tiny.len() == 326, "{tiny}");
}

/// A column packed as the engine packs it, and the size the sink was
/// told before its first value (a second telling panics).
#[derive(Default)]
struct Packed {
    text: String,
    ends: Vec<usize>,
    size: Option<(usize, usize)>,
}

impl Packed {
    /// The values, cut where each ends.
    fn values(&self) -> Vec<String> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(start, &end)| self.text[start..end].to_string()).collect()
    }
}

impl ColumnSink for &mut Packed {
    fn size(&mut self, values: usize, text_bytes: usize) {
        assert!(self.size.is_none() && self.ends.is_empty(), "sized twice or late");
        self.size = Some((values, text_bytes));
    }

    fn push(&mut self, value: &Value) {
        value.write_to(&mut self.text).unwrap();
        self.ends.push(self.text.len());
    }
}

/// Reads the non-NULL values of `column` of `stmt` into `packed` the way
/// the engine's database wrapper does: a plain SELECT through a lone
/// scan ([`Database::select`]), any other from its computed result,
/// sized exactly.
fn read_column(
    db: &Database,
    stmt: &SelectStmt,
    column: &str,
    mut packed: &mut Packed,
) -> Result<(), DbError> {
    if stmt.shares_rows(stmt) {
        let selection = db.select(stmt)?;
        selection.each(selection.column(stmt, column)?, &mut packed);
        return Ok(());
    }
    db.query_prepared(stmt)?.each(column, &mut packed)
}

/// A double from every corner a `REAL` cell can hold: any bit pattern
/// (NaN payloads, infinities), short decimals, integers around and past
/// 2^53, subnormals and both zeros.
fn real(rng: &mut TestRng) -> f64 {
    let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
    match rng.below(6) {
        0 => f64::from_bits(rng.next_u64()),
        1 => sign * (rng.next_u64() % 10_000_000) as f64 / 10f64.powi(rng.below(8) as i32),
        2 => {
            let near = ((1u64 << 53) + rng.next_u64() % 4_000).saturating_sub(2_000);
            sign * near as f64 * [1.0, 2.0, 1024.0, 1e20][rng.below(4)]
        }
        3 => sign * f64::from_bits(rng.next_u64() % (1 << 52)),
        4 => sign * 0.0,
        _ => {
            [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MAX, f64::MIN_POSITIVE][rng.below(5)]
        }
    }
}

/// A comparison constant, most often spelled from `y`: its printed
/// text as it is, padded, signed or with zeros around it, or lengthened
/// by a digit far past the last, so the nearest double is `y` while the
/// value is not; else 40-digit decimals, short forms a reader may
/// refuse (`.5`, `3.`, `007`), and forms outside the decimal space.
fn constant(rng: &mut TestRng, y: f64) -> String {
    let text = format!("{y}");
    let point = if text.contains('.') { "" } else { "." };
    let digits = |rng: &mut TestRng, n: usize| -> String {
        (0..n).map(|_| char::from(b'0' + rng.below(10) as u8)).collect()
    };
    match rng.below(9) {
        0 | 1 => text,
        2 => format!("{text}{point}{}1", "0".repeat(rng.below(30))),
        3 => format!("{}{text}{point}000", [" ", "\t", ""][rng.below(3)]).replace('-', "-00"),
        4 => format!("+{text}"),
        5 => {
            let (w, f) = (rng.below(41), rng.below(41));
            let (whole, fraction) = (digits(rng, w), digits(rng, f));
            format!("{}{whole}.{fraction}", ["", "-", "+"][rng.below(3)])
        }
        6 => ["1".to_string() + &"0".repeat(400), format!("0.{}1", "0".repeat(400)), "-0".into()]
            [rng.below(3)]
        .clone(),
        7 => [".5", "3.", "007", "+7", "-.25", "+0.", "0.0", "00.100", " 15 ", "9007199254740993"]
            [rng.below(10)]
        .into(),
        _ => ["1e5", "inf", "NaN", "INF", "-INF", "1E-3", "-1.5e300", "abc", "", "-", ".", "1.2.3"]
            [rng.below(12)]
        .into(),
    }
}

proptest! {
    /// A `REAL` renders as `f64`'s `Display` does, whatever its bits:
    /// every class of double — subnormal, huge, NaN payloads — mostly
    /// through the fallback.
    #[test]
    fn float_rendering_is_display_on_any_bit_pattern(bits in any::<u64>()) {
        let f = f64::from_bits(bits);
        prop_assert_eq!(rendered(f), format!("{f}"), "bits {:#x}", bits);
    }

    /// A `REAL` cell compared as a number answers what its printed text
    /// does, wherever the number answers: under every operator, in the
    /// decimal and double spaces, on ties (the cell equal to the double
    /// nearest the constant, its neighbours on either side), on constants
    /// whose nearest double is the cell but whose value is not, and on
    /// constants outside the space; in the other spaces it never
    /// answers.
    #[test]
    fn a_real_cell_compares_as_its_printed_text(seed in any::<u64>()) {
        use s2s_textmatch::{Comparand, ConstraintOp, ValueSpace};
        let mut rng = TestRng::from_seed(seed);
        let y = real(&mut rng);
        let constant = constant(&mut rng, y);
        let near = constant.trim().parse::<f64>().unwrap_or(y);
        let x = match rng.below(5) {
            0 => near,
            1 => near.next_up(),
            2 => near.next_down(),
            3 => y,
            _ => real(&mut rng),
        };
        let text = rendered(x);
        use ConstraintOp::{Eq, Ge, Gt, Le, Like, Lt, Ne};
        for op in [Eq, Ne, Lt, Le, Gt, Ge, Like] {
            for space in [ValueSpace::Decimal, ValueSpace::Double] {
                let comparand = Comparand::in_space(op, constant.as_str(), space);
                if let Some(holds) = comparand.test_number(x) {
                    prop_assert_eq!(
                        holds, comparand.test(&text),
                        "{:?} {} {:?} in {:?}", text, op, constant, space
                    );
                }
            }
            for space in [ValueSpace::String, ValueSpace::Integer, ValueSpace::Boolean] {
                prop_assert_eq!(Comparand::in_space(op, constant.as_str(), space).test_number(x), None);
            }
        }
    }

    /// And on the doubles the fast path is for and around: `±n / 10^k`
    /// with `k` up to two past the six decimals it takes, `n` of any
    /// width up to 17 digits or within 2 000 of an edge — `10^15` (its
    /// bound), `2^53` (where integers stop being exact), and the powers
    /// of ten beside them.
    #[test]
    fn float_rendering_is_display_on_short_decimals(
        seed in any::<u64>(),
        k in 0u32..9,
        shape in 0usize..8,
    ) {
        const EDGES: [u64; 6] =
            [1_000_000_000_000_000, 1 << 53, 100_000_000_000_000, 10_000_000_000_000_000, 1_000_000, 0];
        let n = match EDGES.get(shape) {
            Some(edge) => (edge + seed % 4_000).saturating_sub(2_000),
            None => (seed >> 8) % 10u64.pow(1 + (seed % 17) as u32),
        };
        let sign = if seed & 128 == 0 { 1.0 } else { -1.0 };
        // The quotient of two doubles, and the decimal read as written:
        // the same double whenever both are exact, neighbours otherwise.
        let written: f64 = format!("{n}e-{k}").parse().unwrap();
        for f in [sign * (n as f64 / 10f64.powi(k as i32)), sign * written] {
            prop_assert_eq!(rendered(f), format!("{f}"), "{} / 10^{}", n, k);
        }
    }

    /// The select pipeline returns what the executor it replaced
    /// (`tests/reference`) returns — the same names, the same rows in
    /// the same order with the same value variants, the same error —
    /// and the column read, written through its sink into one buffer,
    /// returns what the old database wrapper rendered from those rows,
    /// one `String` each.
    #[test]
    fn select_agrees_with_reference_executor(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let db = database(&mut rng);
        for _ in 0..8 {
            let sql = select(&mut rng);
            let stmt = match Database::prepare_select(&sql) {
                Ok(stmt) => stmt,
                Err(e) => {
                    prop_assert!(false, "generated statement does not parse: {sql}: {e}");
                    unreachable!()
                }
            };
            let got = db.query_prepared(&stmt).map(|r| (r.columns().to_vec(), r.into_rows()));
            let want = reference::query(&db, &stmt);
            // `Value`'s `==` is the index order (1 = 1.0); Debug tells
            // the variants apart.
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", sql);
            let name = match &want {
                Ok((names, _)) if !names.is_empty() && rng.below(4) > 0 => {
                    let name = &names[rng.below(names.len())];
                    if rng.below(3) == 0 { name.to_uppercase() } else { name.clone() }
                }
                _ => "nope".to_string(),
            };
            let want = reference::column(&db, &stmt, &name);
            // Packed the way the engine packs it: all text in one
            // buffer, cut where each value ends.
            let mut packed = Packed::default();
            let sunk = read_column(&db, &stmt, &name, &mut packed);
            let cut = packed.values();
            let Packed { text, ends, size } = packed;
            prop_assert!(
                sunk.is_ok() || (size.is_none() && ends.is_empty()),
                "an error after the sink was sized or saw values"
            );
            if let (Ok(()), Some((values, bytes))) = (&sunk, size) {
                prop_assert!(values >= ends.len(), "{} values told, {} written", values, ends.len());
                // Room for them unless a join repeats a row.
                let joined = sql.contains(" JOIN ");
                prop_assert!(joined || bytes >= text.len(), "{} bytes told, {} written", bytes, text.len());
            }
            prop_assert!(sunk.is_err() || size.is_some(), "an answer without a size");
            prop_assert_eq!(sunk.map(|()| cut), want, "column {} of {}", name, sql);
        }
    }

    /// A source's statements run together read what each reads alone —
    /// the same values, the same size told, the same error — and what
    /// the executor it replaced renders: statements that share their
    /// rows scan once, over NULLs, tied `ORDER BY` keys either way,
    /// `WHERE`, `LIMIT` and joins, while each keeps its own unknown
    /// column; a `DISTINCT` one, or one with other rows, is refused.
    #[test]
    fn a_grouped_select_equals_each_statement_alone(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let db = database(&mut rng);
        let rules = sharing_selects(&mut rng);
        let stmts: Vec<SelectStmt> =
            rules.iter().map(|(sql, ..)| Database::prepare_select(sql).unwrap()).collect();
        let reads: Vec<(&SelectStmt, &str)> =
            stmts.iter().zip(&rules).map(|(s, (_, c, _))| (s, c.as_str())).collect();
        // Each sharing statement's column read over the scan of the first
        // statement it shares with, as the engine reads a source's rules.
        let together = reads.iter().map(|&(stmt, column)| {
            let mut packed = Packed::default();
            let lead = reads.iter().find(|(lead, _)| lead.shares_rows(stmt));
            let got = match lead {
                Some(&(lead, _)) => db.select(lead).and_then(|selection| {
                    selection.each(selection.column(stmt, column)?, &mut &mut packed);
                    Ok(())
                }),
                None => read_column(&db, stmt, column, &mut packed),
            };
            (got, packed)
        });
        for (read, (got, packed)) in reads.iter().zip(together) {
            let mut alone = Packed::default();
            let want = read_column(&db, read.0, read.1, &mut alone);
            let (sql, column) = (&read.0.to_string(), read.1);
            prop_assert_eq!(&got, &want, "{} reading {}", sql, column);
            prop_assert_eq!(packed.size, alone.size, "{} reading {}", sql, column);
            prop_assert_eq!(&packed.ends, &alone.ends, "{} reading {}", sql, column);
            prop_assert_eq!(&packed.text, &alone.text, "{} reading {}", sql, column);
            let reference = reference::column(&db, read.0, column);
            prop_assert_eq!(got.map(|()| packed.values()), reference, "{} reading {}", sql, column);
        }
        // Written apart, `ORDER BY c` and `ORDER BY c ASC` are still one order.
        let rows_of = |(.., rows): &(String, String, String)| {
            Database::prepare_select(&format!("SELECT * {rows}")).unwrap()
        };
        for (a, a_rule) in stmts.iter().zip(&rules) {
            for (b, b_rule) in stmts.iter().zip(&rules) {
                let shares = !a.distinct && !b.distinct && rows_of(a_rule) == rows_of(b_rule);
                prop_assert_eq!(a.shares_rows(b), shares, "{} and {}", a.to_string(), b.to_string());
            }
        }
    }

    /// A filtered scan is the scan restricted to the rows it keeps: a
    /// row, asked about in order, is kept when every test accepts its
    /// cell as printed — the seven comparisons in the string or the
    /// decimal space, text cells under decimal constants included — each
    /// kept row is numbered by its position in the unfiltered result, and
    /// a column's values are its unfiltered cells at those rows. Over
    /// NULLs, tied `ORDER BY` keys either way, `WHERE`, `LIMIT` and joins;
    /// a column with a NULL in a selected row refuses the filter.
    #[test]
    fn a_filtered_select_is_the_select_restricted_to_its_kept_rows(seed in any::<u64>()) {
        use s2s_textmatch::{Comparand, ConstraintOp, ValueSpace};
        let mut rng = TestRng::from_seed(seed);
        let db = database(&mut rng);
        let rules = sharing_selects(&mut rng);
        let stmts: Vec<SelectStmt> =
            rules.iter().map(|(sql, ..)| Database::prepare_select(sql).unwrap()).collect();
        let lead = &stmts[0];
        let Some(selection) = lead.shares_rows(lead).then(|| db.select(lead).ok()).flatten()
        else {
            return Ok(());
        };
        // The reads of the scan whose columns resolve, with every cell
        // of theirs, NULLs kept, from the statement's materialized rows.
        let mut reads = Vec::new();
        for (stmt, (_, name, _)) in stmts.iter().zip(&rules).filter(|(s, _)| lead.shares_rows(s)) {
            let (Ok(column), Ok(result)) = (selection.column(stmt, name), db.query_prepared(stmt))
            else {
                continue;
            };
            let at = result.column_index(name).expect("the column resolved");
            let cells: Vec<Value> = result.rows().iter().map(|row| row[at].clone()).collect();
            reads.push((column, cells));
        }
        if reads.is_empty() {
            return Ok(());
        }
        let ops = [
            ConstraintOp::Eq, ConstraintOp::Ne, ConstraintOp::Lt, ConstraintOp::Le,
            ConstraintOp::Gt, ConstraintOp::Ge, ConstraintOp::Like,
        ];
        let tests: Vec<(usize, Comparand)> = (0..1 + rng.below(2))
            .map(|_| {
                let op = ops[rng.below(ops.len())];
                let space = if rng.below(2) == 0 { ValueSpace::String } else { ValueSpace::Decimal };
                let constant = pick(&mut rng, &["a", "ab", "b", "0", "1.5", "2", "-1", "%a%", "_"]);
                (rng.below(reads.len()), Comparand::in_space(op, constant.to_string(), space))
            })
            .collect();
        let printed = |cell: &Value| {
            let mut text = String::new();
            cell.write_to(&mut text).unwrap();
            text
        };
        let mut ordinals = vec![99];
        let mut asked = 0;
        let keep = |row: usize| {
            assert_eq!(row, asked, "rows are asked about in order");
            asked += 1;
            let cell = |k: usize| selection.cell(reads[k].0, row).expect("a row of the scan");
            tests.iter().all(|(k, test)| test.test(&printed(cell(*k))))
        };
        let filtered = selection.filter(reads.iter().map(|(c, _)| *c), keep, &mut ordinals);
        let rows = reads[0].1.len();
        let nulls = reads.iter().any(|(_, cells)| cells.iter().any(Value::is_null));
        prop_assert_eq!(filtered, !nulls, "{}", rules[0].0);
        if !filtered {
            return Ok(());
        }
        let kept: Vec<u32> = (0..rows)
            .filter(|&r| tests.iter().all(|(k, test)| test.test(&printed(&reads[*k].1[r]))))
            .map(|r| r as u32)
            .collect();
        prop_assert_eq!(&ordinals, &kept, "{}", rules[0].0);
        for (column, cells) in &reads {
            let mut packed = Packed::default();
            selection.each_at(*column, kept.iter().map(|&r| r as usize), &mut &mut packed);
            let want: Vec<String> = kept.iter().map(|&r| printed(&cells[r as usize])).collect();
            prop_assert_eq!(packed.values(), want, "{}", rules[0].0);
            prop_assert_eq!(packed.size.map(|(n, _)| n), Some(kept.len()));
        }
    }

    /// The iterative `LIKE` matcher agrees with the recursive one it
    /// replaced.
    #[test]
    fn like_agrees_with_recursive_matcher(value in "[ab%_é]{0,8}", pattern in "[ab%_é]{0,6}") {
        prop_assert_eq!(like_match(&value, &pattern), reference::like_match(&value, &pattern));
    }

    /// WHERE qty comparisons agree with a direct filter.
    #[test]
    fn where_filter_agrees(rows in arb_rows(), threshold in -50i64..50) {
        let db = build_db(&rows);
        let r = db.query(&format!("SELECT id FROM items WHERE qty > {threshold}")).unwrap();
        let expect: Vec<i64> = rows.iter().filter(|(_, _, q)| *q > threshold).map(|(i, _, _)| *i).collect();
        let mut got: Vec<i64> = r.rows().iter().map(|row| row[0].as_int().unwrap()).collect();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Creating an index never changes any equality-query result.
    #[test]
    fn index_transparent(rows in arb_rows(), probe in "[a-d]{1,4}") {
        let mut db = build_db(&rows);
        let q = format!("SELECT id FROM items WHERE name = '{probe}' ORDER BY id");
        let before = db.query(&q).unwrap();
        db.execute("CREATE INDEX ON items (name)").unwrap();
        let after = db.query(&q).unwrap();
        prop_assert_eq!(before.rows(), after.rows());
    }

    /// ORDER BY produces a sorted permutation of the unordered result.
    #[test]
    fn order_by_is_sorted_permutation(rows in arb_rows()) {
        let db = build_db(&rows);
        let ordered = db.query("SELECT qty FROM items ORDER BY qty").unwrap();
        let unordered = db.query("SELECT qty FROM items").unwrap();
        let got: Vec<i64> = ordered.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        let mut expect: Vec<i64> = unordered.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// LIMIT n returns exactly min(n, total) rows, a prefix of the ordered
    /// result.
    #[test]
    fn limit_is_prefix(rows in arb_rows(), n in 0usize..50) {
        let db = build_db(&rows);
        let all = db.query("SELECT id FROM items ORDER BY id").unwrap();
        let limited = db.query(&format!("SELECT id FROM items ORDER BY id LIMIT {n}")).unwrap();
        prop_assert_eq!(limited.len(), n.min(all.len()));
        prop_assert_eq!(&all.rows()[..limited.len()], limited.rows());
    }

    /// DELETE then SELECT never returns deleted rows; counts add up.
    #[test]
    fn delete_removes_exactly_matches(rows in arb_rows(), threshold in -50i64..50) {
        let mut db = build_db(&rows);
        let total = rows.len();
        let deleted = db.execute(&format!("DELETE FROM items WHERE qty <= {threshold}")).unwrap();
        let remaining = db.query("SELECT * FROM items").unwrap();
        prop_assert_eq!(deleted.0 + remaining.len(), total);
        for row in remaining.rows() {
            prop_assert!(row[2].as_int().unwrap() > threshold);
        }
    }

    /// UPDATE affects exactly the matching rows.
    #[test]
    fn update_affects_matches(rows in arb_rows(), probe in "[a-d]{1,4}") {
        let mut db = build_db(&rows);
        let expect = rows.iter().filter(|(_, n, _)| n == &probe).count();
        let n = db.execute(&format!("UPDATE items SET qty = 999 WHERE name = '{probe}'")).unwrap();
        prop_assert_eq!(n.0, expect);
        let r = db.query("SELECT id FROM items WHERE qty = 999").unwrap();
        prop_assert_eq!(r.len(), expect);
    }

    /// Join of the table with itself on id yields exactly one row per row.
    #[test]
    fn self_join_identity(rows in arb_rows()) {
        let mut db = Database::new("p");
        db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER)").unwrap();
        db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, v INTEGER)").unwrap();
        for (id, _, qty) in &rows {
            db.execute(&format!("INSERT INTO a VALUES ({id}, {qty})")).unwrap();
            db.execute(&format!("INSERT INTO b VALUES ({id}, {qty})")).unwrap();
        }
        let r = db.query("SELECT a.id FROM a JOIN b ON a.id = b.id").unwrap();
        prop_assert_eq!(r.len(), rows.len());
    }

    /// Parser never panics on arbitrary input.
    #[test]
    fn parser_never_panics(sql in any::<String>()) {
        let db = Database::new("p");
        let _ = db.query(&sql);
    }

    /// Values with escaped quotes survive a write/read cycle.
    #[test]
    fn quoted_text_roundtrip(s in "[a-z' ]{0,12}") {
        let mut db = Database::new("p");
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)").unwrap();
        let escaped = s.replace('\'', "''");
        db.execute(&format!("INSERT INTO t VALUES (1, '{escaped}')")).unwrap();
        let r = db.query("SELECT s FROM t").unwrap();
        prop_assert_eq!(r.rows()[0][0].clone(), Value::Text(s));
    }
}
