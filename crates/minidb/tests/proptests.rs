//! Property tests: the SQL engine agrees with naive in-memory filtering,
//! index usage never changes results, and the select pipeline agrees
//! with the executor it replaced (`tests/reference`) on generated
//! tables and statements.

mod reference;

use proptest::prelude::*;
use proptest::TestRng;
use s2s_minidb::value::like_match;
use s2s_minidb::{Database, Value};

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
/// load, so index buckets are not in row-id order and slots are
/// tombstoned.
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
            1 => run(format!("UPDATE t SET name = 'a' WHERE qty >= {}", rng.below(4))),
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

/// `f` as a `REAL` renders: through the sink, `render()` and `Display`,
/// which are one function.
fn rendered(f: f64) -> String {
    let value = Value::Float(f);
    let mut sink = String::new();
    value.write_to(&mut sink).unwrap();
    assert_eq!((value.render(), value.to_string()), (sink.clone(), sink.clone()));
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

proptest! {
    /// A `REAL` renders as `f64`'s `Display` does, whatever its bits:
    /// every class of double — subnormal, huge, NaN payloads — mostly
    /// through the fallback.
    #[test]
    fn float_rendering_is_display_on_any_bit_pattern(bits in any::<u64>()) {
        let f = f64::from_bits(bits);
        prop_assert_eq!(rendered(f), format!("{f}"), "bits {:#x}", bits);
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
            let (mut text, mut ends) = (String::new(), Vec::new());
            let sunk = db.query_column_each(&stmt, &name, |v| {
                v.write_to(&mut text).unwrap();
                ends.push(text.len());
            });
            let starts = std::iter::once(0).chain(ends.iter().copied());
            let cut: Vec<String> =
                starts.zip(&ends).map(|(start, &end)| text[start..end].to_string()).collect();
            prop_assert!(sunk.is_ok() || ends.is_empty(), "an error after the sink saw values");
            prop_assert_eq!(sunk.map(|()| cut), want, "column {} of {}", name, sql);
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
