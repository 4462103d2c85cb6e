//! Table storage with optional secondary indexes.

use std::collections::BTreeMap;

use crate::error::DbError;
use crate::schema::TableSchema;
use crate::value::Value;

/// A heap of rows plus per-column B-tree indexes.
///
/// Rows are identified by stable row ids; deletion tombstones slots so
/// ids never shift (simplifies index maintenance).
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    rows: Vec<Option<Vec<Value>>>,
    live: usize,
    /// column index → (value → row ids)
    indexes: BTreeMap<usize, BTreeMap<Value, Vec<usize>>>,
}

impl Table {
    /// Creates an empty table; the primary-key column (if any) is indexed
    /// automatically.
    pub fn new(schema: TableSchema) -> Self {
        let mut t = Table { schema, rows: Vec::new(), live: 0, indexes: BTreeMap::new() };
        if let Some(pk) = t.schema.primary_key_index() {
            t.indexes.insert(pk, BTreeMap::new());
        }
        t
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Adds a secondary index on `column` (no-op if present), indexing
    /// existing rows.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownColumn`] if the column does not exist.
    pub fn create_index(&mut self, column: &str) -> Result<(), DbError> {
        let col = self
            .schema
            .column_index(column)
            .ok_or_else(|| DbError::UnknownColumn { column: column.to_string() })?;
        if self.indexes.contains_key(&col) {
            return Ok(());
        }
        let mut index: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
        for (rid, row) in self.rows.iter().enumerate() {
            if let Some(row) = row {
                index.entry(row[col].clone()).or_default().push(rid);
            }
        }
        self.indexes.insert(col, index);
        Ok(())
    }

    /// Whether `column` has an index.
    pub fn has_index(&self, column_index: usize) -> bool {
        self.indexes.contains_key(&column_index)
    }

    /// Inserts a full-width row.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TypeMismatch`] on arity/type mismatch and
    /// [`DbError::ConstraintViolation`] on duplicate primary key.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<usize, DbError> {
        if row.len() != self.schema.arity() {
            return Err(DbError::TypeMismatch {
                message: format!(
                    "table `{}` expects {} values, got {}",
                    self.schema.name(),
                    self.schema.arity(),
                    row.len()
                ),
            });
        }
        for (v, c) in row.iter().zip(self.schema.columns()) {
            if !v.conforms_to(c.data_type()) {
                return Err(DbError::TypeMismatch {
                    message: format!(
                        "value `{v}` does not fit column `{}` of type {}",
                        c.name(),
                        c.data_type()
                    ),
                });
            }
        }
        if let Some(pk) = self.schema.primary_key_index() {
            if row[pk].is_null() {
                return Err(DbError::ConstraintViolation {
                    message: format!("primary key `{}` is NULL", self.schema.columns()[pk].name()),
                });
            }
            if self
                .indexes
                .get(&pk)
                .is_some_and(|idx| idx.get(&row[pk]).is_some_and(|ids| !ids.is_empty()))
            {
                return Err(DbError::ConstraintViolation {
                    message: format!("duplicate primary key `{}`", row[pk]),
                });
            }
        }
        let rid = self.rows.len();
        for (col, index) in self.indexes.iter_mut() {
            index.entry(row[*col].clone()).or_default().push(rid);
        }
        self.rows.push(Some(row));
        self.live += 1;
        Ok(rid)
    }

    /// The row with id `rid`, if live.
    pub fn row(&self, rid: usize) -> Option<&[Value]> {
        self.rows.get(rid)?.as_deref()
    }

    /// Iterates over `(row_id, row)` pairs of live rows.
    pub fn scan(&self) -> impl Iterator<Item = (usize, &[Value])> {
        self.rows.iter().enumerate().filter_map(|(rid, r)| r.as_deref().map(|row| (rid, row)))
    }

    /// Row ids with `column == value`, via index when available.
    pub fn lookup(&self, column_index: usize, value: &Value) -> Vec<usize> {
        match self.index_lookup(column_index, value) {
            Some(rids) => rids.to_vec(),
            None => self
                .scan()
                .filter(|(_, row)| row[column_index].sql_eq(value) == Some(true))
                .map(|(rid, _)| rid)
                .collect(),
        }
    }

    /// The row ids the index on `column_index` holds under `value`;
    /// `None` when the column has no index.
    pub(crate) fn index_lookup(&self, column_index: usize, value: &Value) -> Option<&[usize]> {
        let index = self.indexes.get(&column_index)?;
        Some(index.get(value).map_or(&[], Vec::as_slice))
    }

    /// Deletes a row by id; returns whether it was live.
    pub fn delete(&mut self, rid: usize) -> bool {
        let Some(slot) = self.rows.get_mut(rid) else { return false };
        let Some(row) = slot.take() else { return false };
        for (col, index) in self.indexes.iter_mut() {
            if let Some(ids) = index.get_mut(&row[*col]) {
                ids.retain(|&r| r != rid);
            }
        }
        self.live -= 1;
        true
    }

    /// Replaces a row in place, maintaining indexes.
    ///
    /// # Errors
    ///
    /// Same as [`Table::insert`]; additionally returns
    /// [`DbError::TypeMismatch`] if `rid` is not live.
    pub fn update(&mut self, rid: usize, new_row: Vec<Value>) -> Result<(), DbError> {
        if new_row.len() != self.schema.arity() {
            return Err(DbError::TypeMismatch { message: "update arity mismatch".to_string() });
        }
        for (v, c) in new_row.iter().zip(self.schema.columns()) {
            if !v.conforms_to(c.data_type()) {
                return Err(DbError::TypeMismatch {
                    message: format!("value `{v}` does not fit column `{}`", c.name()),
                });
            }
        }
        let old = self
            .rows
            .get(rid)
            .and_then(|r| r.clone())
            .ok_or_else(|| DbError::TypeMismatch { message: format!("row {rid} not live") })?;
        if let Some(pk) = self.schema.primary_key_index() {
            if old[pk].sql_eq(&new_row[pk]) != Some(true) {
                // PK changed: enforce uniqueness.
                let clash = self.lookup(pk, &new_row[pk]).into_iter().any(|r| r != rid);
                if clash {
                    return Err(DbError::ConstraintViolation {
                        message: format!("duplicate primary key `{}`", new_row[pk]),
                    });
                }
            }
        }
        for (col, index) in self.indexes.iter_mut() {
            if old[*col] != new_row[*col] {
                if let Some(ids) = index.get_mut(&old[*col]) {
                    ids.retain(|&r| r != rid);
                }
                index.entry(new_row[*col].clone()).or_default().push(rid);
            }
        }
        self.rows[rid] = Some(new_row);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn schema() -> TableSchema {
        TableSchema::new(
            "watches",
            vec![
                ColumnDef::new("id", DataType::Integer, true),
                ColumnDef::new("brand", DataType::Text, false),
                ColumnDef::new("price", DataType::Real, false),
            ],
        )
        .unwrap()
    }

    fn row(id: i64, brand: &str, price: f64) -> Vec<Value> {
        vec![Value::Int(id), Value::from(brand), Value::Float(price)]
    }

    #[test]
    fn insert_and_scan() {
        let mut t = Table::new(schema());
        t.insert(row(1, "Seiko", 129.99)).unwrap();
        t.insert(row(2, "Casio", 59.5)).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.scan().count(), 2);
    }

    #[test]
    fn primary_key_enforced() {
        let mut t = Table::new(schema());
        t.insert(row(1, "Seiko", 129.99)).unwrap();
        assert!(matches!(
            t.insert(row(1, "Casio", 59.5)),
            Err(DbError::ConstraintViolation { .. })
        ));
        assert!(matches!(
            t.insert(vec![Value::Null, Value::from("X"), Value::Float(1.0)]),
            Err(DbError::ConstraintViolation { .. })
        ));
    }

    #[test]
    fn type_checked() {
        let mut t = Table::new(schema());
        assert!(matches!(
            t.insert(vec![Value::from("one"), Value::from("X"), Value::Float(1.0)]),
            Err(DbError::TypeMismatch { .. })
        ));
        assert!(matches!(t.insert(vec![Value::Int(1)]), Err(DbError::TypeMismatch { .. })));
        // Int fits REAL column.
        t.insert(vec![Value::Int(1), Value::from("X"), Value::Int(2)]).unwrap();
    }

    #[test]
    fn index_lookup_matches_scan() {
        let mut t = Table::new(schema());
        for i in 0..100 {
            t.insert(row(i, if i % 2 == 0 { "Seiko" } else { "Casio" }, i as f64)).unwrap();
        }
        // No index on brand yet: scan path.
        let scan_hits = t.lookup(1, &Value::from("Seiko"));
        t.create_index("brand").unwrap();
        let index_hits = t.lookup(1, &Value::from("Seiko"));
        assert_eq!(scan_hits, index_hits);
        assert_eq!(index_hits.len(), 50);
    }

    #[test]
    fn delete_tombstones_and_cleans_index() {
        let mut t = Table::new(schema());
        let rid = t.insert(row(1, "Seiko", 129.99)).unwrap();
        t.insert(row(2, "Casio", 59.5)).unwrap();
        assert!(t.delete(rid));
        assert!(!t.delete(rid));
        assert_eq!(t.len(), 1);
        assert!(t.lookup(0, &Value::Int(1)).is_empty());
        // Re-inserting the same PK now succeeds.
        t.insert(row(1, "Orient", 200.0)).unwrap();
    }

    #[test]
    fn update_maintains_index() {
        let mut t = Table::new(schema());
        let rid = t.insert(row(1, "Seiko", 129.99)).unwrap();
        t.create_index("brand").unwrap();
        t.update(rid, row(1, "Casio", 59.5)).unwrap();
        assert!(t.lookup(1, &Value::from("Seiko")).is_empty());
        assert_eq!(t.lookup(1, &Value::from("Casio")), vec![rid]);
    }

    #[test]
    fn update_pk_uniqueness() {
        let mut t = Table::new(schema());
        let rid = t.insert(row(1, "Seiko", 129.99)).unwrap();
        t.insert(row(2, "Casio", 59.5)).unwrap();
        assert!(matches!(
            t.update(rid, row(2, "Seiko", 129.99)),
            Err(DbError::ConstraintViolation { .. })
        ));
        // Updating to itself is fine.
        t.update(rid, row(1, "Seiko", 99.0)).unwrap();
    }

    #[test]
    fn create_index_is_idempotent() {
        let mut t = Table::new(schema());
        t.insert(row(1, "Seiko", 129.99)).unwrap();
        t.create_index("brand").unwrap();
        t.create_index("brand").unwrap();
        assert_eq!(t.lookup(1, &Value::from("Seiko")).len(), 1);
        assert!(t.create_index("nope").is_err());
    }
}
