//! The checkpoint form of a fixed-size warm table: its length plus only the
//! entries that differ from a freshly reset table ([`SparseTable`]).
//!
//! After a warm prefix most entries of a cache, TLB, stride table, BTB or
//! predictor table still hold their reset value, so a checkpoint lists the
//! others by index, as SMARTS live-points store only the warm state a sample
//! needs. Every warm table of a checkpoint uses this one form and this one
//! validation rule ([`crate::warm`] captures and restores them).

use serde::{Deserialize, Error, Serialize, Value};

use crate::warm::CheckpointError;

/// A fixed-size table of `len` entries stored as the indices and values of
/// its non-reset entries.
///
/// `indices` ascend strictly and stay below `len`; `values[k]` is the entry
/// at `indices[k]`. Every entry not listed holds the table's reset value.
///
/// # Example
///
/// ```
/// use smt_types::sparse::SparseTable;
///
/// let table = [0u16, 7, 0, 0, 3];
/// let sparse = SparseTable::from_fn(table.len(), |i| (table[i] != 0).then_some(table[i]));
/// assert_eq!((sparse.len, &sparse.indices[..], &sparse.values[..]), (5, &[1, 4][..], &[7, 3][..]));
/// assert!(sparse.validate(5).is_ok());
/// assert_eq!(sparse.validate(4).unwrap_err().to_string(), "len: 5 exceeds the limit of 4 entries");
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct SparseTable<T> {
    /// Number of entries of the whole table.
    pub len: u64,
    /// Indices of the listed entries, strictly ascending, each below `len`.
    pub indices: Vec<u32>,
    /// The listed entries, parallel to `indices`.
    pub values: Vec<T>,
}

impl<T> SparseTable<T> {
    /// Lists, for a table of `len` entries, every entry for which `entry`
    /// returns a value (the entries that differ from reset).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds `u32::MAX + 1`, which no validated
    /// configuration allows.
    pub fn from_fn(len: usize, mut entry: impl FnMut(usize) -> Option<T>) -> Self {
        assert!(len as u64 <= 1 << 32, "sparse table indices are u32");
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for index in 0..len {
            if let Some(value) = entry(index) {
                indices.push(index as u32);
                values.push(value);
            }
        }
        // Checkpoints are kept for a whole sweep: hold no growth slack.
        indices.shrink_to_fit();
        values.shrink_to_fit();
        SparseTable {
            len: len as u64,
            indices,
            values,
        }
    }

    /// The listed entries as `(index, value)` pairs in ascending index
    /// order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, &T)> {
        self.indices.iter().map(|&i| i as usize).zip(&self.values)
    }

    /// Checks the one rule of every sparse table: `len` is at most
    /// `max_len`, there is one value per index, and the indices ascend
    /// strictly below `len`.
    ///
    /// # Errors
    ///
    /// Returns an error naming the offending field (`len`, `values` or
    /// `indices[k]`) and the first violation.
    pub fn validate(&self, max_len: u64) -> Result<(), CheckpointError> {
        if self.len > max_len {
            return Err(CheckpointError::new(
                "len",
                format!("{} exceeds the limit of {max_len} entries", self.len),
            ));
        }
        if self.values.len() != self.indices.len() {
            return Err(CheckpointError::new(
                "values",
                format!(
                    "{} values for {} indices",
                    self.values.len(),
                    self.indices.len()
                ),
            ));
        }
        // The smallest index the next entry may carry.
        let mut next = 0u64;
        for (k, &index) in self.indices.iter().enumerate() {
            let index = u64::from(index);
            let fault = if index >= self.len {
                format!("index {index} out of range (len {})", self.len)
            } else if index < next {
                format!("index {index} repeated or out of ascending order")
            } else {
                next = index + 1;
                continue;
            };
            return Err(CheckpointError::new(format!("indices[{k}]"), fault));
        }
        Ok(())
    }
}

impl<T: Serialize> Serialize for SparseTable<T> {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("len".to_string(), self.len.serialize()),
            ("indices".to_string(), self.indices.serialize()),
            ("values".to_string(), self.values.serialize()),
        ])
    }
}

impl<T: Deserialize> Deserialize for SparseTable<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        const FIELDS: [&str; 3] = ["len", "indices", "values"];
        let entries = value.as_map().ok_or_else(|| {
            Error::custom(format!(
                "invalid type: expected a sparse table map, found {}",
                value.type_name()
            ))
        })?;
        if let Some((unknown, _)) = entries.iter().find(|(k, _)| !FIELDS.contains(&k.as_str())) {
            return Err(Error::unknown_field(unknown, "SparseTable", &FIELDS));
        }
        fn field<F: Deserialize>(entries: &[(String, Value)], name: &str) -> Result<F, Error> {
            let value = Value::map_get(entries, name)
                .ok_or_else(|| Error::missing_field(name, "SparseTable"))?;
            F::deserialize(value).map_err(|e| e.in_field(name))
        }
        Ok(SparseTable {
            len: field(entries, "len")?,
            indices: field(entries, "indices")?,
            values: field(entries, "values")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warm::{capture, restore, Entries, Warm, WarmState, WarmVisitor};

    fn table(len: u64, indices: &[u32]) -> SparseTable<u8> {
        SparseTable {
            len,
            indices: indices.to_vec(),
            values: vec![1; indices.len()],
        }
    }

    /// A bare table whose entries reset to the second field, as the one
    /// field `t` of a warm structure.
    struct Bare<T>(Vec<T>, T);

    impl<T: Copy + PartialEq + Serialize + Deserialize + Send + Sync + 'static> Warm for Bare<T> {
        fn visit(&mut self, v: &mut impl WarmVisitor) {
            v.table("t", 64, Entries(&mut self.0, self.1));
        }
    }

    fn sparse<T: Copy + PartialEq>(table: &[T], reset: T) -> SparseTable<T> {
        SparseTable::from_fn(table.len(), |i| (table[i] != reset).then_some(table[i]))
    }

    /// `sparse` as the state of a [`Bare`] table.
    fn state<T: Serialize>(sparse: &SparseTable<T>) -> WarmState {
        let json = format!("{{\"t\":{}}}", serde_json::to_string(sparse).unwrap());
        serde_json::from_str(&json).unwrap()
    }

    #[test]
    fn empty_table_lists_nothing_and_restores_to_reset() {
        let sparse = sparse(&[0u8; 16], 0);
        assert_eq!(sparse.len, 16);
        assert!(sparse.indices.is_empty() && sparse.values.is_empty());
        sparse.validate(16).unwrap();
        let mut dirty = Bare(vec![5u8; 16], 0);
        restore(&mut dirty, &state(&sparse)).unwrap();
        assert_eq!(dirty.0, [0; 16]);
        let none = SparseTable::<u8>::from_fn(0, |_| None);
        assert_eq!(none.len, 0);
        none.validate(0).unwrap();
    }

    #[test]
    fn full_table_lists_every_entry() {
        let full: Vec<u16> = (1..=8).collect();
        let mut bare = Bare(full.clone(), 0);
        let captured = capture(&mut bare);
        let sparse = sparse(&full, 0);
        assert_eq!(sparse.indices, (0..8).collect::<Vec<u32>>());
        assert_eq!(sparse.values, full);
        assert_eq!(captured, state(&sparse));
        let mut restored = Bare(vec![0u16; 8], 0);
        restore(&mut restored, &captured).unwrap();
        assert_eq!(restored.0, full);
    }

    #[test]
    fn default_valued_entries_are_left_out() {
        let listed = sparse(&[0u8, 3, 0, 0, 4, 0], 0);
        assert_eq!(listed.indices, [1, 4]);
        assert_eq!(listed.values, [3, 4]);
        // A reset value other than zero (gshare's weakly-not-taken 1).
        let counters = sparse(&[1u8, 1, 3, 0, 1], 1);
        assert_eq!(
            (counters.indices, counters.values),
            (vec![2, 3], vec![3, 0])
        );
        let columns = ([0u64, 9, 0], [0u64, 0, 2]);
        let pairs = SparseTable::from_fn(3, |i| {
            let entry = (columns.0[i], columns.1[i]);
            (entry != (0, 0)).then_some(entry)
        });
        assert_eq!(pairs.indices, [1, 2]);
        assert_eq!(pairs.values, [(9, 0), (0, 2)]);
        assert_eq!(pairs.entries().map(|(i, _)| i).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn out_of_range_unsorted_mismatched_or_over_cap_input_is_rejected() {
        table(4, &[0, 1, 3]).validate(4).unwrap();
        let fault = |t: SparseTable<u8>, max: u64| t.validate(max).unwrap_err().to_string();
        assert!(fault(table(4, &[4]), 4).starts_with("indices[0]: index 4 out of range"));
        assert!(fault(table(4, &[u32::MAX]), 4).contains("out of range"));
        assert!(fault(table(4, &[1, 1]), 4).starts_with("indices[1]: index 1 repeated"));
        assert!(fault(table(4, &[2, 1]), 4).contains("out of ascending order"));
        assert!(fault(table(1 << 60, &[]), 1 << 22).starts_with("len: 1152921504606846976"));
        let mut short = table(4, &[0, 1]);
        short.values.pop();
        assert!(fault(short, 4).starts_with("values: 1 values for 2 indices"));
    }

    #[test]
    fn restore_rejects_another_length_and_leaves_the_table_unchanged() {
        let mut target = Bare(vec![7u8; 4], 0);
        let err = restore(&mut target, &state(&table(5, &[0]))).unwrap_err();
        assert!(
            err.to_string().contains("t.len: geometry mismatch"),
            "{err}"
        );
        let err = restore(&mut target, &state(&table(4, &[3, 2]))).unwrap_err();
        assert!(err.to_string().contains("out of ascending order"), "{err}");
        assert_eq!(target.0, [7; 4]);
    }

    #[test]
    fn field_paths_compose_outward() {
        let err = table(1 << 60, &[]).validate(8).unwrap_err();
        let err = err.in_field("ways").in_field("llc").in_field("shared");
        assert!(
            err.to_string().starts_with("shared.llc.ways.len: "),
            "{err}"
        );
        let err = CheckpointError::new("[0].thread", "out of range").in_field("buffers");
        assert_eq!(err.field, "buffers[0].thread");
        assert_eq!(CheckpointError::new("", "whole").in_field("x").field, "x");
    }

    #[test]
    fn serde_round_trip_and_unknown_fields() {
        let sparse = SparseTable {
            len: 6,
            indices: vec![1, 5],
            values: vec![(3u64, 4u64), (u64::MAX, 0)],
        };
        let round = SparseTable::<(u64, u64)>::deserialize(&sparse.serialize()).unwrap();
        assert_eq!(round, sparse);
        let mut value = sparse.serialize();
        if let Value::Map(entries) = &mut value {
            entries.push(("index".to_string(), Value::Int(0)));
        }
        let err = SparseTable::<(u64, u64)>::deserialize(&value).unwrap_err();
        assert!(err.to_string().contains("unknown field `index`"), "{err}");
        let err = SparseTable::<u8>::deserialize(&Value::Map(vec![])).unwrap_err();
        assert!(err.to_string().contains("missing field `len`"), "{err}");
        let negative = Value::Map(vec![
            ("len".to_string(), Value::Int(1)),
            ("indices".to_string(), Value::Seq(vec![Value::Int(-1)])),
            ("values".to_string(), Value::Seq(vec![Value::Int(1)])),
        ]);
        let err = SparseTable::<u8>::deserialize(&negative).unwrap_err();
        assert!(err.to_string().starts_with("indices: [0]: "), "{err}");
    }
}
