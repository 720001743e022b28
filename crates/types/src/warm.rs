//! Warm-state checkpointing, written once for every warm structure.
//!
//! A warm structure (a cache, TLB, prefetcher, branch or MLP predictor)
//! implements [`Warm`]: its [`visit`](Warm::visit) names each checkpointed
//! field once, in schema order. Fixed-size tables go through
//! [`WarmVisitor::table`] and are stored as [`SparseTable`]s. Counters and
//! clocks go through [`WarmVisitor::scalar`]. Any other value, with the check
//! it must pass, goes through [`WarmVisitor::value`]. Nested structures go
//! through [`WarmVisitor::part`].
//!
//! Against that one list this module [`capture`]s a [`WarmState`],
//! [`check`]s a state against a structure without changing it, and
//! [`restore`]s a state all-or-nothing: every field is checked before the
//! first is written. Every failure is a [`CheckpointError`] naming the
//! dotted path of the field at fault, such as `llc.ways.indices[3]`.

use std::any::Any;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Error, Serialize, Value};

use crate::sparse::SparseTable;

/// Why a warm state cannot be restored: the dotted path of the field at
/// fault and the reason.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckpointError {
    /// Dotted path of the offending field (`shared.llc.ways.indices[3]`);
    /// empty when the fault is the state as a whole.
    pub field: String,
    /// What is wrong with it.
    pub reason: String,
}

impl CheckpointError {
    /// An error in `field` (relative to the structure that found it).
    pub fn new(field: impl Into<String>, reason: impl Into<String>) -> Self {
        CheckpointError {
            field: field.into(),
            reason: reason.into(),
        }
    }

    /// Places the error inside the field `outer`, building the dotted path
    /// as the error propagates outward (`ways.len` inside `llc` is
    /// `llc.ways.len`; `[0].thread` inside `buffers` is `buffers[0].thread`).
    pub fn in_field(mut self, outer: &str) -> Self {
        self.field = match self.field.chars().next() {
            None => outer.to_string(),
            Some('[') => format!("{outer}{}", self.field),
            Some(_) => format!("{outer}.{}", self.field),
        };
        self
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.field.is_empty() {
            write!(f, "{}", self.reason)
        } else {
            write!(f, "{}: {}", self.field, self.reason)
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A value a warm structure checkpoints as a whole.
pub trait WarmValue: Serialize + Deserialize + Clone + Send + Sync + 'static {}

impl<T: Serialize + Deserialize + Clone + Send + Sync + 'static> WarmValue for T {}

/// A fixed-size table of a warm structure, as [`Warm::visit`] lends it.
pub trait WarmTable {
    /// One entry of the table.
    type Entry: WarmValue + Copy;
    /// Number of entries.
    fn size(&self) -> usize;
    /// The entry at `index`, or `None` while it holds its reset value.
    fn get(&self, index: usize) -> Option<Self::Entry>;
    /// Resets every entry.
    fn clear(&mut self);
    /// Writes `entry` at `index`.
    fn set(&mut self, index: usize, entry: Self::Entry);
}

/// A slice table whose entries all reset to the second field.
pub struct Entries<'a, T>(pub &'a mut [T], pub T);

impl<T: WarmValue + Copy + PartialEq> WarmTable for Entries<'_, T> {
    type Entry = T;

    fn size(&self) -> usize {
        self.0.len()
    }

    fn get(&self, index: usize) -> Option<T> {
        (self.0[index] != self.1).then_some(self.0[index])
    }

    fn clear(&mut self) {
        self.0.fill(self.1);
    }

    fn set(&mut self, index: usize, entry: T) {
        self.0[index] = entry;
    }
}

/// The visitor [`Warm::visit`] names its fields to.
pub trait WarmVisitor {
    /// A counter or clock.
    fn scalar(&mut self, name: &'static str, value: &mut u64) {
        self.value(name, value, |_| Ok(()));
    }
    /// A fixed-size table of at most `max_len` entries in any configuration.
    fn table<T: WarmTable>(&mut self, name: &'static str, max_len: u64, table: T);
    /// Any other value; a restored value must pass `check` first.
    fn value<T: WarmValue>(
        &mut self,
        name: &'static str,
        value: &mut T,
        check: impl Fn(&T) -> Result<(), CheckpointError>,
    );
    /// A nested warm structure.
    fn part<W: Warm>(&mut self, name: &'static str, part: &mut W);
}

/// A structure with warm state: the one list of its checkpointed fields.
pub trait Warm {
    /// Names every checkpointed field to `visitor`, in schema order.
    fn visit(&mut self, visitor: &mut impl WarmVisitor);

    /// Runs after a restore has written every field: rebuilds what is
    /// derived from them and empties transient state.
    fn restored(&mut self) {}
}

/// A check for [`WarmVisitor::value`]: the vector holds exactly `len`
/// entries.
pub fn same_len<T>(len: usize) -> impl Fn(&Vec<T>) -> Result<(), CheckpointError> {
    move |values| match values.len() {
        n if n == len => Ok(()),
        n => Err(CheckpointError::new(
            "",
            format!("{n} entries, expected {len}"),
        )),
    }
}

/// The captured warm state of one structure: its fields by name, in the
/// order [`Warm::visit`] lists them, which is also the order they
/// serialize in.
///
/// A captured state keeps its tables and values as captured, so restoring
/// it copies without converting. A state read from a document keeps each
/// field as parsed and converts it when it is checked or restored.
#[derive(Clone, Default)]
pub struct WarmState {
    fields: Vec<(Cow<'static, str>, Field)>,
}

/// A field as captured (a scalar, or a table, value or part of any type)
/// or as parsed.
#[derive(Clone)]
enum Field {
    Scalar(u64),
    Captured(Arc<dyn Captured>),
    Parsed(Box<Value>),
}

/// A captured field of any [`WarmValue`] type.
trait Captured: Any + Send + Sync {
    fn to_value(&self) -> Value;
}

impl<T: Serialize + Any + Send + Sync> Captured for T {
    fn to_value(&self) -> Value {
        self.serialize()
    }
}

impl Field {
    fn to_value(&self) -> Value {
        match self {
            Field::Scalar(value) => value.serialize(),
            Field::Captured(value) => value.to_value(),
            Field::Parsed(value) => (**value).clone(),
        }
    }

    /// The field as a `T`: borrowed when captured as one, else converted.
    fn read<T: WarmValue>(&self) -> Result<Cow<'_, T>, CheckpointError> {
        let captured: Option<&dyn Any> = match self {
            Field::Scalar(value) => Some(value),
            Field::Captured(value) => Some(&**value),
            Field::Parsed(_) => None,
        };
        if let Some(value) = captured.and_then(<dyn Any>::downcast_ref::<T>) {
            return Ok(Cow::Borrowed(value));
        }
        T::deserialize(&self.to_value())
            .map(Cow::Owned)
            .map_err(|e| CheckpointError::new("", e.to_string()))
    }
}

impl Serialize for WarmState {
    fn serialize(&self) -> Value {
        Value::Map(
            self.fields
                .iter()
                .map(|(name, field)| (name.to_string(), field.to_value()))
                .collect(),
        )
    }
}

impl Deserialize for WarmState {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let entries = value.as_map().ok_or_else(|| {
            Error::custom(format!(
                "invalid type: expected a warm-state map, found {}",
                value.type_name()
            ))
        })?;
        let fields = entries
            .iter()
            .map(|(name, value)| {
                (
                    Cow::Owned(name.clone()),
                    Field::Parsed(Box::new(value.clone())),
                )
            })
            .collect();
        Ok(WarmState { fields })
    }
}

/// Two states are equal when they serialize equally, however each was
/// made.
impl PartialEq for WarmState {
    fn eq(&self, other: &Self) -> bool {
        self.serialize() == other.serialize()
    }
}

impl fmt::Debug for WarmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.serialize().fmt(f)
    }
}

/// Captures the warm state of `warm`.
pub fn capture(warm: &mut impl Warm) -> WarmState {
    let mut state = WarmState::default();
    warm.visit(&mut state);
    // Checkpoints are kept for a whole sweep: hold no growth slack.
    state.fields.shrink_to_fit();
    state
}

impl WarmState {
    fn push(&mut self, name: &'static str, value: impl Captured) {
        self.fields
            .push((Cow::Borrowed(name), Field::Captured(Arc::new(value))));
    }
}

impl WarmVisitor for WarmState {
    fn scalar(&mut self, name: &'static str, value: &mut u64) {
        self.fields
            .push((Cow::Borrowed(name), Field::Scalar(*value)));
    }

    fn table<T: WarmTable>(&mut self, name: &'static str, _max_len: u64, table: T) {
        self.push(name, SparseTable::from_fn(table.size(), |i| table.get(i)));
    }

    fn value<T: WarmValue>(
        &mut self,
        name: &'static str,
        value: &mut T,
        _check: impl Fn(&T) -> Result<(), CheckpointError>,
    ) {
        self.push(name, value.clone());
    }

    fn part<W: Warm>(&mut self, name: &'static str, part: &mut W) {
        self.push(name, capture(part));
    }
}

/// Checks that `state` restores into `warm`, without changing `warm`: every
/// field is present, known and well formed, and every table has `warm`'s
/// length and stays within its configuration limit.
///
/// # Errors
///
/// Returns the first fault, naming its dotted field path.
pub fn check(warm: &mut impl Warm, state: &WarmState) -> Result<(), CheckpointError> {
    apply(warm, state, false)
}

/// Restores `state` into `warm` if it [`check`]s, and leaves `warm`
/// unchanged otherwise.
///
/// # Errors
///
/// Returns the error of [`check`].
pub fn restore(warm: &mut impl Warm, state: &WarmState) -> Result<(), CheckpointError> {
    apply(warm, state, false)?;
    apply(warm, state, true)
}

/// Checks `state` against `warm` field by field and, if `write`, writes
/// each field as well, then runs [`Warm::restored`].
fn apply(warm: &mut impl Warm, state: &WarmState, write: bool) -> Result<(), CheckpointError> {
    let mut apply = Apply {
        state,
        write,
        found: 0,
        error: None,
    };
    warm.visit(&mut apply);
    if let Some(error) = apply.error {
        return Err(error);
    }
    let found = |i: usize| i < 64 && apply.found & (1 << i) != 0;
    let mut fields = state.fields.iter().enumerate();
    if let Some((_, (unknown, _))) = fields.find(|&(i, _)| !found(i)) {
        return Err(CheckpointError::new(unknown.to_string(), "unknown field"));
    }
    if write {
        warm.restored();
    }
    Ok(())
}

/// The visitor of [`apply`]: stops at the first error.
struct Apply<'a> {
    state: &'a WarmState,
    write: bool,
    /// Bit `i` is set once field `i` of the state has been visited.
    found: u64,
    error: Option<CheckpointError>,
}

impl Apply<'_> {
    /// Runs `f` on the field `name` unless an earlier field failed.
    fn field(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&Field, bool) -> Result<(), CheckpointError>,
    ) {
        if self.error.is_some() {
            return;
        }
        let fields = &self.state.fields;
        let result = match fields.iter().position(|(n, _)| n == name) {
            Some(i) => {
                self.found |= 1u64.checked_shl(i as u32).unwrap_or(0);
                f(&fields[i].1, self.write)
            }
            None => Err(CheckpointError::new("", "missing field")),
        };
        self.error = result.err().map(|e| e.in_field(name));
    }
}

impl WarmVisitor for Apply<'_> {
    fn table<T: WarmTable>(&mut self, name: &'static str, max_len: u64, mut table: T) {
        self.field(name, |field, write| {
            let sparse = field.read::<SparseTable<T::Entry>>()?;
            sparse.validate(max_len)?;
            if sparse.len != table.size() as u64 {
                return Err(CheckpointError::new(
                    "len",
                    format!(
                        "geometry mismatch: state has {} entries, table has {}",
                        sparse.len,
                        table.size()
                    ),
                ));
            }
            if write {
                table.clear();
                for (index, &entry) in sparse.entries() {
                    table.set(index, entry);
                }
            }
            Ok(())
        });
    }

    fn value<T: WarmValue>(
        &mut self,
        name: &'static str,
        value: &mut T,
        check: impl Fn(&T) -> Result<(), CheckpointError>,
    ) {
        self.field(name, |field, write| {
            let read = field.read::<T>()?;
            check(&read)?;
            if write {
                value.clone_from(&read);
            }
            Ok(())
        });
    }

    fn part<W: Warm>(&mut self, name: &'static str, part: &mut W) {
        self.field(name, |field, write| apply(part, &*field.read()?, write));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy structure: a table resetting to 1, a clock, a bounded list and
    /// a nested part.
    #[derive(Clone, Debug, PartialEq)]
    struct Toy {
        counters: Vec<u8>,
        tick: u64,
        history: Vec<u64>,
        inner: Option<Box<Toy>>,
        restored: u32,
    }

    impl Toy {
        fn new(len: usize, nested: bool) -> Self {
            Toy {
                counters: vec![1; len],
                tick: 0,
                history: Vec::new(),
                inner: nested.then(|| Box::new(Toy::new(2, false))),
                restored: 0,
            }
        }
    }

    impl Warm for Toy {
        fn visit(&mut self, v: &mut impl WarmVisitor) {
            v.table("counters", 8, Entries(&mut self.counters, 1));
            v.scalar("tick", &mut self.tick);
            v.value("history", &mut self.history, |h| {
                if h.len() <= 3 {
                    return Ok(());
                }
                Err(CheckpointError::new(
                    format!("[{}]", h.len() - 1),
                    "too long",
                ))
            });
            if let Some(inner) = &mut self.inner {
                v.part("inner", &mut **inner);
            }
        }

        fn restored(&mut self) {
            self.restored += 1;
        }
    }

    fn warmed() -> Toy {
        let mut toy = Toy::new(4, true);
        toy.counters[2] = 3;
        toy.tick = 9;
        toy.history = vec![5, 6];
        toy.inner.as_mut().unwrap().counters[0] = 0;
        toy
    }

    #[test]
    fn captured_and_parsed_states_restore_alike() {
        let mut source = warmed();
        let state = capture(&mut source);
        let json = serde_json::to_string(&state).unwrap();
        assert_eq!(
            json,
            "{\"counters\":{\"len\":4,\"indices\":[2],\"values\":[3]},\"tick\":9,\
             \"history\":[5,6],\"inner\":{\"counters\":{\"len\":2,\"indices\":[0],\
             \"values\":[0]},\"tick\":0,\"history\":[]}}"
        );
        let parsed: WarmState = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, state);
        for state in [&state, &parsed] {
            let mut fresh = Toy::new(4, true);
            restore(&mut fresh, state).unwrap();
            // `restored` runs once per structure, nested parts included.
            assert_eq!(fresh.restored, 1);
            assert_eq!(fresh.inner.as_ref().unwrap().restored, 1);
            fresh.restored = 0;
            fresh.inner.as_mut().unwrap().restored = 0;
            assert_eq!(fresh, source);
        }
    }

    /// Each case edits the JSON of a state (`from -> to`) and names the
    /// start of the error restoring it must fail with.
    #[test]
    fn faults_name_their_dotted_field_and_change_nothing() {
        let json = serde_json::to_string(&capture(&mut warmed())).unwrap();
        for case in [
            "\"len\":2, -> \"len\":3, -> inner.counters.len: geometry mismatch",
            "\"len\":4, -> \"len\":16, -> counters.len: 16 exceeds the limit of 8",
            "\"indices\":[2] -> \"indices\":[4] -> counters.indices[0]: index 4 out of range",
            "\"tick\":9 -> \"tock\":9 -> tick: missing field",
            "\"tick\":9 -> \"tick\":9,\"tock\":1 -> tock: unknown field",
            "[5,6] -> [5,6,7,8] -> history[3]: too long",
            "\"tick\":9 -> \"tick\":true -> tick: invalid type",
        ] {
            let [from, to, fault] =
                <[&str; 3]>::try_from(case.split(" -> ").collect::<Vec<_>>()).unwrap();
            let hostile: WarmState = serde_json::from_str(&json.replacen(from, to, 1)).unwrap();
            let mut target = Toy::new(4, true);
            let before = target.clone();
            let err = restore(&mut target, &hostile).unwrap_err().to_string();
            assert!(err.starts_with(fault), "{case}: {err}");
            assert_eq!(target, before, "{case}");
        }
    }
}
