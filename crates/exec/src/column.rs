//! Typed batch columns.
//!
//! A batch column is [`Column::Int`] when every non-NULL cell it holds is
//! a `Value::Int`: the `i64`s and a validity mask. Any other column is
//! [`Column::Values`]. The arm is chosen per batch and per column by the
//! cells a gather meets ([`Builder`]): one `Double` turns that batch's
//! column into `Values`, and the next batch starts typed again, so no
//! plan or schema decides it. A typed cell reads as the `Value` it stands
//! for through [`Column::get`]. The kernels that hash, compare and fold
//! typed cells agree with `Value`'s `Hash`, `==` and `total_cmp` exactly,
//! so typed and untyped batches (and the two sides of a join) meet in one
//! key table.

use cbqt_common::hash::KeyHasher;
use cbqt_common::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// One column of a batch. A column no operator above reads is *pruned*:
/// it is empty while its batch has rows ([`Column::default`]).
#[derive(Debug, Clone)]
pub enum Column {
    /// Every non-NULL cell is an `Int`.
    Int(Ints),
    /// Cells of any type.
    Values(Vec<Value>),
}

/// The cells of an `Int` column.
#[derive(Debug, Clone, Default)]
pub struct Ints {
    vals: Vec<i64>,
    /// `None` while no cell is NULL; otherwise whether each cell is
    /// non-NULL (a NULL cell's value is 0).
    valid: Option<Vec<bool>>,
}

impl Default for Column {
    /// An empty column, which allocates nothing: a pruned column.
    fn default() -> Column {
        Column::Values(Vec::new())
    }
}

/// The values as they are: a `Values` column.
impl From<Vec<Value>> for Column {
    fn from(vals: Vec<Value>) -> Column {
        Column::Values(vals)
    }
}

impl Ints {
    /// Cell `i`: `None` is NULL.
    #[inline]
    pub fn get(&self, i: usize) -> Option<i64> {
        match &self.valid {
            Some(valid) if !valid[i] => None,
            _ => Some(self.vals[i]),
        }
    }

    /// Cell `i` as the `Value` it stands for.
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        self.get(i).map_or(Value::Null, Value::Int)
    }

    pub fn len(&self) -> usize {
        self.vals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// The non-NULL cells, in order.
    #[inline]
    pub fn non_null(&self) -> impl Iterator<Item = i64> + '_ {
        (0..self.vals.len()).filter_map(|i| self.get(i))
    }

    #[inline]
    fn push(&mut self, v: i64) {
        self.vals.push(v);
        if let Some(valid) = &mut self.valid {
            valid.push(true);
        }
    }

    /// Appends `v` when it is an `Int` or NULL; `false` (and nothing
    /// appended) for any other value.
    #[inline]
    fn try_push(&mut self, v: &Value) -> bool {
        match v {
            Value::Int(i) => self.push(*i),
            Value::Null => self.push_null(),
            _ => return false,
        }
        true
    }

    /// Appends a NULL; the first one allocates the validity mask, at the
    /// values' capacity.
    fn push_null(&mut self) {
        let n = self.vals.len();
        let cap = self.vals.capacity().max(n + 1);
        self.vals.push(0);
        let valid = self.valid.get_or_insert_with(|| {
            let mut valid = Vec::with_capacity(cap);
            valid.resize(n, true);
            valid
        });
        valid.push(false);
    }

    /// The cells `sel` names, in order.
    fn gather(&self, sel: &[usize]) -> Ints {
        Ints {
            vals: sel.iter().map(|&i| self.vals[i]).collect(),
            valid: self
                .valid
                .as_ref()
                .map(|valid| sel.iter().map(|&i| valid[i]).collect()),
        }
    }

    /// The cells as values, with room for `cap`.
    fn to_values(&self, cap: usize) -> Vec<Value> {
        let mut out = Vec::with_capacity(cap.max(self.len()));
        out.extend((0..self.len()).map(|i| self.value(i)));
        out
    }
}

impl Column {
    /// The values as an `Int` column when every non-NULL one is an `Int`
    /// and one is, else as they are.
    pub fn typed(vals: Vec<Value>) -> Column {
        let ints = vals
            .iter()
            .all(|v| matches!(v, Value::Int(_) | Value::Null));
        match ints && vals.iter().any(|v| !v.is_null()) {
            true => vals.into_iter().collect(),
            false => Column::Values(vals),
        }
    }

    /// The column of `cells`, about `n` of them: `Int` when every
    /// non-NULL one is an `Int`, else `Values`. The first non-NULL cell
    /// picks the arm, so a column of strings is cloned in one pass and
    /// an `Int` column is copied in one loop that widens it to `Values`
    /// at the first other value.
    pub fn of_cells<'v, I>(n: usize, cells: I) -> Column
    where
        I: Iterator<Item = &'v Value> + Clone,
    {
        if !matches!(cells.clone().find(|v| !v.is_null()), Some(Value::Int(_))) {
            return Column::Values(cells.cloned().collect());
        }
        let mut x = Ints {
            vals: Vec::with_capacity(n),
            valid: None,
        };
        let mut cells = cells;
        while let Some(v) = cells.next() {
            if !x.try_push(v) {
                let mut vals = x.to_values(n);
                vals.push(v.clone());
                vals.extend(cells.cloned());
                return Column::Values(vals);
            }
        }
        Column::Int(x)
    }

    pub fn len(&self) -> usize {
        match self {
            Column::Int(x) => x.len(),
            Column::Values(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cell `i` as the `Value` it stands for: borrowed from a `Values`
    /// column, made (with no allocation) for an `Int` one.
    #[inline]
    pub fn get(&self, i: usize) -> Cow<'_, Value> {
        match self {
            Column::Int(x) => Cow::Owned(x.value(i)),
            Column::Values(v) => Cow::Borrowed(&v[i]),
        }
    }

    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int(x) => x.get(i).is_none(),
            Column::Values(v) => v[i].is_null(),
        }
    }

    /// Feeds cell `i` to `hs[i]`, every cell, exactly as `Value::hash`
    /// feeds the value it stands for: an `Int` is tag 1, then the bits
    /// of its `f64`; an `Int` column in one loop over its `i64`s.
    pub fn hash_cells(&self, hs: &mut [KeyHasher]) {
        match self {
            Column::Int(x) => {
                for (i, h) in hs.iter_mut().enumerate() {
                    match x.get(i) {
                        Some(v) => {
                            h.write_u8(1);
                            h.write_u64((v as f64).to_bits());
                        }
                        None => h.write_u8(0),
                    }
                }
            }
            Column::Values(v) => hs.iter_mut().zip(v).for_each(|(h, v)| v.hash(h)),
        }
    }

    /// Whether cell `i` equals `v` under `Value`'s `==`: NULL meets NULL,
    /// and `Int(1)` meets `Double(1.0)`.
    #[inline]
    pub fn eq_value(&self, i: usize, v: &Value) -> bool {
        match (self, v) {
            (Column::Int(x), Value::Int(y)) => x.get(i) == Some(*y),
            (Column::Int(x), Value::Null) => x.get(i).is_none(),
            (Column::Values(a), _) => values_eq(&a[i], v),
            _ => *self.get(i) == *v,
        }
    }

    /// Cell `i` against cell `k` of `other` under `Value::total_cmp`
    /// (NULL sorts last).
    #[inline]
    pub fn cell_cmp(&self, i: usize, other: &Column, k: usize) -> Ordering {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => match (a.get(i), b.get(k)) {
                (Some(x), Some(y)) => x.cmp(&y),
                (None, None) => Ordering::Equal,
                (None, Some(_)) => Ordering::Greater,
                (Some(_), None) => Ordering::Less,
            },
            _ => self.get(i).total_cmp(&other.get(k)),
        }
    }

    /// The cells `sel` names, as values.
    pub(crate) fn values_at(&self, sel: &[usize]) -> Vec<Value> {
        match self {
            Column::Int(x) => sel.iter().map(|&i| x.value(i)).collect(),
            Column::Values(v) => sel.iter().map(|&i| v[i].clone()).collect(),
        }
    }

    /// The cells `sel` names, in order, in the same arm.
    pub(crate) fn gather(&self, sel: &[usize]) -> Column {
        match self {
            Column::Int(x) => Column::Int(x.gather(sel)),
            Column::Values(v) => Column::Values(sel.iter().map(|&i| v[i].clone()).collect()),
        }
    }

    /// Appends `other`'s cells: still `Int` when both are.
    pub(crate) fn append(&mut self, other: Column) {
        if self.is_empty() {
            *self = other;
            return;
        }
        match (&mut *self, other) {
            (Column::Int(a), Column::Int(b)) => {
                let n = a.len();
                if a.valid.is_some() || b.valid.is_some() {
                    let valid = a.valid.get_or_insert_with(|| vec![true; n]);
                    match b.valid {
                        Some(bv) => valid.extend(bv),
                        None => valid.resize(n + b.vals.len(), true),
                    }
                }
                a.vals.extend(b.vals);
            }
            (Column::Values(a), b) => a.extend(b),
            (Column::Int(a), Column::Values(b)) => {
                let mut vals = a.to_values(a.len() + b.len());
                vals.extend(b);
                *self = Column::Values(vals);
            }
        }
    }

    /// Sets every cell from `start` on to NULL.
    pub(crate) fn null_from(&mut self, start: usize) {
        match self {
            Column::Int(x) => {
                let n = x.len();
                x.vals[start..].fill(0);
                x.valid.get_or_insert_with(|| vec![true; n])[start..].fill(false);
            }
            Column::Values(v) => v[start..].fill(Value::Null),
        }
    }

    /// The column cut into consecutive columns of at most `size` cells.
    pub(crate) fn into_chunks(self, size: usize) -> Vec<Column> {
        match self {
            Column::Int(x) => {
                let valid = x.valid.as_deref();
                let chunks = x.vals.chunks(size).enumerate().map(|(c, vals)| {
                    let at = c * size;
                    Column::Int(Ints {
                        vals: vals.to_vec(),
                        valid: valid.map(|v| v[at..at + vals.len()].to_vec()),
                    })
                });
                chunks.collect()
            }
            Column::Values(v) => {
                let n = v.len().div_ceil(size);
                let mut it = v.into_iter();
                (0..n)
                    .map(|_| Column::Values(it.by_ref().take(size).collect()))
                    .collect()
            }
        }
    }
}

/// `Value`'s `==`, with two strings compared straight away (a key read
/// from the heap often shares its string with the stored key).
#[inline]
fn values_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => a == b,
    }
}

/// Moves the cells out as values.
impl IntoIterator for Column {
    type Item = Value;
    type IntoIter = IntoCells;

    fn into_iter(self) -> IntoCells {
        match self {
            Column::Int(x) => IntoCells::Int(x, 0),
            Column::Values(v) => IntoCells::Values(v.into_iter()),
        }
    }
}

/// The cells of a column, moved out as values.
pub enum IntoCells {
    Int(Ints, usize),
    Values(std::vec::IntoIter<Value>),
}

impl Iterator for IntoCells {
    type Item = Value;

    #[inline]
    fn next(&mut self) -> Option<Value> {
        match self {
            IntoCells::Int(x, i) => {
                let v = (*i < x.len()).then(|| x.value(*i));
                *i += 1;
                v
            }
            IntoCells::Values(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            IntoCells::Int(x, i) => {
                let n = x.len().saturating_sub(*i);
                (n, Some(n))
            }
            IntoCells::Values(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for IntoCells {}

/// Builds a column of (about) `n` cells in one pass, typed by its cells:
/// `Int` until a cell other than an `Int` or NULL arrives, then `Values`.
/// Storage is allocated at the first non-NULL cell, for `n` cells, so a
/// column allocates once, twice when an `Int` column holds a NULL; a
/// column of NULLs only is `Values`.
#[derive(Debug)]
pub struct Builder {
    n: usize,
    /// Leading NULLs, while no other cell has come.
    nulls: usize,
    col: Option<Column>,
}

impl Builder {
    pub fn new(n: usize) -> Builder {
        Builder {
            n,
            nulls: 0,
            col: None,
        }
    }

    #[inline]
    pub fn push(&mut self, v: &Value) {
        match (&mut self.col, v) {
            (Some(Column::Int(x)), Value::Int(i)) => x.push(*i),
            (Some(Column::Int(x)), Value::Null) => x.push_null(),
            (Some(Column::Values(vals)), v) => vals.push(v.clone()),
            (None, Value::Null) => self.nulls += 1,
            _ => self.start_or_widen(v),
        }
    }

    /// [`push`](Builder::push) of an owned value, moved into a `Values`
    /// column.
    #[inline]
    pub fn push_owned(&mut self, v: Value) {
        match &mut self.col {
            Some(Column::Values(vals)) => vals.push(v),
            _ => self.push(&v),
        }
    }

    #[inline]
    pub fn push_int(&mut self, i: i64) {
        match &mut self.col {
            Some(Column::Int(x)) => x.push(i),
            _ => self.push(&Value::Int(i)),
        }
    }

    #[inline]
    pub fn push_null(&mut self) {
        match &mut self.col {
            Some(Column::Int(x)) => x.push_null(),
            Some(Column::Values(vals)) => vals.push(Value::Null),
            None => self.nulls += 1,
        }
    }

    /// A cell that nothing reads: 0 in an `Int` column (no validity mask
    /// for it), NULL otherwise.
    #[inline]
    pub fn push_filler(&mut self) {
        match &mut self.col {
            Some(Column::Int(x)) => x.push(0),
            _ => self.push_null(),
        }
    }

    /// Cell `i` of `src`, read where it lies.
    #[inline]
    pub fn push_from(&mut self, src: &Column, i: usize) {
        match src {
            Column::Int(x) => match x.get(i) {
                Some(v) => self.push_int(v),
                None => self.push_null(),
            },
            Column::Values(v) => self.push(&v[i]),
        }
    }

    /// The first non-NULL cell picks the arm; a non-`Int` cell turns an
    /// `Int` column into `Values`. Once per column of a batch, so not cold:
    /// a one-row gather (a point select) takes it for every column.
    fn start_or_widen(&mut self, v: &Value) {
        let n = self.n;
        self.col = Some(match self.col.take() {
            None => match v {
                Value::Int(i) => {
                    let mut vals = Vec::with_capacity(n.max(self.nulls + 1));
                    vals.resize(self.nulls, 0);
                    vals.push(*i);
                    let valid = (self.nulls > 0).then(|| {
                        let mut valid = Vec::with_capacity(vals.capacity());
                        valid.resize(self.nulls, false);
                        valid.push(true);
                        valid
                    });
                    Column::Int(Ints { vals, valid })
                }
                _ => {
                    let mut vals = Vec::with_capacity(n.max(self.nulls + 1));
                    vals.resize(self.nulls, Value::Null);
                    vals.push(v.clone());
                    Column::Values(vals)
                }
            },
            Some(Column::Int(x)) => {
                let mut vals = x.to_values(n.max(x.len() + 1));
                vals.push(v.clone());
                Column::Values(vals)
            }
            Some(Column::Values(_)) => unreachable!("a Values column takes every cell"),
        });
    }

    #[inline]
    pub fn finish(self) -> Column {
        match self.col {
            Some(c) => c,
            None => Column::Values(vec![Value::Null; self.nulls]),
        }
    }
}

impl FromIterator<Value> for Column {
    /// The values, typed as a [`Builder`] types them.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Column {
        let iter = iter.into_iter();
        let mut b = Builder::new(iter.size_hint().0);
        iter.for_each(|v| b.push_owned(v));
        b.finish()
    }
}
