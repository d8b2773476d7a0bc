//! Tuples: immutable, cheaply clonable sequences of [`Value`]s.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use crate::value::Value;

/// An immutable tuple of attribute values.
///
/// Backed by `Arc<[Value]>` so that cloning a tuple — which happens
/// constantly during joins and chase-tree enumeration — is a reference-count
/// bump rather than a deep copy.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: impl Into<Arc<[Value]>>) -> Tuple {
        Tuple(values.into())
    }

    /// The empty tuple (arity 0).
    pub fn empty() -> Tuple {
        Tuple(Arc::from(Vec::new()))
    }

    /// Number of components.
    #[inline]
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Whether this is the empty tuple.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Component access.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// The components as a slice.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Projects onto the given column indices (in the given order).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn project(&self, cols: &[usize]) -> Tuple {
        Tuple(cols.iter().map(|&c| self.0[c].clone()).collect())
    }

    /// Concatenates two tuples.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Tuple(v.into())
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

/// A tuple orders, compares and hashes exactly like its value slice, so
/// sets of tuples can be probed with a borrowed `&[Value]` (no allocation).
impl Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Tuple {
        Tuple(iter.into_iter().collect())
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Tuple {
        Tuple(v.into())
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Builds a [`Tuple`] from a list of expressions convertible to [`Value`].
///
/// ```
/// use gdatalog_data::{tuple, Value};
/// let t = tuple![1i64, 2.5, "home"];
/// assert_eq!(t.arity(), 3);
/// assert_eq!(t[0], Value::int(1));
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::from(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_basics() {
        let t = tuple![1i64, "a", 2.0];
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], Value::int(1));
        assert_eq!(t.get(3), None);
        assert!(!t.is_empty());
        assert!(Tuple::empty().is_empty());
    }

    #[test]
    fn tuple_project_and_concat() {
        let t = tuple![10i64, 20i64, 30i64];
        assert_eq!(t.project(&[2, 0]), tuple![30i64, 10i64]);
        let u = tuple![1i64];
        assert_eq!(t.concat(&u), tuple![10i64, 20i64, 30i64, 1i64]);
    }

    #[test]
    fn tuple_ordering_is_lexicographic() {
        assert!(tuple![1i64, 2i64] < tuple![1i64, 3i64]);
        assert!(tuple![1i64] < tuple![1i64, 0i64]);
    }

    #[test]
    fn tuple_display() {
        assert_eq!(tuple![1i64, "x"].to_string(), "(1, x)");
        assert_eq!(Tuple::empty().to_string(), "()");
    }
}
