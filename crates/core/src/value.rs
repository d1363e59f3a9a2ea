//! The `Value` domain of the paper (§2.1).
//!
//! The paper posits a set `Value` containing the input and output values of
//! actions. We realize it as a small algebraic data type that is totally
//! ordered and hashable, so that values can serve as deterministic keys in
//! histories, consensus payloads, and deduplication tables.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// An element of the paper's `Value` set: inputs and outputs of actions.
///
/// `Value` is deliberately closed (not generic) so that histories produced by
/// different subsystems are directly comparable, and so that the theory crate
/// stays free of type parameters that would leak into every downstream
/// signature.
///
/// Values are immutable, and the compound variants share their contents:
/// `clone()` of a `Str`, `List` or `Pair` is a reference-count bump, never
/// a copy of the tree, so a request payload can ride through every
/// consensus message, service invocation and ledger entry as one
/// allocation. Equality, order and hashing are structural (by contents).
///
/// # Examples
///
/// ```
/// use xability_core::Value;
///
/// let v = Value::list([Value::from("transfer"), Value::from(250)]);
/// assert_eq!(v.as_list().unwrap().len(), 2);
/// assert_ne!(v, Value::Nil);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub enum Value {
    /// The distinguished `nil` value returned by commit and cancellation
    /// actions (§3.1).
    #[default]
    Nil,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// A string.
    Str(Arc<str>),
    /// An ordered sequence of values.
    List(Arc<[Value]>),
    /// A key/value pair; maps are encoded as sorted lists of pairs.
    Pair(Arc<(Value, Value)>),
}

impl Value {
    /// Builds a list value from an iterator of values.
    ///
    /// # Examples
    ///
    /// ```
    /// use xability_core::Value;
    /// let v = Value::list([Value::from(1), Value::from(2)]);
    /// assert_eq!(v.as_list().unwrap()[1], Value::from(2));
    /// ```
    pub fn list<I: IntoIterator<Item = Value>>(items: I) -> Self {
        Value::List(items.into_iter().collect())
    }

    /// Builds a pair value.
    pub fn pair(first: Value, second: Value) -> Self {
        Value::Pair(Arc::new((first, second)))
    }

    /// Returns the contained integer, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the contained string slice, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the contained boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the contained list, if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the contained pair, if this is a `Pair`.
    pub fn as_pair(&self) -> Option<(&Value, &Value)> {
        match self {
            Value::Pair(p) => Some((&p.0, &p.1)),
            _ => None,
        }
    }

    /// The §5.4 round stamp: the input `Pair(base input, round)` an
    /// undoable request's events carry when the protocol runs it
    /// round-per-attempt, so that each round is a distinct identity for the
    /// reduction rules. [`Value::round_stamp`] reads it back.
    pub fn round_stamped(base: Value, round: i64) -> Self {
        Value::pair(base, Value::Int(round))
    }

    /// The base input and round of a round stamp ([`Value::round_stamped`]),
    /// or `None` for any other value — the one reading of the stamp shape
    /// that the fast checker's round adoption, `xable::escalate`'s
    /// refusal and the explorer's round oracle share.
    pub fn round_stamp(&self) -> Option<(&Value, i64)> {
        match self {
            Value::Pair(p) => Some((&p.0, p.1.as_int()?)),
            _ => None,
        }
    }

    /// Returns `true` if this value is `Nil`.
    pub fn is_nil(&self) -> bool {
        matches!(self, Value::Nil)
    }

    /// Looks up `key` in a map encoded as a list of pairs.
    ///
    /// Returns the value of the first pair whose first component equals
    /// `key`, or `None` if this value is not a list of pairs containing the
    /// key.
    ///
    /// # Examples
    ///
    /// ```
    /// use xability_core::Value;
    /// let m = Value::list([
    ///     Value::pair(Value::from("amount"), Value::from(250)),
    ///     Value::pair(Value::from("to"), Value::from("alice")),
    /// ]);
    /// assert_eq!(m.lookup(&Value::from("amount")), Some(&Value::from(250)));
    /// assert_eq!(m.lookup(&Value::from("cc")), None);
    /// ```
    pub fn lookup(&self, key: &Value) -> Option<&Value> {
        self.lookup_by(|k| k == key)
    }

    /// [`Value::lookup`] for a string key, without building a key value.
    ///
    /// # Examples
    ///
    /// ```
    /// use xability_core::Value;
    /// let m = Value::list([Value::pair(Value::from("amount"), Value::from(250))]);
    /// assert_eq!(m.lookup_str("amount"), Some(&Value::from(250)));
    /// assert_eq!(m.lookup_str("cc"), None);
    /// ```
    pub fn lookup_str(&self, key: &str) -> Option<&Value> {
        self.lookup_by(|k| k.as_str() == Some(key))
    }

    /// The second component of the first pair in this list whose first
    /// component satisfies `is_key`.
    fn lookup_by(&self, is_key: impl Fn(&Value) -> bool) -> Option<&Value> {
        self.as_list()?.iter().find_map(|item| match item {
            Value::Pair(p) if is_key(&p.0) => Some(&p.1),
            _ => None,
        })
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s))
    }
}

impl<A: Into<Value>, B: Into<Value>> From<(A, B)> for Value {
    fn from((a, b): (A, B)) -> Self {
        Value::pair(a.into(), b.into())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nil => write!(f, "nil"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Pair(p) => write!(f, "({}, {})", p.0, p.1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nil_is_default() {
        assert_eq!(Value::default(), Value::Nil);
        assert!(Value::Nil.is_nil());
        assert!(!Value::Int(0).is_nil());
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Value::from(7).as_int(), Some(7));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(
            Value::from(("k", 1)).as_pair().unwrap().0,
            &Value::from("k")
        );
    }

    #[test]
    fn accessors_reject_wrong_variant() {
        assert_eq!(Value::Nil.as_int(), None);
        assert_eq!(Value::from(1).as_str(), None);
        assert_eq!(Value::from("x").as_bool(), None);
        assert_eq!(Value::from(1).as_list(), None);
        assert_eq!(Value::from(1).as_pair(), None);
    }

    #[test]
    fn lookup_finds_first_matching_pair() {
        let m = Value::list([
            Value::pair(Value::from("a"), Value::from(1)),
            Value::pair(Value::from("a"), Value::from(2)),
            Value::from(99), // non-pair entries are skipped
        ]);
        assert_eq!(m.lookup(&Value::from("a")), Some(&Value::from(1)));
        assert_eq!(m.lookup(&Value::from("b")), None);
        assert_eq!(Value::Nil.lookup(&Value::from("a")), None);
        // The string-keyed form answers the same, key value or not.
        assert_eq!(m.lookup_str("a"), Some(&Value::from(1)));
        assert_eq!(m.lookup_str("b"), None);
        assert_eq!(Value::Nil.lookup_str("a"), None);
        let int_keyed = Value::list([Value::pair(Value::from(1), Value::from(2))]);
        assert_eq!(int_keyed.lookup_str("1"), None);
    }

    #[test]
    fn ordering_is_total_and_structural() {
        let mut vs = [
            Value::from("b"),
            Value::Nil,
            Value::from(2),
            Value::from(1),
            Value::from("a"),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Nil);
        // Ints sort before strings (variant order), and within variant by value.
        assert_eq!(vs[1], Value::from(1));
        assert_eq!(vs[2], Value::from(2));
        assert_eq!(vs[3], Value::from("a"));
    }

    #[test]
    fn display_is_never_empty() {
        for v in [
            Value::Nil,
            Value::from(0),
            Value::from(""),
            Value::list([]),
            Value::pair(Value::Nil, Value::Nil),
        ] {
            assert!(!format!("{v}").is_empty());
            assert!(!format!("{v:?}").is_empty());
        }
    }

    /// A value with every variant, nested both ways.
    fn sample() -> Value {
        Value::list([
            Value::Nil,
            Value::from(true),
            Value::from(-7),
            Value::from("a\"b"),
            Value::pair(
                Value::from("k"),
                Value::list([Value::from(1), Value::from("10")]),
            ),
            Value::list([]),
        ])
    }

    /// Trace bytes, verdict reason strings, interner symbols and every
    /// `BTreeMap<Value, _>` walk depend on these; the literals were recorded
    /// with the owned `String`/`Vec`/`Box` layout this one replaced.
    #[test]
    fn order_hash_debug_and_display_are_those_of_the_owned_layout() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        let v = sample();
        assert_eq!(
            format!("{v:?}"),
            r#"List([Nil, Bool(true), Int(-7), Str("a\"b"), Pair((Str("k"), List([Int(1), Str("10")]))), List([])])"#
        );
        assert_eq!(
            format!("{v}"),
            r#"[nil, true, -7, "a\"b", ("k", [1, "10"]), []]"#
        );
        let mut hasher = DefaultHasher::new();
        v.hash(&mut hasher);
        assert_eq!(hasher.finish(), 0x505a_0318_aa89_51bb);

        // Variant order first, then contents: bytewise strings ("10" < "9"),
        // lexicographic lists, pairs by first then second component.
        let ascending = [
            Value::Nil,
            Value::from(false),
            Value::from(true),
            Value::from(-1),
            Value::from(2),
            Value::from(""),
            Value::from("10"),
            Value::from("9"),
            Value::from("a"),
            Value::list([]),
            Value::list([Value::from(1)]),
            Value::list([Value::from(1), Value::Nil]),
            Value::list([Value::from(2)]),
            Value::pair(Value::Nil, Value::Nil),
            Value::pair(Value::Nil, Value::from(0)),
            Value::pair(Value::from(0), Value::Nil),
        ];
        for (i, a) in ascending.iter().enumerate() {
            for (j, b) in ascending.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j), "{a} vs {b}");
                assert_eq!(a == b, i == j, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn clone_shares_the_contents() {
        fn same_allocation(a: &Value, b: &Value) -> bool {
            match (a, b) {
                (Value::Str(a), Value::Str(b)) => Arc::ptr_eq(a, b),
                (Value::List(a), Value::List(b)) => Arc::ptr_eq(a, b),
                (Value::Pair(a), Value::Pair(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
        }
        let v = sample();
        let items = v.as_list().unwrap();
        for original in [&v, &items[3], &items[4]] {
            assert!(same_allocation(original, &original.clone()), "{original}");
        }
        // Equal contents built twice are equal, yet distinct allocations.
        assert_eq!(v, sample());
        assert!(!same_allocation(&v, &sample()));
    }

    /// Values and events stay free to cross threads; fails to compile if
    /// the sharing is ever `Rc`.
    #[test]
    fn values_and_events_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Value>();
        assert_send_sync::<crate::Event>();
    }
}
