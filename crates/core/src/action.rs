//! Actions, requests and results (§2.1, §3.1).
//!
//! The paper partitions the set `Action` into `Idempotent` and `Undoable`
//! actions. Every undoable action `a` (written `aᵘ`) has an associated
//! *cancellation* action `a⁻¹` and *commit* action `aᶜ`; both take the same
//! input as `a`, return `nil`, and are themselves idempotent.
//!
//! We encode this structure directly: an [`ActionName`] carries its
//! [`ActionKind`] (idempotent or undoable), and an [`ActionId`] identifies
//! either the base action or one of the two derived actions of an undoable
//! base.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// Whether a base action is idempotent or undoable (§3.1).
///
/// * An **idempotent** action has the same side-effect whether executed once
///   or several times.
/// * An **undoable** action behaves like a database transaction: it can be
///   rolled back by its cancellation action up to the point where its commit
///   action makes its effect permanent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ActionKind {
    /// Member of the paper's `Idempotent` set, written `aⁱ`.
    Idempotent,
    /// Member of the paper's `Undoable` set, written `aᵘ`.
    Undoable,
}

impl fmt::Display for ActionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionKind::Idempotent => write!(f, "idempotent"),
            ActionKind::Undoable => write!(f, "undoable"),
        }
    }
}

/// The name of a base action, together with its kind.
///
/// Cheap to clone (the name itself is reference counted).
///
/// # Examples
///
/// ```
/// use xability_core::{ActionKind, ActionName};
///
/// let a = ActionName::idempotent("lookup");
/// assert_eq!(a.name(), "lookup");
/// assert_eq!(a.kind(), ActionKind::Idempotent);
///
/// let b = ActionName::undoable("transfer");
/// assert!(b.is_undoable());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ActionName {
    name: Arc<str>,
    kind: ActionKind,
}

impl ActionName {
    /// Creates a new action name of the given kind.
    pub fn new(name: impl AsRef<str>, kind: ActionKind) -> Self {
        ActionName {
            name: Arc::from(name.as_ref()),
            kind,
        }
    }

    /// Creates an idempotent action name (`aⁱ`).
    pub fn idempotent(name: impl AsRef<str>) -> Self {
        ActionName::new(name, ActionKind::Idempotent)
    }

    /// Creates an undoable action name (`aᵘ`).
    pub fn undoable(name: impl AsRef<str>) -> Self {
        ActionName::new(name, ActionKind::Undoable)
    }

    /// The textual name of the action.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kind of the action.
    pub fn kind(&self) -> ActionKind {
        self.kind
    }

    /// Returns `true` if the action is idempotent.
    pub fn is_idempotent(&self) -> bool {
        self.kind == ActionKind::Idempotent
    }

    /// Returns `true` if the action is undoable.
    pub fn is_undoable(&self) -> bool {
        self.kind == ActionKind::Undoable
    }
}

impl fmt::Display for ActionName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ActionKind::Idempotent => write!(f, "{}ⁱ", self.name),
            ActionKind::Undoable => write!(f, "{}ᵘ", self.name),
        }
    }
}

/// Identifies an executable action: a base action, or the cancellation /
/// commit action derived from an undoable base action (§3.1).
///
/// The paper writes these `a`, `a⁻¹` and `aᶜ`. Cancellation and commit
/// actions are idempotent by definition, take the same input as their base
/// action, and return `nil`.
///
/// # Examples
///
/// ```
/// use xability_core::{ActionId, ActionName};
///
/// let transfer = ActionName::undoable("transfer");
/// let act = ActionId::base(transfer.clone());
/// let cancel = act.cancel().expect("undoable actions can be cancelled");
/// let commit = act.commit().expect("undoable actions can be committed");
/// assert!(cancel.is_idempotent_action());
/// assert!(commit.is_idempotent_action());
/// assert_eq!(cancel.base_name(), &transfer);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ActionId {
    /// The base action `a` itself.
    Base(ActionName),
    /// The cancellation action `a⁻¹` of an undoable base action.
    Cancel(ActionName),
    /// The commit action `aᶜ` of an undoable base action.
    Commit(ActionName),
}

impl ActionId {
    /// Wraps a base action name.
    pub fn base(name: ActionName) -> Self {
        ActionId::Base(name)
    }

    /// The cancellation action of this action, if it is an undoable base
    /// action.
    ///
    /// Returns `None` for idempotent actions and for actions that are already
    /// cancellations or commits.
    pub fn cancel(&self) -> Option<ActionId> {
        match self {
            ActionId::Base(name) if name.is_undoable() => Some(ActionId::Cancel(name.clone())),
            _ => None,
        }
    }

    /// The commit action of this action, if it is an undoable base action.
    pub fn commit(&self) -> Option<ActionId> {
        match self {
            ActionId::Base(name) if name.is_undoable() => Some(ActionId::Commit(name.clone())),
            _ => None,
        }
    }

    /// The base action name this id is derived from.
    pub fn base_name(&self) -> &ActionName {
        match self {
            ActionId::Base(n) | ActionId::Cancel(n) | ActionId::Commit(n) => n,
        }
    }

    /// The action's role as a code: 0 for the base action `a`, 1 for its
    /// cancellation `a⁻¹`, 2 for its commit `aᶜ` — the one numbering the
    /// fast checker's attribution slots, the shape codes of
    /// [`crate::HistoryRead::shape_codes`] and the packed trace format all
    /// use.
    pub fn role(&self) -> u8 {
        match self {
            ActionId::Base(_) => 0,
            ActionId::Cancel(_) => 1,
            ActionId::Commit(_) => 2,
        }
    }

    /// Returns `true` if *executing* this action is idempotent.
    ///
    /// Base idempotent actions, cancellations, and commits are all
    /// idempotent; only undoable base actions are not.
    pub fn is_idempotent_action(&self) -> bool {
        match self {
            ActionId::Base(name) => name.is_idempotent(),
            ActionId::Cancel(_) | ActionId::Commit(_) => true,
        }
    }

    /// Returns `true` if this is an undoable base action `aᵘ`.
    pub fn is_undoable_base(&self) -> bool {
        matches!(self, ActionId::Base(name) if name.is_undoable())
    }

    /// Returns `true` if this is a cancellation action `a⁻¹`.
    pub fn is_cancel(&self) -> bool {
        matches!(self, ActionId::Cancel(_))
    }

    /// Returns `true` if this is a commit action `aᶜ`.
    pub fn is_commit(&self) -> bool {
        matches!(self, ActionId::Commit(_))
    }
}

impl From<ActionName> for ActionId {
    fn from(name: ActionName) -> Self {
        ActionId::Base(name)
    }
}

impl fmt::Display for ActionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionId::Base(n) => write!(f, "{n}"),
            ActionId::Cancel(n) => write!(f, "{}⁻¹", n.name()),
            ActionId::Commit(n) => write!(f, "{}ᶜ", n.name()),
        }
    }
}

/// A request: an action name paired with an input value (§2.1, eq. 1).
///
/// The paper writes requests as pairs `(a, v)`.
///
/// # Examples
///
/// ```
/// use xability_core::{ActionId, ActionName, Request, Value};
///
/// let req = Request::new(
///     ActionId::base(ActionName::idempotent("lookup")),
///     Value::from("alice"),
/// );
/// assert_eq!(req.input(), &Value::from("alice"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Request {
    action: ActionId,
    input: Value,
}

impl Request {
    /// Creates a request from an action and an input value.
    pub fn new(action: ActionId, input: Value) -> Self {
        Request { action, input }
    }

    /// The action to invoke.
    pub fn action(&self) -> &ActionId {
        &self.action
    }

    /// The input value of the action.
    pub fn input(&self) -> &Value {
        &self.input
    }

    /// Splits the request into its components.
    pub fn into_parts(self) -> (ActionId, Value) {
        (self.action, self.input)
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.action, self.input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_reported_correctly() {
        let i = ActionName::idempotent("get");
        let u = ActionName::undoable("put");
        assert!(i.is_idempotent() && !i.is_undoable());
        assert!(u.is_undoable() && !u.is_idempotent());
        assert_eq!(i.kind(), ActionKind::Idempotent);
        assert_eq!(u.kind(), ActionKind::Undoable);
    }

    #[test]
    fn cancel_and_commit_only_exist_for_undoable_bases() {
        let i = ActionId::base(ActionName::idempotent("get"));
        assert_eq!(i.cancel(), None);
        assert_eq!(i.commit(), None);

        let u = ActionId::base(ActionName::undoable("put"));
        let c = u.cancel().unwrap();
        let k = u.commit().unwrap();
        assert!(c.is_cancel() && !c.is_commit());
        assert!(k.is_commit() && !k.is_cancel());
        // Derived actions cannot be cancelled or committed again.
        assert_eq!(c.cancel(), None);
        assert_eq!(k.commit(), None);
    }

    #[test]
    fn derived_actions_are_idempotent() {
        let u = ActionId::base(ActionName::undoable("put"));
        assert!(!u.is_idempotent_action());
        assert!(u.is_undoable_base());
        assert!(u.cancel().unwrap().is_idempotent_action());
        assert!(u.commit().unwrap().is_idempotent_action());
    }

    #[test]
    fn base_name_is_shared_by_derived_actions() {
        let name = ActionName::undoable("put");
        let u = ActionId::base(name.clone());
        assert_eq!(u.cancel().unwrap().base_name(), &name);
        assert_eq!(u.commit().unwrap().base_name(), &name);
    }

    #[test]
    fn equality_distinguishes_kind_and_role() {
        let a = ActionName::idempotent("x");
        let b = ActionName::undoable("x");
        assert_ne!(a, b);
        assert_ne!(ActionId::Cancel(b.clone()), ActionId::Commit(b.clone()));
        assert_ne!(ActionId::Base(b.clone()), ActionId::Cancel(b));
    }

    #[test]
    fn request_accessors() {
        let action = ActionId::base(ActionName::idempotent("get"));
        let req = Request::new(action.clone(), Value::from(3));
        assert_eq!(req.action(), &action);
        assert_eq!(req.input(), &Value::from(3));
        let (a, v) = req.into_parts();
        assert_eq!(a, action);
        assert_eq!(v, Value::from(3));
    }

    #[test]
    fn display_formats() {
        let u = ActionId::base(ActionName::undoable("put"));
        assert_eq!(format!("{u}"), "putᵘ");
        assert_eq!(format!("{}", u.cancel().unwrap()), "put⁻¹");
        assert_eq!(format!("{}", u.commit().unwrap()), "putᶜ");
        let i = ActionId::base(ActionName::idempotent("get"));
        assert_eq!(format!("{i}"), "getⁱ");
    }
}
