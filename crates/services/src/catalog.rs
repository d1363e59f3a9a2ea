//! Concrete external services used by the examples, tests and experiments.
//!
//! These realize the workloads the paper's introduction motivates —
//! three-tier applications whose middle tier invokes back-end services with
//! real side-effects:
//!
//! * [`Bank`] — accounts with an **undoable** `transfer` (escrow-style
//!   hold, then commit/cancel) and an **idempotent** `deposit`. Transfers
//!   return a non-deterministic receipt token.
//! * [`KvStore`] — an **idempotent** `put`/`get` key-value store.
//! * [`TokenIssuer`] — an **idempotent** but non-deterministic `issue`
//!   action (fresh random token per logical request; retries get the stored
//!   token via framework deduplication).
//! * [`Reservation`] — an **undoable** `reserve` over a finite pool of
//!   seats.
//! * [`NakedCounter`] — a counter whose `bump` is *declared* idempotent but
//!   has a cumulative effect. Combined with `dedup: false` it demonstrates
//!   how retry-based replication duplicates effects when the idempotence
//!   contract is violated (used by negative tests and baselines).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::RngExt;

use xability_core::{ActionName, Value};

use crate::logic::BusinessLogic;

fn field<'v>(payload: &'v Value, key: &str) -> Option<&'v Value> {
    payload.lookup_str(key)
}

fn str_field(payload: &Value, key: &str) -> Option<String> {
    field(payload, key)
        .and_then(|v| v.as_str())
        .map(str::to_owned)
}

fn int_field(payload: &Value, key: &str) -> Option<i64> {
    field(payload, key).and_then(Value::as_int)
}

/// A bank with escrow-style undoable transfers.
///
/// `transfer` payload: `[("from", str), ("to", str), ("amount", int)]`.
/// Tentative effect: the amount is withdrawn from `from` and held in
/// escrow. Commit releases the escrow to `to`; cancel returns it to
/// `from`. The output is `ok:<receipt>` (random receipt — the
/// non-determinism the paper insists on) or `"rejected"` when funds are
/// insufficient (a domain *output*, not a failure).
///
/// `deposit` payload: `[("to", str), ("amount", int)]`, idempotent, output
/// is the new balance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bank {
    accounts: BTreeMap<String, i64>,
    escrow: BTreeMap<(String, String), i64>,
}

impl Bank {
    /// Creates a bank with the given initial account balances.
    pub fn new(accounts: impl IntoIterator<Item = (String, i64)>) -> Self {
        Bank {
            accounts: accounts.into_iter().collect(),
            escrow: BTreeMap::new(),
        }
    }

    /// The balance of an account (0 if unknown).
    pub fn balance(&self, account: &str) -> i64 {
        self.accounts.get(account).copied().unwrap_or(0)
    }

    /// Total money in the system (accounts + escrow); conserved by every
    /// operation, which tests assert.
    pub fn total(&self) -> i64 {
        self.accounts.values().sum::<i64>() + self.escrow.values().sum::<i64>()
    }

    /// Money currently held in escrow.
    pub fn escrowed(&self) -> i64 {
        self.escrow.values().sum()
    }

    fn transfer_parts(key: &Value, payload: &Value) -> Option<(String, String, i64)> {
        let _ = key;
        Some((
            str_field(payload, "from")?,
            str_field(payload, "to")?,
            int_field(payload, "amount")?,
        ))
    }
}

impl BusinessLogic for Bank {
    fn name(&self) -> &str {
        "bank"
    }

    fn actions(&self) -> Vec<ActionName> {
        vec![
            ActionName::undoable("transfer"),
            ActionName::idempotent("deposit"),
        ]
    }

    fn apply(
        &mut self,
        action: &ActionName,
        key: &Value,
        payload: &Value,
        rng: &mut StdRng,
    ) -> Value {
        match action.name() {
            "transfer" => {
                let Some((from, to, amount)) = Bank::transfer_parts(key, payload) else {
                    return Value::from("rejected:malformed");
                };
                if amount <= 0 || self.balance(&from) < amount {
                    return Value::from("rejected");
                }
                *self.accounts.entry(from.clone()).or_insert(0) -= amount;
                *self.escrow.entry((from, to)).or_insert(0) += amount;
                let receipt: u32 = rng.random_range(0..1_000_000);
                Value::from(format!("ok:{receipt}"))
            }
            "deposit" => {
                let Some(to) = str_field(payload, "to") else {
                    return Value::from("rejected:malformed");
                };
                let amount = int_field(payload, "amount").unwrap_or(0);
                let balance = self.accounts.entry(to).or_insert(0);
                *balance += amount;
                Value::from(*balance)
            }
            _ => Value::from("rejected:unknown-action"),
        }
    }

    fn revert(&mut self, action: &ActionName, key: &Value, payload: &Value) {
        if action.name() != "transfer" {
            return;
        }
        let Some((from, to, amount)) = Bank::transfer_parts(key, payload) else {
            return;
        };
        let held = self.escrow.entry((from.clone(), to)).or_insert(0);
        if *held >= amount {
            *held -= amount;
            *self.accounts.entry(from).or_insert(0) += amount;
        }
    }

    fn finalize(&mut self, action: &ActionName, key: &Value, payload: &Value) {
        if action.name() != "transfer" {
            return;
        }
        let Some((from, to, amount)) = Bank::transfer_parts(key, payload) else {
            return;
        };
        let held = self.escrow.entry((from, to.clone())).or_insert(0);
        if *held >= amount {
            *held -= amount;
            *self.accounts.entry(to).or_insert(0) += amount;
        }
    }

    fn is_possible_reply(&self, action: &ActionName, _payload: &Value, reply: &Value) -> bool {
        match action.name() {
            "transfer" => reply
                .as_str()
                .is_some_and(|s| s == "rejected" || s.starts_with("ok:")),
            "deposit" => reply.as_int().is_some(),
            _ => false,
        }
    }
}

/// A key-value store with idempotent `put` and `get`.
///
/// `put` payload: `[("k", str), ("v", any)]`, output `nil`.
/// `get` payload: `[("k", str)]`, output the stored value or `nil`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvStore {
    map: BTreeMap<String, Value>,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Direct lookup (for test assertions).
    pub fn get(&self, k: &str) -> Option<&Value> {
        self.map.get(k)
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl BusinessLogic for KvStore {
    fn name(&self) -> &str {
        "kv"
    }

    fn actions(&self) -> Vec<ActionName> {
        vec![ActionName::idempotent("put"), ActionName::idempotent("get")]
    }

    fn apply(
        &mut self,
        action: &ActionName,
        _key: &Value,
        payload: &Value,
        _rng: &mut StdRng,
    ) -> Value {
        match action.name() {
            "put" => {
                if let (Some(k), Some(v)) = (str_field(payload, "k"), field(payload, "v")) {
                    self.map.insert(k, v.clone());
                }
                Value::Nil
            }
            "get" => str_field(payload, "k")
                .and_then(|k| self.map.get(&k).cloned())
                .unwrap_or(Value::Nil),
            _ => Value::Nil,
        }
    }
}

/// Issues fresh random tokens: idempotent *thanks to framework
/// deduplication*, non-deterministic across logical requests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenIssuer {
    issued: u64,
}

impl TokenIssuer {
    /// Creates an issuer.
    pub fn new() -> Self {
        TokenIssuer::default()
    }

    /// How many tokens were actually minted (deduplicated retries do not
    /// mint).
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

impl BusinessLogic for TokenIssuer {
    fn name(&self) -> &str {
        "tokens"
    }

    fn actions(&self) -> Vec<ActionName> {
        vec![ActionName::idempotent("issue")]
    }

    fn apply(
        &mut self,
        _action: &ActionName,
        _key: &Value,
        _payload: &Value,
        rng: &mut StdRng,
    ) -> Value {
        self.issued += 1;
        let token: u64 = rng.random_range(0..u64::MAX);
        Value::from(format!("tok-{token:016x}"))
    }

    fn is_possible_reply(&self, _action: &ActionName, _payload: &Value, reply: &Value) -> bool {
        reply.as_str().is_some_and(|s| s.starts_with("tok-"))
    }
}

/// A seat-reservation service with an undoable `reserve`.
///
/// `reserve` payload: `[("seats", int)]`; tentative effect holds the seats;
/// output `"held"` or `"rejected"` when not enough seats remain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reservation {
    capacity: i64,
    held: BTreeMap<String, i64>,
    confirmed: i64,
}

impl Reservation {
    /// Creates a service with `capacity` seats.
    pub fn new(capacity: i64) -> Self {
        Reservation {
            capacity,
            held: BTreeMap::new(),
            confirmed: i64::default(),
        }
    }

    /// Seats still free (not held, not confirmed).
    pub fn free(&self) -> i64 {
        self.capacity - self.confirmed - self.held.values().sum::<i64>()
    }

    /// Seats confirmed.
    pub fn confirmed(&self) -> i64 {
        self.confirmed
    }

    fn hold_key(key: &Value) -> String {
        format!("{key}")
    }
}

impl BusinessLogic for Reservation {
    fn name(&self) -> &str {
        "reservation"
    }

    fn actions(&self) -> Vec<ActionName> {
        vec![ActionName::undoable("reserve")]
    }

    fn apply(
        &mut self,
        _action: &ActionName,
        key: &Value,
        payload: &Value,
        _rng: &mut StdRng,
    ) -> Value {
        let seats = int_field(payload, "seats").unwrap_or(1);
        if seats <= 0 || self.free() < seats {
            return Value::from("rejected");
        }
        self.held.insert(Reservation::hold_key(key), seats);
        Value::from("held")
    }

    fn revert(&mut self, _action: &ActionName, key: &Value, _payload: &Value) {
        self.held.remove(&Reservation::hold_key(key));
    }

    fn finalize(&mut self, _action: &ActionName, key: &Value, _payload: &Value) {
        if let Some(seats) = self.held.remove(&Reservation::hold_key(key)) {
            self.confirmed += seats;
        }
    }

    fn is_possible_reply(&self, _action: &ActionName, _payload: &Value, reply: &Value) -> bool {
        matches!(reply.as_str(), Some("held") | Some("rejected"))
    }
}

/// A counter whose `bump` is declared idempotent but is cumulatively
/// effectful. With framework deduplication it behaves; with `dedup: false`
/// it exposes duplicated side-effects under retries — the negative case.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NakedCounter {
    value: i64,
}

impl NakedCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        NakedCounter::default()
    }

    /// The current count.
    pub fn value(&self) -> i64 {
        self.value
    }
}

impl BusinessLogic for NakedCounter {
    fn name(&self) -> &str {
        "counter"
    }

    fn actions(&self) -> Vec<ActionName> {
        vec![ActionName::idempotent("bump")]
    }

    fn apply(
        &mut self,
        _action: &ActionName,
        _key: &Value,
        payload: &Value,
        _rng: &mut StdRng,
    ) -> Value {
        let by = int_field(payload, "by").unwrap_or(1);
        self.value += by;
        Value::from(self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    fn transfer_payload(from: &str, to: &str, amount: i64) -> Value {
        Value::list([
            Value::pair(Value::from("from"), Value::from(from)),
            Value::pair(Value::from("to"), Value::from(to)),
            Value::pair(Value::from("amount"), Value::from(amount)),
        ])
    }

    #[test]
    fn bank_transfer_holds_then_commits() {
        let mut bank = Bank::new([("a".into(), 100), ("b".into(), 0)]);
        let action = ActionName::undoable("transfer");
        let payload = transfer_payload("a", "b", 30);
        let key = Value::from("req1");
        let out = bank.apply(&action, &key, &payload, &mut rng());
        assert!(out.as_str().unwrap().starts_with("ok:"));
        assert_eq!(bank.balance("a"), 70);
        assert_eq!(bank.balance("b"), 0);
        assert_eq!(bank.escrowed(), 30);
        assert_eq!(bank.total(), 100);
        bank.finalize(&action, &key, &payload);
        assert_eq!(bank.balance("b"), 30);
        assert_eq!(bank.escrowed(), 0);
        assert_eq!(bank.total(), 100);
    }

    #[test]
    fn bank_transfer_revert_restores_funds() {
        let mut bank = Bank::new([("a".into(), 50)]);
        let action = ActionName::undoable("transfer");
        let payload = transfer_payload("a", "b", 50);
        let key = Value::from("r");
        bank.apply(&action, &key, &payload, &mut rng());
        assert_eq!(bank.balance("a"), 0);
        bank.revert(&action, &key, &payload);
        assert_eq!(bank.balance("a"), 50);
        assert_eq!(bank.total(), 50);
    }

    #[test]
    fn bank_rejects_insufficient_funds_as_output() {
        let mut bank = Bank::new([("a".into(), 10)]);
        let action = ActionName::undoable("transfer");
        let out = bank.apply(
            &action,
            &Value::from("r"),
            &transfer_payload("a", "b", 999),
            &mut rng(),
        );
        assert_eq!(out, Value::from("rejected"));
        assert_eq!(bank.total(), 10);
        assert!(bank.is_possible_reply(&action, &Value::Nil, &out));
    }

    #[test]
    fn bank_deposit_is_effectful_and_typed() {
        let mut bank = Bank::new([]);
        let action = ActionName::idempotent("deposit");
        let payload = Value::list([
            Value::pair(Value::from("to"), Value::from("c")),
            Value::pair(Value::from("amount"), Value::from(7)),
        ]);
        let out = bank.apply(&action, &Value::from("d1"), &payload, &mut rng());
        assert_eq!(out, Value::from(7));
        assert!(bank.is_possible_reply(&action, &payload, &out));
        assert!(!bank.is_possible_reply(&action, &payload, &Value::from("x")));
    }

    #[test]
    fn bank_transfer_receipts_are_non_deterministic() {
        let mut bank = Bank::new([("a".into(), 100)]);
        let action = ActionName::undoable("transfer");
        let p = transfer_payload("a", "b", 1);
        let o1 = bank.apply(&action, &Value::from("r1"), &p, &mut rng());
        let mut rng2 = StdRng::seed_from_u64(99);
        let o2 = bank.apply(&action, &Value::from("r2"), &p, &mut rng2);
        assert_ne!(o1, o2);
    }

    #[test]
    fn kv_put_get_roundtrip() {
        let mut kv = KvStore::new();
        let put = ActionName::idempotent("put");
        let get = ActionName::idempotent("get");
        let p = Value::list([
            Value::pair(Value::from("k"), Value::from("name")),
            Value::pair(Value::from("v"), Value::from("ada")),
        ]);
        assert_eq!(
            kv.apply(&put, &Value::from("w1"), &p, &mut rng()),
            Value::Nil
        );
        let g = Value::list([Value::pair(Value::from("k"), Value::from("name"))]);
        assert_eq!(
            kv.apply(&get, &Value::from("r1"), &g, &mut rng()),
            Value::from("ada")
        );
        assert_eq!(kv.len(), 1);
        assert!(!kv.is_empty());
        assert_eq!(kv.get("name"), Some(&Value::from("ada")));
    }

    #[test]
    fn kv_get_missing_is_nil() {
        let mut kv = KvStore::new();
        let get = ActionName::idempotent("get");
        let g = Value::list([Value::pair(Value::from("k"), Value::from("none"))]);
        assert_eq!(
            kv.apply(&get, &Value::from("r"), &g, &mut rng()),
            Value::Nil
        );
    }

    #[test]
    fn token_issuer_mints_distinct_tokens() {
        let mut t = TokenIssuer::new();
        let a = ActionName::idempotent("issue");
        let t1 = t.apply(&a, &Value::from("r1"), &Value::Nil, &mut rng());
        let mut rng2 = StdRng::seed_from_u64(5);
        let t2 = t.apply(&a, &Value::from("r2"), &Value::Nil, &mut rng2);
        assert_ne!(t1, t2);
        assert_eq!(t.issued(), 2);
        assert!(t.is_possible_reply(&a, &Value::Nil, &t1));
        assert!(!t.is_possible_reply(&a, &Value::Nil, &Value::from("nope")));
    }

    #[test]
    fn reservation_hold_commit_cancel() {
        let mut r = Reservation::new(10);
        let a = ActionName::undoable("reserve");
        let p = Value::list([Value::pair(Value::from("seats"), Value::from(4))]);
        let out = r.apply(&a, &Value::from("r1"), &p, &mut rng());
        assert_eq!(out, Value::from("held"));
        assert_eq!(r.free(), 6);
        r.finalize(&a, &Value::from("r1"), &p);
        assert_eq!(r.confirmed(), 4);
        assert_eq!(r.free(), 6);
        // A second hold that gets cancelled frees its seats.
        let out2 = r.apply(&a, &Value::from("r2"), &p, &mut rng());
        assert_eq!(out2, Value::from("held"));
        assert_eq!(r.free(), 2);
        r.revert(&a, &Value::from("r2"), &p);
        assert_eq!(r.free(), 6);
    }

    #[test]
    fn reservation_rejects_overbooking() {
        let mut r = Reservation::new(3);
        let a = ActionName::undoable("reserve");
        let p = Value::list([Value::pair(Value::from("seats"), Value::from(5))]);
        assert_eq!(
            r.apply(&a, &Value::from("r"), &p, &mut rng()),
            Value::from("rejected")
        );
        assert_eq!(r.free(), 3);
    }

    #[test]
    fn naked_counter_accumulates() {
        let mut c = NakedCounter::new();
        let a = ActionName::idempotent("bump");
        let p = Value::list([Value::pair(Value::from("by"), Value::from(2))]);
        assert_eq!(
            c.apply(&a, &Value::from("r"), &p, &mut rng()),
            Value::from(2)
        );
        assert_eq!(
            c.apply(&a, &Value::from("r"), &p, &mut rng()),
            Value::from(4)
        );
        assert_eq!(c.value(), 4);
    }
}
