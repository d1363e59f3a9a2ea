//! Model: interner insert vs. shared-reader probe.
//!
//! `core::intern::Interner` claims two things the checker engine leans
//! on: symbol assignment is **linearizable** (one item, one symbol,
//! forever — dense and stable no matter how interning interleaves with
//! anything else), and an [`InternerReader`] is a stable snapshot — it
//! resolves every symbol assigned before it was taken and never observes
//! later interning. The model drives the **real** `Interner` (its action
//! table) through the [`SymbolTable`] trait; [`BrokenInterner`] seeds the
//! classic bug — its reader holds a *live* handle to the symbol table
//! instead of a snapshot, which resolves correctly on most schedules and
//! drifts exactly when an insert lands between taking the reader and
//! probing it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use xability_core::{ActionName, Interner, InternerReader};

use super::Interleave;

/// The symbol-table shapes the model runs over.
pub trait SymbolTable: Default {
    /// The shared read handle type.
    type Reader;
    /// Interns `item`, returning its symbol (assigning on first sight).
    fn intern(&mut self, item: &str) -> u32;
    /// The interned items, in symbol order.
    fn entries(&self) -> Vec<String>;
    /// A read handle that must keep resolving exactly the symbols
    /// assigned so far.
    fn reader(&self) -> Self::Reader;
    /// What the reader resolves *now*, in symbol order.
    fn reader_entries(reader: &Self::Reader) -> Vec<String>;
}

impl SymbolTable for Interner {
    type Reader = InternerReader;

    fn intern(&mut self, item: &str) -> u32 {
        self.intern_action(&ActionName::idempotent(item))
    }

    fn entries(&self) -> Vec<String> {
        (0..self.action_count() as u32)
            .map(|sym| self.action(sym).name().to_owned())
            .collect()
    }

    fn reader(&self) -> InternerReader {
        Interner::reader(self)
    }

    fn reader_entries(reader: &InternerReader) -> Vec<String> {
        reader.actions().map(|a| a.name().to_owned()).collect()
    }
}

/// The deliberately broken variant: the reader shares the live table, so
/// it observes interning that happens after it was taken.
#[derive(Default)]
pub struct BrokenInterner {
    items: Rc<RefCell<Vec<String>>>,
    index: BTreeMap<String, u32>,
}

impl SymbolTable for BrokenInterner {
    type Reader = Rc<RefCell<Vec<String>>>;

    fn intern(&mut self, item: &str) -> u32 {
        if let Some(&sym) = self.index.get(item) {
            return sym;
        }
        let mut items = self.items.borrow_mut();
        let sym = items.len() as u32;
        items.push(item.to_owned());
        self.index.insert(item.to_owned(), sym);
        sym
    }

    fn entries(&self) -> Vec<String> {
        self.items.borrow().clone()
    }

    fn reader(&self) -> Rc<RefCell<Vec<String>>> {
        // The seeded bug: a live handle, not a snapshot.
        Rc::clone(&self.items)
    }

    fn reader_entries(reader: &Rc<RefCell<Vec<String>>>) -> Vec<String> {
        reader.borrow().clone()
    }
}

/// Thread B's operation alphabet.
#[derive(Debug, Clone, Copy)]
enum BOp {
    /// Take a reader and record what it must keep resolving.
    TakeReader,
    /// Probe every reader taken so far against its recorded table.
    Probe,
}

/// The model: thread A interns a fixed script (with duplicates); thread B
/// takes readers at arbitrary points and probes them at later points.
/// Per-step invariants: symbol assignment is linearizable (same item,
/// same symbol; fresh items get the next dense symbol) and every reader
/// stays a stable snapshot.
pub struct InternModel<T: SymbolTable> {
    table: T,
    script: &'static [&'static str],
    assigned: BTreeMap<String, u32>,
    b_ops: Vec<BOp>,
    readers: Vec<(T::Reader, Vec<String>)>,
}

impl<T: SymbolTable> InternModel<T> {
    /// The standard bound: 6 interns over 3 distinct items against
    /// take/probe/take/probe/probe — C(11,5) = 462 schedules.
    pub fn standard() -> Self {
        InternModel {
            table: T::default(),
            script: &["put", "get", "put", "del", "get", "put"],
            assigned: BTreeMap::new(),
            b_ops: vec![
                BOp::TakeReader,
                BOp::Probe,
                BOp::TakeReader,
                BOp::Probe,
                BOp::Probe,
            ],
            readers: Vec::new(),
        }
    }
}

impl<T: SymbolTable> Interleave for InternModel<T> {
    fn ops(&self) -> (usize, usize) {
        (self.script.len(), self.b_ops.len())
    }

    fn step(&mut self, thread: usize, index: usize) -> Result<(), String> {
        if thread == 0 {
            let item = self.script[index];
            let sym = self.table.intern(item);
            match self.assigned.get(item) {
                Some(&prev) if prev != sym => {
                    return Err(format!(
                        "symbol assignment not linearizable: `{item}` was {prev}, now {sym}"
                    ));
                }
                Some(_) => {}
                None => {
                    let expected = self.assigned.len() as u32;
                    if sym != expected {
                        return Err(format!(
                            "symbols not dense: `{item}` got {sym}, expected {expected}"
                        ));
                    }
                    self.assigned.insert(item.to_owned(), sym);
                }
            }
            return Ok(());
        }
        match self.b_ops[index] {
            BOp::TakeReader => {
                self.readers
                    .push((self.table.reader(), self.table.entries()));
                Ok(())
            }
            BOp::Probe => {
                for (i, (reader, expected)) in self.readers.iter().enumerate() {
                    let got = T::reader_entries(reader);
                    if got != *expected {
                        return Err(format!(
                            "reader {i} is not a snapshot: took {expected:?}, resolves {got:?}"
                        ));
                    }
                }
                Ok(())
            }
        }
    }

    fn finish(&mut self) -> Result<(), String> {
        // Every distinct item resolved, densely, in first-sight order.
        let got = self.table.entries();
        let expected = ["put", "get", "del"];
        if got != expected {
            return Err(format!("final symbol table {got:?}, expected {expected:?}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{binomial, explore};

    #[test]
    fn real_interner_passes_every_interleaving() {
        let explored = explore("intern", InternModel::<Interner>::standard);
        assert_eq!(explored.schedules, binomial(11, 5), "exhaustiveness");
        assert_eq!(explored.violations, 0, "{:?}", explored.first_violation);
    }

    #[test]
    fn broken_live_reader_is_caught_on_overlapping_schedules_only() {
        let explored = explore("intern-broken", InternModel::<BrokenInterner>::standard);
        assert_eq!(explored.schedules, binomial(11, 5), "exhaustiveness");
        assert!(
            explored.violations > 0,
            "the explorer must catch the live-handle reader"
        );
        assert!(
            explored.violations < explored.schedules,
            "schedules where all interning precedes the first reader must pass"
        );
    }
}
