//! String interning for trace labels.
//!
//! Recording a trace event used to heap-allocate a `Box<str>` label —
//! a real probe effect in the spirit of the paper's §III-D concern:
//! the measurement apparatus (here, the simulator's own tracing) must
//! not perturb the system under test. Interning fixes that: labels are
//! deduplicated once at task-submission time into a [`SymbolTable`],
//! and every trace event carries a `Copy` 4-byte [`Symbol`]. Strings
//! are materialized only at report/export time. Work submitted while
//! tracing is off never interns at all: it carries [`Symbol::UNTRACED`].

use std::collections::BTreeMap;

/// An interned trace label: a dense index into the `SymbolTable`
/// that minted it.
///
/// Symbols are meaningful only together with their table; resolving a
/// symbol against a different table is a logic error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The label of work submitted while tracing was off. No table ever
    /// mints it, and every table resolves it to `"<untraced>"`.
    pub const UNTRACED: Symbol = Symbol(u32::MAX);

    /// Raw table index (useful for logging).
    #[inline]
    pub(crate) fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds a symbol from its raw index — the inverse of
    /// [`Symbol::index`], used by the columnar trace store to decode
    /// label columns back into symbols. The index must have come from
    /// the same table the symbol will be resolved against.
    #[inline]
    pub(crate) fn from_index(index: u32) -> Symbol {
        Symbol(index)
    }
}

/// A deduplicating string table mapping labels to [`Symbol`]s.
///
/// The reverse index is a `BTreeMap`, so symbol assignment depends only
/// on intern order — never on hash iteration order — keeping runs with
/// the same seed byte-identical.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    strings: Vec<Box<str>>,
    index: BTreeMap<Box<str>, u32>,
}

impl SymbolTable {
    /// Interns `s`, returning the existing symbol if already present.
    ///
    /// Allocates only the first time a given string is seen; repeat
    /// interning is a lookup.
    pub(crate) fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&i) = self.index.get(s) {
            return Symbol(i);
        }
        #[expect(
            clippy::expect_used,
            reason = "2^32 distinct labels means the workload generator is broken"
        )]
        let i = u32::try_from(self.strings.len())
            .ok()
            .filter(|&i| i != Symbol::UNTRACED.0)
            .expect("symbol table overflow");
        self.strings.push(s.into());
        self.index.insert(s.into(), i);
        Symbol(i)
    }

    /// The string a symbol stands for; `"<untraced>"` for
    /// [`Symbol::UNTRACED`].
    ///
    /// # Panics
    ///
    /// Panics if `sym` was minted by a different table.
    #[expect(
        clippy::expect_used,
        reason = "a foreign symbol is a cross-table logic bug worth crashing on"
    )]
    pub(crate) fn resolve(&self, sym: Symbol) -> &str {
        if sym == Symbol::UNTRACED {
            return "<untraced>";
        }
        self.strings
            .get(sym.0 as usize)
            .expect("symbol resolved against a table that did not intern it")
    }

    /// Forgets every interned string, invalidating previously minted
    /// symbols. The string vector keeps its capacity, so a reused table
    /// re-interns its first labels without growing.
    ///
    /// A reused table must start empty rather than carry symbols over:
    /// symbol indices are assigned in intern order, so retained content
    /// would make the numbering (and thus trace bytes) depend on what
    /// earlier runs happened to intern.
    pub(crate) fn clear(&mut self) {
        self.strings.clear();
        self.index.clear();
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes() {
        let mut t = SymbolTable::default();
        let a = t.intern("x");
        let b = t.intern("y");
        let a2 = t.intern("x");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolve_roundtrips() {
        let mut t = SymbolTable::default();
        let labels = ["conv2d", "pooling", "fully-connected", ""];
        let syms: Vec<Symbol> = labels.iter().map(|l| t.intern(l)).collect();
        for (l, s) in labels.iter().zip(&syms) {
            assert_eq!(t.resolve(*s), *l);
        }
    }

    #[test]
    fn symbols_are_assigned_in_intern_order() {
        let mut t = SymbolTable::default();
        assert_eq!(t.intern("a").index(), 0);
        assert_eq!(t.intern("b").index(), 1);
        assert_eq!(t.intern("a").index(), 0);
    }

    #[test]
    #[should_panic(expected = "did not intern")]
    fn foreign_symbol_panics() {
        let mut a = SymbolTable::default();
        a.intern("x");
        let mut b = SymbolTable::default();
        let s = b.intern("y");
        let _ = s;
        let empty = SymbolTable::default();
        empty.resolve(Symbol(0));
    }

    #[test]
    fn untraced_resolves_in_any_table() {
        let empty = SymbolTable::default();
        assert_eq!(empty.resolve(Symbol::UNTRACED), "<untraced>");
        let mut t = SymbolTable::default();
        let a = t.intern("<untraced>");
        assert_ne!(a, Symbol::UNTRACED, "interning never mints the sentinel");
        assert_eq!(t.resolve(Symbol::UNTRACED), "<untraced>");
    }

    #[test]
    fn clear_restarts_numbering_like_a_fresh_table() {
        let mut t = SymbolTable::default();
        t.intern("a");
        t.intern("b");
        t.clear();
        assert!(t.is_empty());
        // Post-clear numbering matches a brand-new table.
        assert_eq!(t.intern("z").index(), 0);
        assert_eq!(t.intern("a").index(), 1);
    }

    #[test]
    fn empty_table_reports_empty() {
        let t = SymbolTable::default();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
