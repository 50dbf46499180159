//! Edge labels and label interning.
//!
//! The vocabulary of the constraint language of Buneman, Fan and Weinstein
//! (PODS '99, Section 2.1) is a relational signature `σ = (r, E)` where `r`
//! is a constant (the root) and `E` is a finite set of binary relation
//! symbols — the *edge labels*. All algorithms in this workspace operate on
//! interned labels ([`Label`], a `u32` newtype) so that hot loops compare
//! and hash machine integers instead of strings.

use std::collections::HashMap;
use std::fmt;

/// An interned edge label (a binary relation symbol of the signature).
///
/// Labels are cheap to copy, compare and hash. The human-readable name is
/// recovered through the [`LabelInterner`] that produced the label.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(u32);

impl Label {
    /// The raw index of this label inside its interner.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a label from a raw index.
    ///
    /// Callers must ensure the index came from the same interner the label
    /// will be resolved against; this is checked only by debug assertions
    /// at resolution time.
    #[inline]
    pub fn from_index(index: usize) -> Label {
        debug_assert!(index <= u32::MAX as usize);
        Label(index as u32)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({})", self.0)
    }
}

/// Interner mapping label names to compact [`Label`] ids.
///
/// One interner corresponds to one signature `σ`: the set of labels interned
/// so far is the edge alphabet `E`. Interners are append-only; a label never
/// changes meaning once issued.
///
/// ```
/// use pathcons_graph::LabelInterner;
///
/// let mut labels = LabelInterner::new();
/// let book = labels.intern("book");
/// assert_eq!(labels.name(book), "book");
/// assert_eq!(labels.intern("book"), book); // idempotent
/// assert_eq!(labels.len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LabelInterner {
    names: Vec<String>,
    map: HashMap<String, Label>,
}

impl LabelInterner {
    /// Creates an empty interner (an empty edge alphabet).
    pub fn new() -> LabelInterner {
        LabelInterner::default()
    }

    /// Creates an interner pre-populated with the given names, in order.
    pub fn with_labels<I, S>(names: I) -> LabelInterner
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut interner = LabelInterner::new();
        for name in names {
            interner.intern(name.as_ref());
        }
        interner
    }

    /// Interns `name`, returning its label. Idempotent.
    pub fn intern(&mut self, name: &str) -> Label {
        if let Some(&label) = self.map.get(name) {
            return label;
        }
        let label = Label(u32::try_from(self.names.len()).expect("too many labels"));
        self.names.push(name.to_owned());
        self.map.insert(name.to_owned(), label);
        label
    }

    /// Looks a name up without interning it.
    pub fn get(&self, name: &str) -> Option<Label> {
        self.map.get(name).copied()
    }

    /// Resolves a label back to its name.
    ///
    /// # Panics
    /// Panics if the label was issued by a different (larger) interner.
    pub fn name(&self, label: Label) -> &str {
        &self.names[label.index()]
    }

    /// Number of distinct labels interned (`|E|`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no labels have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all labels in interning order.
    pub fn labels(&self) -> impl Iterator<Item = Label> + '_ {
        (0..self.names.len()).map(Label::from_index)
    }

    /// Iterates over `(label, name)` pairs in interning order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Label, &str)> + '_ {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Label::from_index(i), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut interner = LabelInterner::new();
        let a = interner.intern("author");
        let b = interner.intern("author");
        assert_eq!(a, b);
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_labels() {
        let mut interner = LabelInterner::new();
        let a = interner.intern("author");
        let w = interner.intern("wrote");
        assert_ne!(a, w);
        assert_eq!(interner.name(a), "author");
        assert_eq!(interner.name(w), "wrote");
    }

    #[test]
    fn get_does_not_intern() {
        let mut interner = LabelInterner::new();
        assert_eq!(interner.get("ref"), None);
        let r = interner.intern("ref");
        assert_eq!(interner.get("ref"), Some(r));
    }

    #[test]
    fn with_labels_preserves_order() {
        let interner = LabelInterner::with_labels(["a", "b", "c"]);
        let labels: Vec<_> = interner.labels().collect();
        assert_eq!(labels.len(), 3);
        assert_eq!(interner.name(labels[0]), "a");
        assert_eq!(interner.name(labels[2]), "c");
    }

    #[test]
    fn iter_yields_pairs() {
        let interner = LabelInterner::with_labels(["x", "y"]);
        let pairs: Vec<_> = interner.iter().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(pairs, vec!["x", "y"]);
    }

    #[test]
    fn labels_index_roundtrip() {
        let l = Label::from_index(7);
        assert_eq!(l.index(), 7);
    }
}
