//! Paths: finite sequences of edge labels.
//!
//! Following Section 2.1 of the paper, a *path* is a first-order formula
//! `ρ(x, y)` built from a (possibly empty) sequence of edge labels; at the
//! syntactic level it is just a word over the alphabet `E`. This module
//! provides the owned [`Path`] type with the algebra the paper uses:
//! concatenation, the prefix order `≤_p`, and prefix stripping (the
//! functions `g₁`, `g₂` of Theorem 5.1 are prefix strippers).

use pathcons_graph::{Label, LabelInterner};
use std::fmt;
use std::ops::Deref;

/// An owned path — a word over the edge alphabet.
///
/// The empty path `ε` denotes the formula `x = y`. `Path` dereferences to
/// `[Label]`, so evaluation functions taking `&[Label]` accept it directly.
///
/// ```
/// use pathcons_constraints::Path;
/// use pathcons_graph::LabelInterner;
///
/// let mut labels = LabelInterner::new();
/// let book = labels.intern("book");
/// let author = labels.intern("author");
///
/// let p = Path::from_labels([book, author]);
/// assert_eq!(p.len(), 2);
/// assert!(Path::from_labels([book]).is_prefix_of(&p));
/// assert_eq!(p.display(&labels).to_string(), "book.author");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Path {
    labels: Box<[Label]>,
}

impl Path {
    /// The empty path `ε`.
    pub fn empty() -> Path {
        Path::default()
    }

    /// Builds a path from labels.
    pub fn from_labels<I: IntoIterator<Item = Label>>(labels: I) -> Path {
        Path {
            labels: labels.into_iter().collect(),
        }
    }

    /// A single-label path.
    pub fn single(label: Label) -> Path {
        Path {
            labels: Box::new([label]),
        }
    }

    /// Parses a dotted path (`book.author`) against `labels`, interning
    /// new label names. The empty path is written `()`.
    pub fn parse(text: &str, labels: &mut LabelInterner) -> Result<Path, PathParseError> {
        let text = text.trim();
        if text.is_empty() {
            return Err(PathParseError {
                message: "empty path text; write `()` for the empty path".into(),
            });
        }
        if text == "()" {
            return Ok(Path::empty());
        }
        let mut parsed = Vec::new();
        for segment in text.split('.') {
            let segment = segment.trim();
            if segment.is_empty() {
                return Err(PathParseError {
                    message: format!("empty label segment in `{text}`"),
                });
            }
            if !segment
                .chars()
                .all(|c| c.is_alphanumeric() || matches!(c, '_' | '*' | '@' | '$'))
            {
                return Err(PathParseError {
                    message: format!("invalid label `{segment}` in `{text}`"),
                });
            }
            parsed.push(labels.intern(segment));
        }
        Ok(Path::from_labels(parsed))
    }

    /// Length of the path (number of labels); `0` for `ε`.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether this is the empty path `ε`.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The labels of the path.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Concatenation `self · other`.
    pub fn concat(&self, other: &Path) -> Path {
        let mut labels = Vec::with_capacity(self.len() + other.len());
        labels.extend_from_slice(&self.labels);
        labels.extend_from_slice(&other.labels);
        Path::from_labels(labels)
    }

    /// Appends a single label: `self · label`.
    pub fn push(&self, label: Label) -> Path {
        let mut labels = Vec::with_capacity(self.len() + 1);
        labels.extend_from_slice(&self.labels);
        labels.push(label);
        Path::from_labels(labels)
    }

    /// The prefix order `≤_p`: whether `self` is a prefix of `other`
    /// (there is `γ` with `other = self · γ`). Every path is a prefix of
    /// itself, and `ε` is a prefix of everything.
    pub fn is_prefix_of(&self, other: &Path) -> bool {
        other.labels.len() >= self.labels.len()
            && other.labels[..self.labels.len()] == self.labels[..]
    }

    /// Strips `prefix` from the front: `Some(γ)` with `self = prefix · γ`,
    /// or `None` if `prefix` is not a prefix of `self`.
    pub fn strip_prefix(&self, prefix: &Path) -> Option<Path> {
        if prefix.is_prefix_of(self) {
            Some(Path::from_labels(
                self.labels[prefix.len()..].iter().copied(),
            ))
        } else {
            None
        }
    }

    /// All prefixes of the path, shortest (`ε`) first, including itself.
    pub fn prefixes(&self) -> impl Iterator<Item = Path> + '_ {
        (0..=self.len()).map(move |i| Path::from_labels(self.labels[..i].iter().copied()))
    }

    /// The first label, if the path is non-empty.
    pub fn first(&self) -> Option<Label> {
        self.labels.first().copied()
    }

    /// The last label, if the path is non-empty.
    pub fn last(&self) -> Option<Label> {
        self.labels.last().copied()
    }

    /// Splits off the last label: `(init, last)`.
    pub fn split_last(&self) -> Option<(Path, Label)> {
        let (&last, init) = self.labels.split_last()?;
        Some((Path::from_labels(init.iter().copied()), last))
    }

    /// A displayable form resolving label names through `labels`.
    pub fn display<'a>(&'a self, labels: &'a LabelInterner) -> PathDisplay<'a> {
        PathDisplay { path: self, labels }
    }
}

impl Deref for Path {
    type Target = [Label];
    fn deref(&self) -> &[Label] {
        &self.labels
    }
}

impl From<Vec<Label>> for Path {
    fn from(labels: Vec<Label>) -> Path {
        Path::from_labels(labels)
    }
}

impl FromIterator<Label> for Path {
    fn from_iter<I: IntoIterator<Item = Label>>(iter: I) -> Path {
        Path::from_labels(iter)
    }
}

impl fmt::Debug for Path {
    /// Debug shows raw label indices; use [`Path::display`] for names.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some((first, rest)) = self.labels.split_first() else {
            return f.write_str("ε");
        };
        write!(f, "#{}", first.index())?;
        for label in rest {
            write!(f, ".#{}", label.index())?;
        }
        Ok(())
    }
}

/// Display adapter produced by [`Path::display`].
pub struct PathDisplay<'a> {
    path: &'a Path,
    labels: &'a LabelInterner,
}

impl fmt::Display for PathDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            return write!(f, "()");
        }
        let mut first = true;
        for &label in self.path.labels() {
            if !first {
                write!(f, ".")?;
            }
            first = false;
            write!(f, "{}", self.labels.name(label))?;
        }
        Ok(())
    }
}

/// Error from [`Path::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathParseError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for PathParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for PathParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn interner() -> LabelInterner {
        LabelInterner::new()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let mut labels = interner();
        let p = Path::parse("book.author.name", &mut labels).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.display(&labels).to_string(), "book.author.name");
    }

    #[test]
    fn empty_path_syntax() {
        let mut labels = interner();
        let p = Path::parse("()", &mut labels).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.display(&labels).to_string(), "()");
    }

    #[test]
    fn parse_rejects_garbage() {
        let mut labels = interner();
        assert!(Path::parse("", &mut labels).is_err());
        assert!(Path::parse("a..b", &mut labels).is_err());
        assert!(Path::parse("a.b c", &mut labels).is_err());
    }

    #[test]
    fn concat_is_associative_and_unital() {
        let mut labels = interner();
        let p = Path::parse("a.b", &mut labels).unwrap();
        let q = Path::parse("c", &mut labels).unwrap();
        let r = Path::parse("d.e", &mut labels).unwrap();
        assert_eq!(p.concat(&q).concat(&r), p.concat(&q.concat(&r)));
        assert_eq!(p.concat(&Path::empty()), p);
        assert_eq!(Path::empty().concat(&p), p);
    }

    #[test]
    fn prefix_order() {
        let mut labels = interner();
        let p = Path::parse("a.b.c", &mut labels).unwrap();
        let ab = Path::parse("a.b", &mut labels).unwrap();
        let ac = Path::parse("a.c", &mut labels).unwrap();
        assert!(ab.is_prefix_of(&p));
        assert!(Path::empty().is_prefix_of(&p));
        assert!(p.is_prefix_of(&p));
        assert!(!ac.is_prefix_of(&p));
        assert!(!p.is_prefix_of(&ab));
    }

    #[test]
    fn strip_prefix_inverts_concat() {
        let mut labels = interner();
        let pre = Path::parse("a.b", &mut labels).unwrap();
        let rest = Path::parse("c.d", &mut labels).unwrap();
        let whole = pre.concat(&rest);
        assert_eq!(whole.strip_prefix(&pre), Some(rest));
        assert_eq!(whole.strip_prefix(&whole), Some(Path::empty()));
        let other = Path::parse("b", &mut labels).unwrap();
        assert_eq!(whole.strip_prefix(&other), None);
    }

    #[test]
    fn prefixes_enumerates_all() {
        let mut labels = interner();
        let p = Path::parse("a.b", &mut labels).unwrap();
        let prefixes: Vec<Path> = p.prefixes().collect();
        assert_eq!(prefixes.len(), 3);
        assert!(prefixes[0].is_empty());
        assert_eq!(prefixes[2], p);
    }

    #[test]
    fn split_last_and_accessors() {
        let mut labels = interner();
        let p = Path::parse("a.b.c", &mut labels).unwrap();
        let (init, last) = p.split_last().unwrap();
        assert_eq!(init.display(&labels).to_string(), "a.b");
        assert_eq!(labels.name(last), "c");
        assert_eq!(labels.name(p.first().unwrap()), "a");
        assert!(Path::empty().split_last().is_none());
    }

    #[test]
    fn push_appends() {
        let mut labels = interner();
        let p = Path::parse("a", &mut labels).unwrap();
        let b = labels.intern("b");
        assert_eq!(p.push(b).display(&labels).to_string(), "a.b");
    }

    #[test]
    fn star_label_allowed() {
        let mut labels = interner();
        // `*` is the set-membership edge of the M+ model.
        let p = Path::parse("person.*.wrote", &mut labels).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(labels.name(p.labels()[1]), "*");
    }
}
