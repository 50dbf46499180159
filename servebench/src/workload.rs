//! Seeded workload generators.
//!
//! Every request's expected answer is fixed by construction, never by
//! running pathcons:
//!
//! - **Implied** word-style queries carry a recorded prefix-rewrite
//!   derivation `lhs ⇒* rhs` under the rules of Σ (right congruence and
//!   transitivity), so the implication holds in every model of Σ.
//! - **NotImplied** untyped queries end their rhs in a label that occurs
//!   nowhere in Σ or the lhs. Every Σ here is free of ε-collapse (no rule
//!   has an empty rhs), so prefix rewriting is complete and the rhs is
//!   unreachable.
//! - Typed-M queries use the `m-bibliography` schema, where every class
//!   path denotes exactly one object: a Σ equation extended by right
//!   congruence, or chained by transitivity, is implied; with Σ = ∅ two
//!   distinct same-type paths are not.
//! - Chase jobs are untyped `P_c` instances whose query ends in a label
//!   absent from Σ, so the truth is NotImplied; a semi-decider may also
//!   answer Unknown.
//!
//! The same seed yields byte-identical request lists.

use pathcons_store::{ContextRecord, GraphColumns, SnapshotDoc};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Workload names, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["wire_mix", "resident_word", "cold_word", "tier_mix"];

/// The answer a request must get.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Verdict `implied`.
    Implied,
    /// Verdict `not-implied`.
    NotImplied,
    /// Verdict `not-implied` or `unknown` (semi-decided tiers).
    NotImpliedOrUnknown,
    /// A `check` op: whether each listed constraint holds, in order.
    Holds(Vec<bool>),
}

/// One request line and its expected answer.
#[derive(Clone, Debug)]
pub struct Request {
    /// The JSONL request line sent to the server.
    pub line: String,
    /// What the answer must be.
    pub expect: Expect,
}

/// Sizes that scale a workload down for `--smoke`.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Books in the archive bibliography, which only has to load.
    pub archive_books: usize,
    /// Books in the bibliography `check` ops run against. The
    /// satisfaction checker's cost grows quadratically with the graph,
    /// so this one stays small enough for a few milliseconds per check.
    pub books: usize,
    /// Multiplier on each workload's request-list length. Full length
    /// except in unit tests: a list shorter than the answer cache would
    /// turn repeated requests into cache hits.
    pub list_factor: f64,
    /// Multiplier on each workload's traced-pass length.
    pub traced_factor: f64,
}

impl Scale {
    /// Full-size runs.
    pub const FULL: Scale = Scale {
        archive_books: 40_000,
        books: 1_000,
        list_factor: 1.0,
        traced_factor: 1.0,
    };
    /// Scaled-down `--smoke` runs: same code path, smaller counts.
    pub const SMOKE: Scale = Scale {
        archive_books: 4_000,
        books: 500,
        list_factor: 1.0,
        traced_factor: 0.1,
    };
}

/// A generated workload: the snapshot the server loads and the request
/// list the load generator sends, in order.
pub struct Workload {
    /// The workload's name (one of [`WORKLOADS`]).
    pub name: &'static str,
    /// The snapshot document the server is started from.
    pub snapshot: SnapshotDoc,
    /// The request list, sent in order and repeated from its start when
    /// the timed window outlasts it.
    pub requests: Vec<Request>,
    /// Every `audit_stride`-th served response is kept in full and its
    /// certificate audited offline.
    pub audit_stride: usize,
    /// How many leading requests the traced pass replays.
    pub traced: usize,
}

/// Builds workload `name` from `seed`.
pub fn build(name: &str, seed: u64, scale: Scale) -> Result<Workload, String> {
    // (list length, audit stride, traced requests) per workload, sized
    // from measured per-request costs. Each list holds more distinct
    // queries than the answer cache's 4096 entries, so a request the
    // window repeats misses the cache like a fresh one; the audit checks
    // about a thousand responses; the traced pass takes a few seconds.
    let (list, audit_stride, traced) = match name {
        "wire_mix" => (100_000, 512, 40_000),
        "resident_word" => (20_000, 16, 600),
        "cold_word" => (8_000, 8, 500),
        "tier_mix" => (40_000, 64, 2_000),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    let list = ((list as f64 * scale.list_factor) as usize).max(64);
    let traced = ((traced as f64 * scale.traced_factor) as usize).clamp(8, list);
    let mut rng = Rng::new(seed ^ fnv(name));
    let mut snapshot = bibliography_snapshot(scale, seed);
    let requests = match name {
        "wire_mix" => wire_mix(&mut rng, list),
        "resident_word" => {
            let (record, requests) = resident_word(&mut rng, list);
            snapshot.contexts.push(record);
            requests
        }
        "cold_word" => cold_word(&mut rng, list),
        _ => tier_mix(&mut rng, list),
    };
    Ok(Workload {
        name: WORKLOADS
            .iter()
            .copied()
            .find(|w| *w == name)
            .expect("name matched above"),
        snapshot,
        requests,
        audit_stride,
        traced,
    })
}

/// SplitMix64: a small, fixed generator, so request lists depend only on
/// the seed and this file.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// A random word of length `lo..=hi` over label ids `0..alphabet`.
    fn word(&mut self, alphabet: usize, lo: usize, hi: usize) -> Vec<u8> {
        let len = self.range(lo, hi);
        (0..len).map(|_| self.below(alphabet) as u8).collect()
    }

    /// A rule `lhs → rhs` with sides of length `lo..=hi` over label ids
    /// `0..alphabet`. The sides differ: a theory of nothing but `x → x`
    /// rules would leave no query to derive.
    fn rule(&mut self, alphabet: usize, lo: usize, hi: usize) -> Rule {
        loop {
            let (lhs, rhs) = (self.word(alphabet, lo, hi), self.word(alphabet, lo, hi));
            if lhs != rhs {
                return (lhs, rhs);
            }
        }
    }

    /// Shuffles `items` in place (Fisher–Yates).
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct values from `0..n`.
    fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.below(n);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A word rule `lhs → rhs` over small label ids.
type Rule = (Vec<u8>, Vec<u8>);

/// One prefix-rewrite step: a rule whose lhs is a prefix of `word`,
/// replaced by its rhs. `None` when no rule applies.
fn rewrite_once(rng: &mut Rng, rules: &[Rule], word: &[u8]) -> Option<Vec<u8>> {
    let applicable: Vec<&Rule> = rules.iter().filter(|(l, _)| word.starts_with(l)).collect();
    if applicable.is_empty() {
        return None;
    }
    let (lhs, rhs) = applicable[rng.below(applicable.len())];
    let mut next = rhs.clone();
    next.extend_from_slice(&word[lhs.len()..]);
    Some(next)
}

/// Applies up to `steps` random prefix rewrites to `start`, keeping the
/// word at most `max_len` long. The result is derivable from `start`,
/// hence implied by the rules as word constraints. `None` when not even
/// one step applied.
fn derive(
    rng: &mut Rng,
    rules: &[Rule],
    start: &[u8],
    steps: usize,
    max_len: usize,
) -> Option<Vec<u8>> {
    let mut word = start.to_vec();
    let mut applied = 0;
    for _ in 0..steps {
        match rewrite_once(rng, rules, &word) {
            Some(next) if next.len() <= max_len => {
                word = next;
                applied += 1;
            }
            _ => break,
        }
    }
    (applied > 0).then_some(word)
}

/// Renders a word as path text: label names joined by `.`.
fn path(word: &[u8], names: &[&str]) -> String {
    let parts: Vec<&str> = word.iter().map(|&l| names[l as usize]).collect();
    parts.join(".")
}

/// A job line: `{"id": ..., "context": ..., "sigma": [...], "phi": ...}`
/// with `context` and `sigma` left out when empty.
fn job_line(index: usize, context: &str, sigma: &[String], phi: &str) -> String {
    let mut line = format!(r#"{{"id":"j{index}""#);
    if !context.is_empty() {
        let _ = write!(line, r#","context":"{context}""#);
    }
    if !sigma.is_empty() {
        let quoted: Vec<String> = sigma.iter().map(|s| format!("\"{s}\"")).collect();
        let _ = write!(line, r#","sigma":[{}]"#, quoted.join(","));
    }
    let _ = write!(line, r#","phi":"{phi}"}}"#);
    line
}

/// The generated bibliography data every snapshot carries: a large
/// `archive` context, sized so that loading it dominates process start,
/// and the small `bib` context that `check` ops read. In both, the
/// Section 1 constraints (their base Σ) hold by construction.
fn bibliography_snapshot(scale: Scale, seed: u64) -> SnapshotDoc {
    let contexts = [
        (ARCHIVE_CONTEXT, scale.archive_books),
        (BIB_CONTEXT, scale.books),
    ]
    .into_iter()
    .map(|(name, books)| {
        let mut rng = Rng::new(seed ^ fnv(name));
        ContextRecord {
            name: name.to_owned(),
            kind: "semistructured".to_owned(),
            sigma: BIB_SIGMA.iter().map(|c| (*c).to_owned()).collect(),
            graph: Some(bibliography(&mut rng, books, (books * 2 / 5).max(1))),
        }
    })
    .collect();
    SnapshotDoc {
        labels: BIB_LABELS.iter().map(|l| (*l).to_owned()).collect(),
        contexts,
    }
}

/// The bibliography labels; a label's id is its index here.
const BIB_LABELS: [&str; 7] = ["book", "person", "author", "wrote", "ref", "title", "name"];

/// The Section 1 constraints, which every generated bibliography meets.
const BIB_SIGMA: [&str; 5] = [
    "book.author -> person",
    "person.wrote -> book",
    "book.ref -> book",
    "book: author <- wrote",
    "person: wrote <- author",
];

/// A bibliography graph (Figure 1, scaled up) rooted at node 0: `books`
/// books with a title each, `persons` persons with a name each. Every
/// book has one to three authors, each with the inverse `wrote` edge,
/// and three books in ten reference a book, so the [`BIB_SIGMA`]
/// constraints hold by construction.
fn bibliography(rng: &mut Rng, books: usize, persons: usize) -> GraphColumns {
    const BOOK: u32 = 0;
    const PERSON: u32 = 1;
    const AUTHOR: u32 = 2;
    const WROTE: u32 = 3;
    const REF: u32 = 4;
    const TITLE: u32 = 5;
    const NAME: u32 = 6;
    let mut g = GraphColumns {
        node_count: 1,
        root: 0,
        src: Vec::new(),
        label: Vec::new(),
        dst: Vec::new(),
    };
    fn edge(g: &mut GraphColumns, s: u32, l: u32, d: u32) {
        g.src.push(s);
        g.label.push(l);
        g.dst.push(d);
    }
    /// `count` nodes hanging off the root by `kind`, each with one
    /// `field` child.
    fn entities(g: &mut GraphColumns, count: usize, kind: u32, field: u32) -> Vec<u32> {
        (0..count)
            .map(|_| {
                let entity = g.node_count;
                g.node_count += 2;
                edge(g, 0, kind, entity);
                edge(g, entity, field, entity + 1);
                entity
            })
            .collect()
    }
    let book_nodes = entities(&mut g, books, BOOK, TITLE);
    let person_nodes = entities(&mut g, persons, PERSON, NAME);
    for &b in &book_nodes {
        for _ in 0..rng.range(1, 3.min(persons)) {
            let p = person_nodes[rng.below(persons)];
            edge(&mut g, b, AUTHOR, p);
            edge(&mut g, p, WROTE, b);
        }
        if rng.below(10) < 3 {
            edge(&mut g, b, REF, book_nodes[rng.below(books)]);
        }
    }
    g
}

/// Name of the large bibliography context that only has to load.
pub const ARCHIVE_CONTEXT: &str = "archive";
/// Name of the bibliography context `check` ops run against.
pub const BIB_CONTEXT: &str = "bib";
/// Name of `resident_word`'s resident word-rule context.
pub const WORDS_CONTEXT: &str = "words";

/// `wire_mix`: 90% alpha-renamed variants of the seven untyped job
/// shapes of `examples/batch_jobs.jsonl`, 10% fresh 4-rule word
/// theories, Σ inline.
fn wire_mix(rng: &mut Rng, count: usize) -> Vec<Request> {
    let pool: Vec<String> = (0..64).map(|i| format!("v{i}")).collect();
    let pool: Vec<&str> = pool.iter().map(String::as_str).collect();
    (0..count)
        .map(|i| {
            if i % 10 == 9 {
                fresh_word_theory(rng, i, &pool)
            } else {
                shape_variant(rng, i, &pool)
            }
        })
        .collect()
}

/// One of the seven untyped shapes with its labels drawn from `pool`.
///
/// Hand-verified answers (`a`, `b`, `c`, `p` distinct labels):
///
/// 0. `{a→b, b→c} ⊨ a→c`: implied by transitivity.
/// 1. `{a→b} ⊭ b→a`: the root with an `a`-edge and a `b`-edge to node
///    `x` and a second `b`-edge to `y` satisfies Σ, and `y` is not an
///    `a`-target.
/// 2. `{a→b, b→a} ⊨ a→a`: reflexivity.
/// 3. `{a: b→c} ⊨ a: b→c`: φ ∈ Σ.
/// 4. `{a→a·b} ⊭ a·b→a`: `r -a-> x`, `x -b-> x`, `x -b-> y` satisfies Σ
///    (`a` reaches `x`, which `a·b` reaches), but `y` is an `a·b`-target
///    and not an `a`-target.
/// 5. `{b→a, c→b} ⊨ c→a`: transitivity.
/// 6. `{p: a→a·b, p: b←c} ⊭ p: a→c`: `r -p-> x`, `x -a-> y`,
///    `y -b-> y` satisfies both (`x` has no `b`-edges, so the backward
///    constraint is vacuous), and `y` is not a `c`-target of `x`.
fn shape_variant(rng: &mut Rng, index: usize, pool: &[&str]) -> Request {
    let ids = rng.distinct(4, pool.len());
    let (a, b, c, p) = (pool[ids[0]], pool[ids[1]], pool[ids[2]], pool[ids[3]]);
    let (sigma, phi, expect) = match rng.below(7) {
        0 => (
            vec![format!("{a} -> {b}"), format!("{b} -> {c}")],
            format!("{a} -> {c}"),
            Expect::Implied,
        ),
        1 => (
            vec![format!("{a} -> {b}")],
            format!("{b} -> {a}"),
            Expect::NotImplied,
        ),
        2 => (
            vec![format!("{a} -> {b}"), format!("{b} -> {a}")],
            format!("{a} -> {a}"),
            Expect::Implied,
        ),
        3 => (
            vec![format!("{a}: {b} -> {c}")],
            format!("{a}: {b} -> {c}"),
            Expect::Implied,
        ),
        4 => (
            vec![format!("{a} -> {a}.{b}")],
            format!("{a}.{b} -> {a}"),
            Expect::NotImplied,
        ),
        5 => (
            vec![format!("{b} -> {a}"), format!("{c} -> {b}")],
            format!("{c} -> {a}"),
            Expect::Implied,
        ),
        _ => (
            vec![format!("{p}: {a} -> {a}.{b}"), format!("{p}: {b} <- {c}")],
            format!("{p}: {a} -> {c}"),
            Expect::NotImplied,
        ),
    };
    Request {
        line: job_line(index, "", &sigma, &phi),
        expect,
    }
}

/// A fresh 4-rule word theory over four pool labels, with an implied
/// (derived) or not-implied (absent label) query, half each.
fn fresh_word_theory(rng: &mut Rng, index: usize, pool: &[&str]) -> Request {
    let ids = rng.distinct(5, pool.len());
    let names: Vec<&str> = ids.iter().map(|&i| pool[i]).collect();
    let rules: Vec<Rule> = (0..4).map(|_| rng.rule(4, 1, 2)).collect();
    let (phi, expect) = word_query(rng, &rules, 4, 2, 3, index % 20 == 19);
    Request {
        line: job_line(
            index,
            "",
            &word_rules(&rules, &names),
            &word_phi(&phi, &names),
        ),
        expect,
    }
}

fn word_rules(rules: &[Rule], names: &[&str]) -> Vec<String> {
    rules.iter().map(|rule| word_phi(rule, names)).collect()
}

fn word_phi((lhs, rhs): &Rule, names: &[&str]) -> String {
    format!("{} -> {}", path(lhs, names), path(rhs, names))
}

/// A query over rules on labels `0..alphabet`. Implied: the rhs is
/// derived from the lhs in `1..=steps` rewrites. Not implied: the rhs
/// ends in label `alphabet`, which no rule and no lhs mentions.
fn word_query(
    rng: &mut Rng,
    rules: &[Rule],
    alphabet: usize,
    max_lhs: usize,
    steps: usize,
    not_implied: bool,
) -> ((Vec<u8>, Vec<u8>), Expect) {
    if not_implied {
        // A fixed one-label shape: the countermodel the server attaches
        // is a canonical-model truncation whose cost grows steeply with
        // the query's length, so a fixed length keeps that cost from
        // varying with the seed.
        let lhs = rng.word(alphabet, 1, 1);
        return ((lhs, vec![alphabet as u8]), Expect::NotImplied);
    }
    loop {
        // Start from a word some rule applies to, so a derivation exists.
        let (rule_lhs, _) = &rules[rng.below(rules.len())];
        let mut start = rule_lhs.clone();
        start.extend(rng.word(alphabet, 0, max_lhs.saturating_sub(start.len())));
        let want = rng.range(1, steps);
        if let Some(rhs) = derive(rng, rules, &start, want, 10) {
            if rhs != start {
                return ((start, rhs), Expect::Implied);
            }
        }
    }
}

/// `resident_word`: one resident context of 128 word rules over 8
/// labels; jobs carry no Σ, take their lhs from a pool of 16 and a
/// globally distinct rhs derived from it, so every job is Implied and
/// none hits the answer cache.
fn resident_word(rng: &mut Rng, count: usize) -> (ContextRecord, Vec<Request>) {
    let names: Vec<String> = (0..8).map(|i| format!("r{i}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut seen = HashSet::new();
    let mut rules: Vec<Rule> = Vec::with_capacity(128);
    while rules.len() < 128 {
        let rule = (rng.word(8, 1, 2), rng.word(8, 1, 3));
        if rule.0 != rule.1 && seen.insert(rule.clone()) {
            rules.push(rule);
        }
    }
    let mut lhs_pool: Vec<Vec<u8>> = Vec::with_capacity(16);
    while lhs_pool.len() < 16 {
        let w = rng.word(8, 1, 3);
        if rules.iter().any(|(l, _)| w.starts_with(l)) && !lhs_pool.contains(&w) {
            lhs_pool.push(w);
        }
    }
    let mut used: HashSet<Vec<u8>> = lhs_pool.iter().cloned().collect();
    let mut requests = Vec::with_capacity(count);
    while requests.len() < count {
        let lhs = &lhs_pool[rng.below(lhs_pool.len())];
        let steps = rng.range(1, 4);
        let Some(rhs) = derive(rng, &rules, lhs, steps, 12) else {
            continue;
        };
        if !used.insert(rhs.clone()) {
            continue;
        }
        let phi = word_phi(&(lhs.clone(), rhs), &names);
        requests.push(Request {
            line: job_line(requests.len(), WORDS_CONTEXT, &[], &phi),
            expect: Expect::Implied,
        });
    }
    let record = ContextRecord {
        name: WORDS_CONTEXT.to_owned(),
        kind: "semistructured".to_owned(),
        sigma: word_rules(&rules, &names),
        graph: None,
    };
    (record, requests)
}

/// `cold_word`: every job carries its own 32-rule theory over four
/// labels. Three in four queries are derived (Implied); every fourth
/// ends in a label absent from Σ (NotImplied).
///
/// Rule paths are 1–3 labels long. With paths up to 4 labels the
/// countermodel cost of a NotImplied job had a tail reaching ten times
/// its median, and the few such jobs a run could complete made the
/// throughput vary with the seed by more than its bound.
fn cold_word(rng: &mut Rng, count: usize) -> Vec<Request> {
    let names = ["a", "b", "c", "d", "z"];
    (0..count)
        .map(|i| {
            let rules: Vec<Rule> = (0..32).map(|_| rng.rule(4, 1, 3)).collect();
            let (phi, expect) = word_query(rng, &rules, 4, 3, 4, i % 4 == 3);
            Request {
                line: job_line(i, "", &word_rules(&rules, &names), &word_phi(&phi, &names)),
                expect,
            }
        })
        .collect()
}

/// `tier_mix`: blocks of five requests, each a typed-M job, a
/// local-extent job, two chase/search jobs and a `check` satisfaction
/// op over the whole constraint pool, in a seeded order.
///
/// Each kind has its own cost band (typed-M fastest, `check` slowest).
/// With two chase jobs in five, the median request falls inside the
/// chase band and the 99th percentile inside the `check` band, rather
/// than in a gap between bands, where the smallest shift in the mix
/// would move them. The order within a block is shuffled, so that which
/// kinds the two connections run side by side is drawn at random rather
/// than fixed by a rotation the connections could fall into step with.
/// Every job is (almost always) distinct from the others in the
/// list, so answer-cache hits stay rare: with a few hundred repeating
/// queries instead, whether they were evicted before they came round
/// again depended on the seed.
fn tier_mix(rng: &mut Rng, count: usize) -> Vec<Request> {
    let mut kinds = [0, 1, 2, 2, 3];
    (0..count)
        .map(|i| {
            if i % kinds.len() == 0 {
                rng.shuffle(&mut kinds);
            }
            match kinds[i % kinds.len()] {
                0 => typed_m_job(rng, i),
                1 => local_extent_job(rng, i),
                2 => chase_job(rng, i),
                _ => check_op(),
            }
        })
        .collect()
}

/// A class-typed path of the `m-bibliography` schema: `start` is
/// `person` or `book`, followed by `len - 1` alternating `wrote`/`author`
/// steps. Root fields `person: Person`, `book: Book`; `Person.wrote:
/// Book`, `Book.author: Person`.
#[derive(Clone, Copy, PartialEq, Eq)]
struct MPath {
    person: bool,
    len: usize,
}

impl MPath {
    /// Whether the path's class is `Person` (else `Book`).
    fn is_person(self) -> bool {
        self.person == (self.len % 2 == 1)
    }

    fn labels(self) -> Vec<&'static str> {
        let mut out = vec![if self.person { "person" } else { "book" }];
        let mut at_person = self.person;
        for _ in 1..self.len {
            out.push(if at_person { "wrote" } else { "author" });
            at_person = !at_person;
        }
        out
    }

    fn text(self) -> String {
        self.labels().join(".")
    }

    /// A random class path of the given class, 1 to 13 labels long.
    fn random(rng: &mut Rng, person_class: bool) -> MPath {
        let mut path = MPath {
            person: rng.below(2) == 0,
            len: rng.range(1, 12),
        };
        if path.is_person() != person_class {
            path.len += 1;
        }
        path
    }

    /// The text of `self` extended by `steps` alternating labels from its
    /// class (right congruence keeps extensions of equal paths equal).
    fn extended(self, steps: usize) -> String {
        MPath {
            len: self.len + steps,
            ..self
        }
        .text()
    }
}

/// Typed-M: Implied via a Σ equation extended by right congruence, or
/// two equations chained by transitivity; NotImplied with Σ = ∅ over two
/// distinct same-type paths.
fn typed_m_job(rng: &mut Rng, index: usize) -> Request {
    let class = rng.below(2) == 0;
    let x = MPath::random(rng, class);
    let mut y = MPath::random(rng, class);
    while y == x {
        y = MPath::random(rng, class);
    }
    let (sigma, phi, expect) = match (index / 5) % 4 {
        // Right congruence, with unrelated equations as noise.
        0 | 1 => {
            let steps = rng.range(1, 3);
            let mut sigma = vec![format!("{} -> {}", x.text(), y.text())];
            for _ in 0..rng.range(0, 2) {
                let c = rng.below(2) == 0;
                let (u, v) = (MPath::random(rng, c), MPath::random(rng, c));
                sigma.push(format!("{} -> {}", u.text(), v.text()));
            }
            let phi = format!("{} -> {}", x.extended(steps), y.extended(steps));
            (sigma, phi, Expect::Implied)
        }
        // Transitivity.
        2 => {
            let mut z = MPath::random(rng, class);
            while z == x || z == y {
                z = MPath::random(rng, class);
            }
            let sigma = vec![
                format!("{} -> {}", x.text(), y.text()),
                format!("{} -> {}", y.text(), z.text()),
            ];
            (
                sigma,
                format!("{} -> {}", x.text(), z.text()),
                Expect::Implied,
            )
        }
        _ => (
            Vec::new(),
            format!("{} -> {}", x.text(), y.text()),
            Expect::NotImplied,
        ),
    };
    Request {
        line: job_line(index, "m-bibliography", &sigma, &phi),
        expect,
    }
}

/// Local extent (Definition 2.4 shape): six rules bounded by `pi.K`,
/// three foreign rules on the sibling database `pi.W`, and a `pi.K`
/// query, derived (Implied) or ending in an absent label (NotImplied).
fn local_extent_job(rng: &mut Rng, index: usize) -> Request {
    let names = ["e0", "e1", "e2", "e3", "z"];
    let rules: Vec<Rule> = (0..6).map(|_| rng.rule(4, 1, 2)).collect();
    let mut sigma: Vec<String> = rules
        .iter()
        .map(|(l, r)| format!("pi.K: {} -> {}", path(l, &names), path(r, &names)))
        .collect();
    for k in 0..3 {
        let (l, r) = (rng.word(4, 1, 2), rng.word(4, 1, 2));
        let arrow = if k % 2 == 0 { "->" } else { "<-" };
        sigma.push(format!(
            "pi.W: {} {arrow} {}",
            path(&l, &names),
            path(&r, &names)
        ));
    }
    let ((lhs, rhs), expect) = word_query(rng, &rules, 4, 2, 3, (index / 5) % 2 == 1);
    let phi = format!("pi.K: {} -> {}", path(&lhs, &names), path(&rhs, &names));
    Request {
        line: job_line(index, "", &sigma, &phi),
        expect,
    }
}

/// Chase/search: the ungrounded cascade `h0 → h_i·h0` plus one backward
/// constraint under `h0` or `h0·h_i`, which takes Σ out of the word and
/// local-extent fragments. The query ends in `q`, absent from Σ, so the
/// truth is NotImplied; the chase runs out its default 64-round budget
/// and the countermodel search may or may not find a witness.
fn chase_job(rng: &mut Rng, index: usize) -> Request {
    let names = ["h0", "h1", "h2", "h3", "q"];
    let mut sigma: Vec<String> = (0..4).map(|i| format!("h0 -> {}.h0", names[i])).collect();
    let mut prefix = vec![0u8];
    prefix.extend(rng.word(4, 0, 1));
    let (u, v) = (rng.word(4, 1, 3), rng.word(4, 1, 3));
    sigma.push(format!(
        "{}: {} <- {}",
        path(&prefix, &names),
        path(&u, &names),
        path(&v, &names)
    ));
    let mut lhs = vec![0u8];
    lhs.extend(rng.word(4, 0, 2));
    let mut rhs = rng.word(4, 0, 2);
    rhs.push(4);
    let phi = format!("{} -> {}", path(&lhs, &names), path(&rhs, &names));
    Request {
        line: job_line(index, "", &sigma, &phi),
        expect: Expect::NotImpliedOrUnknown,
    }
}

/// Constraints over the resident bibliography and whether each holds.
/// The first five are the Section 1 constraints [`bibliography`]
/// maintains; the rest fail on any bibliography with at least one book,
/// person and authorship.
const CHECK_POOL: [(&str, bool); 10] = [
    ("book.author -> person", true),
    ("person.wrote -> book", true),
    ("book.ref -> book", true),
    ("book: author <- wrote", true),
    ("person: wrote <- author", true),
    ("book -> person", false),
    ("person -> book", false),
    ("book.author -> book", false),
    ("book.title -> book", false),
    ("book: title <- author", false),
];

/// A `check` op listing every constraint of [`CHECK_POOL`]. Checking
/// the whole pool makes every op cost about the same, so the tail of
/// `tier_mix` latency, which these ops set, does not hinge on which
/// constraints a seed happened to pick.
fn check_op() -> Request {
    let texts: Vec<String> = CHECK_POOL
        .iter()
        .map(|(text, _)| format!("\"{text}\""))
        .collect();
    Request {
        line: format!(
            r#"{{"op":"check","context":"{BIB_CONTEXT}","constraints":[{}]}}"#,
            texts.join(",")
        ),
        expect: Expect::Holds(CHECK_POOL.iter().map(|(_, holds)| *holds).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_constraints::PathConstraint;
    use pathcons_engine::Job;
    use pathcons_graph::LabelInterner;

    const SMALL: Scale = Scale {
        archive_books: 60,
        books: 50,
        list_factor: 0.002,
        traced_factor: 0.01,
    };

    fn lines(name: &str, seed: u64) -> Vec<String> {
        build(name, seed, SMALL)
            .unwrap()
            .requests
            .into_iter()
            .map(|r| r.line)
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_lists_and_another_seed_differs() {
        for name in WORKLOADS {
            assert_eq!(lines(name, 7), lines(name, 7), "{name}");
            assert_ne!(lines(name, 7), lines(name, 8), "{name}");
        }
    }

    #[test]
    fn snapshots_depend_only_on_the_seed() {
        let a = build("tier_mix", 3, SMALL).unwrap().snapshot;
        let b = build("tier_mix", 3, SMALL).unwrap().snapshot;
        assert_eq!(
            pathcons_store::snapshot::encode(&a),
            pathcons_store::snapshot::encode(&b)
        );
    }

    /// Both generated bibliographies meet their Σ, and the check pool
    /// holds and fails on them as [`CHECK_POOL`] records.
    #[test]
    fn bibliographies_meet_the_check_pool_expectations() {
        let snapshot = build("tier_mix", 4, SMALL).unwrap().snapshot;
        let bytes = pathcons_store::snapshot::encode(&snapshot);
        let store = pathcons_store::ConstraintStore::from_bytes(&bytes).unwrap();
        let pool: Vec<String> = CHECK_POOL.iter().map(|(t, _)| (*t).to_owned()).collect();
        let want: Vec<bool> = CHECK_POOL.iter().map(|(_, holds)| *holds).collect();
        for context in [ARCHIVE_CONTEXT, BIB_CONTEXT] {
            let got: Vec<bool> = store
                .check(context, &pool)
                .unwrap()
                .into_iter()
                .map(|(_, holds)| holds)
                .collect();
            assert_eq!(got, want, "{context}");
        }
    }

    #[test]
    fn every_job_line_parses() {
        for name in WORKLOADS {
            for request in build(name, 1, SMALL).unwrap().requests {
                if !matches!(request.expect, Expect::Holds(_)) {
                    Job::from_json_line(&request.line).unwrap();
                }
            }
        }
    }

    /// The by-construction expectation of every untyped word job agrees
    /// with the `post*` engine, and on the small (4-rule) theories with
    /// the naive bounded-BFS oracle too. On 32-rule theories the naive
    /// search runs out of its word budget before it reaches the rhs.
    #[test]
    fn constructed_word_verdicts_agree_with_the_naive_oracle() {
        let (mut checked, mut small) = (0, 0);
        for seed in 0..4 {
            let requests = build("wire_mix", seed, SMALL)
                .unwrap()
                .requests
                .into_iter()
                .chain(build("cold_word", seed, SMALL).unwrap().requests);
            for request in requests {
                let job = Job::from_json_line(&request.line).unwrap();
                let mut labels = LabelInterner::new();
                let parse = |t: &str, l: &mut LabelInterner| PathConstraint::parse(t, l).unwrap();
                let sigma: Vec<PathConstraint> =
                    job.sigma.iter().map(|t| parse(t, &mut labels)).collect();
                let phi = parse(&job.phi, &mut labels);
                if !phi.is_word() || !sigma.iter().all(PathConstraint::is_word) {
                    continue;
                }
                let engine = pathcons_core::WordEngine::new(&sigma).unwrap();
                assert!(!engine.has_epsilon_collapse(), "{}", request.line);
                let implied = request.expect == Expect::Implied;
                assert_eq!(engine.implies(&phi).unwrap(), implied, "{}", request.line);
                if sigma.len() <= 4 {
                    let naive = pathcons_core::word_implication_naive(&sigma, &phi, 14, 200_000)
                        .expect("word constraints");
                    assert_eq!(naive, implied.then_some(true), "{}", request.line);
                    small += 1;
                }
                checked += 1;
            }
        }
        assert!(
            small > 50 && checked > 100,
            "{small} small of {checked} checked"
        );
    }

    /// The typed-M and local-extent expectations agree with the solver.
    #[test]
    fn constructed_tier_mix_verdicts_agree_with_the_solver() {
        for request in build("tier_mix", 2, SMALL).unwrap().requests {
            let want = match request.expect {
                Expect::Implied => true,
                Expect::NotImplied => false,
                _ => continue,
            };
            let job = Job::from_json_line(&request.line).unwrap();
            let prepared = pathcons_engine::prepare_job(
                &job.context,
                &job.sigma,
                &job.phi,
                &mut LabelInterner::new(),
            )
            .unwrap();
            let answer = pathcons_core::Solver::new(prepared.context)
                .implies(&prepared.sigma, &prepared.phi)
                .unwrap();
            assert_eq!(answer.outcome.is_implied(), want, "{}", request.line);
            assert!(!answer.outcome.is_unknown(), "{}", request.line);
        }
    }

    #[test]
    fn resident_rhs_are_globally_distinct() {
        let w = build("resident_word", 5, SMALL).unwrap();
        let rhs: HashSet<String> = w
            .requests
            .iter()
            .map(|r| {
                let job = Job::from_json_line(&r.line).unwrap();
                assert!(job.sigma.is_empty());
                job.phi.split(" -> ").nth(1).unwrap().to_owned()
            })
            .collect();
        assert_eq!(rhs.len(), w.requests.len());
        let words = w.snapshot.contexts.iter().find(|c| c.name == WORDS_CONTEXT);
        assert_eq!(words.unwrap().sigma.len(), 128);
    }

    #[test]
    fn typed_paths_follow_the_schema() {
        let p = MPath {
            person: true,
            len: 3,
        };
        assert_eq!(p.text(), "person.wrote.author");
        assert!(p.is_person());
        assert!(!MPath {
            person: true,
            len: 2
        }
        .is_person());
        assert!(MPath {
            person: false,
            len: 2
        }
        .is_person());
        let mut rng = Rng::new(1);
        for _ in 0..100 {
            assert!(MPath::random(&mut rng, true).is_person());
            assert!(!MPath::random(&mut rng, false).is_person());
        }
    }
}
