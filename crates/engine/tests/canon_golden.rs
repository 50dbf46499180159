//! Golden snapshot ids: the canonical form is pinned bit for bit.
//!
//! Snapshot ids are the fingerprints certificates are bound to, and an
//! offline auditor recovers them by re-canonicalizing job text. Any
//! change to the canonical form (the renaming, the Σ order, the Debug
//! rendering the fingerprint hashes) would orphan every certificate
//! issued before it. `golden/canon_ids.txt` records the ids for every
//! job in `examples/batch_jobs.jsonl` and for a seeded corpus that
//! covers duplicate constraints, backward constraints with prefixes and
//! symmetric ties; this test recomputes them and demands equality.
//!
//! Each line of the golden file is `<case id> <16-hex snapshot id>`.

use pathcons_engine::{canonicalize, prepare_job, snapshot_id, Job};
use pathcons_graph::LabelInterner;

const GOLDEN: &str = include_str!("golden/canon_ids.txt");
const EXAMPLE_JOBS: &str = include_str!("../../../examples/batch_jobs.jsonl");

/// Cases in the seeded corpus.
const CORPUS_CASES: u64 = 200;

/// SplitMix64: a tiny deterministic generator, so the corpus never
/// depends on an external crate's stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

fn path(rng: &mut SplitMix, pool: &[&str], max_len: u64) -> String {
    let len = rng.below(max_len + 1);
    if len == 0 {
        return "()".to_owned();
    }
    (0..len)
        .map(|_| pool[rng.below(pool.len() as u64) as usize])
        .collect::<Vec<_>>()
        .join(".")
}

fn constraint(rng: &mut SplitMix, pool: &[&str]) -> String {
    let arrow = if rng.below(3) == 0 { "<-" } else { "->" };
    let prefix = if rng.below(2) == 0 {
        String::new()
    } else {
        format!("{}: ", path(rng, pool, 2))
    };
    format!(
        "{prefix}{} {arrow} {}",
        path(rng, pool, 3),
        path(rng, pool, 3)
    )
}

/// Swaps two label names throughout a constraint's text: the swapped
/// copy has the same shape, so Σ gains a symmetric tie.
fn swapped(text: &str, x: &str, y: &str) -> String {
    text.split_inclusive(|c: char| !c.is_alphanumeric())
        .map(|token| {
            let word = token.trim_end_matches(|c: char| !c.is_alphanumeric());
            let rest = &token[word.len()..];
            let word = if word == x {
                y
            } else if word == y {
                x
            } else {
                word
            };
            format!("{word}{rest}")
        })
        .collect()
}

/// One seeded case: Σ texts and φ text.
fn corpus_case(seed: u64) -> (Vec<String>, String) {
    let mut rng = SplitMix(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5eed);
    // A permuted pool, so label interning order differs across cases.
    let mut pool: Vec<&str> = NAMES.to_vec();
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i as u64 + 1) as usize);
    }
    pool.truncate(1 + rng.below(NAMES.len() as u64) as usize);
    let mut sigma: Vec<String> = Vec::new();
    for _ in 0..rng.below(9) {
        match rng.below(5) {
            // Duplicate an earlier constraint.
            0 if !sigma.is_empty() => {
                let i = rng.below(sigma.len() as u64) as usize;
                sigma.push(sigma[i].clone());
            }
            // Add the label-swapped twin of an earlier constraint.
            1 if !sigma.is_empty() && pool.len() >= 2 => {
                let i = rng.below(sigma.len() as u64) as usize;
                let (x, y) = (pool[0], pool[1]);
                sigma.push(swapped(&sigma[i], x, y));
            }
            _ => sigma.push(constraint(&mut rng, &pool)),
        }
    }
    let phi = constraint(&mut rng, &pool);
    (sigma, phi)
}

fn id_of(context: &str, sigma: &[String], phi: &str) -> u64 {
    let prepared =
        prepare_job(context, sigma, phi, &mut LabelInterner::new()).expect("case parses");
    snapshot_id(&canonicalize(&prepared.context, &prepared.sigma, &prepared.phi).key)
}

/// Every case's current snapshot id, in golden-file order.
fn listing() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for line in EXAMPLE_JOBS.lines().filter(|l| !l.trim().is_empty()) {
        let job = Job::from_json_line(line).expect("example job parses");
        let id = id_of(&job.context, &job.sigma, &job.phi);
        out.push((job.id, format!("{id:016x}")));
    }
    for seed in 0..CORPUS_CASES {
        let (sigma, phi) = corpus_case(seed);
        let id = id_of("", &sigma, &phi);
        out.push((format!("corpus-{seed:03}"), format!("{id:016x}")));
    }
    out
}

#[test]
fn corpus_covers_the_tie_shapes() {
    let cases: Vec<(Vec<String>, String)> = (0..CORPUS_CASES).map(corpus_case).collect();
    let has = |pred: &dyn Fn(&[String]) -> bool| cases.iter().any(|(s, _)| pred(s));
    assert!(
        has(&|s| (1..s.len()).any(|i| s[..i].contains(&s[i]))),
        "duplicates"
    );
    let backward_with_prefix = |c: &String| {
        c.split_once(':')
            .is_some_and(|(prefix, body)| prefix.trim() != "()" && body.contains("<-"))
    };
    assert!(
        has(&|s| s.iter().any(backward_with_prefix)),
        "backward with prefix"
    );
    let twins = |d: &String, c: &String| {
        d != c
            && NAMES
                .iter()
                .any(|x| NAMES.iter().any(|y| swapped(d, x, y) == *c))
    };
    assert!(
        has(&|s| (1..s.len()).any(|i| s[..i].iter().any(|d| twins(d, &s[i])))),
        "symmetric ties"
    );
}

#[test]
fn snapshot_ids_match_the_golden_file() {
    let golden: Vec<(String, String)> = GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (case, id) = l.split_once(' ').expect("`<case> <id>` line");
            (case.to_owned(), id.to_owned())
        })
        .collect();
    let current = listing();
    assert_eq!(golden.len(), current.len(), "golden file covers every case");
    for (want, got) in golden.iter().zip(&current) {
        assert_eq!(want, got, "snapshot id drifted for case {}", want.0);
    }
}
