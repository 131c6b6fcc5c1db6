//! Seeded inputs: documents in the three standard shapes, the pattern
//! pool, and the reference answers every reply is checked against.
//!
//! References come from the local fused engine (`select_bytes`) and are
//! cross-checked once against the DOM oracle before anything is timed.

use std::sync::Arc;

use st_automata::{compile_regex, Alphabet, Tag};
use st_core::engine::FusedQuery;
use st_core::planner::Strategy;
use st_core::Query;
use st_trees::{generate, markup_encode, oracle, xml, Tree, TreeBuilder};

use crate::util::Rng;

/// Bytes per node of the pure tag skeleton over one-letter labels
/// (`<a></a>`).
pub const BYTES_PER_NODE: usize = 7;

/// The three standard shapes: depth bias of `random_attachment`.
pub const SHAPES: [(&str, f64); 3] = [("bushy", 0.05), ("mixed", 0.5), ("deep", 0.95)];

/// Γ = {a, b, c}, in the comma-separated form the wire carries.
pub const ALPHABET_CSV: &str = "a,b,c";

pub fn gamma() -> Alphabet {
    Alphabet::of_chars("abc")
}

pub struct Doc {
    pub shape: &'static str,
    pub bytes: Arc<Vec<u8>>,
    pub nodes: usize,
    pub depth: u32,
}

pub struct Pattern {
    pub text: String,
    pub class: Strategy,
    pub query: Arc<Query>,
}

impl Pattern {
    pub fn fused(&self) -> &FusedQuery {
        self.query.fused()
    }
}

pub fn class_slug(s: Strategy) -> &'static str {
    match s {
        Strategy::Registerless => "registerless",
        Strategy::Stackless => "stackless",
        Strategy::Stack => "stack",
    }
}

/// Documents plus patterns plus `refs[doc][pattern]`, the reference
/// match lists (document-order node ids).
pub struct Corpus {
    pub docs: Vec<Doc>,
    pub patterns: Vec<Pattern>,
    pub refs: Vec<Vec<Arc<Vec<usize>>>>,
}

impl Corpus {
    /// Generates `per_shape` documents of each shape with `nodes` nodes,
    /// computes every reference, and cross-checks each against the DOM
    /// oracle.
    pub fn build(rng: &Rng, per_shape: usize, nodes: usize, patterns: Vec<Pattern>) -> Corpus {
        let g = gamma();
        let dfas: Vec<_> = patterns
            .iter()
            .map(|p| compile_regex(&p.text, &g).expect("pool patterns compile"))
            .collect();
        let mut docs = Vec::new();
        let mut refs = Vec::new();
        let mut seeds = rng.fork(0xD0C5);
        for _ in 0..per_shape {
            for (shape, bias) in SHAPES {
                let tree = rooted_at_a(&generate::random_attachment(
                    &g,
                    nodes - 1,
                    bias,
                    seeds.next_u64(),
                ));
                let bytes = xml::write_document(&tree, &g).into_bytes();
                let mut row = Vec::with_capacity(patterns.len());
                for (p, dfa) in patterns.iter().zip(&dfas) {
                    let local = p
                        .fused()
                        .select_bytes(&bytes)
                        .expect("generated XML parses");
                    let dom: Vec<usize> = oracle::select(&tree, dfa)
                        .into_iter()
                        .map(|v| v.index())
                        .collect();
                    assert_eq!(
                        local, dom,
                        "fused select disagrees with the DOM oracle on {shape} / {}",
                        p.text
                    );
                    row.push(Arc::new(local));
                }
                docs.push(Doc {
                    shape,
                    bytes: Arc::new(bytes),
                    nodes: tree.len(),
                    depth: tree.height(),
                });
                refs.push(row);
            }
        }
        Corpus {
            docs,
            patterns,
            refs,
        }
    }

    pub fn max_depth(&self) -> usize {
        self.docs
            .iter()
            .map(|d| d.depth as usize)
            .max()
            .unwrap_or(0)
    }

    pub fn max_bytes(&self) -> usize {
        self.docs.iter().map(|d| d.bytes.len()).max().unwrap_or(0)
    }

    /// The first pattern of each engine class, in class order.
    pub fn one_per_class(&self) -> Vec<usize> {
        [Strategy::Registerless, Strategy::Stackless, Strategy::Stack]
            .iter()
            .filter_map(|c| self.patterns.iter().position(|p| p.class == *c))
            .collect()
    }

    /// Deliberately corrupts one reference (the mutation check of the
    /// self-test): every later comparison against it must fail.
    pub fn corrupt_reference(&mut self, doc: usize, pattern: usize) {
        let mut bad = (*self.refs[doc][pattern]).clone();
        match bad.pop() {
            Some(_) => {}
            None => bad.push(usize::MAX),
        }
        self.refs[doc][pattern] = Arc::new(bad);
    }
}

/// The generated tree under a fixed `a` root.  `random_attachment`
/// draws the root label like any other, and root-anchored patterns such
/// as `a.*b` select about a third of the nodes under an `a` root and
/// none under the others; a fixed root keeps the work of one query
/// comparable from seed to seed.
fn rooted_at_a(tree: &Tree) -> Tree {
    let a = gamma().letter("a").expect("a is in Γ");
    let mut b = TreeBuilder::new();
    b.open(a);
    for tag in markup_encode(tree) {
        match tag {
            Tag::Open(l) => {
                b.open(l);
            }
            Tag::Close(_) => {
                b.close().expect("balanced");
            }
        }
    }
    b.close().expect("balanced");
    b.finish().expect("well-formed")
}

pub fn compile(text: &str) -> Pattern {
    let query = Query::compile(text, &gamma()).expect("pattern compiles");
    Pattern {
        text: text.to_owned(),
        class: query.strategy(),
        query: Arc::new(query),
    }
}

/// The three fixed pool-workload queries, one per engine class.
pub fn class_patterns() -> Vec<Pattern> {
    let out: Vec<Pattern> = ["a.*b", ".*a.*b", ".*ab"]
        .iter()
        .map(|p| compile(p))
        .collect();
    assert_eq!(
        out.iter().map(|p| p.class).collect::<Vec<_>>(),
        [Strategy::Registerless, Strategy::Stackless, Strategy::Stack],
        "the pool queries must cover the three engine classes"
    );
    out
}

/// A seeded pool of `n` distinct patterns over Γ covering all three
/// engine classes in equal shares, in rank order (rank 0 is the most
/// popular under the Zipf draw).  Ranks cycle through the classes, so
/// every seed puts the same class mix at the top of the popularity
/// order and only the patterns themselves vary.
pub fn pattern_pool(rng: &Rng, n: usize) -> Vec<Pattern> {
    const ATOMS: [&str; 7] = ["a", "b", "c", ".", "[ab]", "[bc]", "[ac]"];
    let mut r = rng.fork(0x9A77);
    let per_class = n.div_ceil(3);
    let mut buckets: [Vec<Pattern>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut seen = std::collections::HashSet::new();
    let mut tries = 0;
    while buckets.iter().map(Vec::len).sum::<usize>() < n {
        tries += 1;
        assert!(tries < 200_000, "pattern generator cannot fill the pool");
        let mut text = String::new();
        if r.below(2) == 0 {
            text.push_str(".*");
        }
        for i in 0..1 + r.below(3) {
            if i > 0 && r.below(2) == 0 {
                text.push_str(".*");
            }
            text.push_str(ATOMS[r.below(ATOMS.len())]);
        }
        if r.below(4) == 0 {
            text.push_str(".*");
        }
        if !seen.insert(text.clone()) {
            continue;
        }
        let p = compile(&text);
        let b = match p.class {
            Strategy::Registerless => 0,
            Strategy::Stackless => 1,
            Strategy::Stack => 2,
        };
        let total: usize = buckets.iter().map(Vec::len).sum();
        if buckets[b].len() < per_class && total < n {
            buckets[b].push(p);
        }
    }
    let mut pool = Vec::with_capacity(n);
    let mut buckets = buckets.map(|b| b.into_iter());
    while pool.len() < n {
        pool.extend(buckets.iter_mut().filter_map(Iterator::next));
    }
    pool.truncate(n);
    pool
}
