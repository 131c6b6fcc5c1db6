//! Seeded, structure-aware case generation.
//!
//! Every case is derived from a single `(seed, iteration)` pair through
//! the vendored SplitMix64 generator, so a corpus filename alone is
//! enough to regenerate the unshrunk input.  Generation is biased toward
//! the shapes the paper's constructions are sensitive to: deep chains
//! (register pressure), wide fans (sibling resets), fooling-pair trees
//! from `st_core::fooling` (the Lemma 3.12 gadgets), decorated renderings
//! with attributes/comments/text (lexer stress), near-boundary chunk
//! sizes, and malformed-adjacent byte mutations.

use rand::prelude::*;
use st_automata::{compile_regex, Alphabet, Dfa, Letter, Tag};
use st_core::{fooling, Analysis};
use st_trees::{encode::markup_encode, generate, xml, Tree};

use crate::pattern::Pat;

/// Tunables for the generator.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Upper bound on generated tree size (nodes).
    pub max_nodes: usize,
    /// Upper bound on chain/comb depth.
    pub max_depth: usize,
    /// Fault-injection mode: *every* case gets a malformed-adjacent byte
    /// mutation (truncation, corruption, metacharacter insertion, …)
    /// instead of the default 25% of cases.  Used by the CI
    /// fault-injection smoke job.
    pub faults: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_nodes: 80,
            max_depth: 24,
            faults: false,
        }
    }
}

/// One self-contained differential test case.  Everything an engine needs
/// is here; the corpus persists exactly these four fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Case {
    /// Query pattern in `compile_regex` syntax.
    pub pattern: String,
    /// Alphabet characters, e.g. `"ab"`.
    pub alphabet: String,
    /// Raw document bytes fed to the byte-level engines.
    pub doc: Vec<u8>,
    /// Chunk sizes exercised on the data-parallel path (cuts every `s`
    /// bytes, capped; see [`crate::engines::cuts_for`]).
    pub chunk_sizes: Vec<usize>,
}

/// The per-iteration RNG: reproducible from `(seed, iter)` alone, so a
/// corpus filename identifies its generating stream without replaying
/// earlier iterations.
pub fn case_rng(seed: u64, iter: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ iter.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Draws one case (and its shrinkable pattern AST) from `rng`.
pub fn gen_case(rng: &mut StdRng, cfg: &GenConfig) -> (Case, Pat) {
    let chars_str = match rng.gen_range(0u8..4) {
        0 => "ab",
        1 | 2 => "abc",
        _ => "abcd",
    };
    let g = Alphabet::of_chars(chars_str);
    let chars: Vec<char> = chars_str.chars().collect();

    let (pat, dfa) = loop {
        let p = Pat::random(rng, &chars, 3);
        if let Ok(d) = compile_regex(&p.render(), &g) {
            break (p, d);
        }
    };

    let tree = gen_tree(rng, cfg, &g, &dfa);
    let mut doc = render_doc(rng, &tree, &g);
    if cfg.faults || rng.gen_bool(0.25) {
        mutate_bytes(rng, &mut doc);
    }
    let chunk_sizes = pick_chunk_sizes(rng, doc.len());

    (
        Case {
            pattern: pat.render(),
            alphabet: chars_str.to_owned(),
            doc,
            chunk_sizes,
        },
        pat,
    )
}

/// Draws a tree shape biased toward the constructions under test.
fn gen_tree(rng: &mut StdRng, cfg: &GenConfig, g: &Alphabet, dfa: &Dfa) -> Tree {
    let ls: Vec<Letter> = g.letters().collect();
    let pick = |rng: &mut StdRng| ls[rng.gen_range(0..ls.len())];
    let max_nodes = cfg.max_nodes.max(4);
    let max_depth = cfg.max_depth.max(2);
    match rng.gen_range(0u8..12) {
        // Deep chain: register/depth pressure.
        0 | 1 => {
            let depth = rng.gen_range(1..=max_depth);
            let labels: Vec<Letter> = (0..depth).map(|_| pick(rng)).collect();
            generate::chain(&labels, depth)
        }
        // Wide fan: sibling-reset pressure.
        2 => generate::wide(pick(rng), pick(rng), rng.gen_range(1..max_nodes)),
        // Comb: alternating descent and siblings.
        3 => generate::comb(
            pick(rng),
            pick(rng),
            rng.gen_range(1..=max_depth.min(16)),
            rng.gen_range(1..=4),
        ),
        // Small perfect tree.
        4 => generate::perfect(g, rng.gen_range(2usize..=3), rng.gen_range(1u32..=3)),
        // Record-shaped document.
        5 => generate::document_like(g, rng.gen_range(1..=6), rng.gen_range(1..=5), rng.gen()),
        // K_n encodings (triple-siblings territory).
        6 if ls.len() >= 3 => {
            generate::random_kn(ls[0], ls[1], ls[2], rng.gen_range(3usize..=7), rng.gen())
        }
        // Lemma 3.12 fooling pair against a small DFA bound, when the
        // pattern's language is not E-flat.
        7 => {
            let analysis = Analysis::new(dfa);
            match fooling::eflat_fooling_pair(&analysis, rng.gen_range(1usize..=3)) {
                Some(pair) => {
                    if rng.gen_bool(0.5) {
                        pair.original
                    } else {
                        pair.pumped
                    }
                }
                None => {
                    generate::random_attachment(g, rng.gen_range(4..max_nodes), 0.55, rng.gen())
                }
            }
        }
        // General random attachment at several depth biases.
        _ => {
            let bias = [0.15, 0.4, 0.6, 0.85][rng.gen_range(0usize..4)];
            generate::random_attachment(g, rng.gen_range(2..max_nodes), bias, rng.gen())
        }
    }
}

/// Renders a tree to bytes: sometimes the plain skeleton, sometimes a
/// decorated document with the noise the scanner must skip.
pub(crate) fn render_doc(rng: &mut StdRng, tree: &Tree, g: &Alphabet) -> Vec<u8> {
    if rng.gen_bool(0.4) {
        xml::write_document(tree, g).into_bytes()
    } else {
        decorate(&markup_encode(tree), g, rng)
    }
}

/// Renders a tag stream with scanner noise: an optional XML declaration,
/// attributes in both quote styles, comments, text runs, whitespace, and
/// self-closing leaves.
pub fn decorate(tags: &[Tag], g: &Alphabet, rng: &mut StdRng) -> Vec<u8> {
    let mut out = Vec::new();
    if rng.gen_bool(0.3) {
        out.extend_from_slice(b"<?xml version=\"1.0\"?>");
    }
    let mut i = 0;
    while i < tags.len() {
        match tags[i] {
            Tag::Open(l) => {
                let leaf = matches!(tags.get(i + 1), Some(Tag::Close(l2)) if *l2 == l);
                out.push(b'<');
                out.extend_from_slice(g.symbol(l).as_bytes());
                match rng.gen_range(0u8..6) {
                    0 => out.extend_from_slice(b" id=\"x<y>\""),
                    1 => out.extend_from_slice(b" q='a/b'"),
                    2 => out.extend_from_slice(b" a=1 b = \"2\""),
                    3 => {
                        out.extend_from_slice(b" k=\"");
                        for _ in 0..rng.gen_range(0usize..12) {
                            out.push(b"abc <>/!x"[rng.gen_range(0usize..9)]);
                        }
                        out.push(b'"');
                    }
                    _ => {}
                }
                if leaf && rng.gen_bool(0.5) {
                    if rng.gen_bool(0.3) {
                        out.push(b' ');
                    }
                    out.extend_from_slice(b"/>");
                    i += 2;
                    continue;
                }
                out.push(b'>');
            }
            Tag::Close(l) => {
                out.extend_from_slice(b"</");
                out.extend_from_slice(g.symbol(l).as_bytes());
                if rng.gen_bool(0.2) {
                    out.push(b' ');
                }
                out.push(b'>');
            }
        }
        match rng.gen_range(0u8..6) {
            0 => out.extend_from_slice(b"some text"),
            1 => out.extend_from_slice(b"<!-- a <b> comment -->"),
            2 => out.extend_from_slice(b"  \n"),
            _ => {}
        }
        i += 1;
    }
    out
}

/// Applies one malformed-adjacent byte mutation in place: truncation,
/// deletion, metacharacter insertion, label corruption, duplication, or a
/// byte swap.  The result usually still *almost* tokenizes, which is
/// exactly the region where error paths diverge.
pub fn mutate_bytes(rng: &mut StdRng, doc: &mut Vec<u8>) {
    if doc.is_empty() {
        return;
    }
    match rng.gen_range(0u8..6) {
        0 => {
            let at = rng.gen_range(0..doc.len());
            doc.truncate(at);
        }
        1 => {
            let at = rng.gen_range(0..doc.len());
            doc.remove(at);
        }
        2 => {
            const META: &[u8] = b"<>/\"'!=z ";
            let at = rng.gen_range(0..=doc.len());
            doc.insert(at, META[rng.gen_range(0..META.len())]);
        }
        3 => {
            // Corrupt a name byte: unknown label, mismatched close, or a
            // still-valid rename, depending on where it lands.
            if let Some(at) = (0..doc.len())
                .map(|_| rng.gen_range(0..doc.len()))
                .find(|&p| doc[p].is_ascii_lowercase())
            {
                doc[at] = if rng.gen_bool(0.5) {
                    b'z'
                } else {
                    b'a' + rng.gen_range(0u8..4)
                };
            }
        }
        4 => {
            let start = rng.gen_range(0..doc.len());
            let end = (start + rng.gen_range(1usize..=8)).min(doc.len());
            let dup: Vec<u8> = doc[start..end].to_vec();
            let at = rng.gen_range(0..=doc.len());
            for (k, b) in dup.into_iter().enumerate() {
                doc.insert(at + k, b);
            }
        }
        _ => {
            let a = rng.gen_range(0..doc.len());
            let b = rng.gen_range(0..doc.len());
            doc.swap(a, b);
        }
    }
}

/// Picks 1–3 chunk sizes, biased toward the pathological low end and
/// near-length boundaries.
fn pick_chunk_sizes(rng: &mut StdRng, doc_len: usize) -> Vec<usize> {
    if doc_len < 2 {
        return Vec::new();
    }
    const BASE: &[usize] = &[1, 2, 3, 5, 7, 16, 64, 257, 1024];
    let mut sizes = Vec::new();
    for _ in 0..rng.gen_range(1usize..=3) {
        let s = match rng.gen_range(0u8..4) {
            0 => doc_len - 1,
            1 => doc_len / 2 + 1,
            _ => BASE[rng.gen_range(0..BASE.len())],
        };
        if s > 0 && s < doc_len && !sizes.contains(&s) {
            sizes.push(s);
        }
    }
    sizes.sort_unstable();
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = GenConfig::default();
        for iter in 0..50u64 {
            let (a, _) = gen_case(&mut case_rng(42, iter), &cfg);
            let (b, _) = gen_case(&mut case_rng(42, iter), &cfg);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn generated_docs_are_nonempty_mostly() {
        let cfg = GenConfig::default();
        let nonempty = (0..100u64)
            .filter(|&i| !gen_case(&mut case_rng(7, i), &cfg).0.doc.is_empty())
            .count();
        assert!(nonempty > 80, "only {nonempty}/100 nonempty docs");
    }
}
