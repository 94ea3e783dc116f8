//! A xapian-like search engine serving one leaf node.
//!
//! Mirrors the structure of a search leaf: an inverted index mapping terms
//! to posting lists, per-document metadata, and document text for snippet
//! generation. A query stems its term, probes the term dictionary, streams
//! the posting list while scoring (with data-dependent top-k heap
//! branches), and then touches the top documents' content. The
//! dataset-generator parameters (Table III) are the Zipf skew of the query
//! distribution, the term-frequency cap on which terms are queried, and the
//! average document length.

use crate::dataset::SizeDist;
use crate::engine::{App, CodeLayout, CodeRegion, ServicePaths};
use datamime_sim::{Addr, Machine, Segment, SimAlloc};
use datamime_stats::dist::{sample_size, Zipf};
use datamime_stats::Rng;

/// Dataset configuration for [`SearchEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Number of indexed documents.
    pub n_docs: usize,
    /// Number of distinct terms in the dictionary.
    pub n_terms: usize,
    /// Document length distribution (bytes, clamped to `[64, 64 KiB]`).
    pub doc_length: SizeDist,
    /// Zipf skew of the query-term distribution.
    pub query_skew: f64,
    /// Fraction of the most frequent terms excluded from queries
    /// (`0` queries everything; `0.01` skips the top 1% of terms). This is
    /// the "term frequency" upper-limit knob of Table III.
    pub term_freq_cap: f64,
    /// Seed for index construction.
    pub seed: u64,
}

impl SearchConfig {
    /// The paper's target workload: TailBench's 2013 English-Wikipedia
    /// index with a Zipfian query distribution — long-ish, log-normal
    /// document lengths and no term cap.
    pub fn wikipedia_target() -> Self {
        SearchConfig {
            n_docs: 40_000,
            n_terms: 24_000,
            doc_length: SizeDist::LogNormal {
                mu: 7.2,
                sigma: 0.8,
            }, // ~1.8 KB median
            query_skew: 0.9,
            term_freq_cap: 0.0,
            seed: 0x3148,
        }
    }

    /// The alternative public dataset of Fig. 1/3: an index built from a
    /// StackOverflow dump — shorter posts, flatter query mix.
    pub fn stackoverflow_public() -> Self {
        SearchConfig {
            n_docs: 60_000,
            n_terms: 24_000,
            doc_length: SizeDist::Normal {
                mean: 600.0,
                std: 250.0,
            },
            query_skew: 0.5,
            term_freq_cap: 0.0,
            seed: 0x50F,
        }
    }
}

const POSTING_BYTES: u64 = 8; // (doc id, term frequency)
/// Fraction of queries with two terms (AND semantics): the engine streams
/// both posting lists and merge-intersects them.
const MULTI_TERM_FRACTION: f64 = 0.3;
const DOC_META_BYTES: u64 = 48;
const DICT_ENTRY_BYTES: u64 = 32;
const TOP_K: usize = 10;
const MIN_DOC: u64 = 64;
const MAX_DOC: u64 = 64 * 1024;

#[derive(Debug, Clone, Copy)]
struct Doc {
    content: Addr,
    bytes: u64,
}

#[derive(Debug, Clone, Copy)]
struct Term {
    postings: Addr,
    len: u32,
}

/// The search-engine leaf (see module docs).
#[derive(Debug, Clone)]
pub struct SearchEngine {
    cfg: SearchConfig,
    docs: Vec<Doc>,
    terms: Vec<Term>,
    dict: Addr,
    doc_meta: Addr,
    query_dist: Zipf,
    /// First queryable term rank (frequency cap excludes `0..first`).
    first_rank: usize,
    footprint: u64,
    parse: CodeRegion,
    stem: CodeRegion,
    dict_probe: CodeRegion,
    score_loop: CodeRegion,
    heap_code: CodeRegion,
    snippet: CodeRegion,
    respond: CodeRegion,
    aux_paths: ServicePaths,
}

impl SearchEngine {
    /// Builds the index from a dataset configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no documents/terms,
    /// invalid skew, or a cap that excludes every term).
    pub fn new(cfg: SearchConfig) -> Self {
        assert!(cfg.n_docs > 0 && cfg.n_terms > 0, "index cannot be empty");
        assert!(
            (0.0..1.0).contains(&cfg.term_freq_cap),
            "cap must be in [0,1)"
        );
        let mut rng = Rng::with_seed(cfg.seed);
        let mut alloc = SimAlloc::new();
        let mut layout = CodeLayout::new(&mut alloc);
        let parse = layout.region(4 * 1024);
        let stem = layout.region(6 * 1024); // stemmer tables are code+data heavy
        let dict_probe = layout.region(2 * 1024);
        let score_loop = layout.region_with_ilp(1536, 2.2);
        let heap_code = layout.region(1024);
        let snippet = layout.region(5 * 1024);
        let respond = layout.region(4 * 1024);
        let aux_paths = ServicePaths::new(&mut layout, 10, 2 * 1024);

        let dict = alloc
            .alloc(Segment::Heap, cfg.n_terms as u64 * DICT_ENTRY_BYTES)
            .expect("dictionary");
        let doc_meta = alloc
            .alloc(Segment::Heap, cfg.n_docs as u64 * DOC_META_BYTES)
            .expect("doc metadata");

        let mut footprint =
            cfg.n_terms as u64 * DICT_ENTRY_BYTES + cfg.n_docs as u64 * DOC_META_BYTES;

        let doc_length = cfg.doc_length.build().expect("invalid size distribution");
        let mut docs = Vec::with_capacity(cfg.n_docs);
        for _ in 0..cfg.n_docs {
            let bytes = sample_size(doc_length.as_ref(), &mut rng, MIN_DOC, MAX_DOC);
            let content = alloc.alloc(Segment::Heap, bytes).expect("doc content");
            docs.push(Doc { content, bytes });
            footprint += bytes;
        }

        // Term rank r appears in ~n_docs * 0.4 / (r+1)^0.7 documents: the
        // classic head-heavy document-frequency curve of text corpora.
        let mut terms = Vec::with_capacity(cfg.n_terms);
        for r in 0..cfg.n_terms {
            let df = (cfg.n_docs as f64 * 0.4 / ((r + 1) as f64).powf(0.7)).ceil() as u32;
            let len = df.clamp(1, cfg.n_docs as u32);
            let postings = alloc
                .alloc(Segment::Heap, u64::from(len) * POSTING_BYTES)
                .expect("posting list");
            terms.push(Term { postings, len });
            footprint += u64::from(len) * POSTING_BYTES;
        }

        let first_rank = ((cfg.n_terms as f64) * cfg.term_freq_cap) as usize;
        assert!(
            first_rank < cfg.n_terms,
            "frequency cap excludes every term"
        );
        let query_dist =
            Zipf::new(cfg.n_terms - first_rank, cfg.query_skew).expect("invalid query skew");

        SearchEngine {
            cfg,
            docs,
            terms,
            dict,
            doc_meta,
            query_dist,
            first_rank,
            footprint,
            parse,
            stem,
            dict_probe,
            score_loop,
            heap_code,
            snippet,
            respond,
            aux_paths,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.cfg
    }
}

impl App for SearchEngine {
    fn name(&self) -> &str {
        "xapian"
    }

    fn serve(&mut self, machine: &mut Machine, rng: &mut Rng) {
        self.parse.call(machine, 600);
        self.stem.call(machine, 900);
        self.aux_paths.touch(machine, rng, 2, 300);

        let rank = self.first_rank + self.query_dist.sample_rank(rng);
        let term = self.terms[rank];
        machine.load(self.dict + rank as u64 * DICT_ENTRY_BYTES, DICT_ENTRY_BYTES);
        self.dict_probe.call(machine, 300);

        // Multi-term queries intersect a second posting list (AND
        // semantics): extra dictionary probe, merge branches per chunk.
        let second = if rng.bool(MULTI_TERM_FRACTION) {
            let r2 = self.first_rank + self.query_dist.sample_rank(rng);
            machine.load(self.dict + r2 as u64 * DICT_ENTRY_BYTES, DICT_ENTRY_BYTES);
            self.dict_probe.call(machine, 250);
            self.stem.call_span(machine, 2048, 1024, 400);
            Some(self.terms[r2])
        } else {
            None
        };

        // Stream the posting list, scoring each posting; every ~8 postings
        // a candidate challenges the top-k heap (data-dependent branch).
        let len = u64::from(term.len);
        let mut streamed = 0u64;
        let mut streamed2 = 0u64;
        while streamed < len {
            let chunk = (len - streamed).min(64); // 512 B of postings
            machine.load(
                term.postings + streamed * POSTING_BYTES,
                chunk * POSTING_BYTES,
            );
            self.score_loop.call(machine, 6 * chunk);
            if let Some(t2) = second {
                // Advance the second list in lockstep (galloping merge).
                let len2 = u64::from(t2.len);
                if streamed2 < len2 {
                    let chunk2 = (len2 - streamed2).min(chunk);
                    machine.load(
                        t2.postings + streamed2 * POSTING_BYTES,
                        chunk2 * POSTING_BYTES,
                    );
                    streamed2 += chunk2;
                    // Merge comparisons: doc-id order is data-dependent.
                    for c in 0..(chunk2 / 8).max(1) {
                        self.score_loop.branch(machine, 256 + c * 4, rng.bool(0.5));
                    }
                    self.score_loop.call(machine, 3 * chunk2);
                }
            }
            for c in 0..chunk / 8 {
                let candidate_wins = rng.bool(0.2);
                self.heap_code.branch(machine, 64 + c * 4, candidate_wins);
                if candidate_wins {
                    self.heap_code.call(machine, 60);
                }
            }
            streamed += chunk;
        }

        // Touch the metadata + a snippet of content for the top documents.
        let hits = (term.len as usize).min(TOP_K);
        for h in 0..hits {
            // Scatter across the postings' documents.
            let doc_id = (rank * 2654435761 + h * 40503) % self.docs.len();
            machine.load(
                self.doc_meta + doc_id as u64 * DOC_META_BYTES,
                DOC_META_BYTES,
            );
            let doc = self.docs[doc_id];
            let snippet_bytes = doc.bytes.min(1024);
            machine.load(doc.content, snippet_bytes);
            self.snippet.call(machine, 200 + snippet_bytes / 4);
        }

        self.respond.call(machine, 800);
    }

    fn fork(&self) -> Box<dyn App> {
        Box::new(self.clone())
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamime_sim::MachineConfig;

    fn run(cfg: SearchConfig, queries: usize) -> Machine {
        let mut engine = SearchEngine::new(cfg);
        let mut machine = Machine::new(MachineConfig::broadwell());
        let mut rng = Rng::with_seed(21);
        for _ in 0..queries {
            engine.serve(&mut machine, &mut rng);
        }
        machine
    }

    fn small(n_docs: usize) -> SearchConfig {
        SearchConfig {
            n_docs,
            n_terms: 4_000,
            ..SearchConfig::wikipedia_target()
        }
    }

    #[test]
    fn queries_execute() {
        let m = run(small(2_000), 300);
        assert!(m.counters().instructions > 300 * 2000);
        assert!(m.counters().branch_mispredicts > 0);
    }

    #[test]
    fn skewed_queries_cache_better() {
        let flat = run(
            SearchConfig {
                query_skew: 0.0,
                ..small(20_000)
            },
            600,
        );
        let skewed = run(
            SearchConfig {
                query_skew: 1.3,
                ..small(20_000)
            },
            600,
        );
        let f = flat.counters().mpki(flat.counters().llc_misses);
        let s = skewed.counters().mpki(skewed.counters().llc_misses);
        assert!(s < f, "skewed {s} vs flat {f}");
    }

    #[test]
    fn term_cap_skips_hot_terms_and_shortens_postings() {
        let uncapped = run(
            SearchConfig {
                term_freq_cap: 0.0,
                ..small(20_000)
            },
            400,
        );
        let capped = run(
            SearchConfig {
                term_freq_cap: 0.3,
                ..small(20_000)
            },
            400,
        );
        // Capped queries avoid the long head posting lists, so they stream
        // fewer postings and retire fewer instructions per query.
        assert!(capped.counters().instructions < uncapped.counters().instructions);
    }

    #[test]
    fn longer_documents_grow_footprint() {
        let short = SearchEngine::new(SearchConfig {
            doc_length: SizeDist::Fixed(128.0),
            ..small(5_000)
        });
        let long = SearchEngine::new(SearchConfig {
            doc_length: SizeDist::Fixed(8192.0),
            ..small(5_000)
        });
        assert!(long.footprint_bytes() > short.footprint_bytes() * 4);
    }

    #[test]
    #[should_panic(expected = "cap must be in [0,1)")]
    fn full_cap_panics() {
        SearchEngine::new(SearchConfig {
            term_freq_cap: 1.0,
            ..small(100)
        });
    }

    #[test]
    fn deterministic() {
        let a = run(small(2_000), 100);
        let b = run(small(2_000), 100);
        assert_eq!(a.counters(), b.counters());
    }
}
