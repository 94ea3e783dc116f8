//! Property tests for `Manifest::open` on a hostile `manifest.json`: the
//! daemon reads the snapshot back on every start, so whatever bytes a
//! crash, a bad disk or a hand edit leave there must be met fail-closed.
//!
//! Three input families:
//!
//! 1. seeded arbitrary bytes;
//! 2. every char-boundary truncation of a snapshot written by a short
//!    operation sequence;
//! 3. seeded mutants of that snapshot (byte edits, deletions,
//!    duplications, and insertions of out-of-range numbers, wrong types
//!    and stray keys).
//!
//! For each: open never panics and takes under a second; it either
//! refuses with an error naming the file, or returns the table the text
//! holds in full — the model's table for a truncation, the strict reading
//! of the text below for a mutant — never a partial one. A table open
//! accepted can also be published again without a panic.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use datamime::servectl::JobState;
use datamime_runtime::json::Json;
use datamime_serve::Manifest;

/// A scratch state root per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "datamime-manifest-hostile-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// SplitMix64: a fixed-seed generator, so a failure names a reproducible
/// case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A job row as the tests see it.
#[derive(Debug, Clone, PartialEq)]
struct Job {
    spec: String,
    state: JobState,
    best_error: Option<u64>,
    best_unit: Vec<u64>,
    detail: Option<String>,
}

/// The whole table: jobs, pending GC intents, GC count, high-water job
/// number. Floats are compared as bits.
#[derive(Debug, Clone, PartialEq, Default)]
struct Table {
    jobs: BTreeMap<String, Job>,
    pending_gc: Vec<String>,
    gcd: u64,
    max_job: u64,
}

/// What `Manifest::open` returned, as a [`Table`].
fn opened(m: &Manifest, jobs: &BTreeMap<String, datamime_serve::JobEntry>) -> Table {
    Table {
        jobs: jobs
            .iter()
            .map(|(id, e)| {
                (
                    id.clone(),
                    Job {
                        spec: e.spec.clone(),
                        state: e.state,
                        best_error: e.best_error.map(f64::to_bits),
                        best_unit: e.best_unit.iter().map(|u| u.to_bits()).collect(),
                        detail: e.detail.clone(),
                    },
                )
            })
            .collect(),
        pending_gc: m.take_pending_gc(),
        gcd: m.gc_stats().gcd_jobs,
        max_job: m.next_job_number() - 1,
    }
}

/// The strict reading of a snapshot, written against the documented
/// format rather than the implementation: the five top-level fields and
/// no others, each job's `job`, `spec`, `state` and `best_unit` present,
/// `best_error` and `detail` optional, no other key, no key twice, no job
/// id twice, finite numbers, and counts a JSON number holds exactly.
/// `None` means the text does not hold one whole table.
fn strict(text: &str) -> Option<Table> {
    fn fields<'a>(v: &'a Json, known: &[&str]) -> Option<BTreeMap<&'a str, &'a Json>> {
        let Json::Obj(pairs) = v else { return None };
        let mut out = BTreeMap::new();
        for (k, v) in pairs {
            if !known.contains(&k.as_str()) || out.insert(k.as_str(), v).is_some() {
                return None;
            }
        }
        Some(out)
    }
    let count = |v: &Json| -> Option<u64> {
        let n = v.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0).then_some(n as u64)
    };
    let finite = |v: &Json| v.as_f64().filter(|n| n.is_finite()).map(f64::to_bits);
    let top = Json::parse(text.trim()).ok()?;
    let top = fields(&top, &["revision", "gcd", "max_job", "pending_gc", "jobs"])?;
    if top.len() != 5 || count(top["revision"])? != 3 {
        return None;
    }
    let mut table = Table {
        gcd: count(top["gcd"])?,
        max_job: count(top["max_job"])?,
        ..Table::default()
    };
    for p in top["pending_gc"].as_arr()? {
        table.pending_gc.push(p.as_str()?.to_string());
    }
    for j in top["jobs"].as_arr()? {
        let f = fields(
            j,
            &["job", "spec", "state", "best_error", "best_unit", "detail"],
        )?;
        let job = Job {
            spec: f.get("spec")?.as_str()?.to_string(),
            state: JobState::parse(f.get("state")?.as_str()?)?,
            best_error: match f.get("best_error") {
                Some(v) => Some(finite(v)?),
                None => None,
            },
            best_unit: f
                .get("best_unit")?
                .as_arr()?
                .iter()
                .map(finite)
                .collect::<Option<_>>()?,
            detail: match f.get("detail") {
                Some(v) => Some(v.as_str()?.to_string()),
                None => None,
            },
        };
        let id = f.get("job")?.as_str()?.to_string();
        if table.jobs.insert(id, job).is_some() {
            return None;
        }
    }
    Some(table)
}

/// Writes `bytes` as the snapshot under `root` and opens it, checking the
/// invariants every case shares: no panic, under a second, and a refusal
/// names the file. On success, one more publish must not panic either.
fn open_bytes(root: &Path, bytes: &[u8], what: &str) -> Result<Table, String> {
    let path = root.join("manifest.json");
    std::fs::write(&path, bytes).expect("write snapshot");
    let started = Instant::now();
    let opened = std::panic::catch_unwind(|| {
        Manifest::open(root).map(|(mut m, jobs)| {
            let table = opened(&m, &jobs);
            let next = format!("job-{:04}", m.next_job_number());
            // The daemon's next submit publishes whatever open accepted.
            let _ = m.submit(&next, "workload=mem-fb iters=4");
            table
        })
    });
    let took = started.elapsed();
    let opened = opened.unwrap_or_else(|_| panic!("{what}: open panicked on {bytes:?}"));
    assert!(took < Duration::from_secs(1), "{what}: open took {took:?}");
    if let Err(e) = &opened {
        assert!(e.contains("manifest.json"), "{what}: `{e}` names no file");
    }
    opened
}

/// A snapshot written by a short operation sequence — escapes, unicode,
/// every state, both optional fields, a pending and a finished GC — and
/// the table it holds.
fn written_snapshot(root: &Path) -> (Vec<u8>, Table) {
    let (mut m, _) = Manifest::open(root).expect("open empty root");
    let specs = [
        "workload=mem-fb iters=8 seed=1",
        "workload=silo iters=6 note=\"quoted\\path\"",
        "workload=xapian iters=4 é→ünïcode\ttab",
        "workload=dnn iters=2",
        "workload=mem-twtr iters=3",
    ];
    for (i, spec) in specs.iter().enumerate() {
        m.submit(&format!("job-{:04}", i + 1), spec)
            .expect("submit");
    }
    m.start("job-0001").expect("start");
    m.done("job-0001", 0.123_456_789_012_345_67, &[0.25, 1e-300, 0.999])
        .expect("done");
    m.start("job-0002").expect("start");
    m.fail("job-0002", "worker said \"no\"\nand left")
        .expect("fail");
    m.quota("job-0003", 2.5e-5, &[0.5], "max_evals")
        .expect("quota");
    m.cancel("job-0004").expect("cancel");
    m.gc_intent("job-0001").expect("gc intent");
    m.submit("job-0006", "workload=mem-fb iters=8")
        .expect("submit");
    m.gc_intent("job-0006").expect("gc intent");
    m.gc_done("job-0006").expect("gc done");
    drop(m);
    let job =
        |spec: &str, state, best_error: Option<f64>, unit: &[f64], detail: Option<&str>| Job {
            spec: spec.to_string(),
            state,
            best_error: best_error.map(f64::to_bits),
            best_unit: unit.iter().map(|u| u.to_bits()).collect(),
            detail: detail.map(str::to_string),
        };
    let mut jobs = BTreeMap::new();
    jobs.insert(
        "job-0002".to_string(),
        job(
            specs[1],
            JobState::Failed,
            None,
            &[],
            Some("worker said \"no\"\nand left"),
        ),
    );
    jobs.insert(
        "job-0003".to_string(),
        job(
            specs[2],
            JobState::QuotaExceeded,
            Some(2.5e-5),
            &[0.5],
            Some("max_evals"),
        ),
    );
    jobs.insert(
        "job-0004".to_string(),
        job(specs[3], JobState::Cancelled, None, &[], None),
    );
    jobs.insert(
        "job-0005".to_string(),
        job(specs[4], JobState::Submitted, None, &[], None),
    );
    let model = Table {
        jobs,
        pending_gc: vec!["job-0001".to_string()],
        gcd: 1,
        max_job: 6,
    };
    let bytes = std::fs::read(root.join("manifest.json")).expect("read snapshot");
    (bytes, model)
}

#[test]
fn the_written_snapshot_opens_to_the_model() {
    let root = scratch("model");
    let (bytes, model) = written_snapshot(&root);
    let text = String::from_utf8(bytes.clone()).expect("snapshot is UTF-8");
    assert_eq!(strict(&text), Some(model.clone()));
    assert_eq!(open_bytes(&root, &bytes, "as written"), Ok(model));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn arbitrary_bytes_are_refused_by_name_or_read_whole() {
    let root = scratch("arbitrary");
    let mut rng = Rng(0x4D41_4E49);
    const SOUP: &[&[u8]] = &[
        b"{",
        b"}",
        b"[",
        b"]",
        b"\"",
        b":",
        b",",
        b" ",
        b"\n",
        b"0",
        b"3",
        b"-1",
        b"1e999",
        b"\"revision\"",
        b"\"jobs\"",
        b"\"job\"",
        b"\"state\"",
        b"\"done\"",
        b"null",
        b"true",
        b"\xff",
        b"\\u00e9",
        b"\xc3\xa9",
    ];
    for case in 0..3000 {
        let mut bytes = Vec::new();
        for _ in 0..rng.below(64) {
            if rng.below(3) == 0 {
                bytes.push(rng.next() as u8);
            } else {
                bytes.extend_from_slice(SOUP[rng.below(SOUP.len())]);
            }
        }
        let what = format!("arbitrary case {case}");
        if let Ok(table) = open_bytes(&root, &bytes, &what) {
            let text = String::from_utf8(bytes).expect("an accepted snapshot is UTF-8");
            assert_eq!(strict(&text), Some(table), "{what}");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn every_truncation_is_refused_by_name_or_read_whole() {
    let root = scratch("truncated");
    let (bytes, model) = written_snapshot(&root);
    let text = String::from_utf8(bytes).expect("snapshot is UTF-8");
    let mut whole = 0;
    for (cut, _) in text.char_indices() {
        let what = format!("truncated at byte {cut}");
        if let Ok(table) = open_bytes(&root, &text.as_bytes()[..cut], &what) {
            assert_eq!(table, model, "{what}");
            whole += 1;
        }
    }
    // Only dropping the trailing newline leaves a whole snapshot.
    assert_eq!(whole, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn mutants_are_refused_by_name_or_read_whole() {
    let root = scratch("mutants");
    let (bytes, model) = written_snapshot(&root);
    let mut rng = Rng(0x5EED_0FA1);
    const INSERTS: &[&[u8]] = &[
        b"1e999",
        b"-1e999",
        b"18446744073709551615",
        b"9007199254740993",
        b"-1",
        b"0.5",
        b"null",
        b"\"x\"",
        b"[]",
        b"{}",
        b",\"extra\":1",
        b",\"detail\":7",
        b",\"best_error\":\"x\"",
        b",\"job\":\"job-0002\"",
        b",{\"job\":\"job-0002\",\"spec\":\"s\",\"state\":\"done\",\"best_unit\":[]}",
        b"\"jobz\"",
        b"\"pending\"",
        b"\\u0000",
        b"\xff",
    ];
    let (mut accepted, mut as_model) = (0, 0);
    for case in 0..2500 {
        let mut m = bytes.clone();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(m.len() + 1);
            match rng.below(5) {
                0 if at < m.len() => m[at] = b"0123456789e.-\"{}[],: x"[rng.below(22)],
                1 => {
                    let end = (at + 1 + rng.below(24)).min(m.len());
                    m.drain(at.min(end)..end);
                }
                2 => {
                    let end = (at + 1 + rng.below(48)).min(m.len());
                    let copy: Vec<u8> = m[at.min(end)..end].to_vec();
                    m.splice(at..at, copy);
                }
                _ => {
                    let insert = INSERTS[rng.below(INSERTS.len())];
                    m.splice(at..at, insert.iter().copied());
                }
            }
        }
        let what = format!("mutant {case}");
        if let Ok(table) = open_bytes(&root, &m, &what) {
            let text = String::from_utf8(m).expect("an accepted snapshot is UTF-8");
            assert_eq!(strict(&text).as_ref(), Some(&table), "{what}: {text}");
            accepted += 1;
            as_model += usize::from(table == model);
        }
    }
    // Some mutants must get through (or the families above test nothing
    // but the JSON parser), and some of those are whitespace-only edits.
    assert!(
        accepted > 0 && as_model > 0,
        "{accepted} accepted, {as_model} as the model"
    );
    let _ = std::fs::remove_dir_all(&root);
}
