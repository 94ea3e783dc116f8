//! Hostile input on the daemon's request line, property-style: seeded
//! arbitrary bytes (invalid UTF-8 included), lines at, just over and far
//! over [`MAX_REQUEST`] with and without their newline, a writer that
//! stalls mid-line, and seeded arbitrary lines into [`answer`] — each
//! served by [`handle_conn`] on one end of a `UnixStream::pair()`.
//!
//! Three invariants, checked per case or after them all:
//!
//! 1. **Nothing panics**, on the connection or on a job thread (no case
//!    may start a job).
//! 2. **One reply per request**: an answer, or exactly one `ERROR` line.
//! 3. **The daemon keeps serving**: afterwards a well-formed `submit`
//!    runs to the same bits as the one-shot search of its spec.
//!
//! `shutdown` is left out: it is the one verb whose answer stops the
//! daemon.

use super::*;
use datamime::profiler::profile_workload;
use datamime::servectl::JobResult;
use proptest::TestRng;
use std::net::Shutdown;
use std::thread::JoinHandle;

/// How many seeded cases each generator draws.
const CASES: usize = 200;

struct Daemon {
    root: PathBuf,
    shared: Arc<Shared>,
    term: TermSignal,
}

impl Daemon {
    fn open(tag: &str) -> Daemon {
        let root =
            std::env::temp_dir().join(format!("datamime-request-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let shared = open_shared(&root, ServeOptions::default()).unwrap();
        let term = TermSignal::at(root.join("term.sentinel"));
        Daemon { root, shared, term }
    }

    /// Writes `request` into one end of a socket pair — then half-closes
    /// it, or holds it open without another byte when `stall` — while
    /// [`handle_conn`] serves the other end; returns the whole reply.
    fn exchange(&self, request: &[u8], stall: bool) -> String {
        let (client, mut server) = UnixStream::pair().unwrap();
        let mut writer = client.try_clone().unwrap();
        let request = request.to_vec();
        let feeder: JoinHandle<UnixStream> = std::thread::spawn(move || {
            // A refusal stops reading, and the rest of the write fails.
            let _ = writer.write_all(&request);
            if !stall {
                let _ = writer.shutdown(Shutdown::Write);
            }
            writer
        });
        let reader = std::thread::spawn(move || {
            let mut reply = Vec::new();
            // Unread request bytes end the reply with a reset, not EOF.
            let _ = (&client).read_to_end(&mut reply);
            reply
        });
        handle_conn(&self.shared, &mut server, &self.term);
        drop(server);
        let reply = reader.join().unwrap();
        drop(feeder.join().unwrap());
        String::from_utf8(reply).expect("replies are UTF-8")
    }

    /// [`Daemon::exchange`] plus invariant 2: the reply is non-empty and
    /// newline-terminated, and a refusal is one `ERROR` line.
    fn served(&self, request: &[u8], stall: bool) -> String {
        let reply = self.exchange(request, stall);
        let what = String::from_utf8_lossy(&request[..request.len().min(80)]).into_owned();
        assert!(reply.ends_with('\n'), "{what:?}: reply {reply:?}");
        if reply.starts_with("ERROR ") {
            assert_eq!(reply.matches('\n').count(), 1, "{what:?}: {reply:?}");
        }
        reply
    }

    fn close(self) {
        assert!(!self.term.requested(), "no case may stop the daemon");
        let threads = std::mem::take(&mut *lock(&self.shared.threads));
        for t in threads {
            t.join().expect("no job thread panicked");
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The verb [`answer`] dispatches on, if the request's line is UTF-8.
fn verb_of(request: &[u8]) -> Option<String> {
    let end = request
        .iter()
        .position(|&b| b == b'\n')
        .unwrap_or(request.len());
    let line = std::str::from_utf8(&request[..end]).ok()?.trim();
    Some(line.split(char::is_whitespace).next()?.to_string())
}

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// A word of arbitrary characters: ASCII, `=`, control bytes, Unicode
/// whitespace and multi-byte letters.
fn word(rng: &mut TestRng) -> String {
    const CHARS: [char; 12] = [
        'a', 'z', '0', '9', '=', '-', '\u{0}', '\t', '\u{a0}', '\u{2028}', 'é', '漢',
    ];
    (0..rng.below(12))
        .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
        .collect()
}

/// A `submit` argument that can never be a valid spec: it carries one
/// token the parser or the spec checks refuse whatever surrounds it (a
/// second token with the same key is refused as a duplicate). Half are
/// a valid spec but for that token, so every check is the one to refuse
/// some case. Widths stay small, so even a regressed check cannot start
/// more than a few threads.
fn doomed_spec(rng: &mut TestRng) -> String {
    const KEYS: [&str; 13] = [
        "workload",
        "iters",
        "seed",
        "machine",
        "batch",
        "workers",
        "backend",
        "paper",
        "curves",
        "grid",
        "worker_bin",
        "max_evals",
        "wall_clock_s",
    ];
    const VALUES: [&str; 9] = ["mem-fb", "0", "1", "65", "100001", "-1", "NaN", "true", ""];
    const REFUSED: [&str; 13] = [
        "workload=nope",
        "iters=0",
        "iters=100001",
        "iters=18446744073709551615",
        "batch=65",
        "workers=65",
        "grid=0",
        "machine=nope",
        "backend=fiber",
        "max_evals=-1",
        "bogus=1",
        "novalue",
        "worker_bin=/bin/true",
    ];
    let mut tokens: Vec<String> = match rng.below(2) {
        0 => vec!["workload=mem-fb".to_string(), "curves=false".to_string()],
        _ => (0..rng.below(6))
            .map(|_| match rng.below(3) {
                0 => word(rng),
                _ => format!("{}={}", pick(rng, &KEYS), pick(rng, &VALUES)),
            })
            .collect(),
    };
    let at = rng.below(tokens.len() as u64 + 1) as usize;
    tokens.insert(at, pick(rng, &REFUSED).to_string());
    tokens.join(" ")
}

/// An arbitrary request line for [`answer`], newline included; never
/// `shutdown`, and never a `submit` that can run.
fn arbitrary_line(rng: &mut TestRng) -> Vec<u8> {
    const VERBS: [&str; 9] = [
        "status", "result", "cancel", "list", "stats", "health", "version", "", "frob",
    ];
    let verb = match rng.below(3) {
        0 => "submit",
        _ => pick(rng, &VERBS),
    };
    let arg = match verb {
        "submit" => doomed_spec(rng),
        _ => (0..rng.below(4))
            .map(|_| match rng.below(3) {
                0 => format!("job-{:04}", rng.below(3)),
                _ => word(rng),
            })
            .collect::<Vec<_>>()
            .join(" "),
    };
    let sep = pick(rng, &[" ", "  ", "\t", " \u{a0}"]);
    format!("{verb}{sep}{arg}\n").into_bytes()
}

#[test]
fn arbitrary_bytes_get_one_reply_each() {
    let daemon = Daemon::open("bytes");
    let mut rng = TestRng::for_test("request_props::arbitrary_bytes");
    let mut cases = 0;
    while cases < CASES {
        let len = rng.below(512) as usize;
        let request: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        if verb_of(&request).as_deref() == Some("shutdown") {
            continue;
        }
        daemon.served(&request, false);
        cases += 1;
    }
    assert!(
        lock(&daemon.shared.jobs).is_empty(),
        "no case started a job"
    );
    daemon.close();
}

#[test]
fn arbitrary_lines_are_answered_or_refused() {
    let daemon = Daemon::open("lines");
    let mut rng = TestRng::for_test("request_props::arbitrary_lines");
    for _ in 0..CASES {
        let request = arbitrary_line(&mut rng);
        let reply = daemon.served(&request, false);
        if request.starts_with(b"submit") {
            assert!(reply.starts_with("ERROR "), "doomed submit ran: {reply}");
        }
    }
    assert!(
        lock(&daemon.shared.jobs).is_empty(),
        "no case started a job"
    );
    daemon.close();
}

/// At the cap a line is read; one byte over it, or far over it, the
/// connection is refused — wherever the newline lands, or with none.
#[test]
fn lines_at_and_over_the_cap() {
    let daemon = Daemon::open("cap");
    for len in [MAX_REQUEST, MAX_REQUEST + 1, 16 * MAX_REQUEST] {
        for newline in [true, false] {
            let mut request = b"status ".to_vec();
            request.resize(len, b'a');
            if newline {
                request.push(b'\n');
            }
            let reply = daemon.served(&request, false);
            let want = if len <= MAX_REQUEST {
                "ERROR no such job: aaa"
            } else {
                "ERROR request longer than"
            };
            assert!(reply.starts_with(want), "{len} {newline}: {reply:.60}");
        }
    }
    daemon.close();
}

/// A writer that stops mid-line is refused at the request deadline, not
/// waited on for good.
#[test]
fn a_stalled_writer_is_refused_at_the_deadline() {
    let daemon = Daemon::open("stall");
    let started = Instant::now();
    let reply = daemon.served(b"status job-0001", true);
    let waited = started.elapsed();
    assert!(reply.starts_with("ERROR request not finished"), "{reply}");
    assert!(
        waited >= REQUEST_DEADLINE && waited < REQUEST_DEADLINE + Duration::from_secs(5),
        "{waited:?}"
    );
    daemon.close();
}

/// After every kind of hostile request, a well-formed job still runs
/// through the plane to the one-shot search's bits.
#[test]
fn a_well_formed_submit_still_runs_after_hostile_requests() {
    let daemon = Daemon::open("after");
    let mut rng = TestRng::for_test("request_props::after");
    for _ in 0..CASES / 4 {
        daemon.served(&arbitrary_line(&mut rng), false);
    }
    daemon.served(&[0xff, 0xfe, b'\n'], false);
    daemon.served(&vec![b'a'; 2 * MAX_REQUEST], false);

    let spec = "workload=mem-fb iters=6 seed=3 curves=false grid=4";
    let job = daemon.served(format!("submit {spec}\n").as_bytes(), false);
    assert_eq!(job, "job-0001\n");
    let deadline = Instant::now() + Duration::from_secs(600);
    while !daemon
        .served(b"status job-0001\n", false)
        .starts_with("state=done ")
    {
        assert!(Instant::now() < deadline, "the job never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
    let got = JobResult::parse(&daemon.served(b"result job-0001\n", false)).unwrap();

    let spec = JobSpec::parse(spec).unwrap();
    let cfg = spec.search_config().unwrap();
    let target = profile_workload(&spec.target().unwrap(), &cfg.machine, &cfg.profiling);
    let generator = spec.generator().unwrap();
    let want =
        search_with_runtime(generator.as_ref(), &target, &cfg, &spec.runtime_options()).unwrap();
    assert_eq!(got.best_error.to_bits(), want.best_error.to_bits());
    let bits = |u: &[f64]| u.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.best_unit), bits(&want.best_unit_params));
    daemon.close();
}
