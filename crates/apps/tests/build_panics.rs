//! Where a failed `KvStore` build panics. One test in its own binary,
//! because it swaps the process-wide panic hook to see which thread each
//! panic starts on.

use datamime_apps::{KvConfig, KvStore, SizeDist};
use std::panic;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

#[test]
fn an_invalid_size_distribution_panics_on_the_caller_before_a_lane_spawns() {
    let starts: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let record = Arc::clone(&starts);
    let quiet = panic::take_hook();
    panic::set_hook(Box::new(move |_| {
        record.lock().unwrap().push(thread::current().id())
    }));
    let bad_sizes = [
        KvConfig {
            key_size: SizeDist::Normal {
                mean: 30.0,
                std: -1.0,
            },
            ..KvConfig::facebook_like()
        },
        KvConfig {
            value_size: SizeDist::GeneralizedPareto {
                mu: 0.0,
                sigma: 0.0,
                xi: 0.1,
            },
            ..KvConfig::facebook_like()
        },
    ];
    let mut caught = Vec::new();
    for cfg in bad_sizes {
        caught.push(panic::catch_unwind(|| KvStore::new(cfg)).expect_err("must panic"));
    }
    panic::set_hook(quiet);

    for payload in &caught {
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(
            message.starts_with("invalid size distribution"),
            "{message}"
        );
    }
    let caller = thread::current().id();
    assert_eq!(*starts.lock().unwrap(), vec![caller, caller]);
}
