//! Shared by the runtime integration tests: drive an [`Executor`] on the
//! in-process backend its own `meta.workers` selects (inline for one
//! worker, the thread pool otherwise).

use datamime_bayesopt::BlackBoxOptimizer;
use datamime_runtime::{with_local_backend, ExecError, Executor, RunOutcome, SyncEvalFn};

pub trait RunLocal {
    fn run_local(
        self,
        optimizer: &mut dyn BlackBoxOptimizer,
        eval: &SyncEvalFn<'_>,
    ) -> Result<RunOutcome, ExecError>;
}

impl RunLocal for Executor {
    fn run_local(
        self,
        optimizer: &mut dyn BlackBoxOptimizer,
        eval: &SyncEvalFn<'_>,
    ) -> Result<RunOutcome, ExecError> {
        with_local_backend(self.meta().workers, self.supervisor(), eval, |backend| {
            self.run(optimizer, backend)
        })
    }
}
