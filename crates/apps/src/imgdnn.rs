//! An img-dnn-like handwriting-recognition service.
//!
//! The second target of the paper's Sec. V-C case study: a deep
//! autoencoder over MNIST-sized images, cloned by Datamime using the
//! convolutional [`crate::DnnApp`] as the *different program*. The
//! autoencoder is fully-connected, has a small weight footprint, and is
//! strongly compute-bound — hence the high IPC and near-zero LLC MPKI that
//! Table IV reports for img-dnn.

use crate::engine::{App, CodeLayout, CodeRegion};
use datamime_sim::{Addr, Machine, Segment, SimAlloc};
use datamime_stats::Rng;

/// Configuration for [`ImgDnn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImgDnnConfig {
    /// Input dimension (28×28 MNIST = 784).
    pub input_dim: u32,
    /// Hidden layer widths of the autoencoder (encoder + decoder stack).
    pub hidden: Vec<u32>,
    /// Seed (reserved for future stochastic inputs).
    pub seed: u64,
}

impl ImgDnnConfig {
    /// The TailBench img-dnn target: an MNIST autoencoder.
    pub fn mnist_target() -> Self {
        ImgDnnConfig {
            input_dim: 784,
            hidden: vec![512, 256, 128, 256, 512, 784],
            seed: 0x117,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct FcLayer {
    weights: Addr,
    weight_bytes: u64,
    out_act: Addr,
    out_bytes: u64,
    macs: u64,
}

/// The autoencoder inference service (see module docs).
#[derive(Debug, Clone)]
pub struct ImgDnn {
    cfg: ImgDnnConfig,
    layers: Vec<FcLayer>,
    input: Addr,
    input_bytes: u64,
    footprint: u64,
    frontend: CodeRegion,
    gemm_kernel: CodeRegion,
    activation_kernel: CodeRegion,
    respond: CodeRegion,
}

impl ImgDnn {
    /// Builds the autoencoder.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` is zero or `hidden` is empty.
    pub fn new(cfg: ImgDnnConfig) -> Self {
        assert!(cfg.input_dim > 0, "input dimension must be positive");
        assert!(!cfg.hidden.is_empty(), "autoencoder needs hidden layers");
        let mut alloc = SimAlloc::new();
        let mut layout = CodeLayout::new(&mut alloc);
        let frontend = layout.region(4 * 1024);
        // Scalar but dependence-light inner loop: independent dot products.
        let gemm_kernel = layout.region_with_ilp(4 * 1024, 2.8);
        let activation_kernel = layout.region_with_ilp(1024, 2.0);
        let respond = layout.region(2 * 1024);

        let input_bytes = u64::from(cfg.input_dim) * 4;
        let input = alloc.alloc(Segment::Heap, input_bytes).expect("input");
        let mut footprint = input_bytes;
        let mut in_features = u64::from(cfg.input_dim);
        let mut layers = Vec::with_capacity(cfg.hidden.len());
        for &h in &cfg.hidden {
            let out = u64::from(h.max(1));
            let weight_bytes = in_features * out * 4;
            let out_bytes = out * 4;
            let weights = alloc.alloc(Segment::Heap, weight_bytes).expect("weights");
            let out_act = alloc.alloc(Segment::Heap, out_bytes).expect("activations");
            footprint += weight_bytes + out_bytes;
            layers.push(FcLayer {
                weights,
                weight_bytes,
                out_act,
                out_bytes,
                macs: in_features * out,
            });
            in_features = out;
        }

        ImgDnn {
            cfg,
            layers,
            input,
            input_bytes,
            footprint,
            frontend,
            gemm_kernel,
            activation_kernel,
            respond,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ImgDnnConfig {
        &self.cfg
    }

    /// Total model weight bytes.
    pub fn model_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_bytes).sum()
    }
}

// TailBench's img-dnn autoencoder is a scalar implementation, so each MAC
// retires roughly one instruction (unlike the vectorized `dnn` kernels).
const SCALAR_MACS_PER_INSTR: u64 = 1;

impl App for ImgDnn {
    fn name(&self) -> &str {
        "img-dnn"
    }

    fn serve(&mut self, machine: &mut Machine, rng: &mut Rng) {
        self.frontend.call(machine, 900);
        machine.store(self.input, self.input_bytes);
        for (i, l) in self.layers.iter().enumerate() {
            // GEMV: stream the weight matrix once, blocked.
            let mut off = 0;
            while off < l.weight_bytes {
                let chunk = (l.weight_bytes - off).min(4096);
                machine.load(l.weights + off, chunk);
                off += chunk;
            }
            machine.store(l.out_act, l.out_bytes);
            self.gemm_kernel
                .call(machine, 100 + l.macs / SCALAR_MACS_PER_INSTR);
            // Sigmoid activation with a table-lookup fast path.
            self.activation_kernel.call(machine, 20 + l.out_bytes / 16);
            self.activation_kernel
                .branch(machine, 32 + (i as u64) * 4, rng.bool(0.9));
        }
        self.respond.call(machine, 500);
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

    fn run(cfg: ImgDnnConfig, n: usize) -> Machine {
        let mut app = ImgDnn::new(cfg);
        let mut machine = Machine::new(MachineConfig::broadwell());
        let mut rng = Rng::with_seed(51);
        for _ in 0..n {
            app.serve(&mut machine, &mut rng);
        }
        machine
    }

    #[test]
    fn compute_bound_high_ipc() {
        // Table IV: img-dnn runs at IPC ~2.25 with near-zero LLC MPKI.
        // Measure steady state: the model fits the LLC after warm-up.
        let mut app = ImgDnn::new(ImgDnnConfig::mnist_target());
        let mut machine = Machine::new(MachineConfig::broadwell());
        let mut rng = Rng::with_seed(51);
        for _ in 0..3 {
            app.serve(&mut machine, &mut rng); // warm-up
        }
        let before = *machine.counters();
        for _ in 0..5 {
            app.serve(&mut machine, &mut rng);
        }
        let d = machine.counters().delta_since(&before);
        assert!(d.ipc() > 1.5, "ipc {}", d.ipc());
        let llc_mpki = d.mpki(d.llc_misses);
        assert!(llc_mpki < 2.0, "llc mpki {llc_mpki}");
    }

    #[test]
    fn model_size_follows_hidden_widths() {
        let small = ImgDnn::new(ImgDnnConfig {
            input_dim: 784,
            hidden: vec![64, 784],
            seed: 0,
        });
        let big = ImgDnn::new(ImgDnnConfig::mnist_target());
        assert!(big.model_bytes() > small.model_bytes() * 4);
    }

    #[test]
    fn deterministic() {
        let a = run(ImgDnnConfig::mnist_target(), 3);
        let b = run(ImgDnnConfig::mnist_target(), 3);
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    #[should_panic(expected = "hidden layers")]
    fn empty_hidden_panics() {
        ImgDnn::new(ImgDnnConfig {
            input_dim: 784,
            hidden: vec![],
            seed: 0,
        });
    }
}
