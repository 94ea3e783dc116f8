//! A DNN-inference-as-a-service application.
//!
//! Here the *dataset is the network model* (as the paper emphasizes): each
//! request runs one inference, streaming every layer's weights and
//! activations through the cache hierarchy and retiring instructions
//! proportional to the layer's multiply-accumulate count. The
//! dataset-generator parameters (Table III) are the counts of 3×3
//! convolution, strided convolution, max-pool, and fully-connected layers,
//! plus the output channels of the first layer; target models (a scaled
//! ResNet-50) may additionally use 1×1 convolutions and residual blocks,
//! which keeps the target *outside* the generator's family.

use crate::engine::{App, CodeLayout, CodeRegion};
use datamime_sim::{Addr, Machine, Segment, SimAlloc};
use datamime_stats::Rng;

/// One layer of a [`NetSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerSpec {
    /// 3×3 convolution, stride 1, `same` padding.
    Conv3x3 {
        /// Output channels.
        out_ch: u32,
    },
    /// 3×3 convolution with stride 2 (halves spatial dims).
    Conv3x3Strided {
        /// Output channels.
        out_ch: u32,
    },
    /// 1×1 convolution (used by target models such as ResNet bottlenecks;
    /// *not* part of the generator's building blocks).
    Conv1x1 {
        /// Output channels.
        out_ch: u32,
    },
    /// 2×2 max-pooling, stride 2.
    MaxPool,
    /// Fully-connected layer (flattens its input).
    Fc {
        /// Output features.
        out: u32,
    },
}

/// A network architecture: input dimensions plus a layer stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetSpec {
    /// Input height.
    pub height: u32,
    /// Input width.
    pub width: u32,
    /// Input channels.
    pub channels: u32,
    /// The layer stack, input to output.
    pub layers: Vec<LayerSpec>,
}

impl NetSpec {
    /// A scaled-down ResNet-50-style target model: bottleneck-style stages
    /// with 1×1/3×3 convolutions and stage-wise downsampling, ending in a
    /// classifier. Channel counts are scaled to keep simulation tractable
    /// while leaving the weight footprint comparable to the LLC size.
    pub fn resnet50_scaled() -> Self {
        let mut layers = vec![LayerSpec::Conv3x3Strided { out_ch: 32 }, LayerSpec::MaxPool];
        for &(ch, blocks) in &[(64u32, 3u32), (128, 4), (256, 4)] {
            layers.push(LayerSpec::Conv3x3Strided { out_ch: ch });
            for _ in 0..blocks {
                layers.push(LayerSpec::Conv1x1 { out_ch: ch / 2 });
                layers.push(LayerSpec::Conv3x3 { out_ch: ch / 2 });
                layers.push(LayerSpec::Conv1x1 { out_ch: ch });
            }
        }
        layers.push(LayerSpec::Fc { out: 512 });
        layers.push(LayerSpec::Fc { out: 1000 });
        NetSpec {
            height: 64,
            width: 64,
            channels: 3,
            layers,
        }
    }

    /// A ShuffleNet-style compact public model (the "different dataset"
    /// red bar of Fig. 1/3): far fewer weights and MACs.
    pub fn shufflenet_like() -> Self {
        let mut layers = vec![LayerSpec::Conv3x3Strided { out_ch: 24 }, LayerSpec::MaxPool];
        for &ch in &[58u32, 116, 232] {
            layers.push(LayerSpec::Conv3x3Strided { out_ch: ch / 4 });
            layers.push(LayerSpec::Conv1x1 { out_ch: ch });
        }
        layers.push(LayerSpec::Fc { out: 1000 });
        NetSpec {
            height: 64,
            width: 64,
            channels: 3,
            layers,
        }
    }

    /// Builds a generator-family network from the Table III parameters:
    /// layer-type counts and the first layer's output channels. Strided
    /// convolutions and max-pools are interleaved through the stack to keep
    /// spatial dimensions meaningful; FC layers always sit at the end (as
    /// the paper specifies); channels double at each downsampling.
    pub fn from_generator_params(
        n_conv: u32,
        n_strided: u32,
        n_pool: u32,
        n_fc: u32,
        first_out_ch: u32,
    ) -> Self {
        let mut layers = Vec::new();
        let mut ch = first_out_ch.max(1);
        layers.push(LayerSpec::Conv3x3 { out_ch: ch });
        let n_conv = n_conv.saturating_sub(1);
        // Interleave: spread downsampling layers between conv layers.
        let down: Vec<LayerSpec> = (0..n_strided)
            .map(|_| LayerSpec::Conv3x3Strided { out_ch: 0 }) // channels set below
            .chain((0..n_pool).map(|_| LayerSpec::MaxPool))
            .collect();
        let total_body = n_conv + down.len() as u32;
        let mut di = 0usize;
        for i in 0..total_body {
            let place_down = if down.is_empty() {
                false
            } else {
                // Even spacing of downsampling layers through the body.
                (i as u64 + 1) * down.len() as u64 / (total_body as u64 + 1) > di as u64
            };
            if place_down && di < down.len() {
                match down[di] {
                    LayerSpec::Conv3x3Strided { .. } => {
                        ch = (ch * 2).min(512);
                        layers.push(LayerSpec::Conv3x3Strided { out_ch: ch });
                    }
                    other => layers.push(other),
                }
                di += 1;
            } else {
                layers.push(LayerSpec::Conv3x3 { out_ch: ch });
            }
        }
        while di < down.len() {
            match down[di] {
                LayerSpec::Conv3x3Strided { .. } => {
                    ch = (ch * 2).min(512);
                    layers.push(LayerSpec::Conv3x3Strided { out_ch: ch });
                }
                other => layers.push(other),
            }
            di += 1;
        }
        for _ in 0..n_fc {
            layers.push(LayerSpec::Fc { out: 512 });
        }
        NetSpec {
            height: 64,
            width: 64,
            channels: 3,
            layers,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct BuiltLayer {
    spec: LayerSpec,
    weights: Addr,
    weight_bytes: u64,
    in_act: Addr,
    in_bytes: u64,
    out_act: Addr,
    out_bytes: u64,
    macs: u64,
}

/// The inference server (see module docs).
#[derive(Debug, Clone)]
pub struct DnnApp {
    spec: NetSpec,
    layers: Vec<BuiltLayer>,
    input: Addr,
    input_bytes: u64,
    footprint: u64,
    frontend: CodeRegion,
    conv_kernel: CodeRegion,
    pool_kernel: CodeRegion,
    fc_kernel: CodeRegion,
    respond: CodeRegion,
}

const SIMD_MACS_PER_INSTR: u64 = 8;

impl DnnApp {
    /// Builds the network, allocating weights and activation buffers.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no layers or its spatial dimensions collapse
    /// to zero before the stack ends.
    pub fn new(spec: NetSpec) -> Self {
        assert!(!spec.layers.is_empty(), "network needs at least one layer");
        let mut alloc = SimAlloc::new();
        let mut layout = CodeLayout::new(&mut alloc);
        let frontend = layout.region(8 * 1024);
        let conv_kernel = layout.region_with_ilp(6 * 1024, 4.0); // vectorized FMA
        let pool_kernel = layout.region_with_ilp(2 * 1024, 3.0);
        let fc_kernel = layout.region_with_ilp(3 * 1024, 3.5);
        let respond = layout.region(3 * 1024);

        let mut h = spec.height as u64;
        let mut w = spec.width as u64;
        let mut c = spec.channels as u64;
        let mut flat: Option<u64> = None; // Some(features) once flattened
        let input_bytes = h * w * c * 4;
        let input = alloc
            .alloc(Segment::Heap, input_bytes)
            .expect("input buffer");
        let mut footprint = input_bytes;
        let mut in_act = input;
        let mut in_bytes = input_bytes;

        let mut layers = Vec::with_capacity(spec.layers.len());
        for &l in &spec.layers {
            let (weight_bytes, macs, out_dims): (u64, u64, (u64, u64, u64)) = match l {
                LayerSpec::Conv3x3 { out_ch } => {
                    assert!(flat.is_none(), "conv after flatten is invalid");
                    assert!(h > 0 && w > 0, "spatial dims collapsed");
                    let oc = u64::from(out_ch.max(1));
                    (9 * c * oc * 4, h * w * c * oc * 9, (h, w, oc))
                }
                LayerSpec::Conv3x3Strided { out_ch } => {
                    assert!(flat.is_none(), "conv after flatten is invalid");
                    let oc = u64::from(out_ch.max(1));
                    let (oh, ow) = ((h / 2).max(1), (w / 2).max(1));
                    (9 * c * oc * 4, oh * ow * c * oc * 9, (oh, ow, oc))
                }
                LayerSpec::Conv1x1 { out_ch } => {
                    assert!(flat.is_none(), "conv after flatten is invalid");
                    let oc = u64::from(out_ch.max(1));
                    (c * oc * 4, h * w * c * oc, (h, w, oc))
                }
                LayerSpec::MaxPool => {
                    assert!(flat.is_none(), "pool after flatten is invalid");
                    let (oh, ow) = ((h / 2).max(1), (w / 2).max(1));
                    (0, oh * ow * c * 4, (oh, ow, c))
                }
                LayerSpec::Fc { out } => {
                    // The first FC applies global average pooling over the
                    // spatial dims (standard classifier-head practice), so
                    // its input features are the channel count.
                    let in_features = flat.unwrap_or(c);
                    let o = u64::from(out.max(1));
                    flat = Some(o);
                    (in_features * o * 4, in_features * o + h * w * c, (1, 1, o))
                }
            };
            let out_bytes = out_dims.0 * out_dims.1 * out_dims.2 * 4;
            let weights = if weight_bytes > 0 {
                alloc.alloc(Segment::Heap, weight_bytes).expect("weights")
            } else {
                0
            };
            let out_act = alloc.alloc(Segment::Heap, out_bytes).expect("activations");
            footprint += weight_bytes + out_bytes;
            layers.push(BuiltLayer {
                spec: l,
                weights,
                weight_bytes,
                in_act,
                in_bytes,
                out_act,
                out_bytes,
                macs,
            });
            in_act = out_act;
            in_bytes = out_bytes;
            if flat.is_none() {
                h = out_dims.0;
                w = out_dims.1;
                c = out_dims.2;
            }
        }

        DnnApp {
            spec,
            layers,
            input,
            input_bytes,
            footprint,
            frontend,
            conv_kernel,
            pool_kernel,
            fc_kernel,
            respond,
        }
    }

    /// The network architecture.
    pub fn spec(&self) -> &NetSpec {
        &self.spec
    }

    /// Total weight bytes across layers (the model size).
    pub fn model_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_bytes).sum()
    }

    /// Total MACs for one inference.
    pub fn macs_per_inference(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    fn stream(machine: &mut Machine, base: Addr, bytes: u64, write: bool) {
        // Stream in 4 KiB chunks to bound per-call work.
        let mut off = 0;
        while off < bytes {
            let chunk = (bytes - off).min(4096);
            if write {
                machine.store(base + off, chunk);
            } else {
                machine.load(base + off, chunk);
            }
            off += chunk;
        }
    }
}

impl App for DnnApp {
    fn name(&self) -> &str {
        "dnn"
    }

    fn serve(&mut self, machine: &mut Machine, rng: &mut Rng) {
        self.frontend.call(machine, 1500);
        // Receive the input image.
        Self::stream(machine, self.input, self.input_bytes, true);
        for i in 0..self.layers.len() {
            let l = self.layers[i];
            let kernel = match l.spec {
                LayerSpec::MaxPool => self.pool_kernel,
                LayerSpec::Fc { .. } => self.fc_kernel,
                _ => self.conv_kernel,
            };
            // Blocked GEMM-style execution: weights and inputs stream once.
            Self::stream(machine, l.in_act, l.in_bytes, false);
            if l.weight_bytes > 0 {
                Self::stream(machine, l.weights, l.weight_bytes, false);
            }
            Self::stream(machine, l.out_act, l.out_bytes, true);
            // Vectorized MACs plus im2col/repacking and framework dispatch
            // overhead (the PyTorch C++ path is far from bare MACs).
            let overhead = (l.in_bytes + l.out_bytes) / 2 + 2000;
            kernel.call(machine, overhead + l.macs / SIMD_MACS_PER_INSTR);
            self.frontend.call_span(machine, 2048, 2048, 600); // dispatch
                                                               // Pooling tie-breaks and edge handling are data-dependent.
            if matches!(l.spec, LayerSpec::MaxPool) {
                for b in 0..(l.out_bytes / 1024).min(16) {
                    kernel.branch(machine, 128 + b * 4, rng.bool(0.5));
                }
            }
            // Loop-bound branches are predictable; a small data-dependent
            // tail remains (e.g. pooling tie-breaks).
            kernel.branch(machine, 64 + (i as u64 % 32) * 8, rng.bool(0.85));
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

    fn run(spec: NetSpec, inferences: usize) -> Machine {
        let mut app = DnnApp::new(spec);
        let mut machine = Machine::new(MachineConfig::broadwell());
        let mut rng = Rng::with_seed(31);
        for _ in 0..inferences {
            app.serve(&mut machine, &mut rng);
        }
        machine
    }

    #[test]
    fn resnet_scaled_builds() {
        let app = DnnApp::new(NetSpec::resnet50_scaled());
        assert!(app.model_bytes() > 1 << 20, "model {} B", app.model_bytes());
        assert!(app.macs_per_inference() > 10_000_000);
    }

    #[test]
    fn shufflenet_is_much_smaller() {
        let big = DnnApp::new(NetSpec::resnet50_scaled());
        let small = DnnApp::new(NetSpec::shufflenet_like());
        assert!(small.model_bytes() * 2 < big.model_bytes());
        assert!(small.macs_per_inference() * 2 < big.macs_per_inference());
    }

    #[test]
    fn generator_params_shape_the_network() {
        let shallow = NetSpec::from_generator_params(2, 1, 1, 1, 16);
        let deep = NetSpec::from_generator_params(10, 3, 2, 2, 64);
        let a = DnnApp::new(shallow);
        let b = DnnApp::new(deep);
        assert!(b.model_bytes() > a.model_bytes() * 4);
        assert!(b.macs_per_inference() > a.macs_per_inference());
    }

    #[test]
    fn fc_layers_always_at_end() {
        let spec = NetSpec::from_generator_params(3, 1, 1, 2, 16);
        let first_fc = spec
            .layers
            .iter()
            .position(|l| matches!(l, LayerSpec::Fc { .. }));
        let last_non_fc = spec
            .layers
            .iter()
            .rposition(|l| !matches!(l, LayerSpec::Fc { .. }))
            .unwrap();
        assert!(first_fc.unwrap() > last_non_fc);
    }

    #[test]
    fn inference_is_compute_heavy_with_few_icache_misses() {
        let m = run(NetSpec::from_generator_params(2, 2, 1, 1, 8), 3);
        let c = m.counters();
        assert!(c.instructions > 1_000_000);
        let icache_mpki = c.mpki(c.l1i_misses);
        assert!(icache_mpki < 1.0, "dnn code is tiny: {icache_mpki}");
    }

    #[test]
    fn bigger_first_layer_channels_increase_work() {
        let small = run(NetSpec::from_generator_params(2, 2, 0, 1, 8), 2);
        let big = run(NetSpec::from_generator_params(2, 2, 0, 1, 32), 2);
        assert!(big.counters().instructions > small.counters().instructions * 2);
    }

    #[test]
    fn large_models_spill_to_memory() {
        // Steady state (after warm-up inferences): a model larger than the
        // LLC keeps re-streaming from memory; a small model stays resident.
        let steady_misses = |spec: NetSpec| {
            let mut app = DnnApp::new(spec);
            let mut machine = Machine::new(MachineConfig::broadwell());
            let mut rng = Rng::with_seed(31);
            for _ in 0..2 {
                app.serve(&mut machine, &mut rng); // warm-up
            }
            let before = machine.counters().llc_misses;
            app.serve(&mut machine, &mut rng);
            (machine.counters().llc_misses - before, app.model_bytes())
        };
        let (small_misses, small_model) =
            steady_misses(NetSpec::from_generator_params(2, 3, 1, 0, 8));
        let (big_misses, big_model) = steady_misses(NetSpec::from_generator_params(8, 3, 0, 2, 96));
        assert!(small_model < 4 << 20, "small model {small_model}");
        assert!(big_model > 14 << 20, "big model {big_model}");
        assert!(
            big_misses > small_misses * 20 && big_misses > (big_model / 64) / 2,
            "big {big_misses} vs small {small_misses}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_network_panics() {
        DnnApp::new(NetSpec {
            height: 8,
            width: 8,
            channels: 1,
            layers: vec![],
        });
    }
}
