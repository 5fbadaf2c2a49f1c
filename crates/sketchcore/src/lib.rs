#![warn(missing_docs)]
//! # sketchcore — sketching SpMM with blocking and on-the-fly RNG
//!
//! This crate implements the primary contribution of Liang, Murray, Buluç &
//! Demmel (IPPS 2024): computing `Â = S·A` where `A ∈ R^{m×n}` is a tall
//! sparse matrix (CSC) and `S ∈ R^{d×m}` is an *implicit* iid random matrix
//! whose entries are regenerated on demand instead of being stored. Trading
//! memory traffic for recomputation raises the kernel's computational
//! intensity past the GEMM lower bound — by a factor of `√M` in the model of
//! paper §III-A (see [`model`]).
//!
//! Layout of the crate follows the paper:
//!
//! * [`config`] — blocking parameters `(b_d, b_n)`, sketch size `d = γ·n`,
//!   flop accounting.
//! * [`alg1`] — the outer blocking driver (paper Algorithm 1):
//!   `(⌈d/b_d⌉, 1, ⌈n/b_n⌉)`-blocking with the column loop outermost. It
//!   enumerates the blocks for every driver and defines how a kernel writes
//!   `Â`: one column segment at a time, through a column-major panel (the
//!   whole matrix, or one chunk of columns) or a row-stripe window.
//! * [`alg3`] — compute kernel variant `kji` with RNG (paper Algorithm 3):
//!   consumes plain CSC, strided access to all three operands, regenerates a
//!   column of `S` per nonzero of `A`. Pattern-oblivious.
//! * [`alg4`] — compute kernel variant `jki` with RNG (paper Algorithm 4):
//!   consumes [`sparsekit::BlockedCsr`], regenerates a column of `S` once per
//!   *row* of each vertical block, reusing it across that row's nonzeros —
//!   fewer samples, less regular access.
//!
//!   Each algorithm has exactly **one block kernel body**. Every driver —
//!   sequential, column panel, row stripe ([`parallel`]), multi-seed batch
//!   ([`multi`]), instrumented ([`instrument`]), hardened ([`robust`]) —
//!   runs it; drivers differ only in which outer loop they split and where
//!   they write. What a regenerated segment *is* comes from the sampler:
//!   ±1 entries are `rngkit::Rademacher<f64>`, whose `fill_axpy` flips the
//!   sign bit of the coefficient; the Tables III/V split wraps a timer
//!   around `set_state` + `fill`, and [`FaultSampler`] poisons the stream
//!   for fault injection.
//! * [`parallel`] — parkit parallelizations of Algorithm 1's two outer loops
//!   (paper §II-C): over column panels (reached through
//!   [`try_sketch_alg3_par_cols`]) or over row stripes of `Â`.
//! * [`multi`] — `k` seeds in one blocked pass over `A` (the serving
//!   layer's batch, [`try_sketch_alg3_multi`]): each block runs the
//!   Algorithm 3 kernel once per seed.
//! * [`instrument`] — sample-time vs total-time split (paper Tables III/V)
//!   through a timing sampler adapter, recorded as obskit spans.
//! * [`robust`] — hardened entry points sharing one shell: validate, check
//!   the outputs against the memory budget, contain panics, scan the output.
//! * [`model`] — the roofline/computational-intensity model of §III-A, with
//!   the block-size optimizer of eq. (4) and the closed forms (5)–(7).
//! * [`obs`] — telemetry glue: block-granularity counters the kernels bump
//!   and the measured-vs-model traffic comparison ([`obs::TrafficReport`]).
//!
//! ## Quick example
//!
//! ```
//! use sketchcore::{SketchConfig, sketch_alg3};
//! use rngkit::{CheckpointRng, UnitUniform, Xoshiro256PlusPlus};
//! use sparsekit::CscMatrix;
//!
//! let a = CscMatrix::<f64>::identity(100);      // toy sparse input
//! let cfg = SketchConfig::new(300, 64, 32, 7);  // d=300, b_d=64, b_n=32, seed
//! let sampler = UnitUniform::<f64>::sampler(CheckpointRng::<Xoshiro256PlusPlus>::new(cfg.seed));
//! let sketch = sketch_alg3(&a, &cfg, &sampler);
//! assert_eq!((sketch.nrows(), sketch.ncols()), (300, 100));
//! ```

pub mod alg1;
pub mod alg3;
pub mod alg4;
pub mod config;
pub mod error;
pub mod instrument;
pub mod model;
pub mod multi;
pub mod obs;
pub mod parallel;
pub mod robust;

pub use alg3::sketch_alg3;
pub use alg4::sketch_alg4;
pub use config::{flops, SketchConfig};
pub use error::SketchError;
pub use instrument::{sketch_alg3_instrumented, sketch_alg4_instrumented, SketchTiming};
pub use model::{CostModel, ModelPrediction};
pub use multi::try_sketch_alg3_multi;
pub use obs::TrafficReport;
pub use parallel::{sketch_alg3_par_rows, sketch_alg4_par_rows};
pub use robust::{try_sketch_alg3, try_sketch_alg3_par_cols, FaultSampler};
