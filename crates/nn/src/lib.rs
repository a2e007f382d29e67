//! A from-scratch neural-network substrate: dense f64 arrays, reverse-mode
//! automatic differentiation, the layers Sage's architecture needs (fully
//! connected, LayerNorm, GRU, residual blocks, a Gaussian-mixture policy head
//! and a categorical distributional critic head), and Adam.
//!
//! Why from scratch: the paper trains with TensorFlow/Acme on GPU clusters;
//! no ML framework is available offline here, and the network sizes involved
//! (tens of thousands of parameters at our scale) are comfortably handled by
//! a small, well-tested f64 engine. Every op's gradient is verified against
//! central finite differences in the test suite.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod adam;
pub mod array;
pub mod gmm;
pub mod graph;
pub mod infer;
pub mod layers;
pub mod params;
pub mod vmath;

pub use adam::Adam;
pub use array::Array;
pub use graph::{Graph, NodeId};
pub use params::{ParamId, ParamStore};
