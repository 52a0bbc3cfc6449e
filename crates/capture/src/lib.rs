//! Data-capture prices: camera cadence and frame size, random benchmark
//! inputs.
//!
//! §II-A of the paper: "Acquiring data from sensors can seem trivial on
//! the surface, but can easily complicate an application's architecture"
//! — and §IV-A found that "the supporting code around data capture
//! contributed to a large share of overall application latency". The
//! simulator charges capture to the simulated phone without producing
//! the bytes. This crate provides:
//!
//! * `camera` — the camera stream's frame rate, sensor readout latency
//!   and frame size, which the end-to-end driver turns into capture time
//!   and frame-extraction cycles,
//! * `randgen` — the cost of the random-tensor inputs benchmarks use
//!   instead of real capture, including the libc++/libstdc++ cost
//!   inversion the paper calls out as a benchmarking fallacy.

mod camera;
mod randgen;

pub use camera::CameraConfig;
pub use randgen::{RandomTensorGen, StdlibFlavor};
