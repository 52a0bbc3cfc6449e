//! Random input generation — how benchmarks "capture data".
//!
//! The TFLite benchmark utility "generates random tensors as input data"
//! (§III-B), and the paper exposes a subtle fallacy (§IV-A): *"The
//! standard C++ library that this benchmark happened to be compiled
//! against (libc++) generates real numbers significantly faster than
//! integers. Using a different standard library (libstdc++), we observed
//! the exact opposite behavior."* We reproduce that: the generator emits
//! real random tensors and reports a per-element cycle cost whose
//! float-vs-int ratio flips with the standard-library flavor.
//!
//! The cost is one function, [`StdlibFlavor::input_cycles`]. The
//! end-to-end driver prices benchmark capture through it directly and
//! never materialises the tensor — the simulated phone pays for the
//! bytes, the simulator does not. [`RandomTensorGen`] is for callers
//! that want the real tensor as well.

use aitax_des::SimRng;
use aitax_tensor::{DType, QuantParams, Tensor};

/// Which C++ standard library the (simulated) benchmark was built against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StdlibFlavor {
    /// LLVM's libc++: fast `uniform_real_distribution`, slow integers.
    LibCxx,
    /// GNU libstdc++: the exact opposite behaviour.
    LibStdCxx,
}

impl StdlibFlavor {
    /// Cycles per generated element for floating-point tensors.
    ///
    /// Calibrated so that under libc++ "the data capture ... is
    /// negligible" for float models, while integer generation
    /// "approximate[s] real applications to some extent" (§IV-A) —
    /// i.e. approaches the quantized models' inference latency.
    pub fn float_cycles_per_element(self) -> f64 {
        match self {
            StdlibFlavor::LibCxx => 30.0,
            StdlibFlavor::LibStdCxx => 150.0,
        }
    }

    /// Cycles per generated element for integer tensors.
    pub fn int_cycles_per_element(self) -> f64 {
        match self {
            StdlibFlavor::LibCxx => 180.0,
            StdlibFlavor::LibStdCxx => 40.0,
        }
    }

    /// CPU cycles to generate a random input of `elements` values of
    /// `dtype`: quantized types pay the integer rate, everything else
    /// the floating-point rate.
    ///
    /// # Example
    ///
    /// ```
    /// use aitax_capture::StdlibFlavor;
    /// use aitax_tensor::DType;
    /// let f = StdlibFlavor::LibCxx;
    /// assert!(f.input_cycles(DType::F32, 1000) < f.input_cycles(DType::I8, 1000));
    /// ```
    pub fn input_cycles(self, dtype: DType, elements: usize) -> f64 {
        let per_element = if dtype.is_quantized() {
            self.int_cycles_per_element()
        } else {
            self.float_cycles_per_element()
        };
        elements as f64 * per_element
    }
}

/// Generates random model inputs and accounts their cost.
#[derive(Debug)]
pub struct RandomTensorGen {
    flavor: StdlibFlavor,
    rng: SimRng,
}

impl RandomTensorGen {
    /// Creates a generator for a standard-library flavor.
    pub fn new(flavor: StdlibFlavor, seed: u64) -> Self {
        RandomTensorGen {
            flavor,
            rng: SimRng::seed_from(seed),
        }
    }

    /// The flavor this generator models.
    pub fn flavor(&self) -> StdlibFlavor {
        self.flavor
    }

    /// Generates a random F32 tensor, returning it and the CPU cycles the
    /// generation represents.
    pub fn gen_f32(&mut self, dims: &[usize]) -> (Tensor, f64) {
        let n: usize = dims.iter().product();
        let data: Vec<f32> = (0..n).map(|_| self.rng.uniform(-1.0, 1.0) as f32).collect();
        let cycles = self.flavor.input_cycles(DType::F32, n);
        (Tensor::from_f32(dims, data), cycles)
    }

    /// Generates a random quantized I8 tensor, returning it and the CPU
    /// cycles the generation represents.
    pub fn gen_i8(&mut self, dims: &[usize]) -> (Tensor, f64) {
        let n: usize = dims.iter().product();
        let data: Vec<i8> = (0..n)
            .map(|_| self.rng.uniform_u64(0, 256) as u8 as i8)
            .collect();
        let cycles = self.flavor.input_cycles(DType::I8, n);
        (
            Tensor::from_i8(dims, data, QuantParams::from_range(-1.0, 1.0)),
            cycles,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn libcxx_floats_faster_than_ints() {
        let f = StdlibFlavor::LibCxx;
        assert!(f.float_cycles_per_element() < f.int_cycles_per_element());
    }

    #[test]
    fn libstdcxx_inverts_the_relationship() {
        let f = StdlibFlavor::LibStdCxx;
        assert!(f.int_cycles_per_element() < f.float_cycles_per_element());
    }

    #[test]
    fn generated_tensors_have_right_shape_and_range() {
        let mut g = RandomTensorGen::new(StdlibFlavor::LibCxx, 5);
        let (t, cycles) = g.gen_f32(&[1, 8, 8, 3]);
        assert_eq!(t.elements(), 192);
        assert!(cycles > 0.0);
        assert!(t
            .as_f32()
            .unwrap()
            .iter()
            .all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn quantized_generation_costs_differ_by_flavor() {
        let mut a = RandomTensorGen::new(StdlibFlavor::LibCxx, 1);
        let mut b = RandomTensorGen::new(StdlibFlavor::LibStdCxx, 1);
        let (_, ca) = a.gen_i8(&[1000]);
        let (_, cb) = b.gen_i8(&[1000]);
        assert!(ca > cb * 3.0, "libc++ int generation should be far slower");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = RandomTensorGen::new(StdlibFlavor::LibCxx, 42);
        let mut b = RandomTensorGen::new(StdlibFlavor::LibCxx, 42);
        assert_eq!(a.gen_f32(&[16]).0, b.gen_f32(&[16]).0);
    }
}
