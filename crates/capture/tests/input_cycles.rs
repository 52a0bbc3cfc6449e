//! `StdlibFlavor::input_cycles` is the single cost function behind
//! random-input capture: the end-to-end driver prices benchmark capture
//! through it without building the tensor, so it must return exactly the
//! cycles the generators report, bit for bit, for every size.

use aitax_capture::{RandomTensorGen, StdlibFlavor};
use aitax_des::SimRng;
use aitax_tensor::DType;

/// Fixed edge sizes (1, 2, odd counts, the MobileNet and Inception v3
/// input tensors) plus seeded random sizes up to 300k elements.
fn sizes() -> Vec<usize> {
    let mut sizes = vec![1, 2, 3, 7, 191, 4_097, 150_528, 268_203];
    let mut rng = SimRng::seed_from(0xc0575);
    sizes.extend((0..12).map(|_| rng.uniform_u64(1, 300_001) as usize));
    sizes
}

#[test]
fn input_cycles_match_generated_tensor_cycles_bit_for_bit() {
    for flavor in [StdlibFlavor::LibCxx, StdlibFlavor::LibStdCxx] {
        let mut g = RandomTensorGen::new(flavor, 3);
        for n in sizes() {
            let f32_cycles = g.gen_f32(&[n]).1;
            let i8_cycles = g.gen_i8(&[n]).1;
            assert_eq!(
                flavor.input_cycles(DType::F32, n).to_bits(),
                f32_cycles.to_bits(),
                "{flavor:?} F32 n={n}"
            );
            assert_eq!(
                flavor.input_cycles(DType::I8, n).to_bits(),
                i8_cycles.to_bits(),
                "{flavor:?} I8 n={n}"
            );
        }
    }
}
