//! Pre-processing algorithms (paper §II-B).
//!
//! Every function here is a faithful, runnable implementation of the
//! corresponding stage in a TFLite Android app: bitmap formatting,
//! scale/crop, normalize, rotate and type conversion. They operate on real
//! buffers so tests and Criterion benches exercise true per-pixel code;
//! `aitax-core` charges their cost onto the simulated timeline through
//! [`crate::cost::CostModel`].

use aitax_tensor::{QuantParams, Tensor};

use crate::image::{ArgbImage, YuvNv21Image};

/// Converts a YUV NV21 camera frame to an ARGB8888 bitmap (BT.601 integer
/// math, the common Android conversion).
pub fn nv21_to_argb(src: &YuvNv21Image) -> ArgbImage {
    let (w, h) = (src.width(), src.height());
    let mut out = ArgbImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let yy = src.luma(x, y) as i32;
            let (v, u) = src.chroma(x, y);
            let u = u as i32 - 128;
            let v = v as i32 - 128;
            // Fixed-point BT.601: R = Y + 1.402 V, G = Y - .344 U - .714 V,
            // B = Y + 1.772 U, scaled by 1024.
            let r = yy + ((1436 * v) >> 10);
            let g = yy - ((352 * u + 731 * v) >> 10);
            let b = yy + ((1815 * u) >> 10);
            out.set(
                x,
                y,
                ArgbImage::pack(
                    0xFF,
                    r.clamp(0, 255) as u8,
                    g.clamp(0, 255) as u8,
                    b.clamp(0, 255) as u8,
                ),
            );
        }
    }
    out
}

/// Center-crops to `out_w × out_h` (paper: "models such as Inception-v3
/// (center-)crop an image prior to scaling it").
///
/// # Panics
///
/// Panics if the crop is larger than the source.
pub fn center_crop(src: &ArgbImage, out_w: usize, out_h: usize) -> ArgbImage {
    assert!(
        out_w <= src.width() && out_h <= src.height(),
        "crop {out_w}x{out_h} exceeds source {}x{}",
        src.width(),
        src.height()
    );
    let x0 = (src.width() - out_w) / 2;
    let y0 = (src.height() - out_h) / 2;
    let mut out = ArgbImage::new(out_w, out_h);
    for y in 0..out_h {
        for x in 0..out_w {
            out.set(x, y, src.get(x0 + x, y0 + y));
        }
    }
    out
}

/// Bilinear resize — "Tensorflow's default resizing algorithm" whose
/// run-time "scales quadratically with the output image size" (§II-B).
pub fn resize_bilinear(src: &ArgbImage, out_w: usize, out_h: usize) -> ArgbImage {
    assert!(out_w > 0 && out_h > 0, "output dimensions must be non-zero");
    let (sw, sh) = (src.width(), src.height());
    let mut out = ArgbImage::new(out_w, out_h);
    let sx = if out_w > 1 {
        (sw - 1) as f32 / (out_w - 1) as f32
    } else {
        0.0
    };
    let sy = if out_h > 1 {
        (sh - 1) as f32 / (out_h - 1) as f32
    } else {
        0.0
    };
    for oy in 0..out_h {
        let fy = oy as f32 * sy;
        let y0 = fy.floor() as usize;
        let y1 = (y0 + 1).min(sh - 1);
        let wy = fy - y0 as f32;
        for ox in 0..out_w {
            let fx = ox as f32 * sx;
            let x0 = fx.floor() as usize;
            let x1 = (x0 + 1).min(sw - 1);
            let wx = fx - x0 as f32;
            let p00 = src.get(x0, y0);
            let p10 = src.get(x1, y0);
            let p01 = src.get(x0, y1);
            let p11 = src.get(x1, y1);
            let mut channels = [0u8; 4];
            for (i, ch) in channels.iter_mut().enumerate() {
                let shift = 24 - 8 * i;
                let c00 = ((p00 >> shift) & 0xFF) as f32;
                let c10 = ((p10 >> shift) & 0xFF) as f32;
                let c01 = ((p01 >> shift) & 0xFF) as f32;
                let c11 = ((p11 >> shift) & 0xFF) as f32;
                let top = c00 + (c10 - c00) * wx;
                let bot = c01 + (c11 - c01) * wx;
                *ch = (top + (bot - top) * wy).round().clamp(0.0, 255.0) as u8;
            }
            out.set(
                ox,
                oy,
                ArgbImage::pack(channels[0], channels[1], channels[2], channels[3]),
            );
        }
    }
    out
}

/// Rotation in 90° steps (PoseNet "makes extensive use of this operation";
/// §II-B notes it scales quadratically with image size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rotation {
    /// 90° clockwise.
    Cw90,
    /// 180°.
    Cw180,
    /// 270° clockwise.
    Cw270,
}

/// Rotates an image by a multiple of 90°.
pub fn rotate(src: &ArgbImage, rotation: Rotation) -> ArgbImage {
    let (w, h) = (src.width(), src.height());
    match rotation {
        Rotation::Cw90 => {
            let mut out = ArgbImage::new(h, w);
            for y in 0..h {
                for x in 0..w {
                    out.set(h - 1 - y, x, src.get(x, y));
                }
            }
            out
        }
        Rotation::Cw180 => {
            let mut out = ArgbImage::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    out.set(w - 1 - x, h - 1 - y, src.get(x, y));
                }
            }
            out
        }
        Rotation::Cw270 => {
            let mut out = ArgbImage::new(h, w);
            for y in 0..h {
                for x in 0..w {
                    out.set(y, w - 1 - x, src.get(x, y));
                }
            }
            out
        }
    }
}

/// Normalizes an image to a float NHWC tensor: `(channel - mean) / std`
/// per pixel ("almost all networks require normalized inputs", §II-B).
///
/// # Panics
///
/// Panics if `std` is zero.
pub fn normalize_to_tensor(src: &ArgbImage, mean: f32, std: f32) -> Tensor {
    assert!(std != 0.0, "normalization std must be non-zero");
    let (w, h) = (src.width(), src.height());
    let mut data = Vec::with_capacity(w * h * 3);
    for &px in src.pixels() {
        let (_, r, g, b) = ArgbImage::unpack(px);
        data.push((r as f32 - mean) / std);
        data.push((g as f32 - mean) / std);
        data.push((b as f32 - mean) / std);
    }
    Tensor::from_f32(&[1, h, w, 3], data)
}

/// Converts an image directly to a quantized NHWC tensor — the fused
/// "type conversion" path quantized models take (§II-B).
pub fn quantize_to_tensor(src: &ArgbImage, params: QuantParams) -> Tensor {
    let (w, h) = (src.width(), src.height());
    let mut data = Vec::with_capacity(w * h * 3);
    for &px in src.pixels() {
        let (_, r, g, b) = ArgbImage::unpack(px);
        // Camera bytes are already 0..255; re-quantize into the model's
        // input scale.
        data.push(params.quantize(r as f32));
        data.push(params.quantize(g as f32));
        data.push(params.quantize(b as f32));
    }
    Tensor::from_i8(&[1, h, w, 3], data, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_gray(w: usize, h: usize, v: u8) -> ArgbImage {
        let px = ArgbImage::pack(0xFF, v, v, v);
        ArgbImage::from_pixels(w, h, vec![px; w * h])
    }

    #[test]
    fn nv21_gray_converts_to_gray() {
        // Y=128, U=V=128 (neutral chroma) → RGB ≈ (128,128,128).
        let w = 16;
        let h = 8;
        let mut data = vec![128u8; w * h];
        data.extend(vec![128u8; w * h / 2]);
        let yuv = YuvNv21Image::new(w, h, data);
        let rgb = nv21_to_argb(&yuv);
        let (_, r, g, b) = ArgbImage::unpack(rgb.get(3, 3));
        assert_eq!((r, g, b), (128, 128, 128));
    }

    #[test]
    fn nv21_conversion_is_full_alpha() {
        let rgb = nv21_to_argb(&YuvNv21Image::synthetic(32, 32, 5));
        assert!(rgb.pixels().iter().all(|p| p >> 24 == 0xFF));
    }

    #[test]
    fn center_crop_takes_the_middle() {
        let mut src = ArgbImage::new(10, 10);
        src.set(5, 5, 0xFFAA_BBCC);
        let out = center_crop(&src, 4, 4);
        assert_eq!(out.width(), 4);
        // (5,5) in source is (2,2) in a 4x4 crop starting at (3,3).
        assert_eq!(out.get(2, 2), 0xFFAA_BBCC);
    }

    #[test]
    #[should_panic(expected = "exceeds source")]
    fn oversized_crop_panics() {
        center_crop(&ArgbImage::new(4, 4), 8, 8);
    }

    #[test]
    fn resize_preserves_constant_images() {
        let src = flat_gray(17, 13, 77);
        let out = resize_bilinear(&src, 8, 21);
        assert!(out
            .pixels()
            .iter()
            .all(|&p| p == ArgbImage::pack(0xFF, 77, 77, 77)));
    }

    #[test]
    fn resize_identity_when_same_size() {
        let src = nv21_to_argb(&YuvNv21Image::synthetic(16, 16, 2));
        let out = resize_bilinear(&src, 16, 16);
        assert_eq!(out.pixels(), src.pixels());
    }

    #[test]
    fn resize_interpolates_between_corners() {
        // 2×1 black→white gradient upsampled to 5×1.
        let src = ArgbImage::from_pixels(
            2,
            1,
            vec![
                ArgbImage::pack(0xFF, 0, 0, 0),
                ArgbImage::pack(0xFF, 255, 255, 255),
            ],
        );
        let out = resize_bilinear(&src, 5, 1);
        let mid = ArgbImage::unpack(out.get(2, 0)).1;
        assert!((126..=129).contains(&mid), "midpoint {mid}");
    }

    #[test]
    fn rotations_compose_to_identity() {
        let src = nv21_to_argb(&YuvNv21Image::synthetic(24, 16, 4));
        let r90 = rotate(&src, Rotation::Cw90);
        assert_eq!(r90.width(), 16);
        assert_eq!(r90.height(), 24);
        let back = rotate(&rotate(&r90, Rotation::Cw90), Rotation::Cw180);
        assert_eq!(back.pixels(), src.pixels());
    }

    #[test]
    fn rotate_90_moves_corner_correctly() {
        let mut src = ArgbImage::new(3, 2);
        src.set(0, 0, 0xFF11_1111);
        let out = rotate(&src, Rotation::Cw90);
        // (0,0) → (h-1-0, 0) = (1, 0).
        assert_eq!(out.get(1, 0), 0xFF11_1111);
    }

    #[test]
    fn normalize_produces_zero_mean_for_mid_gray() {
        let src = flat_gray(4, 4, 128);
        let t = normalize_to_tensor(&src, 128.0, 128.0);
        assert_eq!(t.shape().dims(), &[1, 4, 4, 3]);
        assert!(t.as_f32().unwrap().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn normalize_range_is_bounded() {
        let src = nv21_to_argb(&YuvNv21Image::synthetic(32, 32, 8));
        let t = normalize_to_tensor(&src, 127.5, 127.5);
        assert!(t
            .as_f32()
            .unwrap()
            .iter()
            .all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn quantize_tensor_has_params_and_shape() {
        let src = flat_gray(6, 6, 200);
        let params = QuantParams::from_range(0.0, 255.0);
        let t = quantize_to_tensor(&src, params);
        assert_eq!(t.shape().dims(), &[1, 6, 6, 3]);
        assert_eq!(t.quant_params(), Some(params));
        // 200 should round-trip within one step.
        let back = t.dequantize().unwrap();
        assert!((back.as_f32().unwrap()[0] - 200.0).abs() <= params.scale());
    }
}
