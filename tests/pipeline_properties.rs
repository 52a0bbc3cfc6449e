//! Property-based tests over the public API: image-processing
//! invariants, quantization bounds, scheduler conservation and
//! statistics laws. Randomized cases are driven by the deterministic
//! simulator RNG, so every failure reproduces bit-exactly.

use aitax::des::SimRng;
use aitax::kernel::{Machine, TaskSpec, Work};
use aitax::pipeline::image::{ArgbImage, YuvNv21Image};
use aitax::pipeline::post::detection::{nms, BBox, Detection};
use aitax::pipeline::post::segmentation::flatten_mask;
use aitax::pipeline::post::topk::top_k;
use aitax::pipeline::preprocess;
use aitax::soc::{SocCatalog, SocId};
use aitax::tensor::{QuantParams, Tensor};
use aitax::testkit::assert_ratio_within;

use std::cell::Cell;
use std::rc::Rc;

/// Resizing never invents pixel values outside the source range.
#[test]
fn resize_respects_value_range() {
    let mut rng = SimRng::seed_from(0xE2E_0001);
    for case in 0..48 {
        let w = rng.uniform_u64(2, 40) as usize * 2;
        let h = rng.uniform_u64(2, 40) as usize * 2;
        let ow = rng.uniform_u64(1, 50) as usize;
        let oh = rng.uniform_u64(1, 50) as usize;
        let seed = rng.uniform_u64(0, 1000);
        let src = preprocess::nv21_to_argb(&YuvNv21Image::synthetic(w, h, seed));
        let (mut lo, mut hi) = (255u8, 0u8);
        for &px in src.pixels() {
            let (_, r, g, b) = ArgbImage::unpack(px);
            for c in [r, g, b] {
                lo = lo.min(c);
                hi = hi.max(c);
            }
        }
        let out = preprocess::resize_bilinear(&src, ow, oh);
        for &px in out.pixels() {
            let (_, r, g, b) = ArgbImage::unpack(px);
            for c in [r, g, b] {
                assert!(
                    c >= lo && c <= hi,
                    "case {case}: interpolated {c} outside [{lo},{hi}]"
                );
            }
        }
    }
}

/// Rotating four times by 90° is the identity.
#[test]
fn four_quarter_turns_are_identity() {
    let mut rng = SimRng::seed_from(0xE2E_0002);
    for case in 0..48 {
        let w = rng.uniform_u64(1, 24) as usize * 2;
        let h = rng.uniform_u64(1, 24) as usize * 2;
        let seed = rng.uniform_u64(0, 500);
        let src = preprocess::nv21_to_argb(&YuvNv21Image::synthetic(w, h, seed));
        let mut img = src.clone();
        for _ in 0..4 {
            img = preprocess::rotate(&img, preprocess::Rotation::Cw90);
        }
        assert_eq!(img.pixels(), src.pixels(), "case {case}");
    }
}

/// Center crop output pixels all exist in the source.
#[test]
fn crop_is_a_subset() {
    let mut rng = SimRng::seed_from(0xE2E_0003);
    for case in 0..48 {
        let w = rng.uniform_u64(4, 40) as usize * 2;
        let h = rng.uniform_u64(4, 40) as usize * 2;
        let cw = rng.uniform_u64(1, w as u64 + 1) as usize;
        let ch = rng.uniform_u64(1, h as u64 + 1) as usize;
        let src = preprocess::nv21_to_argb(&YuvNv21Image::synthetic(w, h, 3));
        let out = preprocess::center_crop(&src, cw, ch);
        assert_eq!(out.width(), cw, "case {case}");
        assert_eq!(out.height(), ch, "case {case}");
        let set: std::collections::BTreeSet<u32> = src.pixels().iter().copied().collect();
        for &px in out.pixels() {
            assert!(set.contains(&px), "case {case}");
        }
    }
}

/// Quantize→dequantize error is bounded by half a step for in-range
/// values.
#[test]
fn quantization_round_trip_bound() {
    let mut rng = SimRng::seed_from(0xE2E_0004);
    for case in 0..48 {
        let scale = rng.uniform(0.001, 1.0) as f32;
        let zp = rng.uniform(-64.0, 64.0) as i32;
        let n = rng.uniform_u64(1, 64) as usize;
        let vals: Vec<f32> = (0..n).map(|_| rng.uniform(-50.0, 50.0) as f32).collect();
        let q = QuantParams::new(scale, zp);
        let t = Tensor::from_f32(&[vals.len()], vals.clone());
        let rt = t.quantize(q).unwrap().dequantize().unwrap();
        for (orig, back) in vals.iter().zip(rt.as_f32().unwrap()) {
            // Values may saturate at the i8 range edges.
            let lo = q.dequantize(i8::MIN);
            let hi = q.dequantize(i8::MAX);
            if *orig >= lo && *orig <= hi {
                assert!(
                    (orig - back).abs() <= q.scale() / 2.0 + 1e-5,
                    "case {case}: |{orig} - {back}|"
                );
            }
        }
    }
}

/// top_k returns a sorted prefix of the requested length.
#[test]
fn top_k_sorted_and_sized() {
    let mut rng = SimRng::seed_from(0xE2E_0005);
    for case in 0..48 {
        let n = rng.uniform_u64(0, 200) as usize;
        let scores: Vec<f32> = (0..n).map(|_| rng.uniform(0.0, 1.0) as f32).collect();
        let k = rng.uniform_u64(0, 30) as usize;
        let top = top_k(&scores, k);
        assert_eq!(top.len(), k.min(scores.len()), "case {case}");
        for pair in top.windows(2) {
            assert!(pair[0].score >= pair[1].score, "case {case}");
        }
        // Nothing outside the result beats the last kept element.
        if let Some(last) = top.last() {
            let kept: std::collections::BTreeSet<usize> = top.iter().map(|c| c.class).collect();
            for (i, &s) in scores.iter().enumerate() {
                if !kept.contains(&i) {
                    assert!(s <= last.score + 1e-6, "case {case}");
                }
            }
        }
    }
}

/// NMS output has no same-class pair above the IoU threshold.
#[test]
fn nms_output_is_conflict_free() {
    let mut rng = SimRng::seed_from(0xE2E_0006);
    for case in 0..48 {
        let n = rng.uniform_u64(0, 40) as usize;
        let iou = rng.uniform(0.2, 0.8) as f32;
        let dets: Vec<Detection> = (0..n)
            .map(|i| {
                let y = rng.uniform(0.0, 0.8) as f32;
                let x = rng.uniform(0.0, 0.8) as f32;
                let h = rng.uniform(0.05, 0.2) as f32;
                let w = rng.uniform(0.05, 0.2) as f32;
                let s = rng.uniform(0.0, 1.0) as f32;
                Detection {
                    bbox: BBox {
                        ymin: y,
                        xmin: x,
                        ymax: y + h,
                        xmax: x + w,
                    },
                    class: i % 3,
                    score: s,
                }
            })
            .collect();
        let kept = nms(dets, iou, 100);
        for i in 0..kept.len() {
            for j in (i + 1)..kept.len() {
                if kept[i].class == kept[j].class {
                    assert!(kept[i].bbox.iou(&kept[j].bbox) <= iou + 1e-6, "case {case}");
                }
            }
        }
    }
}

/// Mask flattening picks classes that actually maximize the logits.
#[test]
fn flatten_mask_is_argmax() {
    let mut rng = SimRng::seed_from(0xE2E_0007);
    for case in 0..48 {
        let h = rng.uniform_u64(1, 12) as usize;
        let w = rng.uniform_u64(1, 12) as usize;
        let c = rng.uniform_u64(1, 8) as usize;
        let mut lcg = rng.uniform_u64(0, 100);
        let mut logits = Vec::with_capacity(h * w * c);
        for _ in 0..h * w * c {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            logits.push((lcg >> 33) as f32 / 4e9);
        }
        let mask = flatten_mask(&logits, h, w, c);
        for px in 0..h * w {
            let chosen = mask.classes()[px] as usize;
            let base = px * c;
            for k in 0..c {
                assert!(logits[base + chosen] >= logits[base + k], "case {case}");
            }
        }
    }
}

/// Scheduler conservation: all submitted work completes exactly once,
/// and total busy time is at least the serial work at peak speed.
#[test]
fn scheduler_conserves_work() {
    let mut rng = SimRng::seed_from(0xE2E_0008);
    for case in 0..48 {
        let ntasks = rng.uniform_u64(1, 25) as usize;
        let tasks: Vec<(u64, usize)> = (0..ntasks)
            .map(|_| (rng.uniform_u64(1, 60), rng.uniform_u64(0, 3) as usize))
            .collect();
        let seed = rng.uniform_u64(0, 1000);
        let mut m = Machine::new(SocCatalog::get(SocId::Sd845), seed);
        let done = Rc::new(Cell::new(0usize));
        let mut total_mflops = 0.0;
        for (mflops, class) in &tasks {
            let work = Work::Fp32Flops(*mflops as f64 * 1e6);
            total_mflops += *mflops as f64;
            let spec = match class {
                0 => TaskSpec::foreground("t", work),
                1 => TaskSpec::background("t", work),
                _ => TaskSpec::nnapi_fallback("t", work),
            };
            let d = done.clone();
            m.submit_cpu(spec, move |_| d.set(d.get() + 1));
        }
        m.run_until_idle();
        assert_eq!(done.get(), tasks.len(), "case {case}");
        assert_eq!(m.stats().tasks_completed, tasks.len() as u64, "case {case}");
        // Wall-clock lower bound: all-big-core peak on 4 cores.
        let peak_ms = total_mflops / (4.0 * 22_400.0) * 1e3 / 1e3;
        assert_ratio_within(
            &format!("case {case} wall-clock vs peak-speed bound"),
            m.now().as_ms() + 1e-6,
            peak_ms,
            0.9,
            f64::INFINITY,
        );
    }
}
