//! Property tests for the real pre-/post-processing algorithms that are
//! not already covered by the workspace-level suites: color conversion,
//! tokenizer and tracker invariants. Randomized cases are driven by the
//! deterministic simulator RNG.

use aitax_des::SimRng;
use aitax_pipeline::image::{ArgbImage, YuvNv21Image};
use aitax_pipeline::post::detection::{BBox, BoxTracker, Detection};
use aitax_pipeline::post::nlp::WordPieceTokenizer;
use aitax_pipeline::post::segmentation::{colorize_mask, flatten_mask};
use aitax_pipeline::post::topk::softmax;
use aitax_pipeline::preprocess;

/// Random lowercase text drawn from `alphabet`, `0..=max_len` chars.
fn text_from(rng: &mut SimRng, alphabet: &[u8], max_len: usize) -> String {
    let n = rng.uniform_u64(0, max_len as u64 + 1) as usize;
    (0..n)
        .map(|_| alphabet[rng.uniform_u64(0, alphabet.len() as u64) as usize] as char)
        .collect()
}

/// NV21 conversion is deterministic and pure: converting the same frame
/// twice yields identical pixels.
#[test]
fn nv21_conversion_is_pure() {
    let mut rng = SimRng::seed_from(0xA190_0001);
    for case in 0..48 {
        let w = rng.uniform_u64(1, 24) as usize;
        let h = rng.uniform_u64(1, 24) as usize;
        let seed = rng.uniform_u64(0, 500);
        let img = YuvNv21Image::synthetic(w * 2, h * 2, seed);
        let a = preprocess::nv21_to_argb(&img);
        let b = preprocess::nv21_to_argb(&img);
        assert_eq!(a.pixels(), b.pixels(), "case {case}");
    }
}

/// Gray NV21 inputs (neutral chroma) always produce R=G=B outputs.
#[test]
fn neutral_chroma_stays_gray() {
    let mut rng = SimRng::seed_from(0xA190_0002);
    for case in 0..48 {
        let w = rng.uniform_u64(1, 16) as usize * 2;
        let h = rng.uniform_u64(1, 16) as usize * 2;
        let luma = rng.uniform_u64(0, 256) as u8;
        let mut data = vec![luma; w * h];
        data.extend(vec![128u8; w * h / 2]);
        let rgb = preprocess::nv21_to_argb(&YuvNv21Image::new(w, h, data));
        for &px in rgb.pixels() {
            let (_, r, g, b) = ArgbImage::unpack(px);
            assert_eq!(r, g, "case {case}");
            assert_eq!(g, b, "case {case}");
        }
    }
}

/// Resizing to 1×1 yields an average-ish value inside the source range,
/// with output dims exactly as requested.
#[test]
fn resize_to_single_pixel_is_in_range() {
    let mut rng = SimRng::seed_from(0xA190_0003);
    for case in 0..48 {
        let w = rng.uniform_u64(2, 32) as usize;
        let h = rng.uniform_u64(2, 32) as usize;
        let seed = rng.uniform_u64(0, 100);
        let src = preprocess::nv21_to_argb(&YuvNv21Image::synthetic(w * 2, h * 2, seed));
        let out = preprocess::resize_bilinear(&src, 1, 1);
        assert_eq!(out.width(), 1, "case {case}");
        let (_, r, ..) = ArgbImage::unpack(out.get(0, 0));
        let rs: Vec<u8> = src
            .pixels()
            .iter()
            .map(|&p| ArgbImage::unpack(p).1)
            .collect();
        let lo = *rs.iter().min().unwrap();
        let hi = *rs.iter().max().unwrap();
        assert!(r >= lo && r <= hi, "case {case}: {r} outside [{lo},{hi}]");
    }
}

/// Softmax output is a probability distribution for any finite input.
#[test]
fn softmax_is_a_distribution() {
    let mut rng = SimRng::seed_from(0xA190_0004);
    for case in 0..48 {
        let n = rng.uniform_u64(1, 64) as usize;
        let mut v: Vec<f32> = (0..n).map(|_| rng.uniform(-50.0, 50.0) as f32).collect();
        softmax(&mut v);
        let sum: f32 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "case {case}: sum {sum}");
        assert!(v.iter().all(|&p| (0.0..=1.0).contains(&p)), "case {case}");
    }
}

/// Tokenization is deterministic, produces only vocabulary ids, and
/// token count never exceeds character count.
#[test]
fn tokenizer_sanity() {
    let mut rng = SimRng::seed_from(0xA190_0005);
    let t = WordPieceTokenizer::demo();
    for case in 0..48 {
        let nwords = rng.uniform_u64(0, 20) as usize;
        let words: Vec<String> = (0..nwords)
            .map(|_| {
                let n = rng.uniform_u64(1, 13) as usize;
                (0..n)
                    .map(|_| (b'a' + rng.uniform_u64(0, 26) as u8) as char)
                    .collect()
            })
            .collect();
        let text = words.join(" ");
        let a = t.tokenize(&text);
        assert_eq!(&a, &t.tokenize(&text), "case {case}");
        assert!(a.len() <= text.chars().count().max(1), "case {case}");
    }
}

/// encode_pair always produces exactly seq_len ids starting with CLS.
#[test]
fn encode_pair_shape() {
    let mut rng = SimRng::seed_from(0xA190_0006);
    let t = WordPieceTokenizer::demo();
    let alphabet: Vec<u8> = (b'a'..=b'z').chain(std::iter::once(b' ')).collect();
    for case in 0..48 {
        let q = text_from(&mut rng, &alphabet, 40);
        let ctx = text_from(&mut rng, &alphabet, 200);
        let seq = rng.uniform_u64(8, 256) as usize;
        let ids = t.encode_pair(&q, &ctx, seq);
        assert_eq!(ids.len(), seq, "case {case}");
        assert_eq!(ids[0], aitax_pipeline::post::nlp::CLS_ID, "case {case}");
    }
}

/// Colorized masks map equal classes to equal colors.
#[test]
fn colorize_is_injective_enough() {
    let mut rng = SimRng::seed_from(0xA190_0007);
    for case in 0..48 {
        let h = rng.uniform_u64(1, 10) as usize;
        let w = rng.uniform_u64(1, 10) as usize;
        let c = rng.uniform_u64(2, 12) as usize;
        let mut logits = vec![0.0f32; h * w * c];
        for px in 0..h * w {
            logits[px * c + px % c] = 1.0;
        }
        let mask = flatten_mask(&logits, h, w, c);
        let colors = colorize_mask(&mask, 0xFF);
        for (i, &cls_i) in mask.classes().iter().enumerate() {
            for (j, &cls_j) in mask.classes().iter().enumerate() {
                if cls_i == cls_j {
                    assert_eq!(colors[i], colors[j], "case {case}");
                }
            }
        }
    }
}

/// The box tracker never emits duplicate track ids in one frame.
#[test]
fn tracker_ids_unique_per_frame() {
    let mut rng = SimRng::seed_from(0xA190_0008);
    for case in 0..48 {
        let nframes = rng.uniform_u64(1, 6) as usize;
        let mut tracker = BoxTracker::new();
        for _ in 0..nframes {
            let nboxes = rng.uniform_u64(0, 8) as usize;
            let dets: Vec<Detection> = (0..nboxes)
                .map(|_| {
                    let y = rng.uniform(0.0, 0.9) as f32;
                    let x = rng.uniform(0.0, 0.9) as f32;
                    Detection {
                        bbox: BBox {
                            ymin: y,
                            xmin: x,
                            ymax: y + 0.1,
                            xmax: x + 0.1,
                        },
                        class: 1,
                        score: 0.9,
                    }
                })
                .collect();
            let n = dets.len();
            let out = tracker.update(dets, 0.15);
            let ids: std::collections::BTreeSet<u64> = out.iter().map(|(id, _)| *id).collect();
            assert_eq!(
                ids.len(),
                n,
                "case {case}: duplicate track id within a frame"
            );
        }
    }
}
