//! PoseNet post-processing: heatmap + offset decoding.
//!
//! "An application using PoseNet must map the detected key points to the
//! image" (§II-E). PoseNet emits, per keypoint, a coarse score heatmap and
//! a pair of offset maps; decoding picks the argmax heatmap cell and
//! refines it with the offsets, then scales to image coordinates.

/// One decoded keypoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Keypoint {
    /// Keypoint index (0..17 for the standard PoseNet skeleton).
    pub index: usize,
    /// y position in pixels of the *input image*.
    pub y: f32,
    /// x position in pixels of the input image.
    pub x: f32,
    /// Confidence score (sigmoid of the heatmap value).
    pub score: f32,
}

/// Number of keypoints in the standard PoseNet skeleton.
pub const POSENET_KEYPOINTS: usize = 17;

/// Decodes keypoints from PoseNet outputs.
///
/// * `heatmaps` — `[grid_h × grid_w × num_keypoints]` raw scores,
/// * `offsets` — `[grid_h × grid_w × 2·num_keypoints]` (y offsets first),
/// * `stride` — output stride (input pixels per heatmap cell),
///
/// # Panics
///
/// Panics if slice lengths disagree with the grid dimensions.
pub fn decode_keypoints(
    heatmaps: &[f32],
    offsets: &[f32],
    grid_h: usize,
    grid_w: usize,
    num_keypoints: usize,
    stride: usize,
) -> Vec<Keypoint> {
    assert_eq!(
        heatmaps.len(),
        grid_h * grid_w * num_keypoints,
        "heatmap tensor length"
    );
    assert_eq!(
        offsets.len(),
        grid_h * grid_w * 2 * num_keypoints,
        "offset tensor length"
    );
    let mut out = Vec::with_capacity(num_keypoints);
    for k in 0..num_keypoints {
        let mut best = f32::NEG_INFINITY;
        let (mut by, mut bx) = (0usize, 0usize);
        for y in 0..grid_h {
            for x in 0..grid_w {
                let v = heatmaps[(y * grid_w + x) * num_keypoints + k];
                if v > best {
                    best = v;
                    by = y;
                    bx = x;
                }
            }
        }
        let off_base = (by * grid_w + bx) * 2 * num_keypoints;
        let dy = offsets[off_base + k];
        let dx = offsets[off_base + num_keypoints + k];
        out.push(Keypoint {
            index: k,
            y: by as f32 * stride as f32 + dy,
            x: bx as f32 * stride as f32 + dx,
            score: sigmoid(best),
        });
    }
    out
}

/// Mean score of a decoded pose (the "pose confidence").
pub fn pose_score(keypoints: &[Keypoint]) -> f32 {
    if keypoints.is_empty() {
        return 0.0;
    }
    keypoints.iter().map(|k| k.score).sum::<f32>() / keypoints.len() as f32
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;

    fn grid(grid_h: usize, grid_w: usize, k: usize) -> (Vec<f32>, Vec<f32>) {
        (
            vec![0.0; grid_h * grid_w * k],
            vec![0.0; grid_h * grid_w * 2 * k],
        )
    }

    #[test]
    fn decodes_argmax_cell_with_offset() {
        let (mut heat, mut off) = grid(4, 4, 1);
        // Peak at cell (2, 3).
        heat[2 * 4 + 3] = 5.0; // channels = 1
        let base = (2 * 4 + 3) * 2;
        off[base] = 3.5; // dy
        off[base + 1] = -1.25; // dx
        let kps = decode_keypoints(&heat, &off, 4, 4, 1, 16);
        assert_eq!(kps.len(), 1);
        assert!((kps[0].y - (2.0 * 16.0 + 3.5)).abs() < 1e-6);
        assert!((kps[0].x - (3.0 * 16.0 - 1.25)).abs() < 1e-6);
        assert!(kps[0].score > 0.99);
    }

    #[test]
    fn each_keypoint_decodes_independently() {
        let (mut heat, off) = grid(3, 3, 2);
        heat[0] = 9.0; // kp 0 peak at cell (0,0)
        heat[(2 * 3 + 2) * 2 + 1] = 9.0; // kp 1 peak at (2,2)
        let kps = decode_keypoints(&heat, &off, 3, 3, 2, 8);
        assert_eq!(kps[0].y, 0.0);
        assert_eq!(kps[1].y, 16.0);
        assert_eq!(kps[1].x, 16.0);
    }

    #[test]
    fn pose_score_averages() {
        let kps = vec![
            Keypoint {
                index: 0,
                y: 0.0,
                x: 0.0,
                score: 0.2,
            },
            Keypoint {
                index: 1,
                y: 0.0,
                x: 0.0,
                score: 0.8,
            },
        ];
        assert!((pose_score(&kps) - 0.5).abs() < 1e-6);
        assert_eq!(pose_score(&[]), 0.0);
    }

    #[test]
    fn sigmoid_of_zero_heat_is_half() {
        let (heat, off) = grid(2, 2, 1);
        let kps = decode_keypoints(&heat, &off, 2, 2, 1, 16);
        assert!((kps[0].score - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "heatmap tensor length")]
    fn bad_lengths_panic() {
        decode_keypoints(&[0.0; 5], &[0.0; 8], 2, 2, 1, 16);
    }
}
