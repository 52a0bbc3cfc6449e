//! Object-detection post-processing: SSD box decoding, NMS and the
//! per-frame bounding-box tracking the paper's dashcam example computes
//! ("Dashcams, for instance, compute and visualize bounding boxes from a
//! model's output", §IV-A).

/// An axis-aligned box in normalized `[0,1]` image coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Top edge.
    pub ymin: f32,
    /// Left edge.
    pub xmin: f32,
    /// Bottom edge.
    pub ymax: f32,
    /// Right edge.
    pub xmax: f32,
}

impl BBox {
    /// Area (zero if degenerate).
    pub fn area(&self) -> f32 {
        ((self.ymax - self.ymin).max(0.0)) * ((self.xmax - self.xmin).max(0.0))
    }

    /// Intersection-over-union with another box.
    pub fn iou(&self, other: &BBox) -> f32 {
        let iy = (self.ymax.min(other.ymax) - self.ymin.max(other.ymin)).max(0.0);
        let ix = (self.xmax.min(other.xmax) - self.xmin.max(other.xmin)).max(0.0);
        let inter = ix * iy;
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Center `(cy, cx)` of the box.
    pub fn center(&self) -> (f32, f32) {
        ((self.ymin + self.ymax) / 2.0, (self.xmin + self.xmax) / 2.0)
    }
}

/// A scored, classified detection.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Decoded box.
    pub bbox: BBox,
    /// Class index.
    pub class: usize,
    /// Confidence score.
    pub score: f32,
}

/// An SSD anchor (prior box) in center form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anchor {
    /// Center y.
    pub cy: f32,
    /// Center x.
    pub cx: f32,
    /// Height.
    pub h: f32,
    /// Width.
    pub w: f32,
}

/// Generates a regular SSD-style anchor grid: `rows × cols` positions with
/// the given box sizes.
pub fn anchor_grid(rows: usize, cols: usize, sizes: &[f32]) -> Vec<Anchor> {
    let mut anchors = Vec::with_capacity(rows * cols * sizes.len());
    for r in 0..rows {
        for c in 0..cols {
            let cy = (r as f32 + 0.5) / rows as f32;
            let cx = (c as f32 + 0.5) / cols as f32;
            for &s in sizes {
                anchors.push(Anchor { cy, cx, h: s, w: s });
            }
        }
    }
    anchors
}

/// Decodes SSD regression outputs against anchors.
///
/// `raw` is `[dy, dx, dh, dw]` per anchor with the standard SSD scaling
/// (centers /10, sizes /5); `scores` is `[num_anchors × num_classes]`
/// row-major (class 0 = background, skipped).
///
/// # Panics
///
/// Panics if slice lengths disagree with `anchors.len()` and
/// `num_classes`.
pub fn decode_ssd(
    anchors: &[Anchor],
    raw: &[f32],
    scores: &[f32],
    num_classes: usize,
    score_threshold: f32,
) -> Vec<Detection> {
    assert_eq!(raw.len(), anchors.len() * 4, "raw regression length");
    assert_eq!(
        scores.len(),
        anchors.len() * num_classes,
        "score tensor length"
    );
    let mut out = Vec::new();
    for (i, a) in anchors.iter().enumerate() {
        let dy = raw[i * 4] / 10.0;
        let dx = raw[i * 4 + 1] / 10.0;
        let dh = raw[i * 4 + 2] / 5.0;
        let dw = raw[i * 4 + 3] / 5.0;
        let cy = a.cy + dy * a.h;
        let cx = a.cx + dx * a.w;
        let h = a.h * dh.exp();
        let w = a.w * dw.exp();
        let bbox = BBox {
            ymin: cy - h / 2.0,
            xmin: cx - w / 2.0,
            ymax: cy + h / 2.0,
            xmax: cx + w / 2.0,
        };
        for class in 1..num_classes {
            let score = scores[i * num_classes + class];
            if score >= score_threshold {
                out.push(Detection { bbox, class, score });
            }
        }
    }
    out
}

/// Greedy per-class non-maximum suppression.
///
/// Keeps at most `max_out` detections; within a class, suppresses boxes
/// overlapping a kept box by more than `iou_threshold`.
pub fn nms(mut detections: Vec<Detection>, iou_threshold: f32, max_out: usize) -> Vec<Detection> {
    detections.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut kept: Vec<Detection> = Vec::new();
    for det in detections {
        if kept.len() >= max_out {
            break;
        }
        let suppressed = kept
            .iter()
            .any(|k| k.class == det.class && k.bbox.iou(&det.bbox) > iou_threshold);
        if !suppressed {
            kept.push(det);
        }
    }
    kept
}

/// Frame-to-frame box tracker (nearest-center matching), modelling the
/// continuous bounding-box tracking overhead of detection apps.
#[derive(Debug, Default)]
pub struct BoxTracker {
    tracks: Vec<(u64, Detection)>,
    next_id: u64,
}

impl BoxTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Matches new detections against existing tracks; returns
    /// `(track_id, detection)` pairs. Unmatched detections start new
    /// tracks; unmatched tracks are dropped.
    pub fn update(&mut self, detections: Vec<Detection>, max_dist: f32) -> Vec<(u64, Detection)> {
        let mut result = Vec::with_capacity(detections.len());
        let mut available: Vec<(u64, Detection)> = std::mem::take(&mut self.tracks);
        for det in detections {
            let (cy, cx) = det.bbox.center();
            let best = available
                .iter()
                .enumerate()
                .filter(|(_, (_, t))| t.class == det.class)
                .map(|(i, (_, t))| {
                    let (ty, tx) = t.bbox.center();
                    (i, ((ty - cy).powi(2) + (tx - cx).powi(2)).sqrt())
                })
                .filter(|&(_, d)| d <= max_dist)
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            let id = match best {
                Some((i, _)) => available.swap_remove(i).0,
                None => {
                    let id = self.next_id;
                    self.next_id += 1;
                    id
                }
            };
            result.push((id, det));
        }
        self.tracks = result.clone();
        result
    }

    /// Number of live tracks.
    pub fn len(&self) -> usize {
        self.tracks.len()
    }

    /// Whether no tracks are live.
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;

    fn boxed(ymin: f32, xmin: f32, ymax: f32, xmax: f32) -> BBox {
        BBox {
            ymin,
            xmin,
            ymax,
            xmax,
        }
    }

    #[test]
    fn iou_identical_is_one() {
        let b = boxed(0.1, 0.1, 0.5, 0.5);
        assert!((b.iou(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn iou_disjoint_is_zero() {
        let a = boxed(0.0, 0.0, 0.2, 0.2);
        let b = boxed(0.5, 0.5, 0.9, 0.9);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        let a = boxed(0.0, 0.0, 1.0, 1.0);
        let b = boxed(0.0, 0.5, 1.0, 1.5);
        // Intersection 0.5, union 1.5.
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn anchor_grid_covers_unit_square() {
        let anchors = anchor_grid(4, 4, &[0.1, 0.2]);
        assert_eq!(anchors.len(), 32);
        assert!(anchors.iter().all(|a| (0.0..=1.0).contains(&a.cy)));
        assert!(anchors.iter().all(|a| (0.0..=1.0).contains(&a.cx)));
    }

    #[test]
    fn decode_zero_offsets_returns_anchor_boxes() {
        let anchors = anchor_grid(2, 2, &[0.4]);
        let raw = vec![0.0; anchors.len() * 4];
        let mut scores = vec![0.0; anchors.len() * 2];
        scores[1] = 0.9; // anchor 0, class 1
        let dets = decode_ssd(&anchors, &raw, &scores, 2, 0.5);
        assert_eq!(dets.len(), 1);
        let (cy, cx) = dets[0].bbox.center();
        assert!((cy - anchors[0].cy).abs() < 1e-6);
        assert!((cx - anchors[0].cx).abs() < 1e-6);
    }

    #[test]
    fn decode_threshold_filters() {
        let anchors = anchor_grid(1, 1, &[0.5]);
        let raw = vec![0.0; 4];
        let scores = vec![0.0, 0.3];
        assert!(decode_ssd(&anchors, &raw, &scores, 2, 0.5).is_empty());
        assert_eq!(decode_ssd(&anchors, &raw, &scores, 2, 0.2).len(), 1);
    }

    #[test]
    fn nms_suppresses_overlaps_keeps_best() {
        let b = boxed(0.1, 0.1, 0.5, 0.5);
        let dets = vec![
            Detection {
                bbox: b,
                class: 1,
                score: 0.9,
            },
            Detection {
                bbox: boxed(0.12, 0.12, 0.52, 0.52),
                class: 1,
                score: 0.8,
            },
            Detection {
                bbox: boxed(0.7, 0.7, 0.9, 0.9),
                class: 1,
                score: 0.7,
            },
        ];
        let kept = nms(dets, 0.5, 10);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].score, 0.9);
        assert_eq!(kept[1].score, 0.7);
    }

    #[test]
    fn nms_keeps_different_classes() {
        let b = boxed(0.1, 0.1, 0.5, 0.5);
        let dets = vec![
            Detection {
                bbox: b,
                class: 1,
                score: 0.9,
            },
            Detection {
                bbox: b,
                class: 2,
                score: 0.8,
            },
        ];
        assert_eq!(nms(dets, 0.5, 10).len(), 2);
    }

    #[test]
    fn nms_respects_max_out() {
        let dets: Vec<Detection> = (0..20)
            .map(|i| Detection {
                bbox: boxed(i as f32 * 0.05, 0.0, i as f32 * 0.05 + 0.02, 0.02),
                class: 1,
                score: 1.0 - i as f32 * 0.01,
            })
            .collect();
        assert_eq!(nms(dets, 0.5, 5).len(), 5);
    }

    #[test]
    fn tracker_maintains_identity_across_frames() {
        let mut tracker = BoxTracker::new();
        let d1 = Detection {
            bbox: boxed(0.1, 0.1, 0.3, 0.3),
            class: 1,
            score: 0.9,
        };
        let ids1 = tracker.update(vec![d1.clone()], 0.2);
        // Same object moved slightly.
        let d2 = Detection {
            bbox: boxed(0.12, 0.12, 0.32, 0.32),
            class: 1,
            score: 0.85,
        };
        let ids2 = tracker.update(vec![d2], 0.2);
        assert_eq!(ids1[0].0, ids2[0].0, "track id should persist");
    }

    #[test]
    fn tracker_spawns_new_ids_for_new_objects() {
        let mut tracker = BoxTracker::new();
        let a = Detection {
            bbox: boxed(0.0, 0.0, 0.1, 0.1),
            class: 1,
            score: 0.9,
        };
        let far = Detection {
            bbox: boxed(0.8, 0.8, 0.9, 0.9),
            class: 1,
            score: 0.9,
        };
        tracker.update(vec![a], 0.1);
        let ids = tracker.update(vec![far], 0.1);
        assert_eq!(ids[0].0, 1, "far object gets a fresh id");
        assert_eq!(tracker.len(), 1);
    }
}
