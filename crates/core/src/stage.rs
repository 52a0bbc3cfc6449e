//! The AI-tax stage vocabulary and breakdowns (paper Fig. 1 taxonomy).

use aitax_des::{SimSpan, SimTime};

use crate::stats::Summary;

/// One stage of the end-to-end ML pipeline (§II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Acquiring input data (camera wait + copy, or random generation).
    DataCapture,
    /// Shaping the input for the model (bitmap/scale/crop/normalize/…).
    PreProcessing,
    /// Model execution, including framework dispatch and offload.
    Inference,
    /// Interpreting model outputs (topK, boxes, keypoints, masks, …).
    PostProcessing,
    /// Application/UI housekeeping around the pipeline (apps only).
    UiOverhead,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::DataCapture,
        Stage::PreProcessing,
        Stage::Inference,
        Stage::PostProcessing,
        Stage::UiOverhead,
    ];

    /// Whether the stage counts toward the AI tax (everything except the
    /// model itself — the paper's definition in §IV).
    pub(crate) fn is_tax(self) -> bool {
        self != Stage::Inference
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Stage::DataCapture => "data-capture",
            Stage::PreProcessing => "pre-processing",
            Stage::Inference => "inference",
            Stage::PostProcessing => "post-processing",
            Stage::UiOverhead => "ui-overhead",
        };
        f.write_str(s)
    }
}

/// Per-iteration stage latencies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageBreakdown {
    /// Data capture span.
    pub data_capture: SimSpan,
    /// Pre-processing span.
    pub pre_processing: SimSpan,
    /// Inference span.
    pub inference: SimSpan,
    /// Post-processing span.
    pub post_processing: SimSpan,
    /// UI/application overhead span.
    pub ui_overhead: SimSpan,
}

impl StageBreakdown {
    /// The span of one stage.
    pub fn stage(&self, stage: Stage) -> SimSpan {
        match stage {
            Stage::DataCapture => self.data_capture,
            Stage::PreProcessing => self.pre_processing,
            Stage::Inference => self.inference,
            Stage::PostProcessing => self.post_processing,
            Stage::UiOverhead => self.ui_overhead,
        }
    }

    /// Mutable access for the runner.
    pub(crate) fn stage_mut(&mut self, stage: Stage) -> &mut SimSpan {
        match stage {
            Stage::DataCapture => &mut self.data_capture,
            Stage::PreProcessing => &mut self.pre_processing,
            Stage::Inference => &mut self.inference,
            Stage::PostProcessing => &mut self.post_processing,
            Stage::UiOverhead => &mut self.ui_overhead,
        }
    }

    /// End-to-end latency of the iteration.
    pub fn e2e(&self) -> SimSpan {
        Stage::ALL.iter().map(|&s| self.stage(s)).sum()
    }

    /// The AI tax of the iteration (everything but inference).
    pub(crate) fn tax(&self) -> SimSpan {
        Stage::ALL
            .iter()
            .filter(|s| s.is_tax())
            .map(|&s| self.stage(s))
            .sum()
    }

    /// AI tax as a fraction of end-to-end time (0 when empty).
    pub fn tax_fraction(&self) -> f64 {
        let e2e = self.e2e();
        if e2e.is_zero() {
            0.0
        } else {
            self.tax().as_secs() / e2e.as_secs()
        }
    }
}

/// One request's stage clock: charges contiguous stage windows, each
/// from the previous stamp to the next, into a [`StageBreakdown`], so
/// every simulated nanosecond of the request lands in exactly one stage.
#[derive(Debug, Clone, Copy)]
pub struct StageClock {
    started: SimTime,
    mark: SimTime,
    breakdown: StageBreakdown,
}

impl StageClock {
    /// A clock whose first stage begins at `now`.
    pub fn start(now: SimTime) -> Self {
        StageClock {
            started: now,
            mark: now,
            breakdown: StageBreakdown::default(),
        }
    }

    /// Charges the window since the last stamp to `stage` and returns it
    /// as `(stage, start, now)`.
    pub fn stamp(&mut self, stage: Stage, now: SimTime) -> (Stage, SimTime, SimTime) {
        let start = self.mark;
        *self.breakdown.stage_mut(stage) += now.since(start);
        self.mark = now;
        (stage, start, now)
    }

    /// When the first stage began.
    pub fn started(&self) -> SimTime {
        self.started
    }

    /// The stage spans stamped so far.
    pub fn breakdown(&self) -> StageBreakdown {
        self.breakdown
    }
}

/// Aggregated stage distributions over many iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct TaxReport {
    breakdowns: Vec<StageBreakdown>,
}

impl TaxReport {
    /// Builds a report from per-iteration breakdowns.
    pub(crate) fn new(breakdowns: Vec<StageBreakdown>) -> Self {
        TaxReport { breakdowns }
    }

    /// Number of iterations.
    pub fn iterations(&self) -> usize {
        self.breakdowns.len()
    }

    /// Per-iteration breakdowns.
    pub fn breakdowns(&self) -> &[StageBreakdown] {
        &self.breakdowns
    }

    /// Distribution of one stage across iterations.
    pub(crate) fn summary(&self, stage: Stage) -> Summary {
        Summary::from_spans(self.breakdowns.iter().map(|b| b.stage(stage)))
    }

    /// Distribution of end-to-end latency.
    pub(crate) fn e2e_summary(&self) -> Summary {
        Summary::from_spans(self.breakdowns.iter().map(|b| b.e2e()))
    }

    /// Mean AI-tax fraction across iterations.
    pub fn ai_tax_fraction(&self) -> f64 {
        if self.breakdowns.is_empty() {
            return 0.0;
        }
        self.breakdowns
            .iter()
            .map(|b| b.tax_fraction())
            .sum::<f64>()
            / self.breakdowns.len() as f64
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;

    fn bd(cap: f64, pre: f64, inf: f64, post: f64, ui: f64) -> StageBreakdown {
        StageBreakdown {
            data_capture: SimSpan::from_ms(cap),
            pre_processing: SimSpan::from_ms(pre),
            inference: SimSpan::from_ms(inf),
            post_processing: SimSpan::from_ms(post),
            ui_overhead: SimSpan::from_ms(ui),
        }
    }

    #[test]
    fn inference_is_not_tax() {
        assert!(!Stage::Inference.is_tax());
        for s in [
            Stage::DataCapture,
            Stage::PreProcessing,
            Stage::PostProcessing,
        ] {
            assert!(s.is_tax());
        }
    }

    #[test]
    fn e2e_and_tax_sum_stages() {
        let b = bd(10.0, 20.0, 40.0, 5.0, 3.0);
        assert_eq!(b.e2e().as_ms(), 78.0);
        assert_eq!(b.tax().as_ms(), 38.0);
        assert!((b.tax_fraction() - 38.0 / 78.0).abs() < 1e-12);
    }

    #[test]
    fn fifty_percent_tax_case() {
        // The headline claim: capture + processing "can consume as much
        // as 50% of the actual execution time".
        let b = bd(15.0, 15.0, 30.0, 0.0, 0.0);
        assert!((b.tax_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn report_aggregates_distributions() {
        let report = TaxReport::new(vec![
            bd(1.0, 2.0, 10.0, 0.5, 0.0),
            bd(2.0, 3.0, 12.0, 0.5, 0.0),
            bd(3.0, 4.0, 14.0, 0.5, 0.0),
        ]);
        assert_eq!(report.iterations(), 3);
        let inf = report.summary(Stage::Inference);
        assert_eq!(inf.mean_ms(), 12.0);
        assert_eq!(report.e2e_summary().median_ms(), 17.5);
        assert!(report.ai_tax_fraction() > 0.2);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = StageBreakdown::default();
        assert!(b.e2e().is_zero());
        assert_eq!(b.tax_fraction(), 0.0);
        assert_eq!(TaxReport::new(vec![]).ai_tax_fraction(), 0.0);
    }

    #[test]
    fn stage_mut_roundtrip() {
        let mut b = StageBreakdown::default();
        *b.stage_mut(Stage::PreProcessing) = SimSpan::from_ms(9.0);
        assert_eq!(b.stage(Stage::PreProcessing).as_ms(), 9.0);
    }

    #[test]
    fn clock_stamps_contiguous_windows() {
        let t = |ms: f64| SimTime::ZERO + SimSpan::from_ms(ms);
        let mut clock = StageClock::start(t(2.0));
        assert_eq!(
            clock.stamp(Stage::PreProcessing, t(5.0)),
            (Stage::PreProcessing, t(2.0), t(5.0))
        );
        assert_eq!(
            clock.stamp(Stage::Inference, t(12.0)),
            (Stage::Inference, t(5.0), t(12.0))
        );
        assert_eq!(clock.started(), t(2.0));
        let b = clock.breakdown();
        assert_eq!(b.pre_processing.as_ms(), 3.0);
        assert_eq!(b.inference.as_ms(), 7.0);
        assert_eq!(b.e2e(), t(12.0).since(clock.started()));
    }
}
