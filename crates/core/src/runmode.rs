//! Run modes: the three ways the paper packages the same model.
//!
//! §IV compares models run "(1) [as] pure benchmarks from the command
//! line; (2) packaged into benchmark apps with a user interface ...; and
//! (3) executed as part of a real application" — Fig. 3 shows the real
//! app is consistently slower end-to-end because of capture and
//! pre-processing the benchmarks never perform.

use aitax_des::SimSpan;
use aitax_kernel::NoiseConfig;
use aitax_pipeline::RuntimeKind;

/// How the model is packaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunMode {
    /// The TFLite command-line benchmark utility: random inputs, native
    /// code, a quiet freshly-cooled device.
    CliBenchmark,
    /// The TFLite Android benchmark app: same random-input methodology
    /// behind a minimal UI.
    BenchmarkApp,
    /// A real application: camera capture, managed-runtime
    /// pre-processing, UI rendering, ambient system noise.
    AndroidApp,
}

impl RunMode {
    /// All modes, in the paper's (1)(2)(3) order.
    pub const ALL: [RunMode; 3] = [
        RunMode::CliBenchmark,
        RunMode::BenchmarkApp,
        RunMode::AndroidApp,
    ];

    /// Whether input comes from the camera (vs. random generation).
    pub fn uses_camera(self) -> bool {
        matches!(self, RunMode::AndroidApp)
    }

    /// Which implementation path runs the pre-/post-processing.
    pub fn runtime_kind(self) -> RuntimeKind {
        match self {
            RunMode::CliBenchmark | RunMode::BenchmarkApp => RuntimeKind::Native,
            RunMode::AndroidApp => RuntimeKind::Managed,
        }
    }

    /// Ambient background activity for this mode.
    pub fn noise(self) -> NoiseConfig {
        match self {
            RunMode::CliBenchmark => NoiseConfig::benchmark_quiet(),
            RunMode::BenchmarkApp => NoiseConfig {
                // A foreground app process brings some system activity.
                mean_interarrival: SimSpan::from_ms(12.0),
                median_burst_cycles: 8.0e5,
                burst_sigma: 0.5,
                irq_jitter_median: SimSpan::from_us(40.0),
                irq_jitter_sigma: 0.4,
            },
            RunMode::AndroidApp => NoiseConfig::android_app(),
        }
    }

    /// Per-iteration UI/application housekeeping (rendering the result
    /// view, choreographer work). Zero for the CLI tool.
    pub fn ui_overhead_cycles(self) -> f64 {
        match self {
            RunMode::CliBenchmark => 0.0,
            // Minimal benchmark UI: progress text updates.
            RunMode::BenchmarkApp => 1.4e6,
            // Camera preview + overlay rendering (managed code).
            RunMode::AndroidApp => 5.6e6,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RunMode::CliBenchmark => "cli-benchmark",
            RunMode::BenchmarkApp => "benchmark-app",
            RunMode::AndroidApp => "android-app",
        }
    }
}

impl std::fmt::Display for RunMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;

    #[test]
    fn only_the_app_uses_the_camera() {
        assert!(!RunMode::CliBenchmark.uses_camera());
        assert!(!RunMode::BenchmarkApp.uses_camera());
        assert!(RunMode::AndroidApp.uses_camera());
    }

    #[test]
    fn app_runs_managed_code() {
        assert_eq!(RunMode::AndroidApp.runtime_kind(), RuntimeKind::Managed);
        assert_eq!(RunMode::CliBenchmark.runtime_kind(), RuntimeKind::Native);
    }

    #[test]
    fn ui_overhead_grows_with_packaging() {
        assert_eq!(RunMode::CliBenchmark.ui_overhead_cycles(), 0.0);
        assert!(
            RunMode::AndroidApp.ui_overhead_cycles() > RunMode::BenchmarkApp.ui_overhead_cycles()
        );
    }

    #[test]
    fn noise_intensity_ordering() {
        // Quieter systems have longer inter-arrival gaps.
        let cli = RunMode::CliBenchmark.noise().mean_interarrival;
        let bench = RunMode::BenchmarkApp.noise().mean_interarrival;
        let app = RunMode::AndroidApp.noise().mean_interarrival;
        assert!(cli > bench);
        assert!(bench > app);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            RunMode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 3);
    }
}
