//! Camera sensor stream.
//!
//! Real Android apps request frames from the Camera API and receive them
//! on a sensor cadence (30 fps typically), after sensor readout and ISP
//! processing, with delivery jitter from interrupt handling — the §II-A /
//! Fig. 11 latency sources. The end-to-end
//! driver prices capture from this configuration: the frame interval and
//! readout place each frame on the simulated timeline, and the NV21 frame
//! size prices its extraction. No pixels are produced.

use aitax_des::SimSpan;

/// Camera configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraConfig {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Sensor frame rate.
    pub fps: f64,
    /// Sensor readout + ISP latency per frame (before delivery).
    pub readout: SimSpan,
}

impl CameraConfig {
    /// The 640×480 @ 30 fps preview stream, the end-to-end driver's default.
    pub fn vga_preview() -> Self {
        CameraConfig {
            width: 640,
            height: 480,
            fps: 30.0,
            readout: SimSpan::from_ms(4.0),
        }
    }

    /// Interval between frame deliveries.
    pub fn frame_interval(&self) -> SimSpan {
        SimSpan::from_secs(1.0 / self.fps)
    }

    /// NV21 payload size in bytes.
    pub fn frame_bytes(&self) -> u64 {
        (self.width * self.height * 3 / 2) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vga_frame_interval_is_33ms() {
        let c = CameraConfig::vga_preview();
        assert!((c.frame_interval().as_ms() - 33.333).abs() < 0.01);
        assert_eq!(c.frame_bytes(), 640 * 480 * 3 / 2);
    }
}
