//! A small battery model: joule bookkeeping over a fixed capacity.
//!
//! Used to translate per-inference energy into user-visible quantities —
//! state of charge, inferences per charge, continuous-runtime estimates —
//! the way the paper's energy discussion frames "AI tax" for end users.

/// Battery capacity description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatterySpec {
    /// Usable capacity in joules.
    pub capacity_j: f64,
}

impl BatterySpec {
    /// Creates a spec from a capacity in milliamp-hours at a nominal
    /// voltage (phone packs are ~3.85 V nominal).
    ///
    /// # Panics
    ///
    /// Panics if either argument is non-positive.
    pub(crate) fn from_mah(mah: f64, nominal_v: f64) -> Self {
        assert!(mah > 0.0 && nominal_v > 0.0, "capacity must be positive");
        BatterySpec {
            capacity_j: mah * 3.6 * nominal_v,
        }
    }
}

/// A typical 2019-flagship pack: 3300 mAh at 3.85 V ≈ 45.7 kJ.
pub fn typical_phone_battery() -> BatterySpec {
    BatterySpec::from_mah(3300.0, 3.85)
}

/// Mutable battery state: a spec plus accumulated drain.
#[derive(Debug, Clone)]
pub struct Battery {
    spec: BatterySpec,
    drained_j: f64,
}

impl Battery {
    /// A full battery.
    pub fn new(spec: BatterySpec) -> Self {
        Battery {
            spec,
            drained_j: 0.0,
        }
    }

    /// The capacity spec.
    pub fn spec(&self) -> BatterySpec {
        self.spec
    }

    /// Removes energy from the pack (clamped at empty).
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative.
    pub fn drain(&mut self, joules: f64) {
        assert!(joules >= 0.0, "cannot drain negative energy");
        self.drained_j = (self.drained_j + joules).min(self.spec.capacity_j);
    }

    /// Remaining energy in joules.
    pub(crate) fn remaining_j(&self) -> f64 {
        self.spec.capacity_j - self.drained_j
    }

    /// State of charge in `[0, 1]`.
    pub fn state_of_charge(&self) -> f64 {
        self.remaining_j() / self.spec.capacity_j
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;

    #[test]
    fn mah_conversion() {
        let b = BatterySpec::from_mah(1000.0, 1.0);
        assert!((b.capacity_j - 3600.0).abs() < 1e-9);
        assert!(typical_phone_battery().capacity_j > 40_000.0);
    }

    #[test]
    fn drain_and_soc() {
        let mut b = Battery::new(BatterySpec { capacity_j: 100.0 });
        assert_eq!(b.state_of_charge(), 1.0);
        b.drain(25.0);
        assert!((b.state_of_charge() - 0.75).abs() < 1e-12);
        b.drain(1000.0); // clamps at empty
        assert_eq!(b.remaining_j(), 0.0);
    }
}
