//! Serve-side glue for the analog drift sentinel (`sentinel` feature).
//!
//! The scoring engine lives in [`pdac_verify::sentinel`]; this module
//! re-exports it and adds the two pieces a serving process needs:
//! [`install_from_env`] to arm the sentinel from `PDAC_SENTINEL_RATE`,
//! and [`fault_spec`] to translate the `PDAC_SENTINEL_FAULT` knob into a
//! deterministic [`FaultSpec`] so CI can inject each fault class into a
//! live serve run and watch the matching alert trip.
//!
//! Fault knob grammar (case-insensitive class, optional `:magnitude`):
//!
//! | value          | fault                                 | default magnitude |
//! |----------------|---------------------------------------|-------------------|
//! | `tia[:f]`      | TIA gain drift of fraction `f`        | `0.5`             |
//! | `dark[:f]`     | photodetector dark current ratio `f`  | `0.5`             |
//! | `droop[:f]`    | laser power droop fraction `f`        | `0.5`             |
//! | `stuck[:slot]` | optical slot stuck lit                | slot `1` (MSB)    |
//! | `flipped[:slot]` | optical slot polarity inverted      | slot `1` (MSB)    |

pub use pdac_verify::sentinel::{
    rate_from_env, score, DriftScore, Sentinel, SentinelHandle, SentinelStats, Severity,
    CRITICAL_FRAC, WARN_FRAC,
};
pub use pdac_verify::{FaultSpec, FaultyPDac, SlotFault};

/// Installs a [`Sentinel`] at the rate from the environment
/// (`PDAC_SENTINEL_RATE`; see [`rate_from_env`]) and returns the handle
/// owning its scoring worker. Returns `Ok(None)` when the rate is zero —
/// nothing would ever be sampled, so no tap or worker is worth paying
/// for — and `Err` for a malformed rate.
pub fn install_from_env() -> Result<Option<SentinelHandle>, String> {
    let rate = rate_from_env()?;
    if rate <= 0.0 {
        return Ok(None);
    }
    Ok(Some(Sentinel::install(rate)))
}

/// Parses a `PDAC_SENTINEL_FAULT` value into the fault to inject.
///
/// Returns `None` for an empty/`none` value and `Err` with a usage
/// message for anything unparsable (callers print it and exit nonzero —
/// a typo must not silently run the clean backend and report green).
pub fn fault_spec(raw: &str) -> Result<Option<FaultSpec>, String> {
    let raw = raw.trim();
    if raw.is_empty() || raw.eq_ignore_ascii_case("none") {
        return Ok(None);
    }
    let (class, magnitude) = match raw.split_once(':') {
        Some((c, m)) => (c, Some(m)),
        None => (raw, None),
    };
    let fraction = |default: f64| -> Result<f64, String> {
        match magnitude {
            None => Ok(default),
            Some(m) => m
                .trim()
                .parse::<f64>()
                .ok()
                .filter(|f| f.is_finite())
                .ok_or_else(|| format!("bad fault magnitude {m:?} in {raw:?}")),
        }
    };
    let slot = |default: usize| -> Result<usize, String> {
        match magnitude {
            None => Ok(default),
            Some(m) => m
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("bad slot index {m:?} in {raw:?}")),
        }
    };
    let spec = match class.to_ascii_lowercase().as_str() {
        "tia" => FaultSpec::none().with_tia_gain_drift(fraction(0.5)?),
        "dark" => FaultSpec::none().with_dark_current_ratio(fraction(0.5)?),
        "droop" => FaultSpec::none().with_laser_droop(fraction(0.5)?),
        "stuck" => FaultSpec::none().with_slot_fault(SlotFault::StuckOn(slot(1)?)),
        "flipped" => FaultSpec::none().with_slot_fault(SlotFault::Flipped(slot(1)?)),
        other => {
            return Err(format!(
                "unknown fault class {other:?} (use tia|dark|droop|stuck|flipped[:magnitude])"
            ))
        }
    };
    Ok(Some(spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_grammar_covers_every_class() {
        assert_eq!(fault_spec("").unwrap(), None);
        assert_eq!(fault_spec("none").unwrap(), None);
        assert_eq!(
            fault_spec("tia").unwrap(),
            Some(FaultSpec::none().with_tia_gain_drift(0.5))
        );
        assert_eq!(
            fault_spec("TIA:0.2").unwrap(),
            Some(FaultSpec::none().with_tia_gain_drift(0.2))
        );
        assert_eq!(
            fault_spec("dark:0.1").unwrap(),
            Some(FaultSpec::none().with_dark_current_ratio(0.1))
        );
        assert_eq!(
            fault_spec("droop:0.4").unwrap(),
            Some(FaultSpec::none().with_laser_droop(0.4))
        );
        assert_eq!(
            fault_spec("stuck").unwrap(),
            Some(FaultSpec::none().with_slot_fault(SlotFault::StuckOn(1)))
        );
        assert_eq!(
            fault_spec("stuck:3").unwrap(),
            Some(FaultSpec::none().with_slot_fault(SlotFault::StuckOn(3)))
        );
        assert_eq!(
            fault_spec("flipped:2").unwrap(),
            Some(FaultSpec::none().with_slot_fault(SlotFault::Flipped(2)))
        );
        assert!(fault_spec("gamma").is_err());
        assert!(fault_spec("tia:lots").is_err());
        assert!(fault_spec("stuck:msb").is_err());
    }
}
