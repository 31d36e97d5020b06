//! Deterministic, seed-driven fault injection for the drive engine.
//!
//! Real drives are not the perfectly repeatable machines the rest of this
//! simulator models: media reads occasionally fail and are retried by
//! firmware, failing sectors get reallocated to spare space mid-life
//! (grown defects), mechanical times jitter from turbulence and thermal
//! drift, commands abort transiently on the bus, and some drives simply
//! refuse the `SEND/RECEIVE DIAGNOSTIC` address-translation commands the
//! DIXtrac extractor prefers. [`FaultConfig`] injects all of these into
//! [`crate::disk::Disk`] so the extraction and allocation layers above can
//! prove they degrade gracefully.
//!
//! # Determinism
//!
//! Every fault decision is a pure function of `(fault seed, request
//! sequence number, visit index, decision salt)` hashed through
//! SplitMix64: no shared RNG stream, no global state. Two drives built
//! from the same config replay the same faults for the same request
//! sequence, regardless of how many worker threads run *other* drives —
//! which is what keeps figure output bit-reproducible at any `--threads`.
//!
//! # Zero-cost when off
//!
//! [`FaultConfig::default`] disables every mechanism. The engine guards
//! each fault hook behind [`FaultConfig::enabled`] (one boolean test per
//! request), so a fault-free run takes exactly the code path — and
//! produces byte-identical output — it did before this module existed.

use crate::{SimDur, SimTime};
use std::fmt;
use traxtent::hash::splitmix64;

/// Distribution of multiplicative timing jitter applied to one mechanical
/// phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Jitter {
    /// No jitter (the default).
    #[default]
    Off,
    /// Uniform on `[-frac, +frac]`.
    Uniform(f64),
    /// Gaussian with standard deviation `frac` (clamped to ±4σ so a
    /// pathological tail cannot stall the simulation).
    Gaussian(f64),
}

impl Jitter {
    /// True if this jitter source is active.
    pub fn is_on(&self) -> bool {
        !matches!(self, Jitter::Off)
    }

    /// Draws the signed jitter fraction for hash key `key`.
    fn draw(&self, key: u64) -> f64 {
        match *self {
            Jitter::Off => 0.0,
            Jitter::Uniform(f) => (2.0 * unit(key) - 1.0) * f,
            Jitter::Gaussian(sigma) => {
                // Box-Muller over two decorrelated unit draws; the vendored
                // rand stub has no normal distribution.
                let u1 = unit(key).max(1e-12);
                let u2 = unit(key.wrapping_add(0x9e37_79b9_7f4a_7c15));
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (z * sigma).clamp(-4.0 * sigma, 4.0 * sigma)
            }
        }
    }

    /// Applies this jitter multiplicatively to `dur`: `dur * (1 + x)`,
    /// clamped at zero.
    pub fn apply(&self, dur: SimDur, key: u64) -> SimDur {
        if !self.is_on() {
            return dur;
        }
        let scaled = dur.as_ns() as f64 * (1.0 + self.draw(key));
        SimDur::from_ns(scaled.max(0.0).round() as u64)
    }

    /// A non-negative extra delay of up to `base` scaled by a draw:
    /// `max(0, x) * base`. Used for rotational jitter, where the platter
    /// can only ever present data *later* than the ideal angle.
    pub fn extra(&self, base: SimDur, key: u64) -> SimDur {
        if !self.is_on() {
            return SimDur::ZERO;
        }
        let x = self.draw(key).max(0.0);
        SimDur::from_ns((base.as_ns() as f64 * x).round() as u64)
    }
}

/// Configuration of every injectable fault. All rates default to zero and
/// all jitter sources default to [`Jitter::Off`]; the default config is
/// bit-for-bit equivalent to no fault layer at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Per-LBN probability (in events per million sector transfers) that a
    /// media access fails and is recovered by a firmware retry costing one
    /// extra revolution.
    pub media_per_million: u32,
    /// Probability (per million, conditional on a media error) that the
    /// failing sector is reallocated to spare space as a grown defect,
    /// shifting the LBN mapping for the rest of the run.
    pub grown_per_million: u32,
    /// Per-command probability (per million) of a transient failure: the
    /// drive returns CHECK CONDITION / ABORTED COMMAND and the host must
    /// retry. [`crate::disk::Disk::service`] recovers internally (charging
    /// [`FaultConfig::transient_retry`] per attempt);
    /// [`crate::disk::Disk::try_service`] surfaces the error.
    pub transient_per_million: u32,
    /// Time one internal transient-recovery attempt costs.
    pub transient_retry: SimDur,
    /// Multiplicative jitter on seek times.
    pub seek_jitter: Jitter,
    /// Multiplicative jitter on head-switch times.
    pub head_switch_jitter: Jitter,
    /// Rotational jitter: an extra positive delay per mechanical visit of
    /// up to `frac` revolutions (spindle speed variation means the target
    /// sector arrives late).
    pub rot_jitter: Jitter,
    /// The drive rejects `SEND/RECEIVE DIAGNOSTIC` address translation and
    /// `READ DEFECT DATA` (some real drives do); the SCSI layer returns
    /// an ILLEGAL REQUEST error and extraction must fall back to timing
    /// probes.
    pub diagnostics_unsupported: bool,
    /// Seed for every fault decision.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            media_per_million: 0,
            grown_per_million: 0,
            transient_per_million: 0,
            transient_retry: SimDur::from_micros_f64(500.0),
            seek_jitter: Jitter::Off,
            head_switch_jitter: Jitter::Off,
            rot_jitter: Jitter::Off,
            diagnostics_unsupported: false,
            seed: 0,
        }
    }
}

/// Decision salts, one per kind of draw, so the per-request hash streams
/// never collide.
const SALT_MEDIA: u64 = 1;
const SALT_GROWN: u64 = 2;
const SALT_TRANSIENT: u64 = 3;
const SALT_SEEK: u64 = 4;
const SALT_HEAD_SWITCH: u64 = 5;
const SALT_ROT: u64 = 6;
const SALT_MEDIA_SLOT: u64 = 7;

impl FaultConfig {
    /// True if any engine-visible fault mechanism is active (the
    /// diagnostics mode only affects the SCSI layer and does not perturb
    /// the engine).
    pub fn enabled(&self) -> bool {
        self.media_per_million > 0
            || self.transient_per_million > 0
            || self.seek_jitter.is_on()
            || self.head_switch_jitter.is_on()
            || self.rot_jitter.is_on()
    }

    /// Hash key for a `(request, visit, salt)` decision.
    fn key(&self, rid: u64, visit: u64, salt: u64) -> u64 {
        splitmix64(
            self.seed ^ splitmix64(rid.wrapping_mul(0x100_0193).wrapping_add(visit)) ^ (salt << 56),
        )
    }

    /// Whether the media transfer of `sectors` sectors in visit `visit` of
    /// request `rid` suffers a recovered error.
    pub(crate) fn media_error(&self, rid: u64, visit: u64, sectors: u64) -> bool {
        if self.media_per_million == 0 {
            return false;
        }
        let p = f64::from(self.media_per_million) / 1e6;
        // Per-visit failure probability 1 - (1-p)^n.
        let p_visit = 1.0 - (1.0 - p).powi(sectors.min(1 << 20) as i32);
        unit(self.key(rid, visit, SALT_MEDIA)) < p_visit
    }

    /// Whether a media error in this visit escalates to a grown defect.
    pub(crate) fn grows_defect(&self, rid: u64, visit: u64) -> bool {
        self.grown_per_million > 0
            && unit(self.key(rid, visit, SALT_GROWN)) < f64::from(self.grown_per_million) / 1e6
    }

    /// Offset (within the visit's sector count) of the failing sector.
    pub(crate) fn failing_sector(&self, rid: u64, visit: u64, sectors: u64) -> u64 {
        self.key(rid, visit, SALT_MEDIA_SLOT) % sectors.max(1)
    }

    /// Whether command `rid`'s transient-failure draw for `attempt` fires.
    pub(crate) fn transient(&self, rid: u64, attempt: u64) -> bool {
        self.transient_per_million > 0
            && unit(self.key(rid, attempt, SALT_TRANSIENT))
                < f64::from(self.transient_per_million) / 1e6
    }

    /// Jittered seek duration for visit `visit` of request `rid`.
    pub(crate) fn jitter_seek(&self, dur: SimDur, rid: u64, visit: u64) -> SimDur {
        self.seek_jitter.apply(dur, self.key(rid, visit, SALT_SEEK))
    }

    /// Jittered head-switch duration.
    pub(crate) fn jitter_head_switch(&self, dur: SimDur, rid: u64, visit: u64) -> SimDur {
        self.head_switch_jitter
            .apply(dur, self.key(rid, visit, SALT_HEAD_SWITCH))
    }

    /// Extra rotational delay for one mechanical visit, in fractions of a
    /// revolution.
    pub(crate) fn rot_extra(&self, revolution: SimDur, rid: u64, visit: u64) -> SimDur {
        self.rot_jitter
            .extra(revolution, self.key(rid, visit, SALT_ROT))
    }

    /// Parses a `--faults` spec: comma-separated `key=value` entries.
    ///
    /// | entry | meaning |
    /// |---|---|
    /// | `media=<ppm>` | recovered media errors per million sectors |
    /// | `grown=<ppm>` | grown-defect escalations per million (given a media error) |
    /// | `transient=<ppm>` | transient command failures per million commands |
    /// | `seek=<dist>` | seek-time jitter |
    /// | `hs=<dist>` | head-switch jitter |
    /// | `rot=<dist>` | rotational jitter |
    /// | `nodiag` | diagnostic commands unsupported |
    ///
    /// `<dist>` is `uniform:<frac>` or `gauss:<frac>` with `0 < frac ≤ 1`
    /// (e.g. `gauss:0.05`). The seed is set separately (`--fault-seed`).
    /// Each key may appear at most once: a repeated key is a
    /// [`SpecError::DuplicateKey`], never a silent last-one-wins.
    ///
    /// ```
    /// use sim_disk::fault::{FaultConfig, Jitter, SpecError};
    /// let f = FaultConfig::parse_spec("media=500,rot=gauss:0.05,nodiag").unwrap();
    /// assert_eq!(f.media_per_million, 500);
    /// assert_eq!(f.rot_jitter, Jitter::Gaussian(0.05));
    /// assert!(f.diagnostics_unsupported);
    /// assert!(FaultConfig::parse_spec("media=lots").is_err());
    /// assert_eq!(
    ///     FaultConfig::parse_spec("media=1,media=2"),
    ///     Err(SpecError::DuplicateKey { key: "media".to_string() })
    /// );
    /// ```
    pub fn parse_spec(spec: &str) -> Result<FaultConfig, SpecError> {
        let mut cfg = FaultConfig::default();
        if spec.trim().is_empty() {
            return Err(SpecError::Empty);
        }
        // The keys read so far. A key is marked before its value is read,
        // so a repeat is a duplicate whatever its value; an unknown key
        // fails at its first use, so only known keys can repeat.
        let mut seen: Vec<&str> = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            let (key, value) = match part.split_once('=') {
                // `nodiag` is the one key without a value: `nodiag=…` is
                // not in the grammar.
                _ if part == "nodiag" => (part, ""),
                Some(("nodiag", _)) => {
                    return Err(SpecError::UnknownKey {
                        key: "nodiag".to_string(),
                    })
                }
                Some(kv) => kv,
                None => {
                    return Err(SpecError::NotKeyValue {
                        entry: part.to_string(),
                    })
                }
            };
            if seen.contains(&key) {
                return Err(SpecError::DuplicateKey {
                    key: key.to_string(),
                });
            }
            seen.push(key);
            let ppm = |v: &str| -> Result<u32, SpecError> {
                v.parse::<u32>().map_err(|_| SpecError::BadRate {
                    key: key.to_string(),
                    value: v.to_string(),
                })
            };
            match key {
                "nodiag" => cfg.diagnostics_unsupported = true,
                "media" => cfg.media_per_million = ppm(value)?,
                "grown" => cfg.grown_per_million = ppm(value)?,
                "transient" => cfg.transient_per_million = ppm(value)?,
                "seek" => cfg.seek_jitter = parse_jitter(value)?,
                "hs" => cfg.head_switch_jitter = parse_jitter(value)?,
                "rot" => cfg.rot_jitter = parse_jitter(value)?,
                other => {
                    return Err(SpecError::UnknownKey {
                        key: other.to_string(),
                    })
                }
            }
        }
        Ok(cfg)
    }
}

/// Why a `--faults` spec failed to parse (see
/// [`FaultConfig::parse_spec`]). Typed so callers can branch on the
/// failure instead of substring-matching a message.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec was empty or all whitespace.
    Empty,
    /// An entry was neither `key=value` nor `nodiag`.
    NotKeyValue {
        /// The offending entry.
        entry: String,
    },
    /// A rate value was not a whole per-million count.
    BadRate {
        /// The entry's key.
        key: String,
        /// The unparseable value.
        value: String,
    },
    /// The key is not part of the grammar.
    UnknownKey {
        /// The unknown key.
        key: String,
    },
    /// The same key appeared more than once in one spec.
    DuplicateKey {
        /// The repeated key.
        key: String,
    },
    /// A jitter value was not `uniform:<frac>`/`gauss:<frac>`.
    BadJitterShape {
        /// The offending value.
        value: String,
    },
    /// A jitter fraction failed to parse as a number.
    BadJitterFraction {
        /// The unparseable fraction.
        frac: String,
    },
    /// A jitter fraction parsed but fell outside `(0, 1]`.
    JitterFractionRange {
        /// The out-of-range fraction.
        frac: f64,
    },
    /// The jitter distribution name is not `uniform` or `gauss`.
    UnknownJitter {
        /// The unknown distribution name.
        kind: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty => write!(f, "empty --faults spec"),
            SpecError::NotKeyValue { entry } => {
                write!(f, "fault entry `{entry}` is not `key=value` or `nodiag`")
            }
            SpecError::BadRate { key, value } => {
                write!(
                    f,
                    "fault rate `{value}` for `{key}` is not a whole per-million"
                )
            }
            SpecError::UnknownKey { key } => write!(
                f,
                "unknown fault key `{key}` (known: media, grown, transient, seek, hs, rot, nodiag)"
            ),
            SpecError::DuplicateKey { key } => {
                write!(f, "duplicate fault key `{key}` in one spec")
            }
            SpecError::BadJitterShape { value } => {
                write!(
                    f,
                    "jitter `{value}` is not `uniform:<frac>` or `gauss:<frac>`"
                )
            }
            SpecError::BadJitterFraction { frac } => {
                write!(f, "jitter fraction `{frac}` is not a number")
            }
            SpecError::JitterFractionRange { frac } => {
                write!(f, "jitter fraction {frac} must be in (0, 1]")
            }
            SpecError::UnknownJitter { kind } => {
                write!(f, "unknown jitter distribution `{kind}`")
            }
        }
    }
}

impl std::error::Error for SpecError {}

fn parse_jitter(value: &str) -> Result<Jitter, SpecError> {
    let (kind, frac) = value
        .split_once(':')
        .ok_or_else(|| SpecError::BadJitterShape {
            value: value.to_string(),
        })?;
    let frac: f64 = frac.parse().map_err(|_| SpecError::BadJitterFraction {
        frac: frac.to_string(),
    })?;
    if !(frac > 0.0 && frac <= 1.0) {
        return Err(SpecError::JitterFractionRange { frac });
    }
    match kind {
        "uniform" => Ok(Jitter::Uniform(frac)),
        "gauss" => Ok(Jitter::Gaussian(frac)),
        other => Err(SpecError::UnknownJitter {
            kind: other.to_string(),
        }),
    }
}

/// Running totals of injected faults, kept by the drive and readable via
/// [`crate::disk::Disk::fault_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Media errors recovered by firmware retry.
    pub media_errors: u64,
    /// Grown defects successfully remapped to spare space.
    pub grown_defects: u64,
    /// Grown-defect escalations that found no spare space (the error was
    /// still recovered, but the mapping did not change).
    pub grown_defects_unspared: u64,
    /// Transient command failures recovered inside [`crate::disk::Disk::service`].
    pub transient_recovered: u64,
    /// Transient command failures surfaced by [`crate::disk::Disk::try_service`].
    pub transient_surfaced: u64,
}

impl FaultStats {
    /// The totals as `(metric name, value)` pairs, for export into an
    /// observability registry.
    pub fn pairs(&self) -> [(&'static str, u64); 5] {
        [
            ("fault.media_errors", self.media_errors),
            ("fault.grown_defects", self.grown_defects),
            ("fault.grown_defects_unspared", self.grown_defects_unspared),
            ("fault.transient_recovered", self.transient_recovered),
            ("fault.transient_surfaced", self.transient_surfaced),
        ]
    }
}

/// SCSI sense keys the fault layer can attach to a failed command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenseKey {
    /// Transient failure; the host should retry the command.
    AbortedCommand,
    /// The command or its arguments are invalid for this drive.
    IllegalRequest,
}

impl fmt::Display for SenseKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SenseKey::AbortedCommand => "ABORTED COMMAND",
            SenseKey::IllegalRequest => "ILLEGAL REQUEST",
        })
    }
}

/// A drive-level command failure from [`crate::disk::Disk::try_service`]:
/// the sense key and the instant the CHECK CONDITION reached the host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommandFault {
    /// Why the command failed.
    pub sense: SenseKey,
    /// When the failure was reported (the host clock must advance to
    /// here).
    pub at: SimTime,
}

impl fmt::Display for CommandFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CHECK CONDITION ({}) at {}", self.sense, self.at)
    }
}

impl std::error::Error for CommandFault {}

/// Maps a hash to a uniform draw in `[0, 1)`.
fn unit(key: u64) -> f64 {
    (splitmix64(key) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_fully_off() {
        let f = FaultConfig::default();
        assert!(!f.enabled());
        assert!(!f.media_error(0, 0, 1000));
        assert!(!f.transient(0, 0));
        assert_eq!(
            f.jitter_seek(SimDur::from_millis_f64(5.0), 1, 2),
            SimDur::from_millis_f64(5.0)
        );
        assert_eq!(
            f.rot_extra(SimDur::from_millis_f64(6.0), 1, 2),
            SimDur::ZERO
        );
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let mut a = FaultConfig {
            media_per_million: 5000,
            ..FaultConfig::default()
        };
        let hits: Vec<bool> = (0..2000).map(|r| a.media_error(r, 0, 100)).collect();
        let again: Vec<bool> = (0..2000).map(|r| a.media_error(r, 0, 100)).collect();
        assert_eq!(hits, again, "same seed replays the same faults");
        a.seed = 1;
        let other: Vec<bool> = (0..2000).map(|r| a.media_error(r, 0, 100)).collect();
        assert_ne!(hits, other, "a different seed draws different faults");
    }

    #[test]
    fn media_error_rate_tracks_the_configured_probability() {
        let f = FaultConfig {
            media_per_million: 2000, // p=0.002/sector; 100 sectors → ~18%/visit
            ..FaultConfig::default()
        };
        let n = 10_000;
        let hits = (0..n).filter(|&r| f.media_error(r, 0, 100)).count();
        let frac = hits as f64 / n as f64;
        assert!((0.12..0.25).contains(&frac), "observed rate {frac}");
    }

    #[test]
    fn uniform_jitter_stays_in_band_and_gaussian_is_centred() {
        let uni = Jitter::Uniform(0.1);
        let base = SimDur::from_millis_f64(10.0);
        let mut sum = 0.0;
        for k in 0..4000 {
            let d = uni.apply(base, k).as_millis_f64();
            assert!((9.0..=11.0).contains(&d), "uniform draw {d}");
            sum += d;
        }
        assert!(
            (sum / 4000.0 - 10.0).abs() < 0.1,
            "uniform mean {}",
            sum / 4000.0
        );

        let gauss = Jitter::Gaussian(0.05);
        let mut sum = 0.0;
        for k in 0..4000 {
            let d = gauss.apply(base, k).as_millis_f64();
            assert!(
                (7.5..=12.5).contains(&d),
                "gaussian clamped at 4 sigma: {d}"
            );
            sum += d;
        }
        assert!(
            (sum / 4000.0 - 10.0).abs() < 0.1,
            "gaussian mean {}",
            sum / 4000.0
        );
    }

    #[test]
    fn rot_extra_is_never_negative() {
        let f = FaultConfig {
            rot_jitter: Jitter::Gaussian(0.1),
            ..FaultConfig::default()
        };
        let rev = SimDur::from_millis_f64(6.0);
        for r in 0..1000 {
            let extra = f.rot_extra(rev, r, 0);
            assert!(extra.as_millis_f64() <= 0.1 * 4.0 * 6.0 + 1e-9);
        }
        assert!((0..1000).any(|r| f.rot_extra(rev, r, 0) > SimDur::ZERO));
    }

    #[test]
    fn spec_round_trips_the_documented_grammar() {
        let f = FaultConfig::parse_spec(
            "media=500, grown=200000, transient=100, seek=uniform:0.02, hs=gauss:0.03, rot=gauss:0.05, nodiag",
        )
        .unwrap();
        assert_eq!(f.media_per_million, 500);
        assert_eq!(f.grown_per_million, 200_000);
        assert_eq!(f.transient_per_million, 100);
        assert_eq!(f.seek_jitter, Jitter::Uniform(0.02));
        assert_eq!(f.head_switch_jitter, Jitter::Gaussian(0.03));
        assert_eq!(f.rot_jitter, Jitter::Gaussian(0.05));
        assert!(f.diagnostics_unsupported);
        assert!(f.enabled());
    }

    #[test]
    fn spec_rejects_malformed_input_with_context() {
        for (spec, needle) in [
            ("", "empty"),
            ("media", "key=value"),
            ("media=lots", "per-million"),
            ("bogus=1", "unknown fault key"),
            ("seek=0.05", "uniform:<frac>"),
            ("seek=cauchy:0.05", "unknown jitter distribution"),
            ("rot=gauss:abc", "not a number"),
            ("rot=gauss:nan", "must be in (0, 1]"), // NaN parses but fails the range check
            ("rot=gauss:1.5", "must be in (0, 1]"),
            ("rot=gauss:0", "must be in (0, 1]"),
            ("media=1,media=2", "duplicate fault key"),
        ] {
            let err = FaultConfig::parse_spec(spec).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "spec `{spec}`: {msg}");
        }
    }

    #[test]
    fn spec_rejects_duplicate_keys_with_a_typed_error() {
        for (spec, key) in [
            ("media=1,media=2", "media"),
            ("media=1,grown=2,grown=3", "grown"),
            ("transient=5, transient=5", "transient"), // even identical values
            ("seek=uniform:0.1,seek=gauss:0.1", "seek"),
            ("hs=gauss:0.1,rot=gauss:0.1,hs=gauss:0.2", "hs"),
            ("rot=gauss:0.1,rot=gauss:0.1", "rot"),
            ("nodiag,nodiag", "nodiag"),
        ] {
            assert_eq!(
                FaultConfig::parse_spec(spec),
                Err(SpecError::DuplicateKey {
                    key: key.to_string()
                }),
                "spec `{spec}`"
            );
        }
        // A key repeated across *different* specs is fine — duplication is
        // judged within one spec only.
        assert!(FaultConfig::parse_spec("media=1").is_ok());
        assert!(FaultConfig::parse_spec("media=2").is_ok());
    }

    #[test]
    fn spec_errors_are_matchable_variants() {
        use SpecError::*;
        assert_eq!(FaultConfig::parse_spec(" "), Err(Empty));
        assert!(matches!(
            FaultConfig::parse_spec("media"),
            Err(NotKeyValue { .. })
        ));
        assert!(matches!(
            FaultConfig::parse_spec("media=lots"),
            Err(BadRate { .. })
        ));
        assert!(matches!(
            FaultConfig::parse_spec("bogus=1"),
            Err(UnknownKey { .. })
        ));
        assert!(matches!(
            FaultConfig::parse_spec("seek=0.05"),
            Err(BadJitterShape { .. })
        ));
        assert!(matches!(
            FaultConfig::parse_spec("seek=gauss:abc"),
            Err(BadJitterFraction { .. })
        ));
        assert!(matches!(
            FaultConfig::parse_spec("seek=gauss:2"),
            Err(JitterFractionRange { .. })
        ));
        assert!(matches!(
            FaultConfig::parse_spec("seek=cauchy:0.5"),
            Err(UnknownJitter { .. })
        ));
    }

    #[test]
    fn nodiag_alone_does_not_enable_engine_faults() {
        let f = FaultConfig::parse_spec("nodiag").unwrap();
        assert!(f.diagnostics_unsupported);
        assert!(!f.enabled(), "nodiag must not perturb the engine");
    }

    #[test]
    fn stats_pairs_name_every_counter() {
        let stats = FaultStats {
            media_errors: 1,
            grown_defects: 2,
            grown_defects_unspared: 3,
            transient_recovered: 4,
            transient_surfaced: 5,
        };
        let pairs = stats.pairs();
        assert_eq!(pairs.len(), 5);
        assert!(pairs.iter().all(|(name, _)| name.starts_with("fault.")));
        assert_eq!(pairs[0], ("fault.media_errors", 1));
    }

    #[test]
    fn sense_and_fault_display() {
        let fault = CommandFault {
            sense: SenseKey::AbortedCommand,
            at: SimTime::from_ns(1_500_000),
        };
        let text = fault.to_string();
        assert!(text.contains("ABORTED COMMAND"), "{text}");
        assert!(text.contains("CHECK CONDITION"), "{text}");
    }
}
