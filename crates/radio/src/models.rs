//! Propagation models.

use std::cell::RefCell;

use rand::Rng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use crate::cutoff::ShadowCutoff;
use crate::{Db, SPEED_OF_LIGHT};

/// Minimum distance (m) used when evaluating path loss, guarding the
/// `log(d)` singularity at `d = 0` (two nodes at the same point).
pub(crate) const MIN_DISTANCE_M: f64 = 0.1;

/// Serializable propagation-model state for checkpoint/restore.
///
/// Stochastic wrappers ([`Shadowed`], [`Nakagami`]) consume RNG words
/// per packet, so resuming a run byte-identically requires rewinding
/// their stream to the captured word position. The position is stored
/// as a `(hi, lo)` pair of `u64`s because `u128` does not survive a
/// JSON round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PropagationState {
    /// Deterministic model: nothing to capture.
    Stateless,
    /// ChaCha word position of the model's RNG stream.
    Rng {
        /// `(pos >> 64, pos as u64)` of the stream's word position.
        word_pos: (u64, u64),
    },
}

fn word_pos_parts(rng: &ChaCha12Rng) -> (u64, u64) {
    let pos = rng.get_word_pos();
    ((pos >> 64) as u64, pos as u64)
}

fn join_word_pos(hi: u64, lo: u64) -> u128 {
    (u128::from(hi) << 64) | u128::from(lo)
}

/// A large-scale radio propagation model mapping distance to path loss.
///
/// `mean_path_loss` is the deterministic (distance-only) component used
/// for link-budget planning; `path_loss` is what a given packet
/// actually experiences and may be stochastic (shadowing). For purely
/// deterministic models the two coincide (the default implementation).
pub trait Propagation {
    /// Deterministic mean path loss at `distance_m` meters.
    ///
    /// Implementations must be monotonically non-decreasing in
    /// distance — the link-budget range solver relies on it.
    fn mean_path_loss(&self, distance_m: f64) -> Db;

    /// Per-packet path loss at `distance_m` meters (may include random
    /// shadowing). Defaults to the mean.
    fn path_loss(&self, distance_m: f64) -> Db {
        self.mean_path_loss(distance_m)
    }

    /// Per-packet path loss at the squared distance `distance_sq`, or
    /// `None` when that packet certainly loses more than `max_loss`
    /// (beyond any rounding of the link budget), so no receiver can
    /// hear it. Takes exactly the draws `path_loss(distance_sq.sqrt())`
    /// takes, and a returned loss is that call's, bit for bit. Defaults
    /// to that call.
    fn path_loss_within(&self, distance_sq: f64, max_loss: Db) -> Option<Db> {
        let _ = max_loss;
        Some(self.path_loss(distance_sq.sqrt()))
    }

    /// Builds whatever [`path_loss_within`](Self::path_loss_within)
    /// needs to refuse packets against `max_loss` without computing
    /// them. [`Radio`](crate::Radio)'s constructors call it once with
    /// the budget's maximum path loss. Defaults to nothing.
    fn prepare_cutoff(&mut self, max_loss: Db) {
        let _ = max_loss;
    }

    /// Whether `path_loss` is a pure function of distance (no random
    /// shadowing or fading), i.e. every query returns exactly
    /// `mean_path_loss` regardless of any internal RNG state.
    ///
    /// Spatial-index delivery fast paths rely on this: with a
    /// deterministic model the receiver set is exactly the nominal
    /// range disk, so a range query plus slack can never miss a true
    /// receiver. Stochastic models must answer `false` so callers fall
    /// back to the exhaustive scan.
    fn is_deterministic(&self) -> bool {
        true
    }

    /// Captures the model's RNG state for a checkpoint. Deterministic
    /// models have nothing to capture and return
    /// [`PropagationState::Stateless`] (the default).
    fn save_state(&self) -> PropagationState {
        PropagationState::Stateless
    }

    /// Restores state captured by [`save_state`](Self::save_state), so
    /// the next per-packet draw continues exactly where the saved run
    /// left off. Deterministic models ignore the call (the default).
    /// Takes `&self` because stochastic models keep their RNG behind a
    /// [`RefCell`] — the same interior mutability `path_loss` uses.
    fn restore_state(&self, state: &PropagationState) {
        let _ = state;
    }
}

/// Friis free-space propagation: `Pr/Pt = (λ / 4πd)²`, the
/// inverse-square law the paper's mobility-metric derivation assumes
/// (§3.1). Path loss in dB is `20·log10(4πd/λ)`.
///
/// # Examples
///
/// ```
/// use mobic_radio::{FreeSpace, Propagation};
///
/// let fs = FreeSpace::at_frequency(914.0e6);
/// // Doubling the distance adds 20·log10(2) ≈ 6.02 dB of loss.
/// let delta = fs.mean_path_loss(200.0) - fs.mean_path_loss(100.0);
/// assert!((delta.db() - 6.0206).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreeSpace {
    wavelength_m: f64,
    system_loss: Db,
}

impl FreeSpace {
    /// Creates the model from a carrier wavelength in meters.
    ///
    /// # Panics
    ///
    /// Panics if `wavelength_m` is not positive and finite.
    #[must_use]
    pub fn new(wavelength_m: f64) -> Self {
        assert!(
            wavelength_m > 0.0 && wavelength_m.is_finite(),
            "wavelength must be positive and finite"
        );
        FreeSpace {
            wavelength_m,
            system_loss: Db::ZERO,
        }
    }

    /// Creates the model from a carrier frequency in Hz (e.g.
    /// `914.0e6` for the 914 MHz WaveLAN radio ns-2 modeled).
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is not positive and finite.
    #[must_use]
    pub fn at_frequency(freq_hz: f64) -> Self {
        assert!(
            freq_hz > 0.0 && freq_hz.is_finite(),
            "frequency must be positive"
        );
        Self::new(SPEED_OF_LIGHT / freq_hz)
    }

    /// Adds a fixed system loss `L` (ns-2's `L_` parameter).
    #[must_use]
    pub fn with_system_loss(mut self, loss: Db) -> Self {
        self.system_loss = loss;
        self
    }

    /// The carrier wavelength (m).
    #[must_use]
    pub fn wavelength(&self) -> f64 {
        self.wavelength_m
    }
}

impl Propagation for FreeSpace {
    fn mean_path_loss(&self, distance_m: f64) -> Db {
        let d = distance_m.max(MIN_DISTANCE_M);
        let ratio = 4.0 * std::f64::consts::PI * d / self.wavelength_m;
        Db::new(20.0 * ratio.log10()) + self.system_loss
    }
}

/// Two-ray ground-reflection model — ns-2's default for outdoor
/// scenarios: Friis up to the crossover distance
/// `d_c = 4π·h_t·h_r / λ`, then `Pr = Pt·Gt·Gr·h_t²·h_r² / d⁴`
/// (inverse fourth power).
///
/// # Examples
///
/// ```
/// use mobic_radio::{Propagation, TwoRayGround};
///
/// let m = TwoRayGround::ns2_default();
/// // Beyond crossover, doubling distance costs ~12 dB (d^4 law).
/// let d0 = 2.0 * m.crossover_distance();
/// let delta = m.mean_path_loss(2.0 * d0) - m.mean_path_loss(d0);
/// assert!((delta.db() - 12.04).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoRayGround {
    friis: FreeSpace,
    tx_height_m: f64,
    rx_height_m: f64,
}

impl TwoRayGround {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if heights are not positive and finite, or the
    /// wavelength is invalid.
    #[must_use]
    pub fn new(wavelength_m: f64, tx_height_m: f64, rx_height_m: f64) -> Self {
        assert!(
            tx_height_m > 0.0
                && rx_height_m > 0.0
                && tx_height_m.is_finite()
                && rx_height_m.is_finite(),
            "antenna heights must be positive and finite"
        );
        TwoRayGround {
            friis: FreeSpace::new(wavelength_m),
            tx_height_m,
            rx_height_m,
        }
    }

    /// ns-2's wireless defaults: 914 MHz carrier, 1.5 m antennas —
    /// the configuration behind the paper's simulations.
    #[must_use]
    pub fn ns2_default() -> Self {
        Self::new(SPEED_OF_LIGHT / 914.0e6, 1.5, 1.5)
    }

    /// The crossover distance `4π·h_t·h_r/λ` where the model switches
    /// from Friis to fourth-power decay.
    #[must_use]
    pub fn crossover_distance(&self) -> f64 {
        4.0 * std::f64::consts::PI * self.tx_height_m * self.rx_height_m / self.friis.wavelength()
    }
}

impl Propagation for TwoRayGround {
    fn mean_path_loss(&self, distance_m: f64) -> Db {
        let d = distance_m.max(MIN_DISTANCE_M);
        if d <= self.crossover_distance() {
            self.friis.mean_path_loss(d)
        } else {
            // PL = 40 log10(d) − 20 log10(h_t · h_r)
            Db::new(40.0 * d.log10() - 20.0 * (self.tx_height_m * self.rx_height_m).log10())
        }
    }
}

/// Log-distance path loss: `PL(d) = PL(d₀) + 10·n·log10(d/d₀)`.
///
/// The exponent `n` interpolates between free space (`n = 2`) and
/// heavily obstructed environments (`n = 4–6`); the paper's motivating
/// example of "a street with dense foliage" (§3.1) is the `n > 2`
/// regime.
///
/// # Examples
///
/// ```
/// use mobic_radio::{Db, LogDistance, Propagation};
///
/// let m = LogDistance::new(3.0, 1.0, Db::new(40.0));
/// assert_eq!(m.mean_path_loss(1.0), Db::new(40.0));
/// assert_eq!(m.mean_path_loss(10.0), Db::new(70.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogDistance {
    exponent: f64,
    reference_m: f64,
    reference_loss: Db,
}

impl LogDistance {
    /// Creates the model with path-loss exponent `exponent`, reference
    /// distance `reference_m` and loss `reference_loss` at the
    /// reference distance.
    ///
    /// # Panics
    ///
    /// Panics if the exponent is negative or the reference distance is
    /// not positive.
    #[must_use]
    pub fn new(exponent: f64, reference_m: f64, reference_loss: Db) -> Self {
        assert!(
            exponent >= 0.0 && exponent.is_finite(),
            "exponent must be non-negative"
        );
        assert!(
            reference_m > 0.0 && reference_m.is_finite(),
            "reference distance must be positive"
        );
        LogDistance {
            exponent,
            reference_m,
            reference_loss,
        }
    }

    /// A free-space-calibrated log-distance model: matches Friis at
    /// the 1 m reference, then decays with the given exponent.
    #[must_use]
    pub fn calibrated_to_friis(freq_hz: f64, exponent: f64) -> Self {
        let fs = FreeSpace::at_frequency(freq_hz);
        Self::new(exponent, 1.0, fs.mean_path_loss(1.0))
    }

    /// The path-loss exponent.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }
}

impl Propagation for LogDistance {
    fn mean_path_loss(&self, distance_m: f64) -> Db {
        let d = distance_m.max(MIN_DISTANCE_M);
        self.reference_loss + Db::new(10.0 * self.exponent * (d / self.reference_m).log10())
    }
}

/// Log-normal shadowing wrapper: adds zero-mean Gaussian noise (in dB)
/// with standard deviation `sigma_db` to every per-packet path-loss
/// query, leaving the mean untouched.
///
/// The paper explicitly excludes fading/shadowing (§3.1, footnote); we
/// provide it for the robustness ablation (experiment X6/X7 territory:
/// how noisy can RxPr get before MOBIC's advantage erodes?).
///
/// # Examples
///
/// ```
/// use mobic_radio::{FreeSpace, Propagation, Shadowed};
/// use mobic_sim::rng::SeedSplitter;
///
/// let sh = Shadowed::new(
///     FreeSpace::at_frequency(914.0e6),
///     4.0,
///     SeedSplitter::new(1).stream("shadow", 0),
/// );
/// let mean = sh.mean_path_loss(100.0);
/// let noisy = sh.path_loss(100.0);
/// assert_ne!(mean, noisy); // almost surely
/// ```
#[derive(Debug)]
pub struct Shadowed<P> {
    inner: P,
    sigma_db: f64,
    rng: RefCell<ChaCha12Rng>,
    /// The reject bound of `path_loss_within`, built by
    /// `prepare_cutoff` over a deterministic inner model.
    cutoff: Option<ShadowCutoff>,
}

impl<P: Propagation> Shadowed<P> {
    /// Wraps `inner` with shadowing of standard deviation `sigma_db`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_db` is negative or non-finite.
    #[must_use]
    pub fn new(inner: P, sigma_db: f64, rng: ChaCha12Rng) -> Self {
        assert!(
            sigma_db >= 0.0 && sigma_db.is_finite(),
            "sigma must be non-negative and finite"
        );
        Shadowed {
            inner,
            sigma_db,
            rng: RefCell::new(rng),
            cutoff: None,
        }
    }

    /// The wrapped deterministic model.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The shadowing standard deviation in dB.
    #[must_use]
    pub fn sigma_db(&self) -> f64 {
        self.sigma_db
    }

    /// The loss at `distance_m` for the draw `(u1, u2)`.
    fn shadowed_loss(&self, distance_m: f64, u1: f64, u2: f64) -> Db {
        self.inner.path_loss(distance_m) + Db::new(self.sigma_db * box_muller(u1, u2))
    }
}

impl<P: Propagation> Propagation for Shadowed<P> {
    fn mean_path_loss(&self, distance_m: f64) -> Db {
        self.inner.mean_path_loss(distance_m)
    }

    fn path_loss(&self, distance_m: f64) -> Db {
        let (u1, u2) = uniforms(&mut self.rng.borrow_mut());
        self.shadowed_loss(distance_m, u1, u2)
    }

    /// Draws both uniforms as [`path_loss`](Self::path_loss) does, then
    /// refuses the packet without any transcendental call, or even the
    /// distance's square root, when the table built by
    /// [`prepare_cutoff`](Self::prepare_cutoff) proves it lost (see
    /// DESIGN.md §6, "Shadowed links that cannot close").
    fn path_loss_within(&self, distance_sq: f64, max_loss: Db) -> Option<Db> {
        let (u1, u2) = uniforms(&mut self.rng.borrow_mut());
        if let Some(cutoff) = &self.cutoff {
            if cutoff.max_loss() == max_loss && cutoff.rejects(distance_sq, u1, u2) {
                return None;
            }
        }
        Some(self.shadowed_loss(distance_sq.sqrt(), u1, u2))
    }

    /// Builds the reject table for `max_loss`. A stochastic inner model
    /// keeps the exact path.
    fn prepare_cutoff(&mut self, max_loss: Db) {
        self.cutoff = if self.inner.is_deterministic() {
            ShadowCutoff::build(&self.inner, self.sigma_db, max_loss)
        } else {
            None
        };
    }

    fn is_deterministic(&self) -> bool {
        // σ = 0 degenerates to the wrapped model.
        self.sigma_db == 0.0 && self.inner.is_deterministic()
    }

    fn save_state(&self) -> PropagationState {
        PropagationState::Rng {
            word_pos: word_pos_parts(&self.rng.borrow()),
        }
    }

    fn restore_state(&self, state: &PropagationState) {
        if let PropagationState::Rng { word_pos: (hi, lo) } = *state {
            self.rng.borrow_mut().set_word_pos(join_word_pos(hi, lo));
        }
    }
}

/// Nakagami-*m* fast fading wrapper — ns-2's other stochastic channel.
/// The received *power* under Nakagami-m fading is Gamma-distributed
/// with shape `m` and unit mean, multiplying the deterministic
/// path-gain; `m = 1` is Rayleigh fading, larger `m` approaches the
/// deterministic channel.
///
/// Like [`Shadowed`], the mean path loss stays deterministic for
/// link-budget planning while per-packet draws fluctuate.
///
/// # Examples
///
/// ```
/// use mobic_radio::{FreeSpace, Nakagami, Propagation};
/// use mobic_sim::rng::SeedSplitter;
///
/// let ch = Nakagami::new(
///     FreeSpace::at_frequency(914.0e6),
///     1.0, // Rayleigh
///     SeedSplitter::new(1).stream("fading", 0),
/// );
/// assert_ne!(ch.path_loss(100.0), ch.mean_path_loss(100.0));
/// ```
#[derive(Debug)]
pub struct Nakagami<P> {
    inner: P,
    m: f64,
    rng: RefCell<ChaCha12Rng>,
}

impl<P: Propagation> Nakagami<P> {
    /// Wraps `inner` with Nakagami-`m` fading.
    ///
    /// # Panics
    ///
    /// Panics if `m < 0.5` (the distribution's validity bound).
    #[must_use]
    pub fn new(inner: P, m: f64, rng: ChaCha12Rng) -> Self {
        assert!(m >= 0.5 && m.is_finite(), "Nakagami m must be >= 0.5");
        Nakagami {
            inner,
            m,
            rng: RefCell::new(rng),
        }
    }

    /// The fading figure `m`.
    #[must_use]
    pub fn m(&self) -> f64 {
        self.m
    }

    /// The wrapped deterministic model.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Draws a Gamma(shape = m, scale = 1/m) variate (unit mean) via
    /// the Marsaglia–Tsang method (with the shape<1 boost).
    fn gamma_unit_mean(&self) -> f64 {
        fn gauss(rng: &mut ChaCha12Rng) -> f64 {
            let (u1, u2) = uniforms(rng);
            box_muller(u1, u2)
        }
        let mut rng = self.rng.borrow_mut();
        let shape = self.m;
        let boosted = if shape < 1.0 { shape + 1.0 } else { shape };
        let d = boosted - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        let sample = loop {
            let x = gauss(&mut rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen();
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                break d * v;
            }
        };
        let sample = if shape < 1.0 {
            let u: f64 = rng.gen();
            sample * u.powf(1.0 / shape)
        } else {
            sample
        };
        // Scale to unit mean: Gamma(shape=m, scale=1/m).
        sample / self.m
    }
}

impl<P: Propagation> Propagation for Nakagami<P> {
    fn mean_path_loss(&self, distance_m: f64) -> Db {
        self.inner.mean_path_loss(distance_m)
    }

    fn path_loss(&self, distance_m: f64) -> Db {
        // Multiplicative unit-mean power fading = additive dB term.
        let fade = self.gamma_unit_mean().max(1e-12);
        self.inner.path_loss(distance_m) - Db::new(10.0 * fade.log10())
    }

    fn is_deterministic(&self) -> bool {
        false
    }

    fn save_state(&self) -> PropagationState {
        PropagationState::Rng {
            word_pos: word_pos_parts(&self.rng.borrow()),
        }
    }

    fn restore_state(&self, state: &PropagationState) {
        if let PropagationState::Rng { word_pos: (hi, lo) } = *state {
            self.rng.borrow_mut().set_word_pos(join_word_pos(hi, lo));
        }
    }
}

/// The two uniforms of one Box–Muller draw, in stream order:
/// `u₁ = 1 − U₁ ∈ (0, 1]`, so its logarithm is finite, and `u₂ ∈ [0, 1)`.
fn uniforms(rng: &mut ChaCha12Rng) -> (f64, f64) {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (u1, u2)
}

/// The standard normal variate `√(−2 ln u₁)·cos(2πu₂)` of the uniforms
/// [`uniforms`] draws.
pub(crate) fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A shared reference forwards every query. It cannot forward
/// [`prepare_cutoff`](Propagation::prepare_cutoff), so the model keeps
/// the table it was prepared with, which it uses only for the same
/// maximum loss.
impl<P: Propagation + ?Sized> Propagation for &P {
    fn mean_path_loss(&self, distance_m: f64) -> Db {
        (**self).mean_path_loss(distance_m)
    }

    fn path_loss(&self, distance_m: f64) -> Db {
        (**self).path_loss(distance_m)
    }

    fn path_loss_within(&self, distance_sq: f64, max_loss: Db) -> Option<Db> {
        (**self).path_loss_within(distance_sq, max_loss)
    }

    fn is_deterministic(&self) -> bool {
        (**self).is_deterministic()
    }

    fn save_state(&self) -> PropagationState {
        (**self).save_state()
    }

    fn restore_state(&self, state: &PropagationState) {
        (**self).restore_state(state);
    }
}

impl<P: Propagation + ?Sized> Propagation for Box<P> {
    fn prepare_cutoff(&mut self, max_loss: Db) {
        (**self).prepare_cutoff(max_loss);
    }

    fn mean_path_loss(&self, distance_m: f64) -> Db {
        (**self).mean_path_loss(distance_m)
    }

    fn path_loss(&self, distance_m: f64) -> Db {
        (**self).path_loss(distance_m)
    }

    fn path_loss_within(&self, distance_sq: f64, max_loss: Db) -> Option<Db> {
        (**self).path_loss_within(distance_sq, max_loss)
    }

    fn is_deterministic(&self) -> bool {
        (**self).is_deterministic()
    }

    fn save_state(&self) -> PropagationState {
        (**self).save_state()
    }

    fn restore_state(&self, state: &PropagationState) {
        (**self).restore_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobic_sim::rng::SeedSplitter;

    #[test]
    fn friis_inverse_square() {
        let fs = FreeSpace::at_frequency(914.0e6);
        // 10x distance = +20 dB loss.
        let delta = fs.mean_path_loss(1000.0) - fs.mean_path_loss(100.0);
        assert!((delta.db() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn friis_reference_value() {
        // At 914 MHz (λ ≈ 0.328 m), PL(100 m) = 20·log10(4π·100/0.328) ≈ 71.7 dB.
        let fs = FreeSpace::at_frequency(914.0e6);
        let pl = fs.mean_path_loss(100.0).db();
        assert!((pl - 71.67).abs() < 0.05, "pl = {pl}");
    }

    #[test]
    fn friis_system_loss_adds() {
        let fs = FreeSpace::at_frequency(914.0e6);
        let lossy = fs.with_system_loss(Db::new(3.0));
        let delta = lossy.mean_path_loss(50.0) - fs.mean_path_loss(50.0);
        assert!((delta.db() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_distance_is_guarded() {
        let fs = FreeSpace::at_frequency(914.0e6);
        assert_eq!(fs.mean_path_loss(0.0), fs.mean_path_loss(MIN_DISTANCE_M));
    }

    #[test]
    fn two_ray_crossover_value() {
        // d_c = 4π·1.5·1.5/λ with λ = c/914 MHz ≈ 0.3280 m → ≈ 86.2 m.
        let m = TwoRayGround::ns2_default();
        assert!(
            (m.crossover_distance() - 86.2).abs() < 0.5,
            "{}",
            m.crossover_distance()
        );
    }

    #[test]
    fn two_ray_matches_friis_below_crossover() {
        let m = TwoRayGround::ns2_default();
        let fs = FreeSpace::at_frequency(914.0e6);
        for d in [1.0, 10.0, 50.0, 80.0] {
            assert_eq!(m.mean_path_loss(d), fs.mean_path_loss(d));
        }
    }

    #[test]
    fn two_ray_fourth_power_beyond_crossover() {
        let m = TwoRayGround::ns2_default();
        let d0 = 200.0;
        let delta = m.mean_path_loss(2.0 * d0) - m.mean_path_loss(d0);
        assert!((delta.db() - 40.0 * 2f64.log10()).abs() < 1e-9);
    }

    #[test]
    fn two_ray_is_continuous_enough_at_crossover() {
        // ns-2's two-ray has a small jump at crossover; ours should be
        // within a fraction of a dB.
        let m = TwoRayGround::ns2_default();
        let dc = m.crossover_distance();
        let below = m.mean_path_loss(dc * 0.999).db();
        let above = m.mean_path_loss(dc * 1.001).db();
        assert!(
            (below - above).abs() < 0.5,
            "jump {} dB",
            (below - above).abs()
        );
    }

    #[test]
    fn log_distance_exponent() {
        let m = LogDistance::new(4.0, 1.0, Db::new(40.0));
        let delta = m.mean_path_loss(100.0) - m.mean_path_loss(10.0);
        assert!((delta.db() - 40.0).abs() < 1e-9);
        assert_eq!(m.exponent(), 4.0);
    }

    #[test]
    fn log_distance_calibrated_matches_friis_at_reference() {
        let m = LogDistance::calibrated_to_friis(914.0e6, 2.0);
        let fs = FreeSpace::at_frequency(914.0e6);
        assert!((m.mean_path_loss(1.0) - fs.mean_path_loss(1.0)).db().abs() < 1e-9);
        // With n=2 it matches Friis everywhere.
        assert!(
            (m.mean_path_loss(123.0) - fs.mean_path_loss(123.0))
                .db()
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn monotonicity_of_all_models() {
        let fs = FreeSpace::at_frequency(914.0e6);
        let tr = TwoRayGround::ns2_default();
        let ld = LogDistance::calibrated_to_friis(914.0e6, 3.5);
        let mut prev = (Db::new(-1e9), Db::new(-1e9), Db::new(-1e9));
        for i in 1..500 {
            let d = i as f64;
            let cur = (
                fs.mean_path_loss(d),
                tr.mean_path_loss(d),
                ld.mean_path_loss(d),
            );
            assert!(
                cur.0 >= prev.0 && cur.1 >= prev.1 && cur.2 >= prev.2,
                "non-monotone at {d}"
            );
            prev = cur;
        }
    }

    #[test]
    fn shadowing_mean_and_spread() {
        let sh = Shadowed::new(
            FreeSpace::at_frequency(914.0e6),
            6.0,
            SeedSplitter::new(5).stream("sh", 0),
        );
        let mean_pl = sh.mean_path_loss(100.0).db();
        let n = 5000;
        let samples: Vec<f64> = (0..n).map(|_| sh.path_loss(100.0).db()).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - mean_pl).abs() < 0.3, "mean {mean} vs {mean_pl}");
        assert!((var.sqrt() - 6.0).abs() < 0.3, "sigma {}", var.sqrt());
    }

    #[test]
    fn shadowing_zero_sigma_is_deterministic() {
        let sh = Shadowed::new(
            FreeSpace::at_frequency(914.0e6),
            0.0,
            SeedSplitter::new(5).stream("sh", 1),
        );
        assert_eq!(sh.path_loss(100.0), sh.mean_path_loss(100.0));
        assert_eq!(sh.sigma_db(), 0.0);
    }

    #[test]
    fn nakagami_unit_mean_and_spread() {
        let ch = Nakagami::new(
            FreeSpace::at_frequency(914.0e6),
            1.0,
            SeedSplitter::new(9).stream("nak", 0),
        );
        assert_eq!(ch.m(), 1.0);
        let mean_pl = ch.mean_path_loss(100.0).db();
        // Average *linear* received-power factor must be ~1 (unit-mean
        // fading): E[10^((mean_pl - pl)/10)] ≈ 1.
        let n = 20_000;
        let mut linear_sum = 0.0;
        for _ in 0..n {
            let pl = ch.path_loss(100.0).db();
            linear_sum += 10f64.powf((mean_pl - pl) / 10.0);
        }
        let mean_factor = linear_sum / f64::from(n);
        assert!(
            (mean_factor - 1.0).abs() < 0.05,
            "mean fading factor {mean_factor}"
        );
    }

    #[test]
    fn nakagami_high_m_approaches_deterministic() {
        let calm = Nakagami::new(
            FreeSpace::at_frequency(914.0e6),
            50.0,
            SeedSplitter::new(9).stream("nak", 1),
        );
        let wild = Nakagami::new(
            FreeSpace::at_frequency(914.0e6),
            1.0,
            SeedSplitter::new(9).stream("nak", 2),
        );
        let spread = |ch: &Nakagami<FreeSpace>| -> f64 {
            let mean = ch.mean_path_loss(100.0).db();
            (0..2000)
                .map(|_| (ch.path_loss(100.0).db() - mean).powi(2))
                .sum::<f64>()
                / 2000.0
        };
        assert!(spread(&calm) < spread(&wild) / 5.0);
    }

    #[test]
    fn nakagami_sub_unity_shape_works() {
        let ch = Nakagami::new(
            FreeSpace::at_frequency(914.0e6),
            0.5,
            SeedSplitter::new(9).stream("nak", 3),
        );
        for _ in 0..100 {
            let pl = ch.path_loss(50.0);
            assert!(pl.db().is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "0.5")]
    fn nakagami_rejects_tiny_m() {
        let _ = Nakagami::new(
            FreeSpace::at_frequency(914.0e6),
            0.2,
            SeedSplitter::new(9).stream("nak", 4),
        );
    }

    #[test]
    fn trait_object_and_reference_impls() {
        let fs = FreeSpace::at_frequency(914.0e6);
        let by_ref: &dyn Propagation = &fs;
        assert_eq!(by_ref.mean_path_loss(10.0), fs.mean_path_loss(10.0));
        assert!(by_ref.is_deterministic());
        let boxed: Box<dyn Propagation> = Box::new(fs);
        assert_eq!(boxed.mean_path_loss(10.0), fs.mean_path_loss(10.0));
        assert!(boxed.is_deterministic());
    }

    #[test]
    fn determinism_capability_flags() {
        assert!(FreeSpace::at_frequency(914.0e6).is_deterministic());
        assert!(TwoRayGround::ns2_default().is_deterministic());
        assert!(LogDistance::calibrated_to_friis(914.0e6, 3.0).is_deterministic());
        let sh = Shadowed::new(
            FreeSpace::at_frequency(914.0e6),
            4.0,
            SeedSplitter::new(1).stream("sh", 0),
        );
        assert!(!sh.is_deterministic());
        // Degenerate σ = 0 shadowing is behaviorally deterministic.
        let flat = Shadowed::new(
            FreeSpace::at_frequency(914.0e6),
            0.0,
            SeedSplitter::new(1).stream("sh", 1),
        );
        assert!(flat.is_deterministic());
        let nak = Nakagami::new(
            FreeSpace::at_frequency(914.0e6),
            5.0,
            SeedSplitter::new(1).stream("nak", 0),
        );
        assert!(!nak.is_deterministic());
        // The capability forwards through trait objects.
        let boxed: Box<dyn Propagation> = Box::new(Shadowed::new(
            FreeSpace::at_frequency(914.0e6),
            4.0,
            SeedSplitter::new(1).stream("sh", 2),
        ));
        assert!(!boxed.is_deterministic());
    }

    #[test]
    fn save_restore_resumes_shadowing_stream_exactly() {
        let make = || {
            Shadowed::new(
                FreeSpace::at_frequency(914.0e6),
                6.0,
                SeedSplitter::new(11).stream("sh", 0),
            )
        };
        let reference = make();
        let resumed = make();
        // Burn a prefix on both, capture, then burn extra draws on the
        // resumed copy before rewinding it.
        for _ in 0..73 {
            let _ = reference.path_loss(100.0);
            let _ = resumed.path_loss(100.0);
        }
        let state = resumed.save_state();
        assert!(!matches!(state, PropagationState::Stateless));
        for _ in 0..19 {
            let _ = resumed.path_loss(100.0);
        }
        resumed.restore_state(&state);
        for i in 0..200 {
            assert_eq!(
                reference.path_loss(100.0),
                resumed.path_loss(100.0),
                "draw {i} diverged after restore"
            );
        }
    }

    #[test]
    fn save_restore_resumes_nakagami_stream_exactly() {
        let make = || {
            Nakagami::new(
                FreeSpace::at_frequency(914.0e6),
                0.7, // shape < 1 exercises the boost path's extra draws
                SeedSplitter::new(12).stream("nak", 0),
            )
        };
        let reference = make();
        let resumed = make();
        for _ in 0..41 {
            let _ = reference.path_loss(80.0);
            let _ = resumed.path_loss(80.0);
        }
        let state = resumed.save_state();
        for _ in 0..7 {
            let _ = resumed.path_loss(80.0);
        }
        resumed.restore_state(&state);
        for i in 0..200 {
            assert_eq!(
                reference.path_loss(80.0),
                resumed.path_loss(80.0),
                "draw {i} diverged after restore"
            );
        }
    }

    #[test]
    fn save_state_forwards_through_trait_objects() {
        let boxed: Box<dyn Propagation> = Box::new(Shadowed::new(
            FreeSpace::at_frequency(914.0e6),
            4.0,
            SeedSplitter::new(13).stream("sh", 0),
        ));
        // Without explicit delegation the Box impl would shadow the
        // concrete save_state with the Stateless default.
        assert!(!matches!(boxed.save_state(), PropagationState::Stateless));
        let by_ref: &dyn Propagation = &*boxed;
        assert!(!matches!(by_ref.save_state(), PropagationState::Stateless));
        // Deterministic models really are stateless through the same path.
        let det: Box<dyn Propagation> = Box::new(FreeSpace::at_frequency(914.0e6));
        assert!(matches!(det.save_state(), PropagationState::Stateless));
        det.restore_state(&PropagationState::Stateless); // no-op, must not panic
    }

    #[test]
    fn bounded_queries_forward_through_trait_objects() {
        // Answers from what it was prepared with, unlike the default.
        struct Prepared(f64);
        impl Propagation for Prepared {
            fn mean_path_loss(&self, _: f64) -> Db {
                Db::ZERO
            }
            fn path_loss_within(&self, distance_sq: f64, _: Db) -> Option<Db> {
                Some(Db::new(self.0 + distance_sq))
            }
            fn prepare_cutoff(&mut self, max_loss: Db) {
                self.0 = max_loss.db();
            }
        }
        // Without explicit delegation the Box impl would prepare
        // nothing and answer with the default exact path.
        let mut boxed: Box<dyn Propagation> = Box::new(Prepared(0.0));
        boxed.prepare_cutoff(Db::new(7.0));
        assert_eq!(boxed.path_loss_within(2.0, Db::ZERO), Some(Db::new(9.0)));
        let by_ref: &dyn Propagation = &*boxed;
        assert_eq!(by_ref.path_loss_within(2.0, Db::ZERO), Some(Db::new(9.0)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_wavelength_panics() {
        let _ = FreeSpace::new(0.0);
    }

    #[test]
    #[should_panic(expected = "heights")]
    fn bad_heights_panic() {
        let _ = TwoRayGround::new(0.33, 0.0, 1.5);
    }
}
