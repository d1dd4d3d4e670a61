//! Attack-effort metrics: how the correct key's rank evolves with the
//! number of traces.
//!
//! The paper reports single operating points (100k traces bare metal,
//! hundreds of averaged traces under Linux); a library user evaluating a
//! countermeasure wants the whole curve — "how many traces until rank 0"
//! is the standard measurement-to-disclosure metric. The evolution is
//! computed in one streaming pass through one [`CpaAccumulator`], each
//! checkpoint's verdict from its peaks pass.

use crate::{CpaAccumulator, SelectionFunction, TraceSet};

/// The attack state at one checkpoint of the trace budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankPoint {
    /// Traces consumed so far.
    pub traces: usize,
    /// Rank of the correct key (0 = attack succeeds).
    pub rank: usize,
    /// Peak |correlation| of the correct key at this point.
    pub correct_peak: f64,
    /// Peak |correlation| of the best wrong guess.
    pub best_wrong_peak: f64,
}

/// Computes the correct-key rank at increasing trace counts, in one pass.
///
/// `checkpoints` are trace counts at which to snapshot (values larger
/// than the set are clamped; duplicates and zeros are ignored). Guesses
/// are `0..=255`.
///
/// ```no_run
/// # use sca_analysis::{rank_evolution, FnSelection};
/// # let traces = sca_power::TraceSet::new(0);
/// let model = FnSelection::new("m", |i: &[u8], k: u8| f64::from(i[0] ^ k));
/// let curve = rank_evolution(&traces, &model, 0x2b, &[50, 100, 200, 400]);
/// let needed = curve.iter().find(|p| p.rank == 0).map(|p| p.traces);
/// # let _ = needed;
/// ```
pub fn rank_evolution(
    traces: &TraceSet,
    selection: &dyn SelectionFunction,
    correct: u8,
    checkpoints: &[usize],
) -> Vec<RankPoint> {
    let mut points: Vec<usize> = checkpoints
        .iter()
        .copied()
        .map(|c| c.min(traces.len()))
        .filter(|&c| c > 0)
        .collect();
    points.sort_unstable();
    points.dedup();

    let correct = usize::from(correct);
    let mut acc = CpaAccumulator::new(256, traces.samples_per_trace());
    let mut absorbed = 0;
    points
        .into_iter()
        .map(|n| {
            acc.absorb_set(traces, absorbed..n, selection);
            absorbed = n;
            let peaks = acc.peaks();
            let correct_peak = peaks.peak(correct);
            RankPoint {
                traces: n,
                rank: (0..peaks.guesses())
                    .filter(|&g| peaks.peak(g) > correct_peak)
                    .count(),
                correct_peak,
                best_wrong_peak: peaks.best_wrong_peak(correct),
            }
        })
        .collect()
}

/// The smallest checkpoint at which the attack reaches rank 0 and stays
/// there for all later checkpoints, if any — the "traces to disclosure"
/// summary metric.
pub fn traces_to_rank0(curve: &[RankPoint]) -> Option<usize> {
    let mut candidate = None;
    for point in curve {
        if point.rank == 0 {
            candidate.get_or_insert(point.traces);
        } else {
            candidate = None;
        }
    }
    candidate
}

/// A rule-of-thumb forecast of traces-to-disclosure from an observed
/// peak correlation: `ceil(3 + 8 / ln²((1+ρ)/(1-ρ)))` — Mangard's
/// success-rate formula for a 90%-confidence distinguishing experiment,
/// the standard way to extrapolate "how many more traces" while an
/// attack is still below rank 0.
///
/// Used by the campaign server's streamed progress events: once a
/// partial campaign reaches rank 0 the *measured* crossing
/// ([`traces_to_rank0`]) is authoritative, but before that this
/// estimate is the only forward-looking number available. Returns
/// `None` for `ρ ≤ 0` or non-finite inputs (no correlation ⇒ no
/// forecast); `ρ ≥ 1` forecasts the 3-trace floor.
#[must_use]
pub fn estimate_traces_to_disclosure(rho: f64) -> Option<u64> {
    if !rho.is_finite() || rho <= 0.0 {
        return None;
    }
    if rho >= 1.0 {
        return Some(3);
    }
    // Fisher z-transform: z = ln((1+ρ)/(1-ρ)) = 2·atanh(ρ).
    let z = ((1.0 + rho) / (1.0 - rho)).ln();
    let n = 3.0 + 8.0 / (z * z);
    Some(n.ceil() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hw8, FnSelection};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sbox(x: u8) -> u8 {
        let y = u32::from(x).wrapping_add(113);
        let cube = y.wrapping_mul(y).wrapping_mul(y);
        (cube ^ (cube >> 8) ^ (cube >> 17)) as u8
    }

    fn noisy_traces(key: u8, n: usize, noise: f64) -> TraceSet {
        let mut rng = StdRng::seed_from_u64(9);
        let mut set = TraceSet::new(4);
        for _ in 0..n {
            let pt: u8 = rng.gen();
            let leak = f64::from(hw8(sbox(pt ^ key)));
            let mut t = vec![0.0f32; 4];
            for (i, v) in t.iter_mut().enumerate() {
                *v = (rng.gen_range(-noise..noise) + if i == 2 { leak } else { 0.0 }) as f32;
            }
            set.push(t, vec![pt]);
        }
        set
    }

    fn model() -> FnSelection<impl Fn(&[u8], u8) -> f64 + Send + Sync> {
        FnSelection::new("hw(S(pt^k))", |i: &[u8], k: u8| {
            f64::from(hw8(sbox(i[0] ^ k)))
        })
    }

    #[test]
    fn rank_improves_with_traces() {
        let set = noisy_traces(0x42, 600, 6.0);
        let curve = rank_evolution(&set, &model(), 0x42, &[20, 100, 300, 600]);
        assert_eq!(curve.len(), 4);
        assert_eq!(
            curve.last().expect("nonempty").rank,
            0,
            "600 traces suffice"
        );
        // Monotone trace counts; final rank better or equal to earliest.
        assert!(curve.first().expect("nonempty").rank >= curve.last().expect("nonempty").rank);
    }

    #[test]
    fn evolution_matches_full_cpa_at_the_end() {
        let set = noisy_traces(0x17, 200, 2.0);
        let curve = rank_evolution(&set, &model(), 0x17, &[200]);
        let full = crate::cpa_attack(
            &set,
            &model(),
            &crate::CpaConfig {
                guesses: 256,
                threads: 4,
            },
        );
        assert_eq!(curve[0].rank, full.rank_of(0x17));
        let (_, peak) = full.peak(0x17);
        assert!((curve[0].correct_peak - peak.abs()).abs() < 1e-12);
    }

    /// Every `RankPoint` field, floats as bit patterns, from checkpoints
    /// at one trace (all-zero correlations), two (every |r| is 0 or
    /// about 1, so peaks tie), around a 64-trace boundary and at the
    /// end.
    /// Generated by the implementation that kept one
    /// `PearsonAccumulator` per guess.
    #[test]
    fn rank_points_are_pinned() {
        let set = noisy_traces(0x42, 300, 6.0);
        let curve = rank_evolution(&set, &model(), 0x42, &[1, 2, 3, 20, 64, 65, 100, 300]);
        let bits: Vec<(usize, usize, u64, u64)> = curve
            .iter()
            .map(|p| {
                (
                    p.traces,
                    p.rank,
                    p.correct_peak.to_bits(),
                    p.best_wrong_peak.to_bits(),
                )
            })
            .collect();
        assert_eq!(
            bits,
            [
                (1, 0, 0x0000_0000_0000_0000, 0x0000_0000_0000_0000),
                (2, 44, 0x3ff0_0000_0000_0000, 0x3ff0_0000_0000_0001),
                (3, 88, 0x3fee_913a_5603_551e, 0x3fef_fff8_aa5b_f490),
                (20, 47, 0x3fde_6b4e_4dab_81aa, 0x3fe8_6a9e_4079_22af),
                (64, 0, 0x3fda_6d2a_4e96_e19b, 0x3fd8_5480_46bc_ed17),
                (65, 0, 0x3fda_5e51_18e8_689c, 0x3fd8_8625_0e01_5a48),
                (100, 0, 0x3fd6_c99f_5d48_ae61, 0x3fd5_1450_fb87_cea6),
                (300, 0, 0x3fd1_6f13_7a82_0e64, 0x3fc8_6848_2803_0cf5),
            ]
        );
    }

    #[test]
    fn traces_to_rank0_requires_stability() {
        let curve = vec![
            RankPoint {
                traces: 10,
                rank: 0,
                correct_peak: 0.5,
                best_wrong_peak: 0.4,
            },
            RankPoint {
                traces: 20,
                rank: 3,
                correct_peak: 0.4,
                best_wrong_peak: 0.5,
            },
            RankPoint {
                traces: 30,
                rank: 0,
                correct_peak: 0.6,
                best_wrong_peak: 0.3,
            },
        ];
        assert_eq!(
            traces_to_rank0(&curve),
            Some(30),
            "early luck at n=10 does not count"
        );
        assert_eq!(traces_to_rank0(&[]), None);
    }

    #[test]
    fn disclosure_estimate_tracks_correlation_strength() {
        // Stronger correlation ⇒ fewer traces; the curve must be
        // monotone and hit the known anchors of Mangard's formula.
        let strong = estimate_traces_to_disclosure(0.8).expect("valid rho");
        let medium = estimate_traces_to_disclosure(0.3).expect("valid rho");
        let weak = estimate_traces_to_disclosure(0.05).expect("valid rho");
        assert!(strong < medium && medium < weak);
        // ρ=0.05 ⇒ z≈0.1, n ≈ 3 + 8/0.01 ≈ 803.
        assert!((750..=850).contains(&weak), "weak={weak}");
        assert_eq!(estimate_traces_to_disclosure(1.5), Some(3));
    }

    #[test]
    fn disclosure_estimate_rejects_unusable_correlations() {
        assert_eq!(estimate_traces_to_disclosure(0.0), None);
        assert_eq!(estimate_traces_to_disclosure(-0.4), None);
        assert_eq!(estimate_traces_to_disclosure(f64::NAN), None);
        assert_eq!(estimate_traces_to_disclosure(f64::INFINITY), None);
    }

    #[test]
    fn checkpoints_are_clamped_and_deduped() {
        let set = noisy_traces(0x01, 50, 1.0);
        let curve = rank_evolution(&set, &model(), 0x01, &[0, 25, 25, 500]);
        let ns: Vec<usize> = curve.iter().map(|p| p.traces).collect();
        assert_eq!(ns, vec![25, 50]);
    }
}
