//! Figure 3: CPA against AES on bare metal.
//!
//! The attack uses a microarchitecture-*unaware* model — the Hamming
//! weight of a SubBytes output byte — and still localizes leakage across
//! the first round: the S-box table load/store inside SubBytes, the
//! byte-shift composition in ShiftRows, the xtime manipulation (plus
//! spill/fill) inside MixColumns. The driver reproduces the correlation-
//! versus-time series with the round-primitive regions annotated.

use std::collections::BTreeMap;

use rand::Rng;

use sca_aes::{aes128_program, AesSim, SubBytesHw};
use sca_campaign::{Campaign, CampaignConfig, CpaSink};
use sca_power::{GaussianNoise, LeakageWeights, SamplingConfig};
use sca_target::check_charz_traces;
use sca_uarch::{PipelineObserver, UarchConfig};

/// Figure 3 campaign parameters.
#[derive(Clone, Debug)]
pub struct Figure3Config {
    /// Number of averaged traces (paper: 100k; a few thousand suffice in
    /// simulation).
    pub traces: usize,
    /// Executions averaged per trace (paper: 16).
    pub executions_per_trace: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Traces buffered per worker between accumulator updates.
    pub batch: usize,
    /// The AES key under attack.
    pub key: [u8; 16],
    /// Which SubBytes output byte the model targets.
    pub target_byte: usize,
    /// Measurement noise (bare-metal probe chain by default).
    pub noise: GaussianNoise,
}

impl Default for Figure3Config {
    fn default() -> Figure3Config {
        Figure3Config {
            traces: 1500,
            executions_per_trace: 4,
            seed: 0xf1931,
            threads: 8,
            batch: sca_campaign::DEFAULT_BATCH,
            key: *b"\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c",
            target_byte: 0,
            noise: GaussianNoise::bare_metal(),
        }
    }
}

/// A labeled region in cycles: `(primitive name, start cycle, end cycle)`.
pub type CycleRegion = (String, u64, u64);

/// A labeled region of the trace (one AES round primitive).
#[derive(Clone, Debug)]
pub struct PhaseRegion {
    /// Primitive name (ARK, SB, ShR, MC…).
    pub name: String,
    /// First sample of the region.
    pub start: usize,
    /// One past the last sample.
    pub end: usize,
}

/// Figure 3 outputs.
#[derive(Clone, Debug)]
pub struct Figure3Result {
    /// Correlation of the correct key guess, per sample.
    pub series_correct: Vec<f64>,
    /// Per-sample maximum |correlation| over all wrong guesses.
    pub series_best_wrong: Vec<f64>,
    /// Round-1 primitive regions (sample indices).
    pub regions: Vec<PhaseRegion>,
    /// Key byte recovered by the attack.
    pub recovered: u8,
    /// The true key byte.
    pub correct: u8,
    /// Oscilloscope samples per core cycle.
    pub samples_per_cycle: f64,
    /// Traces used.
    pub traces: usize,
}

impl Figure3Result {
    /// Whether the attack recovered the key byte.
    pub fn success(&self) -> bool {
        self.recovered == self.correct
    }

    /// Peak |correlation| of the correct key inside a named region.
    pub fn peak_in(&self, region_name: &str) -> f64 {
        self.regions
            .iter()
            .filter(|r| r.name == region_name)
            .flat_map(|r| {
                self.series_correct
                    [r.start.min(self.series_correct.len())..r.end.min(self.series_correct.len())]
                    .iter()
                    .map(|c| c.abs())
            })
            .fold(0.0, f64::max)
    }

    /// Global peak |correlation| of the correct key.
    pub fn peak(&self) -> f64 {
        self.series_correct
            .iter()
            .map(|c| c.abs())
            .fold(0.0, f64::max)
    }
}

/// Maps retirement addresses to AES primitive names using the program's
/// symbol table, and returns the round-1 regions in cycles relative to
/// the trigger: ARK, SB, ShR, MC and the closing ARK of round 1.
pub fn round1_regions(sim: &AesSim) -> Result<Vec<CycleRegion>, Box<dyn std::error::Error>> {
    let program = aes128_program()?;
    let mut symbols: Vec<(u32, String)> = program
        .symbols()
        .map(|(name, addr)| (addr, name.to_owned()))
        .collect();
    symbols.sort();
    let function_of = |addr: u32| -> String {
        let mut current = "start".to_owned();
        for (sym_addr, name) in &symbols {
            if *sym_addr <= addr {
                current = name.clone();
            } else {
                break;
            }
        }
        current
    };
    let label_of = |function: &str| -> Option<&'static str> {
        match function {
            "add_round_key" => Some("ARK"),
            "sub_bytes" => Some("SB"),
            "shift_rows" => Some("ShR"),
            "mix_columns" | "mc_col" | "xtime" => Some("MC"),
            _ => None,
        }
    };

    let mut probe = sim.clone();
    let mut log = RetireLog::default();
    probe.encrypt_observed(&[0u8; 16], &mut log)?;
    let t0 = log.start.ok_or("no trigger in AES run")?;

    // Collapse consecutive retirements with the same label into regions.
    let mut regions: Vec<CycleRegion> = Vec::new();
    for (cycle, addr) in log.retirements {
        if cycle < t0 {
            continue;
        }
        let Some(label) = label_of(&function_of(addr)) else {
            continue;
        };
        let rel = cycle - t0;
        match regions.last_mut() {
            Some((name, _, end)) if name == label && rel <= *end + 6 => *end = rel + 1,
            _ => regions.push((label.to_owned(), rel, rel + 1)),
        }
    }
    // Keep round 1 only: ARK0, SB1, ShR1, MC1 and the closing ARK1.
    let mut kept = Vec::new();
    let mut arks = 0;
    for region in regions {
        let is_ark = region.0 == "ARK";
        if is_ark {
            arks += 1;
        }
        kept.push(region);
        if is_ark && arks == 2 {
            break;
        }
    }
    Ok(kept)
}

/// Runs the Figure 3 experiment through the streaming campaign engine:
/// traces are synthesized in sharded batches and folded straight into an
/// online CPA accumulator, so memory stays `O(guesses × samples)` at any
/// trace count.
///
/// # Errors
///
/// Propagates simulator faults; fewer than four traces fail with
/// [`sca_target::TargetError::TooFewObservations`] before any
/// simulation.
pub fn run_figure3(config: &Figure3Config) -> Result<Figure3Result, Box<dyn std::error::Error>> {
    check_charz_traces(config.traces)?;
    let sim = AesSim::new(UarchConfig::cortex_a7(), &config.key)?;
    let sampling = SamplingConfig::picoscope_500msps_120mhz();
    let samples_per_cycle = sampling.samples_per_cycle;

    let regions_cycles = round1_regions(&sim)?;
    let analysis_end_cycle = regions_cycles.last().map_or(1200, |(_, _, e)| *e + 16);
    let analysis_samples = (analysis_end_cycle as f64 * samples_per_cycle) as usize;

    let campaign = Campaign::new(
        LeakageWeights::cortex_a7(),
        CampaignConfig {
            traces: config.traces,
            executions_per_trace: config.executions_per_trace,
            sampling,
            noise: config.noise,
            seed: config.seed,
            threads: config.threads,
            batch: config.batch,
        },
    )
    .with_window(0, analysis_samples);

    let model = SubBytesHw {
        byte: config.target_byte,
    };
    let sink = campaign.run(
        sim.cpu(),
        sim.entry(),
        |rng, _| {
            let mut pt = vec![0u8; 16];
            rng.fill(&mut pt[..]);
            pt
        },
        AesSim::stage_plaintext,
        |samples| CpaSink::new(model, 256, samples),
    )?;
    let traces_used = sink.len() as usize;
    let result = sink.finish();

    let correct = config.key[config.target_byte];
    let series_correct = result.series(usize::from(correct)).to_vec();
    let samples = series_correct.len();
    let mut series_best_wrong = vec![0.0f64; samples];
    for guess in 0..256usize {
        if guess == usize::from(correct) {
            continue;
        }
        for (b, &r) in series_best_wrong.iter_mut().zip(result.series(guess)) {
            if r.abs() > *b {
                *b = r.abs();
            }
        }
    }

    // Regions in samples. Merge duplicates (MC quarters stay separate, as
    // in the paper's "1/4 MC" annotations).
    let mut name_counts: BTreeMap<String, usize> = BTreeMap::new();
    let regions = regions_cycles
        .into_iter()
        .map(|(name, start, end)| {
            let n = name_counts.entry(name.clone()).or_insert(0);
            *n += 1;
            PhaseRegion {
                name,
                start: (start as f64 * samples_per_cycle) as usize,
                end: (end as f64 * samples_per_cycle) as usize,
            }
        })
        .collect();

    Ok(Figure3Result {
        series_correct,
        series_best_wrong,
        regions,
        recovered: result.best_guess() as u8,
        correct,
        samples_per_cycle,
        traces: traces_used,
    })
}

/// Observer extracting the first rising-trigger cycle and every
/// retirement `(cycle, addr)` — the region labeling probes one warm
/// execution (AES is constant-time, so one probe stands for all).
#[derive(Default)]
struct RetireLog {
    /// Cycle of the first rising trigger edge.
    start: Option<u64>,
    /// Retirements in order.
    retirements: Vec<(u64, u32)>,
}

impl PipelineObserver for RetireLog {
    fn trigger(&mut self, cycle: u64, high: bool) {
        if high {
            self.start.get_or_insert(cycle);
        }
    }

    fn retire(&mut self, cycle: u64, addr: u32, _insn: sca_isa::Insn) {
        self.retirements.push((cycle, addr));
    }
}
