//! Pins every audit report bit for bit: each finding's node, cycle,
//! model, `corr.to_bits()` and source line, folded into one FNV-1a
//! digest per audit.
//!
//! The cases cover every shape of audit the binaries run:
//!
//! - `audit_cipher_target` on the four portfolio targets, windowed, at
//!   the portfolio's audit seeds;
//! - the five masking scenarios, windowless, on cached and on ideal
//!   memory;
//! - a program whose timing depends on its input (a `r1 & 7` + 1 turn
//!   loop), windowed and windowless: its executions run different
//!   numbers of cycles.
//!
//! Every digest must hold at each thread × lane setting in
//! [`SETTINGS`]: an execution starts from the template, so a report
//! does not depend on which worker or lane ran it.
//!
//! Regenerate the table only for an explained change:
//! `AUDIT_ENGINE_PRINT=1 cargo test --release --test audit_engine --
//! --nocapture`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use superscalar_sca::analysis::input_word;
use superscalar_sca::core::{
    audit_cipher_target, audit_program, audit_scenario, masking_scenarios, AuditConfig, AuditError,
    AuditReport, SecretModel,
};
use superscalar_sca::isa::{assemble, Program, Reg};
use superscalar_sca::target::{portfolio, resolve_window};
use superscalar_sca::uarch::{Cpu, NullObserver, UarchConfig};

/// The portfolio's default master seed (`PortfolioConfig::default`).
const PORTFOLIO_SEED: u64 = 0xdac_2018;

/// Executions of each portfolio target's audit.
const TARGET_EXECUTIONS: usize = 64;

/// Executions of each masking-scenario audit.
const SCENARIO_EXECUTIONS: usize = 300;

/// Executions of each input-dependent audit.
const TIMING_EXECUTIONS: usize = 200;

/// `(threads, lanes)`: every setting each digest must hold at; 3 lanes
/// leave partial lockstep groups.
const SETTINGS: [(usize, usize); 6] = [(1, 1), (1, 3), (1, 8), (2, 1), (2, 3), (2, 8)];

/// The pinned digests, by case name.
const PINS: &[(&str, u64)] = &[
    ("aes128", 0x85b5_7a26_9909_5cf8),
    ("aes128-masked", 0x5e20_e8bc_7def_fc56),
    ("speck64128", 0x9106_27ad_332c_1a3a),
    ("present80", 0x82b4_8ba8_1456_f1a6),
    ("vulnerable (cached)", 0x60b7_da06_832d_2d46),
    ("spaced (hand) (cached)", 0xc270_83aa_1afa_410e),
    ("swapped (hand) (cached)", 0xc270_83aa_1afa_410e),
    ("sca-sched harden (cached)", 0xc270_83aa_1afa_410e),
    ("sca-sched pin-lanes (cached)", 0xc270_83aa_1afa_410e),
    ("vulnerable (ideal)", 0x60b7_da06_832d_2d46),
    ("spaced (hand) (ideal)", 0xc270_83aa_1afa_410e),
    ("swapped (hand) (ideal)", 0xc270_83aa_1afa_410e),
    ("sca-sched harden (ideal)", 0xc270_83aa_1afa_410e),
    ("sca-sched pin-lanes (ideal)", 0xc270_83aa_1afa_410e),
    ("timing windowed", 0x43c3_5774_fd99_6c2a),
    ("timing windowless", 0xe04d_4071_07b7_40a0),
];

/// FNV-1a over every finding's identity and exact correlation bits.
fn digest(report: &AuditReport) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&(report.executions as u64).to_le_bytes());
    eat(&(report.findings.len() as u64).to_le_bytes());
    for finding in &report.findings {
        eat(&(finding.node.dense_index() as u64).to_le_bytes());
        eat(&finding.cycle.to_le_bytes());
        eat(finding.model.as_bytes());
        eat(&finding.corr.to_bits().to_le_bytes());
        eat(&finding
            .source_line
            .map_or(u64::MAX, |l| l as u64)
            .to_le_bytes());
    }
    hash
}

/// `config` at one thread × lane setting.
fn at(config: &AuditConfig, (threads, lanes): (usize, usize)) -> AuditConfig {
    AuditConfig {
        threads,
        lanes,
        ..config.clone()
    }
}

/// Checks every computed `(case, setting, digest)` against [`PINS`],
/// reporting them all.
fn check(computed: &[(String, (usize, usize), u64)]) {
    if std::env::var_os("AUDIT_ENGINE_PRINT").is_some() {
        for (name, _, digest) in computed.iter().filter(|(_, s, _)| *s == SETTINGS[0]) {
            println!("    (\"{name}\", {digest:#018x}),");
        }
    }
    let mismatches: Vec<String> = computed
        .iter()
        .filter(|(name, _, digest)| {
            PINS.iter()
                .find(|(pinned, _)| pinned == name)
                .is_none_or(|(_, pinned)| pinned != digest)
        })
        .map(|(name, (threads, lanes), digest)| {
            format!("{name} at {threads} threads, {lanes} lanes: {digest:#018x}")
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "audit reports moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn portfolio_target_audits_are_pinned() {
    let uarch = UarchConfig::cortex_a7();
    let mut computed = Vec::new();
    for (i, target) in portfolio().iter().enumerate() {
        let salt = i as u64 + 1;
        // The portfolio's template and primary window.
        let template = target.build(&uarch).expect("target builds");
        let window = resolve_window(target.as_ref(), &template, &target.primary_window())
            .expect("window resolves");
        let config = AuditConfig {
            executions: TARGET_EXECUTIONS,
            seed: PORTFOLIO_SEED ^ 0xa0d17 ^ salt,
            ..AuditConfig::default()
        };
        for setting in SETTINGS {
            let report =
                audit_cipher_target(target.as_ref(), &template, &window, &at(&config, setting))
                    .expect("target audit runs");
            computed.push((target.name().to_owned(), setting, digest(&report)));
        }
    }
    check(&computed);
}

#[test]
fn masking_scenario_audits_are_pinned() {
    let mut computed = Vec::new();
    for (memory, uarch) in [
        ("cached", UarchConfig::cortex_a7()),
        ("ideal", UarchConfig::cortex_a7().with_ideal_memory()),
    ] {
        for scenario in masking_scenarios() {
            let config = AuditConfig {
                executions: SCENARIO_EXECUTIONS,
                ..AuditConfig::default()
            };
            for setting in SETTINGS {
                let report = audit_scenario(&scenario, &uarch, &at(&config, setting))
                    .expect("scenario audit runs");
                let name = format!("{} ({memory})", scenario.name);
                computed.push((name, setting, digest(&report)));
            }
        }
    }
    check(&computed);
}

/// Data-dependent activity, then `r1 & 7` + 1 turns of a `subs`/`bne`
/// spin, then more activity: every execution after the loop runs at
/// its own cycles.
fn input_dependent_program() -> Program {
    assemble(
        "
        eor r3, r1, r1, ror #7
        mov r4, r3
        add r5, r3, r1
        and r2, r1, #7
        add r2, r2, #1
spin:   subs r2, r2, #1
        bne spin
        mov r6, r1
        eor r7, r6, r3
        add r8, r7, r4
        nop
        nop
        halt
    ",
    )
    .expect("assembles")
}

fn stage_word(cpu: &mut Cpu, input: &[u8]) {
    cpu.set_reg(Reg::R1, input_word(input, 0));
}

fn timing_models() -> [SecretModel; 2] {
    [
        SecretModel::new("HW(r1)", |i: &[u8]| {
            f64::from(input_word(i, 0).count_ones())
        }),
        SecretModel::new("HW(r1 & 7)", |i: &[u8]| {
            f64::from((input_word(i, 0) & 7).count_ones())
        }),
    ]
}

const TIMING_SEED: u64 = 0x71_3e;

/// The first eight executions' inputs do not all take the same number
/// of cycles, so an 8-lane lockstep group over them diverges and runs
/// on the scalar path.
#[test]
fn the_input_dependent_program_diverges_in_its_first_group() {
    let program = input_dependent_program();
    let mut template = Cpu::new(UarchConfig::cortex_a7());
    template.load(&program).expect("loads");
    stage_word(&mut template, &[0; 4]);
    template.run(&mut NullObserver).expect("warm-up runs");
    // The audit's input stream: execution `e` takes the `e`-th draw.
    let mut rng = StdRng::seed_from_u64(TIMING_SEED);
    let cycles: Vec<u64> = (0..8)
        .map(|_| {
            let mut input = [0u8; 4];
            rng.fill(&mut input[..]);
            let mut cpu = template.clone();
            cpu.restart_seeded(program.entry(), 0);
            stage_word(&mut cpu, &input);
            cpu.run(&mut NullObserver).expect("runs").cycles
        })
        .collect();
    assert!(
        cycles.iter().any(|&c| c != cycles[0]),
        "every execution took {} cycles",
        cycles[0]
    );
}

#[test]
fn input_dependent_audits_are_pinned() {
    let program = input_dependent_program();
    let uarch = UarchConfig::cortex_a7();
    let mut computed = Vec::new();
    for (name, window) in [("windowed", Some((4, 20))), ("windowless", None)] {
        let config = AuditConfig {
            executions: TIMING_EXECUTIONS,
            seed: TIMING_SEED,
            window,
            ..AuditConfig::default()
        };
        for setting in SETTINGS {
            let report = audit_program(
                &uarch,
                &program,
                4,
                stage_word,
                &timing_models(),
                &at(&config, setting),
            )
            .expect("audit runs");
            assert!(!report.is_clean(), "{name}: the input must leak");
            computed.push((format!("timing {name}"), setting, digest(&report)));
        }
    }
    check(&computed);
}

/// Below the four executions the significance threshold needs, an
/// audit fails typed instead of panicking after simulating them all.
#[test]
fn too_few_executions_are_a_typed_error() {
    let vulnerable = &masking_scenarios()[0];
    for executions in [0, 3] {
        let result = audit_scenario(
            vulnerable,
            &UarchConfig::cortex_a7(),
            &AuditConfig {
                executions,
                ..AuditConfig::default()
            },
        );
        assert!(
            matches!(
                result,
                Err(AuditError::TooFewExecutions { executions: e, needed: 4 }) if e == executions
            ),
            "{executions} executions: {result:?}"
        );
    }
}
