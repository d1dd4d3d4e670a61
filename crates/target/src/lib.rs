//! # sca-target — the cipher-target portfolio
//!
//! The paper's leakage-characterization + microarchitecture-aware CPA
//! methodology is a property of the *pipeline*, not of AES. This crate
//! makes that claim executable: the [`CipherTarget`] trait abstracts
//! everything a campaign needs from a cipher implementation — program
//! image, input staging, a golden reference, per-target leakage models
//! (value-level HW *and* microarchitecture-aware HD variants), and
//! windowing hints — and the portfolio registers four targets behind
//! it:
//!
//! | target | family | pipeline story |
//! |---|---|---|
//! | `aes128` | SPN, 8-bit S-box | the paper's Figure 3/4 baseline |
//! | `aes128-masked` | first-order masked SPN | Section 4.2 countermeasure |
//! | `speck64128` | ARX | shifter/rotate path + adder carry chains |
//! | `present80` | SPN, 4-bit S-box | sub-word align-buffer remanence |
//!
//! On top of the trait sit the target-generic layers:
//!
//! * [`TargetCampaign`] — CPA and fixed-vs-random TVLA campaigns over
//!   any `&dyn CipherTarget`, through the `sca-campaign` streaming
//!   engine (sinks and shard plans never see the concrete cipher);
//! * [`characterize_target`] — the Table-2-style per-component RED /
//!   black characterization of a target's models;
//! * [`resolve_window`] — turns a target's symbol-level
//!   [`WindowHint`]s into trigger-relative and absolute cycle windows
//!   by probing one (constant-time) execution;
//! * [`portfolio`] — the registry the `portfolio` experiment binary
//!   iterates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod aes;
mod campaign;
mod charz;
mod error;
mod present;
mod registry;
mod speck;
mod traits;
mod window;

pub use aes::{AesTarget, MaskedAesTarget, PORTFOLIO_AES_KEY};
pub use campaign::{
    check_tvla_traces, reanalyze_cpa, reanalyze_tvla, restore_cpa, restore_tvla, store_dir_name,
    CpaVerdict, TargetCampaign, TargetCampaignConfig, TargetStoreConfig, TvlaVerdict,
    MIN_TVLA_TRACES,
};
pub use charz::{
    characterize_target, check_charz_traces, NodeCharacterization, TargetCharacterization,
    CHARZ_COMPONENTS,
};
pub use error::{TargetError, WindowError};
pub use present::{
    present80_program, present_encrypt, present_encrypt_u64, present_p_layer, present_round_keys,
    present_sp_table, present_spread_tables, PresentSboxHw, PresentSim, PresentStoreHd,
    PresentTarget, PRESENT80_ASM, PRESENT_PHI_ADDR, PRESENT_PLO_ADDR, PRESENT_RK_ADDR,
    PRESENT_ROUNDS, PRESENT_SBOX, PRESENT_SP_ADDR, PRESENT_STATE_ADDR,
};
pub use registry::portfolio;
pub use speck::{
    speck64128_program, speck_encrypt, speck_encrypt_words, speck_invert_last_round, speck_round,
    speck_round_keys, SpeckLastRoundHw, SpeckSim, SpeckStoreHd, SpeckTarget, SPECK64128_ASM,
    SPECK_RK_ADDR, SPECK_ROUNDS, SPECK_STATE_ADDR,
};
pub use traits::{
    CipherTarget, InputCanonicalizer, ModelKind, SymbolVisit, TargetModel, WindowHint,
};
pub use window::{resolve_window, static_window, ResolvedWindow};
