//! The computation schedules as data: each recursion-level schedule is
//! a [`program::Program`] — ordered adds and recursive products over
//! named temporaries, as the paper's Figure 1 writes STRASSEN1/2 — and
//! [`exec`] is the one executor that runs any of them, serially or as a
//! task DAG. The fused last level ([`fused`]) is the separate
//! block-product table the packed GEMM nest consumes.

pub(crate) mod exec;
pub(crate) mod fused;
pub(crate) mod original;
pub(crate) mod program;
pub(crate) mod seven_temp;
pub(crate) mod two_temp;
pub(crate) mod winograd1;
pub(crate) mod winograd2;

use crate::workspace::ResolvedScheme;
use program::Program;

impl ResolvedScheme {
    /// The level program this schedule runs. `OriginalGeneral` is the
    /// `β = 0` original program, which the dispatcher runs into a staged
    /// `m × n` buffer before folding `βC` in.
    pub(crate) fn program(self) -> &'static Program {
        match self {
            ResolvedScheme::Strassen1BetaZero => &winograd1::STRASSEN1_BETA_ZERO,
            ResolvedScheme::Strassen1General => &winograd1::STRASSEN1_GENERAL,
            ResolvedScheme::Strassen2 => &winograd2::STRASSEN2,
            ResolvedScheme::OriginalBetaZero | ResolvedScheme::OriginalGeneral => {
                &original::ORIGINAL_BETA_ZERO
            }
            ResolvedScheme::SevenTemp => &seven_temp::SEVEN_TEMP,
            ResolvedScheme::TwoTempBetaZero => &two_temp::TWO_TEMP_BETA_ZERO,
            ResolvedScheme::InPlaceAccumulate => &two_temp::IN_PLACE,
        }
    }
}
