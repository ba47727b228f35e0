//! Per-model simulator tables: built once per model, shared by every
//! simulator over it.
//!
//! The paper's environment generates a simulator once from the
//! description; instantiating it afterwards should cost only the
//! per-run state. [`Prepared`] is that split: everything a simulator
//! derives from the model alone lives here behind an `Arc`, while the
//! architectural state, decode cache, translation caches, frames and
//! snapshots stay in each [`crate::Simulator`].

use std::sync::{Arc, OnceLock};

use lisa_core::Model;
use lisa_isa::{Decoder, DecoderTables};

use crate::compiled::CompiledTables;
use crate::ops::{translate_unbound, OpsRoutine};
use crate::{SimError, State};

/// The tables every simulator of one model shares: the decoder's tables,
/// the lowered behaviors of compiled simulation, and the default-variant
/// micro-op routines of ops simulation.
///
/// The decoder tables are built by [`Prepared::new`]; lowering and the
/// micro-op routines are built by the first simulator whose mode needs
/// them, so an interpretive-only user never pays for them (and a model
/// whose behaviors do not lower still simulates interpretively).
///
/// Build one with [`Prepared::new`] and pass it to
/// [`crate::Simulator::with_prepared`]; `lisa_models::Workbench` keeps
/// one per model.
#[derive(Debug)]
pub struct Prepared {
    /// Operation and resource counts of the model it was built from,
    /// checked when a simulator borrows it.
    shape: (usize, usize),
    decoder: Option<Arc<DecoderTables>>,
    lowered: OnceLock<Result<Arc<CompiledTables>, SimError>>,
    unbound: OnceLock<Arc<[OpsRoutine]>>,
}

impl Prepared {
    /// Builds the decoder tables for `model` (none when it has no decode
    /// root); the mode-specific tables follow on first use.
    #[must_use]
    pub fn new(model: &Model) -> Prepared {
        Prepared {
            shape: shape(model),
            decoder: DecoderTables::new(model).ok().map(Arc::new),
            lowered: OnceLock::new(),
            unbound: OnceLock::new(),
        }
    }

    /// A decoder over `model` sharing these tables; `None` when the model
    /// has no decode root.
    ///
    /// # Panics
    ///
    /// Panics if the tables were built from a model of a different shape.
    #[must_use]
    pub fn decoder<'m>(&self, model: &'m Model) -> Option<Decoder<'m>> {
        self.check_model(model);
        self.decoder.as_ref().map(|t| Decoder::with_tables(model, Arc::clone(t)))
    }

    /// The lowered behaviors, lowering on first call.
    pub(crate) fn lowered(&self, model: &Model) -> Result<&Arc<CompiledTables>, SimError> {
        self.lowered
            .get_or_init(|| CompiledTables::lower(model).map(Arc::new))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The default-variant routine of every operation, translating on
    /// first call. Translation reads only `state`'s shape.
    pub(crate) fn unbound(
        &self,
        model: &Model,
        state: &State,
        tables: &CompiledTables,
    ) -> Arc<[OpsRoutine]> {
        Arc::clone(self.unbound.get_or_init(|| translate_unbound(model, state, tables)))
    }

    /// Panics unless `model` has the shape these tables were built for.
    pub(crate) fn check_model(&self, model: &Model) {
        assert_eq!(self.shape, shape(model), "prepared tables belong to a different model");
    }
}

fn shape(model: &Model) -> (usize, usize) {
    (model.operations().len(), model.resources().len())
}
