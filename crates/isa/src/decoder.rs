//! The generated instruction decoder.
//!
//! Decoding walks the coding tree: "During decoding, the bit pattern must
//! match the provided instruction word to select a specific operation or
//! resource" (paper §3.2.1). Group references try their alternatives in a
//! *preference order* precomputed at decoder-build time: non-alias
//! operations before aliases, more fixed (discriminating) bits first, then
//! declaration order — so disassembly naturally produces canonical forms
//! while alias encodings still decode.

use std::collections::HashMap;
use std::sync::Arc;

use lisa_core::model::{CodingTarget, Model, OpId};

use crate::{Decoded, IsaError};

/// The owned part of a generated decoder: the decode root and the group
/// trial orders.
///
/// Building these is the "decoder generation" step whose cost experiment
/// E2 measures. They hold no borrow of the model, so they can be built
/// once per model and shared (behind an [`Arc`]) by every [`Decoder`]
/// over it.
#[derive(Debug)]
pub struct DecoderTables {
    /// Trial order for each (operation, group) pair.
    group_order: HashMap<(OpId, usize), Vec<OpId>>,
    root: OpId,
}

impl DecoderTables {
    /// Precomputes the decode root and every group's trial order.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::NoDecodeRoot`] if the model has no operation
    /// with a root compare in its coding.
    pub fn new(model: &Model) -> Result<Self, IsaError> {
        let root = *model.decode_roots().first().ok_or(IsaError::NoDecodeRoot)?;
        let mut group_order = HashMap::new();
        for op in model.operations() {
            for (gidx, group) in op.groups.iter().enumerate() {
                let mut order = group.members.clone();
                order.sort_by_key(|m| {
                    let member = model.operation(*m);
                    let fixed = member
                        .variants
                        .iter()
                        .filter_map(|v| v.coding.as_ref())
                        .map(|c| c.fixed_bits())
                        .max()
                        .unwrap_or(0);
                    // Non-alias first, most fixed bits first, stable on
                    // declaration order.
                    (member.alias, std::cmp::Reverse(fixed))
                });
                group_order.insert((op.id, gidx), order);
            }
        }
        Ok(DecoderTables { group_order, root })
    }
}

/// A decoder generated from a model database.
///
/// [`Decoder::new`] builds its [`DecoderTables`]; [`Decoder::with_tables`]
/// reuses tables already built for the same model. [`Decoder::decode`]
/// then matches instruction words starting at the model's decode root.
#[derive(Debug, Clone)]
pub struct Decoder<'m> {
    model: &'m Model,
    tables: Arc<DecoderTables>,
}

impl<'m> Decoder<'m> {
    /// Builds a decoder for the model.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::NoDecodeRoot`] if the model has no operation
    /// with a root compare in its coding.
    pub fn new(model: &'m Model) -> Result<Self, IsaError> {
        Ok(Decoder::with_tables(model, Arc::new(DecoderTables::new(model)?)))
    }

    /// A decoder over tables already built for `model` by
    /// [`DecoderTables::new`]; costs one reference-count increment.
    /// Tables built from another model decode wrongly or panic.
    #[must_use]
    pub fn with_tables(model: &'m Model, tables: Arc<DecoderTables>) -> Self {
        Decoder { model, tables }
    }

    /// The model this decoder was generated from.
    #[must_use]
    pub fn model(&self) -> &'m Model {
        self.model
    }

    /// The decode-root operation (the top of the coding tree).
    #[must_use]
    pub fn root(&self) -> OpId {
        self.tables.root
    }

    /// The instruction word width expected at the decode root.
    ///
    /// # Panics
    ///
    /// Panics if the root operation has no coding (prevented by model
    /// validation).
    #[must_use]
    pub fn word_width(&self) -> u32 {
        self.model.operation(self.tables.root).coding_width().expect("decode root has a coding")
    }

    /// Decodes an instruction word starting at the decode root.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::NoMatch`] if no coding matches.
    pub fn decode(&self, word: u128) -> Result<Decoded, IsaError> {
        self.decode_op(self.tables.root, word)
            .ok_or_else(|| IsaError::NoMatch { word, width: self.word_width() })
    }

    /// Decodes a word against a specific operation (any coding-tree
    /// node), trying its variants most-specific-guard first.
    #[must_use]
    pub fn decode_op(&self, op_id: OpId, word: u128) -> Option<Decoded> {
        let operation = self.model.operation(op_id);
        for (vidx, variant) in operation.variants.iter().enumerate() {
            let Some(coding) = &variant.coding else { continue };
            if !coding.flat_pattern().matches_u128(word) {
                continue;
            }
            if let Some(decoded) = self.try_variant(op_id, vidx, word) {
                return Some(decoded);
            }
        }
        None
    }

    fn try_variant(&self, op_id: OpId, vidx: usize, word: u128) -> Option<Decoded> {
        let operation = self.model.operation(op_id);
        let variant = &operation.variants[vidx];
        let coding = variant.coding.as_ref()?;
        let mut decoded = Decoded::new(self.model, op_id, vidx);

        for (fidx, field) in coding.fields.iter().enumerate() {
            let sub = if field.width == 128 {
                word
            } else {
                word >> field.offset & ((1u128 << field.width) - 1)
            };
            match &field.target {
                CodingTarget::Pattern(p) => {
                    if !p.matches_u128(sub) {
                        return None;
                    }
                }
                CodingTarget::Label { label, pattern } => {
                    if !pattern.matches_u128(sub) {
                        return None;
                    }
                    decoded.labels[*label] = sub;
                }
                CodingTarget::Group(gidx) => {
                    // Honour the variant guard: if this variant requires a
                    // specific member for this group, only try that one.
                    let required = variant.guard.iter().find(|(g, _)| g == gidx).map(|(_, m)| *m);
                    let order = &self.tables.group_order[&(op_id, *gidx)];
                    let child = order
                        .iter()
                        .filter(|m| required.is_none_or(|r| r == **m))
                        .find_map(|m| self.decode_op(*m, sub))?;
                    decoded.children[fidx] = Some(Arc::new(child));
                }
                CodingTarget::Op(target) => {
                    let child = self.decode_op(*target, sub)?;
                    decoded.children[fidx] = Some(Arc::new(child));
                }
            }
        }

        // Guards over groups that are not coding fields cannot be checked
        // from the word; such variants are selected structurally, which the
        // loop order (most-specific first) already handles.
        Some(decoded)
    }
}

#[cfg(test)]
#[allow(clippy::unusual_byte_groupings)] // grouped by instruction field, deliberately
mod tests {
    use super::*;
    use lisa_core::Model;

    fn paper_like_model() -> Model {
        Model::from_source(
            r#"
            RESOURCE {
                CONTROL_REGISTER int ir;
                REGISTER int A[16];
                REGISTER int B[16];
            }
            OPERATION side1 { CODING { 0b0 } SYNTAX { "1" } }
            OPERATION side2 { CODING { 0b1 } SYNTAX { "2" } }
            OPERATION register {
                DECLARE {
                    GROUP Side = { side1 || side2 };
                    LABEL index;
                }
                CODING { Side index:0bx[4] }
                SWITCH (Side) {
                    CASE side1: {
                        SYNTAX { "A" index:#u }
                        EXPRESSION { A[index] }
                    }
                    CASE side2: {
                        SYNTAX { "B" index:#u }
                        EXPRESSION { B[index] }
                    }
                }
            }
            OPERATION add {
                DECLARE { GROUP Dest, Src1, Src2 = { register }; }
                CODING { 0b00010 Dest Src1 Src2 0bx[12] }
                SYNTAX { "ADD" Dest "," Src1 "," Src2 }
                BEHAVIOR { Dest = Src1 + Src2; }
            }
            OPERATION sub {
                DECLARE { GROUP Dest, Src1, Src2 = { register }; }
                CODING { 0b00011 Dest Src1 Src2 0bx[12] }
                SYNTAX { "SUB" Dest "," Src1 "," Src2 }
                BEHAVIOR { Dest = Src1 - Src2; }
            }
            OPERATION nop {
                CODING { 0b00000 0bx[27] }
                SYNTAX { "NOP" }
                BEHAVIOR { }
            }
            OPERATION decode {
                DECLARE { GROUP Instruction = { add || sub || nop }; }
                CODING { ir == Instruction }
                SYNTAX { Instruction }
                BEHAVIOR { Instruction; }
            }
            "#,
        )
        .expect("model builds")
    }

    #[test]
    fn decodes_through_groups_and_switch_variants() {
        let model = paper_like_model();
        let decoder = Decoder::new(&model).unwrap();
        assert_eq!(decoder.word_width(), 32);

        // ADD B3, A1, B2: opcode 00010, Dest = side2(1)+idx3, Src1 =
        // side1(0)+idx1, Src2 = side2(1)+idx2, 12 free bits zero.
        let word: u128 = 0b00010_1_0011_0_0001_1_0010_000000000000;
        let decoded = decoder.decode(word).expect("decodes");
        let root_op = model.operation(decoded.op);
        assert_eq!(root_op.name, "decode");
        let instr = decoded.children[0].as_deref().expect("instruction child");
        assert_eq!(model.operation(instr.op).name, "add");

        let dest = instr.group_child(&model, 0).expect("dest");
        assert_eq!(model.operation(dest.op).name, "register");
        assert_eq!(dest.labels[0], 3);
        // Dest selected side2 → the side2-guarded variant.
        let side = dest.group_child(&model, 0).expect("side");
        assert_eq!(model.operation(side.op).name, "side2");
        let variant = &model.operation(dest.op).variants[dest.variant];
        assert!(!variant.guard.is_empty(), "specialised variant selected");

        let src1 = instr.group_child(&model, 1).expect("src1");
        assert_eq!(src1.labels[0], 1);
        assert_eq!(model.operation(src1.group_child(&model, 0).unwrap().op).name, "side1");
    }

    #[test]
    fn decode_encode_round_trip() {
        let model = paper_like_model();
        let decoder = Decoder::new(&model).unwrap();
        for word in [
            0b00010_1_0011_0_0001_1_0010_000000000000u128,
            0b00011_0_1111_0_0000_1_1111_000000000000u128,
            0u128, // NOP
        ] {
            let decoded = decoder.decode(word).expect("decodes");
            let encoded = decoded.encode(&model).expect("encodes");
            assert_eq!(encoded.to_u128(), word, "round trip for {word:#034b}");
        }
    }

    #[test]
    fn undecodable_word_is_an_error() {
        let model = paper_like_model();
        let decoder = Decoder::new(&model).unwrap();
        // Opcode 11111 matches no instruction.
        let err = decoder.decode(0b11111 << 27).unwrap_err();
        assert!(matches!(err, IsaError::NoMatch { .. }));
    }

    #[test]
    fn model_without_root_has_no_decoder() {
        let model =
            Model::from_source("OPERATION lonely { CODING { 0b1 } SYNTAX { \"L\" } }").unwrap();
        assert!(matches!(Decoder::new(&model), Err(IsaError::NoDecodeRoot)));
    }

    #[test]
    fn aliases_decode_to_canonical_form() {
        let model = Model::from_source(
            r#"
            RESOURCE { CONTROL_REGISTER int ir; REGISTER int R[4]; }
            OPERATION reg {
                DECLARE { LABEL i; }
                CODING { i:0bx[2] }
                SYNTAX { "R" i:#u }
                EXPRESSION { R[i] }
            }
            OPERATION or_op {
                DECLARE { GROUP D, S1, S2 = { reg }; }
                CODING { 0b01 D S1 S2 }
                SYNTAX { "OR" D "," S1 "," S2 }
                BEHAVIOR { D = S1 | S2; }
            }
            OPERATION mv ALIAS {
                DECLARE { GROUP D, S = { reg }; }
                CODING { 0b01 D S S }
                SYNTAX { "MV" D "," S }
            }
            OPERATION decode {
                DECLARE { GROUP Instruction = { or_op || mv }; }
                CODING { ir == Instruction }
                SYNTAX { Instruction }
                BEHAVIOR { Instruction; }
            }
            "#,
        )
        .expect("model builds");
        let decoder = Decoder::new(&model).unwrap();
        // `MV R1, R2` encodes as OR R1, R2, R2; decode prefers the
        // non-alias canonical operation.
        let word = 0b01_01_10_10u128;
        let decoded = decoder.decode(word).unwrap();
        let instr = decoded.children[0].as_deref().unwrap();
        assert_eq!(model.operation(instr.op).name, "or_op");
    }
}
