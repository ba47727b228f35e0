//! Processor state: one storage cell per declared resource element.
//!
//! The memory model from the `RESOURCE` section materialises here: scalars
//! (registers, control registers, the program counter) and arrays (register
//! files, data/program memories, banked memories) with their declared bit
//! widths and address ranges.

use lisa_bits::Bits;
use lisa_core::ast::Dim;
use lisa_core::model::{Model, Resource, ResourceId};

use crate::SimError;

/// One resource's storage.
#[derive(Debug, Clone, PartialEq)]
struct Storage {
    width: u32,
    signed: bool,
    dims: Vec<Dim>,
    /// Flattened row-major data; length 1 for scalars.
    data: Vec<Bits>,
}

/// The complete architectural state of a simulated processor.
///
/// Values are stored bit-accurately at each resource's declared width;
/// reads return sign- or zero-extended `i64` views matching the declared
/// C type (`int` is signed, `bit[N]` unsigned), and writes wrap to the
/// declared width like hardware register writes.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    storages: Vec<Storage>,
}

impl State {
    /// Allocates zeroed state for all resources of a model.
    #[must_use]
    pub fn new(model: &Model) -> State {
        let storages = model
            .resources()
            .iter()
            .map(|r| {
                let count = r.element_count().max(1) as usize;
                Storage {
                    width: r.ty.width(),
                    signed: r.ty.is_signed(),
                    dims: r.dims.clone(),
                    data: vec![Bits::zero(r.ty.width()); count],
                }
            })
            .collect();
        State { storages }
    }

    /// Resets every resource to zero.
    pub fn reset(&mut self) {
        for s in &mut self.storages {
            for cell in &mut s.data {
                *cell = Bits::zero(s.width);
            }
        }
    }

    fn flat_index(&self, res: &Resource, indices: &[i64]) -> Result<usize, SimError> {
        let storage = &self.storages[res.id.0];
        if indices.len() != storage.dims.len() {
            return Err(SimError::WrongArity {
                resource: res.name.clone(),
                got: indices.len(),
                expected: storage.dims.len(),
            });
        }
        let mut flat = 0usize;
        for (d, (&idx, dim)) in indices.iter().zip(&storage.dims).enumerate() {
            let base = dim.base() as i64;
            let len = dim.len() as i64;
            if idx < base || idx >= base + len {
                return Err(SimError::IndexOutOfBounds {
                    resource: res.name.clone(),
                    index: idx,
                    dim: d,
                });
            }
            flat = flat * len as usize + (idx - base) as usize;
        }
        Ok(flat)
    }

    /// Reads a resource element as raw bits.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WrongArity`] or [`SimError::IndexOutOfBounds`]
    /// on bad addressing (scalars take an empty index slice).
    pub fn read(&self, res: &Resource, indices: &[i64]) -> Result<Bits, SimError> {
        let flat = self.flat_index(res, indices)?;
        Ok(self.storages[res.id.0].data[flat])
    }

    /// Reads a resource element as an `i64`, honouring the declared
    /// signedness (`int` sign-extends; `bit[N]`/`unsigned` zero-extend;
    /// 64-bit unsigned reads wrap into `i64`).
    ///
    /// # Errors
    ///
    /// Same as [`State::read`].
    pub fn read_int(&self, res: &Resource, indices: &[i64]) -> Result<i64, SimError> {
        let bits = self.read(res, indices)?;
        let signed = self.storages[res.id.0].signed;
        Ok(if signed { bits.to_i128() as i64 } else { bits.to_u128() as i64 })
    }

    /// Writes a resource element, wrapping `value` to the declared width.
    ///
    /// # Errors
    ///
    /// Same as [`State::read`].
    pub fn write_int(
        &mut self,
        res: &Resource,
        indices: &[i64],
        value: i64,
    ) -> Result<(), SimError> {
        let flat = self.flat_index(res, indices)?;
        let storage = &mut self.storages[res.id.0];
        storage.data[flat] = Bits::from_i128_wrapped(storage.width, i128::from(value));
        Ok(())
    }

    /// Writes raw bits (must already have the declared width).
    ///
    /// # Errors
    ///
    /// Same as [`State::read`], plus a wrap if widths differ (the value is
    /// resized with zero extension).
    pub fn write(&mut self, res: &Resource, indices: &[i64], value: Bits) -> Result<(), SimError> {
        let flat = self.flat_index(res, indices)?;
        let storage = &mut self.storages[res.id.0];
        storage.data[flat] = value.resize_zext(storage.width);
        Ok(())
    }

    /// Fast unchecked-by-id scalar read (panics on arrays), used by the
    /// engine for control resources like the instruction register.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or the resource is not scalar.
    #[must_use]
    pub fn scalar(&self, id: ResourceId) -> Bits {
        let s = &self.storages[id.0];
        assert!(s.dims.is_empty(), "resource is not scalar");
        s.data[0]
    }

    /// Fast scalar write counterpart of [`State::scalar`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or the resource is not scalar.
    pub fn set_scalar(&mut self, id: ResourceId, value: Bits) {
        let s = &mut self.storages[id.0];
        assert!(s.dims.is_empty(), "resource is not scalar");
        s.data[0] = value.resize_zext(s.width);
    }

    /// Direct flat read used by the compiled simulator's lowered code.
    #[inline]
    pub(crate) fn read_flat(&self, id: ResourceId, flat: usize) -> Option<i64> {
        let s = self.storages.get(id.0)?;
        let bits = s.data.get(flat)?;
        Some(if s.signed { bits.to_i128() as i64 } else { bits.to_u128() as i64 })
    }

    /// Direct flat write used by the compiled simulator's lowered code.
    #[inline]
    pub(crate) fn write_flat(&mut self, id: ResourceId, flat: usize, value: i64) -> bool {
        let Some(s) = self.storages.get_mut(id.0) else { return false };
        let Some(cell) = s.data.get_mut(flat) else { return false };
        *cell = Bits::from_i128_wrapped(s.width, i128::from(value));
        true
    }

    /// Computes the flat element index for lowered code; mirrors
    /// [`State::read`]'s addressing rules.
    pub(crate) fn flatten_indices(
        &self,
        res: &Resource,
        indices: &[i64],
    ) -> Result<usize, SimError> {
        self.flat_index(res, indices)
    }

    /// Number of elements stored for resource `id`.
    #[must_use]
    pub fn element_count(&self, id: ResourceId) -> usize {
        self.storages[id.0].data.len()
    }

    /// Whether another state has the same resource layout (count, widths,
    /// signedness, dimensions) — the compatibility check behind
    /// [`crate::Simulator::restore`].
    pub(crate) fn same_shape(&self, other: &State) -> bool {
        self.storages.len() == other.storages.len()
            && self.storages.iter().zip(&other.storages).all(|(a, b)| {
                a.width == b.width
                    && a.signed == b.signed
                    && a.dims == b.dims
                    && a.data.len() == b.data.len()
            })
    }

    /// A 64-bit fingerprint over every storage cell, plus each storage's
    /// width and length. Two states of the same model with equal contents
    /// hash equally, so digests make cheap cross-run state comparisons —
    /// the lockstep oracle takes one per backend per cycle and the batch
    /// engine records one per finished job.
    ///
    /// Each storage is hashed over four independent lanes, cell `i` going
    /// to lane `i % 4`, and each step is a keyed 64×64→128-bit multiply
    /// folded back to 64 bits, so the lanes' multiplies overlap. Cells of
    /// storages up to 64 bits wide contribute one word, wider ones two.
    /// The lanes that took a cell then fold into the running hash in a
    /// fixed order. The value is not stable across releases: compare
    /// digests only within one build.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = DIGEST_SEED;
        for s in &self.storages {
            // Widths are at most 128, so the shifted length cannot
            // overlap them.
            h = fold(h ^ ((s.data.len() as u64) << 8) ^ u64::from(s.width), LANE_KEYS[0]);
            let mut lanes = LANE_SEEDS;
            let wide = s.width > 64;
            let mut chunks = s.data.chunks_exact(LANE_KEYS.len());
            for chunk in &mut chunks {
                for ((lane, key), cell) in lanes.iter_mut().zip(LANE_KEYS).zip(chunk) {
                    *lane = mix_cell(*lane, key, cell, wide);
                }
            }
            for ((lane, key), cell) in lanes.iter_mut().zip(LANE_KEYS).zip(chunks.remainder()) {
                *lane = mix_cell(*lane, key, cell, wide);
            }
            // Only the lanes that took a cell: scalars cost one fold here.
            for (lane, key) in lanes.into_iter().zip(LANE_KEYS).take(s.data.len()) {
                h = fold(h ^ lane, key);
            }
        }
        h
    }
}

/// Initial value of [`State::digest`]'s running hash.
const DIGEST_SEED: u64 = 0x2d35_8dcc_aa6c_78a5;

/// Per-lane multipliers of [`State::digest`] (odd, dense in set bits).
const LANE_KEYS: [u64; 4] =
    [0xa076_1d64_78bd_642f, 0xe703_7ed1_a0b4_28db, 0x8ebc_6af0_9c88_c6e3, 0x5899_65cc_7537_4cc3];

/// Per-lane starting values of [`State::digest`], reset for each storage.
const LANE_SEEDS: [u64; 4] =
    [0x1d8e_4e27_c47d_124f, 0x9e37_79b9_7f4a_7c15, 0xbf58_476d_1ce4_e5b9, 0x94d0_49bb_1331_11eb];

/// The 128-bit product of `a` and `key`, folded to 64 bits.
#[inline]
fn fold(a: u64, key: u64) -> u64 {
    let product = u128::from(a) * u128::from(key);
    product as u64 ^ (product >> 64) as u64
}

/// One cell into one digest lane: its low word, then its high word when
/// the storage is wider than 64 bits.
#[inline]
fn mix_cell(lane: u64, key: u64, cell: &Bits, wide: bool) -> u64 {
    let raw = cell.to_u128();
    let lane = fold(lane ^ raw as u64, key);
    if wide {
        fold(lane ^ (raw >> 64) as u64, key)
    } else {
        lane
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_core::Model;

    fn model() -> Model {
        Model::from_source(
            r#"RESOURCE {
                PROGRAM_COUNTER int pc;
                REGISTER bit[48] accu;
                REGISTER bit carry;
                DATA_MEMORY short mem[0x10];
                DATA_MEMORY int banked[2]([4]);
                PROGRAM_MEMORY int prog[0x100..0x10f];
            }"#,
        )
        .expect("model builds")
    }

    #[test]
    fn scalars_read_back_written_values() {
        let m = model();
        let mut st = State::new(&m);
        let pc = m.resource_by_name("pc").unwrap();
        st.write_int(pc, &[], -5).unwrap();
        assert_eq!(st.read_int(pc, &[]).unwrap(), -5);
        let accu = m.resource_by_name("accu").unwrap();
        st.write_int(accu, &[], -1).unwrap();
        // bit[48] is unsigned: reads back as 2^48 - 1.
        assert_eq!(st.read_int(accu, &[]).unwrap(), (1 << 48) - 1);
    }

    #[test]
    fn short_memory_wraps_to_16_bits() {
        let m = model();
        let mut st = State::new(&m);
        let mem = m.resource_by_name("mem").unwrap();
        st.write_int(mem, &[3], 0x12345).unwrap();
        assert_eq!(st.read_int(mem, &[3]).unwrap(), 0x2345);
        st.write_int(mem, &[3], -1).unwrap();
        assert_eq!(st.read_int(mem, &[3]).unwrap(), -1); // short is signed
    }

    #[test]
    fn range_based_addressing() {
        let m = model();
        let mut st = State::new(&m);
        let prog = m.resource_by_name("prog").unwrap();
        st.write_int(prog, &[0x100], 42).unwrap();
        st.write_int(prog, &[0x10f], 7).unwrap();
        assert_eq!(st.read_int(prog, &[0x100]).unwrap(), 42);
        assert_eq!(st.read_int(prog, &[0x10f]).unwrap(), 7);
        assert!(matches!(st.read(prog, &[0xff]), Err(SimError::IndexOutOfBounds { .. })));
        assert!(matches!(st.read(prog, &[0x110]), Err(SimError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn banked_memory_uses_two_indices() {
        let m = model();
        let mut st = State::new(&m);
        let banked = m.resource_by_name("banked").unwrap();
        st.write_int(banked, &[1, 2], 99).unwrap();
        assert_eq!(st.read_int(banked, &[1, 2]).unwrap(), 99);
        assert_eq!(st.read_int(banked, &[0, 2]).unwrap(), 0);
        assert!(matches!(st.read(banked, &[1]), Err(SimError::WrongArity { .. })));
        assert!(matches!(st.read(banked, &[2, 0]), Err(SimError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = model();
        let mut st = State::new(&m);
        let pc = m.resource_by_name("pc").unwrap();
        st.write_int(pc, &[], 123).unwrap();
        st.reset();
        assert_eq!(st.read_int(pc, &[]).unwrap(), 0);
    }

    #[test]
    fn carry_bit_is_one_bit_wide() {
        let m = model();
        let mut st = State::new(&m);
        let carry = m.resource_by_name("carry").unwrap();
        st.write_int(carry, &[], 3).unwrap();
        assert_eq!(st.read_int(carry, &[]).unwrap(), 1); // wrapped to 1 bit
    }

    /// Scalars of several widths, a 100-bit storage, and arrays whose
    /// lengths leave 1, 2 and 3 cells in the last lane chunk.
    fn digest_model() -> Model {
        Model::from_source(
            r#"RESOURCE {
                PROGRAM_COUNTER int pc;
                REGISTER bit[48] accu;
                REGISTER bit carry;
                REGISTER bit[100] wide[7];
                REGISTER bit[100] wide_scalar;
                DATA_MEMORY short mem[0x10];
                DATA_MEMORY int banked[2]([4]);
                DATA_MEMORY bit[64] dwords[6];
                PROGRAM_MEMORY int prog[0x100..0x10a];
            }"#,
        )
        .expect("model builds")
    }

    /// A state with every cell set from a fixed xorshift stream, so no
    /// two cells are likely to be equal and no bit is fixed.
    fn scrambled(m: &Model) -> State {
        let mut st = State::new(m);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for s in &mut st.storages {
            for cell in &mut s.data {
                let mut word = 0u128;
                for _ in 0..2 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    word = word << 64 | u128::from(x);
                }
                *cell = Bits::from_u128_wrapped(s.width, word);
            }
        }
        st
    }

    fn flip(st: &mut State, storage: usize, cell: usize, bit: u32) {
        let s = &mut st.storages[storage];
        let raw = s.data[cell].to_u128() ^ 1u128 << bit;
        s.data[cell] = Bits::from_u128_wrapped(s.width, raw);
    }

    #[test]
    fn digest_model_covers_the_cases_it_claims() {
        let st = State::new(&digest_model());
        let tails: Vec<usize> = st.storages.iter().map(|s| s.data.len() % 4).collect();
        for tail in 1..4 {
            assert!(tails.contains(&tail), "a storage leaves {tail} cell(s) in its last chunk");
        }
        assert!(st.storages.iter().any(|s| s.width > 64 && s.data.len() > 4));
        assert!(st.storages.iter().any(|s| s.width > 64 && s.data.len() == 1));
        assert!(st.storages.iter().any(|s| s.width == 64));
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        let m = digest_model();
        for base in [State::new(&m), scrambled(&m)] {
            let want = base.digest();
            for (si, s) in base.storages.iter().enumerate() {
                for cell in 0..s.data.len() {
                    for bit in 0..s.width {
                        let mut st = base.clone();
                        flip(&mut st, si, cell, bit);
                        assert_ne!(st.digest(), want, "storage {si} cell {cell} bit {bit}");
                    }
                }
            }
        }
    }

    #[test]
    fn swapping_two_unequal_cells_changes_the_digest() {
        let m = digest_model();
        let base = scrambled(&m);
        let want = base.digest();
        for (si, s) in base.storages.iter().enumerate() {
            for i in 0..s.data.len() {
                for j in i + 1..s.data.len() {
                    assert_ne!(s.data[i], s.data[j]);
                    let mut st = base.clone();
                    st.storages[si].data.swap(i, j);
                    assert_ne!(st.digest(), want, "storage {si} cells {i} <-> {j}");
                }
            }
        }
    }

    #[test]
    fn moving_a_value_across_a_storage_boundary_changes_the_digest() {
        let m = digest_model();
        let zero = State::new(&m);
        for si in 0..zero.storages.len() - 1 {
            // The largest value both neighbours can hold, at the end of
            // one storage and then at the start of the next.
            let width = zero.storages[si].width.min(zero.storages[si + 1].width);
            let value = u128::MAX >> (128 - width);
            let mut before = zero.clone();
            let last = before.storages[si].data.len() - 1;
            before.storages[si].data[last] =
                Bits::from_u128_wrapped(before.storages[si].width, value);
            let mut after = zero.clone();
            after.storages[si + 1].data[0] =
                Bits::from_u128_wrapped(after.storages[si + 1].width, value);
            assert_ne!(before.digest(), after.digest(), "boundary after storage {si}");
        }
    }

    #[test]
    fn equal_states_digest_equally() {
        let m = digest_model();
        assert_eq!(State::new(&m).digest(), State::new(&m).digest());
        let a = scrambled(&m);
        assert_eq!(a.digest(), a.clone().digest());
        assert_eq!(a.digest(), scrambled(&m).digest());
        // Built through the public write path instead of the cells.
        let (mut b, mut c) = (State::new(&m), State::new(&m));
        for st in [&mut b, &mut c] {
            st.write_int(m.resource_by_name("pc").unwrap(), &[], -7).unwrap();
            st.write_int(m.resource_by_name("banked").unwrap(), &[1, 3], 99).unwrap();
        }
        assert_eq!(b, c);
        assert_eq!(b.digest(), c.digest());
        assert_ne!(b.digest(), State::new(&m).digest());
    }
}
