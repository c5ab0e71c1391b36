//! A TAGE-style predictor (Seznec & Michaud, JILP 2006 — published the same
//! year as the paper): a base bimodal predictor plus tagged tables indexed
//! with geometrically increasing history lengths. Included as a
//! stronger-than-perceptron target option for the §5.3 cross-predictor
//! study.
//!
//! # Folded history
//!
//! Each tagged table hashes its history length down to three widths: the
//! index width and the two tag folds (9 and 8 bits). The twelve folds are
//! kept in [`FoldedHistories`] registers and updated in O(1) per outcome,
//! so a lookup never touches the raw history.
//!
//! The registers reproduce one quirk of the original from-scratch fold,
//! which built its fold in a `u64` accumulator that overflowed: for a
//! history longer than 64 bits, the top `64 % width` bits of the second
//! history word fell off the accumulator, so history bits
//! `[128 − 64 % width, 128)` never reach the fold (4 bits of the 130-bit
//! table at width 10, 1 bit at width 9, none at width 8). The quirk is kept
//! because the golden reports and the `repro` output digest depend on it;
//! fixing it would change results and is a separate decision. The frozen
//! from-scratch fold is `reference::fold_history`, the test oracle of every
//! register.

use crate::{Bimodal, BranchPredictor};
use std::ops::Range;

const NUM_TABLES: usize = 4;
/// Geometric history lengths of the tagged tables.
const HIST_LENS: [u32; NUM_TABLES] = [5, 15, 44, 130];

#[derive(Clone, Copy, Debug, Default)]
struct TageEntry {
    tag: u16,
    /// 3-bit signed prediction counter, 0..=7; taken when >= 4
    ctr: u8,
    /// 2-bit usefulness counter
    useful: u8,
}

/// History bits that folding `len` bits into `width` bits through a `u64`
/// accumulator loses (see the module docs).
fn dropped_bits(len: u32, width: u32) -> Range<u32> {
    if len <= 64 {
        return 0..0;
    }
    (128 - 64 % width).min(len)..128.min(len)
}

/// Register lanes: the `NUM_TABLES × 3` folds padded to a whole number of
/// 128-bit vectors, so every lane operation below vectorises.
const LANES: usize = 16;
/// Distinct history bits the registers tap (the bit leaving each table's
/// window and the dropped-window edges of the 130-bit table), padded.
const MAX_TAPS: usize = 8;

/// The twelve folded-history registers, maintained incrementally as
/// outcomes are pushed. Register `3t + k` holds table `t`'s history of
/// `HIST_LENS[t]` bits XOR-folded into `[index_bits, 9, 8][k]` bits:
/// history bit `i` lands on fold bit `i % width`, except the
/// [`dropped_bits`].
#[derive(Clone, Debug)]
struct FoldedHistories {
    value: [u16; LANES],
    /// `1 << (width - 1)` per register (0 in padding lanes)
    top: [u16; LANES],
    /// `(1 << width) - 1` per register (0 in padding lanes)
    mask: [u16; LANES],
    /// History bits read on every push ...
    tap_bits: [u32; MAX_TAPS],
    /// ... and the fold bit each toggles per register (0 where none)
    toggles: [[u16; LANES]; MAX_TAPS],
}

impl FoldedHistories {
    fn new(index_bits: u32) -> Self {
        let mut folds = Self {
            value: [0; LANES],
            top: [0; LANES],
            mask: [0; LANES],
            tap_bits: [0; MAX_TAPS],
            toggles: [[0; LANES]; MAX_TAPS],
        };
        let mut num_taps = 0;
        for (t, &len) in HIST_LENS.iter().enumerate() {
            for (k, width) in [index_bits, 9, 8].into_iter().enumerate() {
                let lane = 3 * t + k;
                folds.top[lane] = 1 << (width - 1);
                folds.mask[lane] = mask(width) as u16;
                let dropped = dropped_bits(len, width);
                let kept = |i: u32| i < len && !dropped.contains(&i);
                // A push moves history bit j to j + 1, i.e. rotates the
                // fold left by one. That is right for bit j exactly when j
                // and j + 1 are both folded or both not; every other j is a
                // tap, whose contribution the push toggles.
                for j in (0..len).filter(|&j| kept(j) != kept(j + 1)) {
                    let tap = match folds.tap_bits[..num_taps].iter().position(|&bit| bit == j) {
                        Some(tap) => tap,
                        None => {
                            folds.tap_bits[num_taps] = j;
                            num_taps += 1;
                            num_taps - 1
                        }
                    };
                    folds.toggles[tap][lane] ^= 1 << ((j + 1) % width);
                }
            }
        }
        folds
    }

    /// Folds in `taken` as the newest history bit; `ghist` is the history
    /// before the push.
    #[inline]
    fn push(&mut self, taken: bool, ghist: &[u64; 4]) {
        let taken = taken as u16;
        // all-ones for each tap whose history bit is set
        let on = self
            .tap_bits
            .map(|bit| 0u16.wrapping_sub(((ghist[bit as usize / 64] >> (bit % 64)) & 1) as u16));
        for i in 0..LANES {
            let v = self.value[i];
            let wrapped = (v & self.top[i] != 0) as u16;
            let mut next = (v << 1) | wrapped;
            for (toggles, on) in self.toggles.iter().zip(on) {
                next ^= toggles[i] & on;
            }
            self.value[i] = (next ^ taken) & self.mask[i];
        }
    }
}

/// TAGE-lite: longest-matching tagged table provides the prediction; the
/// base bimodal catches the rest. Allocation on mispredictions follows the
/// standard useful-counter policy.
#[derive(Clone, Debug)]
pub struct Tage {
    base: Bimodal,
    /// `NUM_TABLES` tagged tables of `2^index_bits` entries, back to back.
    tables: Vec<TageEntry>,
    index_bits: u32,
    /// raw global history, newest outcome in bit 0 of word 0
    ghist: [u64; 4],
    /// per table: the index fold and the two tag folds
    folds: FoldedHistories,
}

impl Tage {
    /// Creates a TAGE predictor with `2^index_bits` entries per tagged
    /// table and a `2^(index_bits+1)`-entry bimodal base.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 16.
    pub fn new(index_bits: u32) -> Self {
        assert!(
            (1..=16).contains(&index_bits),
            "index_bits must be in 1..=16, got {index_bits}"
        );
        Self {
            base: Bimodal::new(index_bits + 1),
            tables: vec![TageEntry::default(); NUM_TABLES << index_bits],
            index_bits,
            ghist: [0; 4],
            folds: FoldedHistories::new(index_bits),
        }
    }

    /// An ~8 KB configuration (1K entries per tagged table).
    pub fn new_8kb() -> Self {
        Self::new(10)
    }

    /// Each table's entry slot (into `tables`) and tag for `pc` under the
    /// current history.
    #[inline]
    fn lookup(&self, pc: u64) -> ([usize; NUM_TABLES], [u16; NUM_TABLES]) {
        let pc_index = (pc >> 2) ^ (pc >> (2 + self.index_bits as u64));
        let mut slots = [0; NUM_TABLES];
        let mut tags = [0; NUM_TABLES];
        for (t, fold) in self
            .folds
            .value
            .chunks_exact(3)
            .take(NUM_TABLES)
            .enumerate()
        {
            let idx = (pc_index ^ fold[0] as u64) & mask(self.index_bits);
            slots[t] = (t << self.index_bits) | idx as usize;
            let tag = (pc >> 2) ^ fold[1] as u64 ^ ((fold[2] as u64) << 1);
            tags[t] = (tag & 0x1FF) as u16 | 0x200; // non-zero tags
        }
        (slots, tags)
    }

    /// Longest matching table, if any.
    #[inline]
    fn provider(&self, slots: &[usize; NUM_TABLES], tags: &[u16; NUM_TABLES]) -> Option<usize> {
        (0..NUM_TABLES)
            .rev()
            .find(|&t| self.tables[slots[t]].tag == tags[t])
    }

    /// Predicts the branch at `pc`, trains with `taken`, and returns the
    /// prediction — one lookup shared by the provider, its update and
    /// allocation.
    fn step(&mut self, pc: u64, taken: bool) -> bool {
        let (slots, tags) = self.lookup(pc);
        let provider = self.provider(&slots, &tags);
        let prediction = match provider {
            Some(t) => {
                let e = &mut self.tables[slots[t]];
                let prediction = e.ctr >= 4;
                if taken {
                    e.ctr = (e.ctr + 1).min(7);
                } else {
                    e.ctr = e.ctr.saturating_sub(1);
                }
                if prediction == taken {
                    e.useful = (e.useful + 1).min(3);
                } else {
                    e.useful = e.useful.saturating_sub(1);
                }
                prediction
            }
            None => self.base.predict_and_train(pc, taken),
        };
        // allocate a longer-history entry on a misprediction
        if prediction != taken {
            let start = provider.map_or(0, |t| t + 1);
            match (start..NUM_TABLES).find(|&t| self.tables[slots[t]].useful == 0) {
                Some(t) => {
                    self.tables[slots[t]] = TageEntry {
                        tag: tags[t],
                        ctr: if taken { 4 } else { 3 },
                        useful: 0,
                    };
                }
                None => {
                    // age usefulness so future allocations succeed
                    for &slot in &slots[start..] {
                        let e = &mut self.tables[slot];
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
        }
        self.push_history(taken);
        prediction
    }

    fn push_history(&mut self, taken: bool) {
        self.folds.push(taken, &self.ghist);
        let carry3 = self.ghist[2] >> 63;
        let carry2 = self.ghist[1] >> 63;
        let carry1 = self.ghist[0] >> 63;
        self.ghist[3] = (self.ghist[3] << 1) | carry3;
        self.ghist[2] = (self.ghist[2] << 1) | carry2;
        self.ghist[1] = (self.ghist[1] << 1) | carry1;
        self.ghist[0] = (self.ghist[0] << 1) | taken as u64;
    }
}

/// The low `bits` bits set; every width here is at most 16.
#[inline]
fn mask(bits: u32) -> u64 {
    (1 << bits) - 1
}

impl BranchPredictor for Tage {
    fn predict(&self, pc: u64) -> bool {
        let (slots, tags) = self.lookup(pc);
        match self.provider(&slots, &tags) {
            Some(t) => self.tables[slots[t]].ctr >= 4,
            None => self.base.predict(pc),
        }
    }

    fn train(&mut self, pc: u64, taken: bool) {
        self.step(pc, taken);
    }

    #[inline]
    fn predict_and_train(&mut self, pc: u64, taken: bool) -> bool {
        self.step(pc, taken)
    }

    fn reset(&mut self) {
        self.base.reset();
        self.tables.fill(TageEntry::default());
        self.ghist = [0; 4];
        self.folds.value = [0; LANES];
    }

    fn storage_bits(&self) -> usize {
        // 10-bit tag + 3-bit ctr + 2-bit useful per tagged entry
        self.base.storage_bits() + self.tables.len() * 15
    }

    fn name(&self) -> String {
        format!("tage-{}i", self.index_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::fold_history;
    use crate::Gshare;

    #[test]
    fn learns_constant_and_alternating() {
        let mut p = Tage::new_8kb();
        let mut correct = 0;
        for i in 0..2_000u32 {
            let taken = i % 2 == 0;
            if p.predict_and_train(0x1000, taken) == taken && i >= 1_000 {
                correct += 1;
            }
        }
        assert!(correct >= 990, "alternation: {correct}/1000");
    }

    #[test]
    fn beats_gshare_on_long_period_loops() {
        // a 50-iteration loop exit is invisible to 14 bits of gshare history
        // but within TAGE's 130-bit table
        let run = |p: &mut dyn BranchPredictor| -> u32 {
            let mut correct = 0;
            for round in 0..200u32 {
                for i in 0..=50u32 {
                    let taken = i < 50;
                    let pred = p.predict_and_train(0x2000, taken);
                    if round >= 100 && pred == taken {
                        correct += 1;
                    }
                }
            }
            correct
        };
        let mut tage = Tage::new_8kb();
        let tage_correct = run(&mut tage);
        let mut gshare = Gshare::new_4kb();
        let gshare_correct = run(&mut gshare);
        assert!(
            tage_correct > gshare_correct,
            "TAGE {tage_correct} vs gshare {gshare_correct} on a 50-trip loop"
        );
    }

    #[test]
    fn deterministic_and_resettable() {
        let stream: Vec<(u64, bool)> = (0..800u64)
            .map(|i| (0x100 + (i % 5) * 4, (i * i / 7) % 3 == 0))
            .collect();
        let mut p = Tage::new(8);
        let run = |p: &mut Tage| -> Vec<bool> {
            stream
                .iter()
                .map(|&(pc, t)| p.predict_and_train(pc, t))
                .collect()
        };
        let a = run(&mut p);
        p.reset();
        let b = run(&mut p);
        assert_eq!(a, b);
    }

    #[test]
    fn dropped_window_matches_accumulator_overflow() {
        // 64 % 10 = 4 and 64 % 9 = 1 bits of the second history word fall
        // off the u64 accumulator; widths dividing 64 lose nothing
        assert_eq!(dropped_bits(130, 10), 124..128);
        assert_eq!(dropped_bits(130, 9), 127..128);
        assert!(dropped_bits(130, 8).is_empty());
        assert!(dropped_bits(130, 16).is_empty());
        assert!(dropped_bits(44, 10).is_empty());
        for index_bits in 1..=16 {
            // panics if the taps outgrow MAX_TAPS
            let _ = FoldedHistories::new(index_bits);
        }
    }

    #[test]
    fn folded_registers_match_the_from_scratch_fold() {
        // index widths that divide 64 (1, 8, 16) and ones that do not
        // (3, 10), so the dropped-bit window is exercised
        for index_bits in [1, 3, 8, 10, 16] {
            let mut p = Tage::new(index_bits);
            let mut x = 0x2545_F491_4F6C_DD1Du64 ^ index_bits as u64;
            for push in 0..12_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // bias runs of equal outcomes now and then, as loops do
                p.push_history(if push % 1000 < 300 { true } else { x & 1 == 1 });
                for (t, regs) in p.folds.value.chunks_exact(3).take(NUM_TABLES).enumerate() {
                    for (&reg, width) in regs.iter().zip([index_bits, 9, 8]) {
                        assert_eq!(
                            reg as u64,
                            fold_history(&p.ghist, HIST_LENS[t], width),
                            "index_bits {index_bits}, table {t}, width {width}, push {push}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn storage_accounting_and_name() {
        let p = Tage::new_8kb();
        assert_eq!(p.name(), "tage-10i");
        // 2K bimodal x 2 bits + 4 x 1K x 15 bits
        assert_eq!(p.storage_bits(), 2048 * 2 + 4 * 1024 * 15);
    }

    #[test]
    fn tags_are_nonzero() {
        let p = Tage::new(8);
        for pc in (0..64u64).map(|i| 0x4000 + i * 4) {
            assert!(p.lookup(pc).1.iter().all(|&tag| tag != 0));
        }
    }
}
