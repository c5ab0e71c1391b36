//! The perceptron branch predictor (Jiménez & Lin, HPCA 2001).
//!
//! The paper's alternative target-machine predictor (§5.3): ~16 KB budget,
//! 457 entries, 36 bits of global history.

use crate::BranchPredictor;

/// Weights per stored row: the bias plus up to 63 history weights. Rows
/// are padded to this fixed width, so the dot product and the update are
/// straight-line loops over one 64-byte cache line that the compiler
/// vectorises.
const ROW: usize = 64;

/// One fixed-width, cache-line-aligned vector of `i8` lanes: a weight row,
/// or the bipolar input vector.
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
struct Lanes([i8; ROW]);

/// Perceptron predictor: each table entry holds a bias weight plus one signed
/// weight per global-history bit; the prediction is the sign of the dot
/// product between the weights and the (bipolar) history.
///
/// Training is Jiménez & Lin's rule: update on a misprediction or whenever
/// the magnitude of the output is at most the threshold
/// `θ = ⌊1.93·h + 14⌋`.
#[derive(Clone, Debug)]
pub struct Perceptron {
    history_bits: u32,
    theta: i32,
    /// One row per entry: the bias weight, `history_bits` history weights,
    /// then zero padding.
    weights: Vec<Lanes>,
    /// The inputs the weights multiply: `+1` for the bias, then `+1`/`−1`
    /// per history bit (newest first) for taken/not taken, then `0` in the
    /// padding lanes — so padding weights neither contribute nor train.
    inputs: Lanes,
}

impl Perceptron {
    /// Creates a perceptron predictor with `num_entries` weight rows and
    /// `history_bits` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if `num_entries` is 0 or `history_bits` is 0 or greater
    /// than 63.
    pub fn new(num_entries: usize, history_bits: u32) -> Self {
        assert!(num_entries > 0, "num_entries must be positive");
        assert!(
            (1..=63).contains(&history_bits),
            "history_bits must be in 1..=63, got {history_bits}"
        );
        Self {
            history_bits,
            theta: (1.93 * history_bits as f64 + 14.0).floor() as i32,
            weights: vec![Lanes([0; ROW]); num_entries],
            inputs: initial_inputs(history_bits),
        }
    }

    /// The paper's configuration: 457 entries, 36-bit history (~16 KB with
    /// 8-bit weights).
    pub fn new_16kb() -> Self {
        Self::new(457, 36)
    }

    /// The training threshold θ.
    pub fn theta(&self) -> i32 {
        self.theta
    }

    /// Number of global-history bits.
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    #[inline]
    fn row(&self, pc: u64) -> usize {
        ((pc >> 2) % self.weights.len() as u64) as usize
    }

    /// Predicts the branch at `pc`, trains with `taken`, and returns the
    /// prediction — one row selection and one dot product per event.
    #[inline]
    fn step(&mut self, pc: u64, taken: bool) -> bool {
        let row = self.row(pc);
        let y = dot(&self.weights[row], &self.inputs);
        let prediction = y >= 0;
        if prediction != taken || y.abs() <= self.theta {
            // strengthen each weight whose input agrees with the outcome
            let w = &mut self.weights[row].0;
            if taken {
                for (w, &x) in w.iter_mut().zip(&self.inputs.0) {
                    *w = w.saturating_add(x);
                }
            } else {
                for (w, &x) in w.iter_mut().zip(&self.inputs.0) {
                    *w = w.saturating_sub(x);
                }
            }
        }
        self.shift_in(taken);
        prediction
    }

    /// Shifts `taken` into history lane 1, moving every history lane up by
    /// one. The lanes move as eight little-endian words, so the next dot
    /// product loads whole words the stores wrote.
    #[inline]
    fn shift_in(&mut self, taken: bool) {
        let lanes = &mut self.inputs.0;
        let mut words = [0u64; ROW / 8];
        for (word, chunk) in words.iter_mut().zip(lanes.as_chunks::<8>().0) {
            *word = u64::from_le_bytes(chunk.map(|x| x as u8));
        }
        let mut carry = 0;
        for word in &mut words {
            (*word, carry) = ((*word << 8) | carry, *word >> 56);
        }
        // lane 0 stays the bias input, lane 1 is the new outcome
        let outcome: u64 = if taken { 0x01 } else { 0xFF };
        words[0] = (words[0] & !0xFFFF) | (outcome << 8) | 0x01;
        // the lane shifted past the history returns to padding
        let h = self.history_bits as usize;
        if h + 1 < ROW {
            words[(h + 1) / 8] &= !(0xFF << ((h + 1) % 8 * 8));
        }
        for (chunk, word) in lanes.as_chunks_mut::<8>().0.iter_mut().zip(words) {
            *chunk = word.to_le_bytes().map(|b| b as i8);
        }
    }
}

/// The input vector of an empty (all not-taken) history.
fn initial_inputs(history_bits: u32) -> Lanes {
    let mut inputs = Lanes([0; ROW]);
    inputs.0[0] = 1;
    inputs.0[1..=history_bits as usize].fill(-1);
    inputs
}

/// Dot product of a weight row with the input vector. Each product is at
/// most 128 in magnitude, so 64 of them sum within `i16`.
#[inline]
fn dot(weights: &Lanes, inputs: &Lanes) -> i32 {
    weights
        .0
        .iter()
        .zip(&inputs.0)
        .map(|(&w, &x)| w as i16 * x as i16)
        .fold(0i16, i16::wrapping_add) as i32
}

impl BranchPredictor for Perceptron {
    #[inline]
    fn predict(&self, pc: u64) -> bool {
        dot(&self.weights[self.row(pc)], &self.inputs) >= 0
    }

    fn train(&mut self, pc: u64, taken: bool) {
        self.step(pc, taken);
    }

    #[inline]
    fn predict_and_train(&mut self, pc: u64, taken: bool) -> bool {
        self.step(pc, taken)
    }

    fn reset(&mut self) {
        self.weights.fill(Lanes([0; ROW]));
        self.inputs = initial_inputs(self.history_bits);
    }

    fn storage_bits(&self) -> usize {
        self.weights.len() * (self.history_bits as usize + 1) * 8
    }

    fn name(&self) -> String {
        let num_entries = self.weights.len();
        if num_entries == 457 && self.history_bits == 36 {
            "perceptron-16KB".to_owned()
        } else {
            format!("perceptron-{}e{}h", num_entries, self.history_bits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration() {
        let p = Perceptron::new_16kb();
        assert_eq!(p.history_bits(), 36);
        assert_eq!(p.theta(), (1.93f64 * 36.0 + 14.0).floor() as i32);
        // 457 rows x 37 8-bit weights ~ 16.5 KiB, the conventional "16KB".
        assert_eq!(p.storage_bits(), 457 * 37 * 8);
        assert_eq!(p.name(), "perceptron-16KB");
    }

    #[test]
    fn learns_linearly_separable_function() {
        // taken = history[0] XOR'd with nothing: outcome equals previous
        // outcome (a linearly separable function of history).
        let mut p = Perceptron::new(64, 12);
        let pc = 0x1000;
        let mut prev = true;
        let mut correct_late = 0;
        for i in 0..1000u32 {
            let taken = prev; // repeat previous outcome
            let pred = p.predict_and_train(pc, taken);
            if i >= 500 && pred == taken {
                correct_late += 1;
            }
            prev = i % 5 == 0; // some deterministic source signal
        }
        assert!(
            correct_late >= 480,
            "perceptron should learn 'same as last outcome', got {correct_late}/500"
        );
    }

    #[test]
    fn learns_long_history_correlation_beyond_gshare_reach() {
        // Outcome equals the branch outcome from 20 events ago — a single
        // weight carries it for the perceptron.
        let mut p = Perceptron::new_16kb();
        let pc = 0x2000;
        let mut past = std::collections::VecDeque::from(vec![false; 20]);
        let mut correct_late = 0;
        let mut total_late = 0;
        for i in 0..4000u32 {
            let fresh = (i % 7 == 0) ^ (i % 11 == 3);
            let taken = *past.front().unwrap();
            let pred = p.predict_and_train(pc, taken);
            past.pop_front();
            past.push_back(fresh);
            if i >= 2000 {
                total_late += 1;
                if pred == taken {
                    correct_late += 1;
                }
            }
        }
        assert!(
            correct_late as f64 / total_late as f64 > 0.93,
            "long-distance correlation: {correct_late}/{total_late}"
        );
    }

    #[test]
    fn weights_saturate_without_overflow() {
        let mut p = Perceptron::new(4, 8);
        // Hammer one branch always-taken far past saturation.
        for _ in 0..100_000 {
            p.predict_and_train(0, true);
        }
        assert!(p.predict(0));
    }

    #[test]
    fn padding_lanes_never_train() {
        let mut p = Perceptron::new(3, 5);
        for i in 0..5_000u64 {
            p.predict_and_train(i % 3 * 4, i % 5 < 2);
        }
        for row in &p.weights {
            assert!(row.0[6..].iter().all(|&w| w == 0), "padding trained");
        }
        assert!(p.inputs.0[6..].iter().all(|&x| x == 0));
    }

    #[test]
    #[should_panic(expected = "history_bits")]
    fn rejects_zero_history() {
        let _ = Perceptron::new(16, 0);
    }

    #[test]
    fn reset_clears_learning() {
        let mut p = Perceptron::new(16, 8);
        for _ in 0..100 {
            p.predict_and_train(0, false);
        }
        assert!(!p.predict(0));
        p.reset();
        assert!(p.predict(0), "zero weights predict taken (y = 0 >= 0)");
    }
}
