//! Frozen per-event kernels of [`Tage`](crate::Tage) and
//! [`Perceptron`](crate::Perceptron), kept as differential oracles.
//!
//! These are the straightforward implementations the fast kernels replaced:
//! TAGE re-folds its global history from scratch for every index and tag it
//! computes, and the perceptron walks its history register bit by bit. They
//! are compiled only for tests. The suite at the bottom asserts that the
//! fast kernels predict exactly what these do, event for event, so any
//! divergence fails `cargo test -p bpred` before it can move a golden.

use crate::{Bimodal, BranchPredictor};

const NUM_TABLES: usize = 4;
const HIST_LENS: [u32; NUM_TABLES] = [5, 15, 44, 130];

#[inline]
fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Folds the low `len` bits of global history `ghist` into `bits` bits.
///
/// The accumulator is a `u64`, so when a second 64-bit history word is
/// appended behind a partial fold of the first, its top `64 % bits` bits
/// fall off the end: history bits `[128 - 64 % bits, 128)` never reach the
/// fold. [`Tage`](crate::Tage) reproduces this exactly.
pub(crate) fn fold_history(ghist: &[u64; 4], len: u32, bits: u32) -> u64 {
    let mut folded = 0u64;
    let mut taken_bits = 0u32;
    let mut word = 0usize;
    let mut offset = 0u32;
    let mut acc = 0u64;
    let mut acc_len = 0u32;
    while taken_bits < len {
        let chunk = (64 - offset).min(len - taken_bits);
        let part = (ghist[word] >> offset) & mask(chunk);
        acc |= part << acc_len;
        acc_len += chunk;
        while acc_len >= bits {
            folded ^= acc & mask(bits);
            acc >>= bits;
            acc_len -= bits;
        }
        taken_bits += chunk;
        offset += chunk;
        if offset == 64 {
            offset = 0;
            word += 1;
        }
    }
    folded ^ (acc & mask(bits))
}

#[derive(Clone, Copy, Debug, Default)]
struct TageEntry {
    tag: u16,
    ctr: u8,
    useful: u8,
}

/// The per-event TAGE kernel before incremental folded history.
#[derive(Clone, Debug)]
pub(crate) struct Tage {
    base: Bimodal,
    tables: Vec<Vec<TageEntry>>,
    index_bits: u32,
    ghist: [u64; 4],
    alloc_seed: u32,
}

impl Tage {
    pub(crate) fn new(index_bits: u32) -> Self {
        Self {
            base: Bimodal::new(index_bits + 1),
            tables: vec![vec![TageEntry::default(); 1 << index_bits]; NUM_TABLES],
            index_bits,
            ghist: [0; 4],
            alloc_seed: 0x9E37,
        }
    }

    fn index(&self, pc: u64, table: usize) -> usize {
        let h = fold_history(&self.ghist, HIST_LENS[table], self.index_bits);
        (((pc >> 2) ^ (pc >> (2 + self.index_bits as u64)) ^ h) & mask(self.index_bits)) as usize
    }

    fn tag(&self, pc: u64, table: usize) -> u16 {
        let h = fold_history(&self.ghist, HIST_LENS[table], 9);
        let h2 = fold_history(&self.ghist, HIST_LENS[table], 8) << 1;
        (((pc >> 2) ^ h ^ h2) & 0x1FF) as u16 | 0x200
    }

    fn provider(&self, pc: u64) -> Option<(usize, usize)> {
        (0..NUM_TABLES).rev().find_map(|ti| {
            let idx = self.index(pc, ti);
            (self.tables[ti][idx].tag == self.tag(pc, ti)).then_some((ti, idx))
        })
    }

    fn push_history(&mut self, taken: bool) {
        let carry3 = self.ghist[2] >> 63;
        let carry2 = self.ghist[1] >> 63;
        let carry1 = self.ghist[0] >> 63;
        self.ghist[3] = (self.ghist[3] << 1) | carry3;
        self.ghist[2] = (self.ghist[2] << 1) | carry2;
        self.ghist[1] = (self.ghist[1] << 1) | carry1;
        self.ghist[0] = (self.ghist[0] << 1) | taken as u64;
    }
}

impl BranchPredictor for Tage {
    fn predict(&self, pc: u64) -> bool {
        match self.provider(pc) {
            Some((ti, idx)) => self.tables[ti][idx].ctr >= 4,
            None => self.base.predict(pc),
        }
    }

    fn train(&mut self, pc: u64, taken: bool) {
        let provider = self.provider(pc);
        let prediction = match provider {
            Some((ti, idx)) => self.tables[ti][idx].ctr >= 4,
            None => self.base.predict(pc),
        };
        let correct = prediction == taken;
        match provider {
            Some((ti, idx)) => {
                let e = &mut self.tables[ti][idx];
                if taken {
                    e.ctr = (e.ctr + 1).min(7);
                } else {
                    e.ctr = e.ctr.saturating_sub(1);
                }
                if correct {
                    e.useful = (e.useful + 1).min(3);
                } else {
                    e.useful = e.useful.saturating_sub(1);
                }
            }
            None => self.base.train(pc, taken),
        }
        if !correct {
            let start = provider.map(|(ti, _)| ti + 1).unwrap_or(0);
            self.alloc_seed = self
                .alloc_seed
                .wrapping_mul(1664525)
                .wrapping_add(1013904223);
            let mut allocated = false;
            for ti in start..NUM_TABLES {
                let idx = self.index(pc, ti);
                if self.tables[ti][idx].useful == 0 {
                    self.tables[ti][idx] = TageEntry {
                        tag: self.tag(pc, ti),
                        ctr: if taken { 4 } else { 3 },
                        useful: 0,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                for ti in start..NUM_TABLES {
                    let idx = self.index(pc, ti);
                    let e = &mut self.tables[ti][idx];
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }
        self.push_history(taken);
    }

    fn reset(&mut self) {
        self.base.reset();
        for t in &mut self.tables {
            t.fill(TageEntry::default());
        }
        self.ghist = [0; 4];
        self.alloc_seed = 0x9E37;
    }

    fn storage_bits(&self) -> usize {
        self.base.storage_bits() + self.tables.iter().map(|t| t.len() * 15).sum::<usize>()
    }

    fn name(&self) -> String {
        format!("tage-{}i", self.index_bits)
    }
}

/// The per-event perceptron kernel before fixed-width rows.
#[derive(Clone, Debug)]
pub(crate) struct Perceptron {
    num_entries: usize,
    history_bits: u32,
    theta: i32,
    weights: Vec<i8>,
    ghr: u64,
}

impl Perceptron {
    pub(crate) fn new(num_entries: usize, history_bits: u32) -> Self {
        Self {
            num_entries,
            history_bits,
            theta: (1.93 * history_bits as f64 + 14.0).floor() as i32,
            weights: vec![0; num_entries * (history_bits as usize + 1)],
            ghr: 0,
        }
    }

    fn row(&self, pc: u64) -> usize {
        ((pc >> 2) % self.num_entries as u64) as usize
    }

    fn output(&self, pc: u64) -> i32 {
        let w = self.history_bits as usize + 1;
        let row = &self.weights[self.row(pc) * w..(self.row(pc) + 1) * w];
        let mut y = row[0] as i32;
        for (i, &wi) in row.iter().enumerate().skip(1) {
            let h_bit = (self.ghr >> (i - 1)) & 1;
            if h_bit == 1 {
                y += wi as i32;
            } else {
                y -= wi as i32;
            }
        }
        y
    }
}

fn saturating_step(w: &mut i8, up: bool) {
    *w = if up {
        w.saturating_add(1)
    } else {
        w.saturating_sub(1)
    };
}

impl BranchPredictor for Perceptron {
    fn predict(&self, pc: u64) -> bool {
        self.output(pc) >= 0
    }

    fn train(&mut self, pc: u64, taken: bool) {
        let y = self.output(pc);
        let predicted = y >= 0;
        if predicted != taken || y.abs() <= self.theta {
            let w = self.history_bits as usize + 1;
            let start = self.row(pc) * w;
            saturating_step(&mut self.weights[start], taken);
            for i in 1..w {
                let h_bit = (self.ghr >> (i - 1)) & 1 == 1;
                saturating_step(&mut self.weights[start + i], h_bit == taken);
            }
        }
        self.ghr = (self.ghr << 1) | taken as u64;
    }

    fn reset(&mut self) {
        self.weights.fill(0);
        self.ghr = 0;
    }

    fn storage_bits(&self) -> usize {
        self.weights.len() * 8
    }

    fn name(&self) -> String {
        if self.num_entries == 457 && self.history_bits == 36 {
            "perceptron-16KB".to_owned()
        } else {
            format!("perceptron-{}e{}h", self.num_entries, self.history_bits)
        }
    }
}

/// The differential suite: fast kernels against the frozen ones above.
mod tests {
    use crate::{site_pc, BranchPredictor};
    use btrace::{SiteId, Tracer};
    use workloads::Scale;

    /// A fast kernel and its frozen reference, stepped in lockstep.
    struct Pair<F, R> {
        fast: F,
        reference: R,
        events: u64,
    }

    impl<F: BranchPredictor, R: BranchPredictor> Pair<F, R> {
        fn new(fast: F, reference: R) -> Self {
            assert_eq!(fast.name(), reference.name());
            assert_eq!(fast.storage_bits(), reference.storage_bits());
            Self {
                fast,
                reference,
                events: 0,
            }
        }

        /// Checks `predict`, then steps both kernels with `taken` — every
        /// seventh event through `train`, the rest through
        /// `predict_and_train` — and checks the returned predictions.
        fn step(&mut self, pc: u64, taken: bool) {
            let n = self.events;
            let name = self.fast.name();
            let predicted = self.reference.predict(pc);
            assert_eq!(
                self.fast.predict(pc),
                predicted,
                "{name}: predict, event {n}"
            );
            if n % 7 == 6 {
                self.fast.train(pc, taken);
                self.reference.train(pc, taken);
            } else {
                assert_eq!(
                    self.fast.predict_and_train(pc, taken),
                    self.reference.predict_and_train(pc, taken),
                    "{name}: predict_and_train, event {n}"
                );
            }
            self.events += 1;
        }

        fn reset(&mut self) {
            self.fast.reset();
            self.reference.reset();
        }
    }

    type BoxedPair = Pair<Box<dyn BranchPredictor>, Box<dyn BranchPredictor>>;

    fn pair(
        fast: impl BranchPredictor + 'static,
        reference: impl BranchPredictor + 'static,
    ) -> BoxedPair {
        Pair::new(Box::new(fast), Box::new(reference))
    }

    /// Every fast kernel configuration the suite checks, boxed so one
    /// stream drives them all: the experiments' two, index widths that do
    /// and do not divide 64, and the extreme history lengths.
    fn pairs() -> Vec<BoxedPair> {
        vec![
            pair(crate::Tage::new_8kb(), super::Tage::new(10)),
            pair(crate::Tage::new(3), super::Tage::new(3)),
            pair(crate::Tage::new(16), super::Tage::new(16)),
            pair(
                crate::Perceptron::new_16kb(),
                super::Perceptron::new(457, 36),
            ),
            pair(crate::Perceptron::new(5, 1), super::Perceptron::new(5, 1)),
            pair(
                crate::Perceptron::new(31, 63),
                super::Perceptron::new(31, 63),
            ),
        ]
    }

    /// xorshift64 — a fixed, dependency-free stream generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// A seeded stream over `sites` branch sites mixing what predictors
    /// see in programs: biased sites, loop-like periodic sites, sites
    /// correlated with recent outcomes, and noise.
    fn synthetic(sites: u64, events: usize, seed: u64) -> Vec<(u64, bool)> {
        let mut rng = Rng(seed);
        let mut last = [false; 4];
        (0..events)
            .map(|i| {
                let site = rng.next() % sites;
                let taken = match site % 4 {
                    0 => rng.next() % 100 < 90,
                    1 => !(i as u64).is_multiple_of(site % 37 + 2),
                    2 => last[(site / 4 % 4) as usize] ^ rng.next().is_multiple_of(16),
                    _ => rng.next() & 1 == 1,
                };
                last.rotate_right(1);
                last[0] = taken;
                (site_pc(SiteId(site as u32)), taken)
            })
            .collect()
    }

    #[test]
    fn synthetic_streams_agree() {
        for (sites, seed) in [(3, 1), (50, 2), (2000, 3)] {
            let stream = synthetic(sites, 60_000, seed);
            for mut pair in pairs() {
                for &(pc, taken) in &stream {
                    pair.step(pc, taken);
                }
            }
        }
    }

    #[test]
    fn mid_stream_reset_agrees() {
        let stream = synthetic(50, 20_000, 4);
        for mut pair in pairs() {
            for (i, &(pc, taken)) in stream.iter().enumerate() {
                if i == 7_777 {
                    pair.reset();
                }
                pair.step(pc, taken);
            }
        }
    }

    #[test]
    fn saturated_perceptron_weights_agree() {
        // With 63 history bits θ = 135 exceeds the weight range, so a site
        // that is always taken (row 0) keeps training until its bias weight
        // sits on +127, and one never taken (row 2) on -128. A noisy site
        // (row 1) keeps the history random.
        let mut pair = Pair::new(crate::Perceptron::new(4, 63), super::Perceptron::new(4, 63));
        let mut rng = Rng(5);
        for _ in 0..40_000 {
            let r = rng.next();
            match r % 4 {
                0 => pair.step(0, true),
                1 => pair.step(8, false),
                _ => pair.step(4, r & 16 != 0),
            }
        }
        let weights = &pair.reference.weights;
        assert_eq!((weights[0], weights[2 * 64]), (i8::MAX, i8::MIN));
    }

    /// Drives every pair with a workload's branch stream.
    struct Lockstep(Vec<BoxedPair>);

    impl Tracer for Lockstep {
        fn branch(&mut self, site: SiteId, taken: bool) {
            for pair in &mut self.0 {
                pair.step(site_pc(site), taken);
            }
        }
    }

    #[test]
    fn tiny_train_traces_agree() {
        // the two configurations the experiments simulate, over every
        // workload's whole `train` run; two workers share the suite
        let suite = workloads::suite(Scale::Tiny);
        std::thread::scope(|s| {
            for half in suite.chunks(suite.len().div_ceil(2)) {
                s.spawn(move || {
                    for w in half {
                        let input = w.input_set("train").expect("every workload has train");
                        let mut lockstep = Lockstep(vec![
                            pair(crate::Tage::new_8kb(), super::Tage::new(10)),
                            pair(
                                crate::Perceptron::new_16kb(),
                                super::Perceptron::new(457, 36),
                            ),
                        ]);
                        w.run(&input, &mut lockstep);
                        assert!(lockstep.0[0].events > 0, "{} ran no branches", w.name());
                    }
                });
            }
        });
    }
}
