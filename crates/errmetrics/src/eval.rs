use crate::kinds::MetricKind;
use bitsim::{dispatched, word_mask};

/// Patterns per reduction chunk. The per-pattern reductions (value
/// decoding, contribution sums) are computed chunk by chunk and folded
/// in chunk order; this constant is part of the numeric contract — the
/// floating-point sums are bit-identical at every thread count because
/// the chunk boundaries and the fold order never depend on scheduling.
/// It is a multiple of 64, so chunk boundaries align with signature
/// words.
pub const PAT_CHUNK: usize = 4096;

/// Words per inner evaluation strip: flip unions are computed for a
/// fixed-width batch of deviating words at a time so the OR/AND loops
/// compile to straight-line vector code, and the integer word kernel
/// folds a strip's words as eight lanes (one 512-bit register on the
/// AVX-512 instance). Purely a batching width — the per-word fold order
/// (and thus every rounded sum) is unchanged.
const STRIP: usize = 8;

/// Eight words, one per lane of a strip.
type Lanes = [u64; STRIP];

/// Widest output count the integer word kernel handles (see
/// [`ErrorEval::word_kernel_eligible`]): with 54 or more outputs a
/// single pattern's error distance can already exceed `2^53`.
const WORD_KERNEL_MAX_OUTPUTS: usize = 53;

/// Outcome of a bounded scoring call ([`ErrorEval::masked_rows_bounded`]):
/// either the exact new error, or proof that the candidate's error
/// increase exceeds the caller's threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundedScore {
    /// The exact new error, bit-identical to the unbounded evaluation.
    Exact(f64),
    /// The candidate was abandoned: its final `ΔE` is provably `>` the
    /// threshold the caller's `prune` callback accepted. `lb_delta` is
    /// the monotone lower bound on `ΔE` that triggered the cut.
    Pruned {
        /// The lower bound on `ΔE` at the abandonment point.
        lb_delta: f64,
    },
}

/// Inflates a nonnegative partial sum so it dominates the exact real
/// sum it approximates despite accumulated rounding: one multiply per
/// accumulation step with a relative slack (`256 ulp`) far above the
/// worst-case relative error of the additions it covers (at most 64
/// nonnegative terms per word plus one suffix add, each contributing
/// one rounding of at most half an ulp).
#[inline]
fn inflate(x: f64) -> f64 {
    x * (1.0 + 256.0 * f64::EPSILON)
}

/// Incremental error evaluator.
///
/// The evaluator is anchored to the golden output signatures. Calling
/// [`ErrorEval::rebase`] sets the current approximate circuit's output
/// signatures and [`ErrorEval::current`] returns its error. The scoring
/// methods return the error the circuit *would* have under a change,
/// without mutating the evaluator, in time proportional to the patterns
/// the change flips — which is what makes scoring thousands of candidate
/// changes per round cheap:
///
/// - a candidate LAC comes as its sparse deviation `(words, bits)` (the
///   shape `lac::DevMask` stores) plus its node's transfer-mask rows:
///   [`ErrorEval::with_masked_rows`] scores it exactly,
///   [`ErrorEval::masked_rows_bounded`] scores it under a pruning
///   threshold and picks the kernel itself, and
///   [`ErrorEval::er_with_deviation`] is ER's factored form;
/// - a trial edit comes as per-output flip rows:
///   [`ErrorEval::measured_with_flips_words`] returns exactly what a
///   rebase on the flipped signatures would measure.
#[derive(Debug, Clone)]
pub struct ErrorEval {
    kind: MetricKind,
    n_patterns: usize,
    stride: usize,
    n_outputs: usize,
    golden: Vec<Vec<u64>>,
    golden_vals: Vec<u128>,
    max_val: f64,
    // State of the current approximate circuit.
    diff: Vec<Vec<u64>>,
    cur_vals: Vec<u128>,
    contrib: Vec<f64>,
    cur_sum: f64,
    cur_max: f64,
    /// Per-chunk contribution sums in chunk order (arithmetic metrics
    /// only) — the partials of the canonical fold behind `cur_sum`, kept
    /// so [`ErrorEval::measured_with_flips_words`] can replay only the
    /// chunks a sparse flip set touches.
    chunk_sums: Vec<f64>,
    /// Per-word baseline contribution sums, inflated to dominate their
    /// exact real value (mean arithmetic metrics only). Suffix sums over
    /// a candidate's deviating words turn these into a sound bound on
    /// how much error the not-yet-replayed words could still remove —
    /// the heart of [`ErrorEval::masked_rows_bounded`].
    word_base: Vec<f64>,
    /// Whether [`ErrorEval::masked_rows_bounded`] runs the integer word
    /// kernel on this evaluator (see [`ErrorEval::word_kernel_eligible`]).
    word_kernel: bool,
    /// Plane-major bit planes for the integer word kernel (eligible
    /// evaluators only, else empty): plane `(k, o)` is the row
    /// `planes[(k * n_outputs + o) * plane_row..][..plane_row]`, bit `o`
    /// of the golden values (`k = 0`), the current values (`k = 1`) or
    /// `|current - golden|` (`k = 2`) of every pattern. Rows are padded
    /// with zero words to a whole number of strips, so `rebase` fills
    /// them eight consecutive words at a time.
    planes: Vec<u64>,
    /// Words per plane row: `stride` rounded up to a multiple of
    /// [`STRIP`].
    plane_row: usize,
    // ER-only per-word union of the output diffs and its popcounts, so
    // sparse candidate scoring can rescore just the deviating words.
    er_words: Vec<u64>,
    er_word_pops: Vec<u32>,
    er_total: usize,
}

impl ErrorEval {
    /// Creates an evaluator anchored to `golden` output signatures. The
    /// current circuit starts out identical to the golden one (zero
    /// error); call [`ErrorEval::rebase`] to set it.
    ///
    /// # Panics
    ///
    /// Panics if `golden` is empty, if signatures are narrower than the
    /// pattern count requires, or if an arithmetic metric is requested
    /// with more than 128 outputs.
    pub fn new(kind: MetricKind, golden: &[Vec<u64>], n_patterns: usize) -> Self {
        assert!(!golden.is_empty(), "need at least one output");
        let stride = n_patterns.div_ceil(64);
        assert!(
            golden.iter().all(|s| s.len() >= stride),
            "signatures too short for {n_patterns} patterns"
        );
        let n_outputs = golden.len();
        let arith = kind.is_arithmetic();
        if arith {
            assert!(
                n_outputs <= 128,
                "arithmetic metrics support at most 128 outputs, got {n_outputs}"
            );
        }
        let mut golden_vals = Vec::new();
        if arith {
            decode_values(golden, n_patterns, &mut golden_vals);
        }
        let max_val = if n_outputs >= 128 {
            u128::MAX as f64
        } else {
            ((1u128 << n_outputs) - 1) as f64
        };
        let word_kernel = matches!(kind, MetricKind::Med | MetricKind::Nmed)
            && n_outputs <= WORD_KERNEL_MAX_OUTPUTS
            && n_patterns as u128 * ((1u128 << n_outputs) - 1) <= 1u128 << 53;
        let plane_row = stride.next_multiple_of(STRIP);
        let planes = vec![
            0u64;
            if word_kernel {
                3 * n_outputs * plane_row
            } else {
                0
            }
        ];
        let mut eval = ErrorEval {
            kind,
            n_patterns,
            stride,
            n_outputs,
            max_val,
            diff: vec![vec![0u64; stride]; n_outputs],
            cur_vals: golden_vals.clone(),
            contrib: vec![0.0; if arith { n_patterns } else { 0 }],
            cur_sum: 0.0,
            cur_max: 0.0,
            chunk_sums: Vec::new(),
            word_base: Vec::new(),
            word_kernel,
            planes,
            plane_row,
            golden: golden.iter().map(|s| s[..stride].to_vec()).collect(),
            golden_vals,
            er_words: Vec::new(),
            er_word_pops: Vec::new(),
            er_total: 0,
        };
        eval.recompute_contributions();
        eval.refresh_planes(golden);
        eval
    }

    /// The metric kind this evaluator computes.
    pub fn kind(&self) -> MetricKind {
        self.kind
    }

    /// The number of patterns in the sample.
    pub fn n_patterns(&self) -> usize {
        self.n_patterns
    }

    /// The number of outputs.
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// Words per signature.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Whether [`ErrorEval::masked_rows_bounded`] scores this evaluator
    /// on the integer word kernel: the metric is MED or NMED and
    /// `n_patterns * (2^n_outputs - 1) <= 2^53`.
    ///
    /// Every per-pattern contribution is then an integer of at most
    /// `2^n_outputs - 1`, and every partial sum of contributions is an
    /// integer of at most `2^53`, so each is exact in `f64`: the fold
    /// `cur_sum + Σ (new - old)` is exact whatever the order or
    /// grouping of its terms, and summing integer per-word deltas gives
    /// the per-pattern fold's value bit for bit.
    pub fn word_kernel_eligible(&self) -> bool {
        self.word_kernel
    }

    /// Fills `out` with inflated suffix sums of the per-word baseline
    /// contributions over `words`, one per [`STRIP`] (mean arithmetic
    /// metrics only, the kinds that keep `word_base`): `out[s]`
    /// dominates the exact real sum of every baseline contribution in
    /// `words[s * STRIP..]`, and the last entry is `0`. A strip's own
    /// words are summed from its last word down and the total is added
    /// to the next strip's entry, one inflation per strip;
    /// [`ErrorEval::strip_rests`] repeats those additions word by word.
    fn word_base_suffix(&self, words: &[u32], out: &mut Vec<f64>) {
        let n_strips = words.len().div_ceil(STRIP);
        out.clear();
        out.resize(n_strips + 1, 0.0);
        for s in (0..n_strips).rev() {
            let strip = &words[s * STRIP..words.len().min((s + 1) * STRIP)];
            let mut own = 0.0f64;
            for &w in strip.iter().rev() {
                own += self.word_base[w as usize];
            }
            out[s] = inflate(out[s + 1] + own);
        }
    }

    /// The per-word suffix bounds inside one strip: `rests[i]`
    /// dominates the baseline mass of `strip[i..]` plus every later
    /// strip, given `next`, the later strips' entry of
    /// [`ErrorEval::word_base_suffix`]. The sum of `strip[i..]` runs in
    /// the order `word_base_suffix` uses, so `rests[0]` is that
    /// function's entry for this strip, bit for bit. Each bound adds at
    /// most [`STRIP`] rounded terms before its one inflation, far inside
    /// the inflation slack.
    fn strip_rests(&self, strip: &[u32], next: f64, rests: &mut [f64; STRIP]) {
        let mut own = 0.0f64;
        for (i, &w) in strip.iter().enumerate().rev() {
            own += self.word_base[w as usize];
            rests[i] = inflate(next + own);
        }
    }

    /// Sets the current approximate circuit from its output signatures.
    ///
    /// # Panics
    ///
    /// Panics if the signature set has the wrong shape.
    pub fn rebase(&mut self, approx: &[Vec<u64>]) {
        assert_eq!(approx.len(), self.n_outputs, "output count mismatch");
        for (o, sig) in approx.iter().enumerate() {
            assert!(sig.len() >= self.stride, "signature too short");
            let golden = &self.golden[o];
            for (d, (&g, &s)) in self.diff[o][..self.stride]
                .iter_mut()
                .zip(golden.iter().zip(sig))
            {
                *d = g ^ s;
            }
        }
        if self.kind.is_arithmetic() {
            decode_values(approx, self.n_patterns, &mut self.cur_vals);
        }
        self.recompute_contributions();
        self.refresh_planes(approx);
    }

    /// Refills the planes from the golden and the current output
    /// signatures (eligible evaluators only): the golden and current
    /// rows are copied whole, and `|current - golden|` is computed one
    /// strip of eight words at a time.
    fn refresh_planes(&mut self, approx: &[Vec<u64>]) {
        if !self.word_kernel {
            return;
        }
        let (n, row, stride) = (self.n_outputs, self.plane_row, self.stride);
        let (gold, rest) = self.planes.split_at_mut(n * row);
        let (cur, abs) = rest.split_at_mut(n * row);
        for o in 0..n {
            gold[o * row..][..stride].copy_from_slice(&self.golden[o]);
            cur[o * row..][..stride].copy_from_slice(&approx[o][..stride]);
        }
        for c in (0..row).step_by(STRIP) {
            let at = |o: usize| o * row + c..o * row + c + STRIP;
            let mut borrow = [0u64; STRIP];
            for o in 0..n {
                let d = sub_step(lanes(&cur[at(o)]), lanes(&gold[at(o)]), &mut borrow);
                abs[at(o)].copy_from_slice(&d);
            }
            let mut carry = borrow;
            for o in 0..n {
                let a = neg_step(lanes(&abs[at(o)]), borrow, &mut carry);
                abs[at(o)].copy_from_slice(&a);
            }
        }
    }

    /// Row `(k, o)` of the word kernel's planes (see `ErrorEval::planes`).
    #[inline(always)]
    fn plane(&self, k: usize, o: usize) -> &[u64] {
        &self.planes[(k * self.n_outputs + o) * self.plane_row..][..self.plane_row]
    }

    fn recompute_contributions(&mut self) {
        if !self.kind.is_arithmetic() {
            self.refresh_er_pops();
            return;
        }
        let pool = parkit::global();
        let kind = self.kind;
        let (cur_vals, golden_vals) = (&self.cur_vals, &self.golden_vals);
        let mut contrib = std::mem::take(&mut self.contrib);
        pool.par_chunks_mut(&mut contrib, PAT_CHUNK, |c, slice| {
            let base = c * PAT_CHUNK;
            for (i, v) in slice.iter_mut().enumerate() {
                *v = pattern_contrib(kind, cur_vals[base + i], golden_vals[base + i]);
            }
        });
        self.contrib = contrib;
        // Canonical chunked fold: per-chunk sums arrive in chunk order
        // and are folded serially, so the result does not depend on the
        // thread count (see `PAT_CHUNK`).
        let contrib = &self.contrib;
        let partials = pool.par_chunk_results(self.n_patterns, PAT_CHUNK, |_, r| {
            let (mut sum, mut max) = (0.0f64, 0.0f64);
            for c in &contrib[r] {
                sum += c;
                max = max.max(*c);
            }
            (sum, max)
        });
        self.cur_sum = 0.0;
        self.cur_max = 0.0;
        self.chunk_sums.clear();
        for (s, m) in partials {
            self.chunk_sums.push(s);
            self.cur_sum += s;
            self.cur_max = self.cur_max.max(m);
        }
        self.refresh_word_base();
    }

    /// Recomputes the inflated per-word baseline contribution sums (mean
    /// arithmetic metrics only; other kinds keep the vector empty).
    fn refresh_word_base(&mut self) {
        if !is_mean(self.kind) {
            return;
        }
        let contrib = &self.contrib;
        let n_patterns = self.n_patterns;
        let mut base = std::mem::take(&mut self.word_base);
        base.clear();
        base.resize(self.stride, 0.0);
        parkit::global().par_chunks_mut(&mut base, 1024, |c, slice| {
            let first = c * 1024;
            for (i, slot) in slice.iter_mut().enumerate() {
                let w = first + i;
                let mut sum = 0.0f64;
                for &v in &contrib[w * 64..((w + 1) * 64).min(n_patterns)] {
                    sum += v;
                }
                *slot = inflate(sum);
            }
        });
        self.word_base = base;
    }

    /// Recomputes the ER per-word popcounts of the union diff (the words
    /// a sparse ER rescoring leaves untouched).
    fn refresh_er_pops(&mut self) {
        if self.kind != MetricKind::Er {
            return;
        }
        let diff = &self.diff;
        let n_outputs = self.n_outputs;
        let mut words = std::mem::take(&mut self.er_words);
        words.clear();
        words.resize(self.stride, 0);
        let mut pops = std::mem::take(&mut self.er_word_pops);
        pops.clear();
        pops.resize(self.stride, 0);
        let masks: Vec<u64> = (0..self.stride).map(|w| self.word_mask(w)).collect();
        parkit::global().par_chunks_mut(&mut words, 1024, |c, slice| {
            let base = c * 1024;
            for (i, slot) in slice.iter_mut().enumerate() {
                let w = base + i;
                let mut acc = 0u64;
                for row in diff.iter().take(n_outputs) {
                    acc |= row[w];
                }
                *slot = acc;
            }
        });
        for (w, slot) in pops.iter_mut().enumerate() {
            *slot = (words[w] & masks[w]).count_ones();
        }
        self.er_total = pops.iter().map(|&p| p as usize).sum();
        self.er_words = words;
        self.er_word_pops = pops;
    }

    fn pattern_contrib(&self, approx: u128, golden: u128) -> f64 {
        pattern_contrib(self.kind, approx, golden)
    }

    fn finalize(&self, sum: f64, max: f64) -> f64 {
        let n = self.n_patterns as f64;
        match self.kind {
            MetricKind::Er => sum / n,
            MetricKind::Med | MetricKind::Mred | MetricKind::Mse => sum / n,
            MetricKind::Nmed => sum / n / self.max_val,
            MetricKind::Wce => max,
        }
    }

    /// The error of the current approximate circuit.
    pub fn current(&self) -> f64 {
        match self.kind {
            MetricKind::Er => self.er_total as f64 / self.n_patterns as f64,
            _ => self.finalize(self.cur_sum, self.cur_max),
        }
    }

    /// The error the circuit would have if the per-output `flips` masks
    /// were XORed into the current output signatures, **bit-identical to
    /// a fresh rebase**: the returned value equals, bit for bit, what
    /// [`ErrorEval::current`] would report after `rebase` on the flipped
    /// signatures. Only the listed words are rescored. ER counts the
    /// changed union-diff popcounts (integers, order-free) and WCE
    /// rescans the flipped patterns (an order-free max); the mean
    /// metrics replay the canonical chunked fold — chunks without
    /// flipped patterns reuse their stored partial sum, touched chunks
    /// re-accumulate per pattern in the same serial order. Cost stays
    /// proportional to the flipped region.
    ///
    /// This is the measurement contract of the incremental trial
    /// evaluator: a trial's error must equal the committed circuit's
    /// measured error exactly, not just approximately.
    ///
    /// # Panics
    ///
    /// Panics if `flips` has the wrong shape. `words` must list, in
    /// ascending order, every word where some flip row is non-zero.
    pub fn measured_with_flips_words(&self, words: &[u32], flips: &[Vec<u64>]) -> f64 {
        assert_eq!(flips.len(), self.n_outputs, "output count mismatch");
        debug_assert!(words.windows(2).all(|p| p[0] < p[1]), "words must ascend");
        match self.kind {
            MetricKind::Er => {
                let mut count = self.er_total as i64;
                for &w in words {
                    let w = w as usize;
                    let mut acc = 0u64;
                    for (d, f) in self.diff.iter().zip(flips) {
                        acc |= d[w] ^ f[w];
                    }
                    count +=
                        (acc & self.word_mask(w)).count_ones() as i64 - self.er_word_pops[w] as i64;
                }
                count as f64 / self.n_patterns as f64
            }
            MetricKind::Wce => {
                let mut tog = Toggles::new();
                let mut wce = WceRescore::default();
                for &w in words {
                    let w = w as usize;
                    let union = self.flip_union(flips, w);
                    tog.decode(union, flip_rows(flips, w));
                    self.each_flipped(w, union, &mut tog, |p, c| wce.push(self, p, c));
                }
                wce.finish(self)
            }
            _ => {
                // PAT_CHUNK is a multiple of 64, so chunk boundaries
                // align with word boundaries.
                let words_per_chunk = PAT_CHUNK / 64;
                let n_chunks = self.n_patterns.div_ceil(PAT_CHUNK);
                let mut tog = Toggles::new();
                let mut sum = 0.0f64;
                let mut wi = 0usize;
                for c in 0..n_chunks {
                    let w_end = ((c + 1) * words_per_chunk) as u32;
                    let chunk_wi = wi;
                    while wi < words.len() && words[wi] < w_end {
                        wi += 1;
                    }
                    if wi == chunk_wi {
                        sum += self.chunk_sums[c];
                        continue;
                    }
                    // Replay the touched chunk pattern by pattern, in
                    // the same order the canonical fold accumulated it.
                    let p_end = ((c + 1) * PAT_CHUNK).min(self.n_patterns);
                    let mut csum = 0.0f64;
                    let mut fw = chunk_wi;
                    for w in c * words_per_chunk..p_end.div_ceil(64) {
                        let mut union = 0u64;
                        if fw < wi && words[fw] as usize == w {
                            union = self.flip_union(flips, w);
                            tog.decode(union, flip_rows(flips, w));
                            fw += 1;
                        }
                        for b in 0..(p_end - w * 64).min(64) {
                            let p = w * 64 + b;
                            csum += if union >> b & 1 == 1 {
                                let val = self.cur_vals[p] ^ tog.take(b);
                                self.pattern_contrib(val, self.golden_vals[p])
                            } else {
                                self.contrib[p]
                            };
                        }
                    }
                    sum += csum;
                }
                self.finalize(sum, 0.0)
            }
        }
    }

    /// ER only: the per-word union diff the circuit would have if *every*
    /// pattern deviated, i.e. `OR_o (diff_o ^ mask_o)` where `mask_o` is
    /// the transfer mask of the listed output `o` (outputs not listed keep
    /// a zero mask). `rows[k * stride..][..stride]` is the mask row of
    /// `outs[k]`; rows and `outs` ascend.
    ///
    /// Together with [`ErrorEval::er_with_deviation`] this factors the
    /// candidate scoring loop: per pattern the new error indicator is a
    /// two-way select between the current union diff (deviation bit 0)
    /// and this precomputed union (deviation bit 1), so the per-output
    /// loop runs once per *target node* instead of once per candidate.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-ER evaluator or with misshapen rows.
    pub fn er_conditional_union(&self, outs: &[u32], rows: &[u64], e1: &mut Vec<u64>) {
        assert_eq!(self.kind, MetricKind::Er, "ER-only precomputation");
        assert_eq!(rows.len(), outs.len() * self.stride, "mask row shape");
        e1.clear();
        e1.resize(self.stride, 0);
        let mut k = 0;
        for (o, d) in self.diff.iter().enumerate() {
            if k < outs.len() && outs[k] as usize == o {
                let row = &rows[k * self.stride..][..self.stride];
                for (slot, (&dw, &mw)) in e1.iter_mut().zip(d.iter().zip(row)) {
                    *slot |= dw ^ mw;
                }
                k += 1;
            } else {
                for (slot, &dw) in e1.iter_mut().zip(d.iter()) {
                    *slot |= dw;
                }
            }
        }
    }

    /// ER only: the error rate if the candidate's deviation were applied
    /// through the transfer masks baked into `e1` (from
    /// [`ErrorEval::er_conditional_union`]). The deviation comes
    /// sparsely — `bits[j]` is the deviation word at `words[j]`, the
    /// shape `lac::DevMask` stores. Bit-identical to the equivalent
    /// [`ErrorEval::with_masked_rows`] call: per pattern the union diff
    /// is selected between the current one and `e1`, and the popcount
    /// accumulation visits the same words in the same order.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-ER evaluator or with misaligned bits.
    pub fn er_with_deviation(&self, words: &[u32], bits: &[u64], e1: &[u64]) -> f64 {
        assert_eq!(self.kind, MetricKind::Er, "ER-only scoring");
        assert_eq!(bits.len(), words.len(), "one deviation word per index");
        debug_assert!(words.windows(2).all(|p| p[0] < p[1]), "words must ascend");
        let delta = er_delta(
            &self.er_words,
            &self.er_word_pops,
            e1,
            words,
            bits,
            self.n_patterns,
        );
        (self.er_total as i64 + delta) as f64 / self.n_patterns as f64
    }

    /// The error the circuit would have if the candidate's deviation
    /// flipped output `outs[k]` on `dev & row_k`, with the deviation
    /// given sparsely: `bits[j]` is the deviation word at `words[j]`
    /// (ascending, the shape `lac::DevMask` stores) and
    /// `rows[k * stride..][..stride]` is the transfer-mask row of output
    /// `outs[k]` (`outs` ascends). The flip bits are decoded inline from
    /// `dev & row`, so no `n_outputs × stride` flip rows are ever
    /// written or re-zeroed.
    ///
    /// Bit-identical to XORing the flips into the current signatures and
    /// folding `cur_sum + Σ (new - old)` over the flipped patterns in
    /// ascending order (ER and WCE: exactly what a rebase measures).
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not hold one stride-long row per listed
    /// output, or `bits` is not aligned with `words`.
    pub fn with_masked_rows(&self, words: &[u32], bits: &[u64], outs: &[u32], rows: &[u64]) -> f64 {
        assert_eq!(rows.len(), outs.len() * self.stride, "mask row shape");
        assert_eq!(bits.len(), words.len(), "one deviation word per index");
        debug_assert!(words.windows(2).all(|p| p[0] < p[1]), "words must ascend");
        match self.kind {
            MetricKind::Er => {
                let mut count = self.er_total as i64;
                for (&w, &dev) in words.iter().zip(bits) {
                    let w = w as usize;
                    let mut acc = 0u64;
                    let mut k = 0usize;
                    for (o, d) in self.diff.iter().enumerate() {
                        let mut f = 0u64;
                        if k < outs.len() && outs[k] as usize == o {
                            f = dev & rows[k * self.stride + w];
                            k += 1;
                        }
                        acc |= d[w] ^ f;
                    }
                    count +=
                        (acc & self.word_mask(w)).count_ones() as i64 - self.er_word_pops[w] as i64;
                }
                count as f64 / self.n_patterns as f64
            }
            MetricKind::Wce => {
                let mut tog = Toggles::new();
                let mut wce = WceRescore::default();
                let mut unions = [0u64; STRIP];
                for (strip, devs) in words.chunks(STRIP).zip(bits.chunks(STRIP)) {
                    self.masked_unions(strip, devs, outs.len(), rows, &mut unions);
                    for (&w, &union) in strip.iter().zip(&unions) {
                        let w = w as usize;
                        tog.decode(union, self.mask_rows(outs, rows, w));
                        self.each_flipped(w, union, &mut tog, |p, c| wce.push(self, p, c));
                    }
                }
                wce.finish(self)
            }
            _ => {
                let mut tog = Toggles::new();
                let mut sum = self.cur_sum;
                let mut unions = [0u64; STRIP];
                for (strip, devs) in words.chunks(STRIP).zip(bits.chunks(STRIP)) {
                    self.masked_unions(strip, devs, outs.len(), rows, &mut unions);
                    for (&w, &union) in strip.iter().zip(&unions) {
                        let w = w as usize;
                        tog.decode(union, self.mask_rows(outs, rows, w));
                        self.each_flipped(w, union, &mut tog, |p, c| sum += c - self.contrib[p]);
                    }
                }
                self.finalize(sum, 0.0)
            }
        }
    }

    /// [`ErrorEval::with_masked_rows`] for a caller that only wants the
    /// candidate if its `ΔE = new - current` can still pass `prune`:
    /// the fold stops at the first lower bound `prune` accepts. The
    /// kernel is chosen here, from the evaluator alone:
    ///
    /// - MED and NMED where [`ErrorEval::word_kernel_eligible`] holds run
    ///   the integer word kernel: per deviating word the flip set is
    ///   `f = dev & OR(rows) & word_mask`, bit-sliced `|new - golden|`
    ///   planes give the word's exact integer delta
    ///   `Σ_o 2^o (popcnt(absnew_o & f) - popcnt(abscur_o & f))`, eight
    ///   words per step, and since every running sum is then an integer
    ///   of at most `2^53` it equals the per-pattern fold's bit for bit
    ///   at every strip boundary — so both return the same `Exact` bits
    ///   and both prune or neither does (under a threshold test);
    /// - the other mean metrics (MRED, MSE, MED/NMED past the limit)
    ///   run the per-pattern fold of `with_masked_rows`;
    /// - ER and WCE run the exact fold and never consult `prune`.
    ///
    /// The per-pattern fold checks a sound monotone lower bound before
    /// every word, the word kernel before every strip of eight words
    /// (`j = 0, 8, 16, ...`, where both see the same bound), and
    /// both once more (exactly) at the end. After `j` of `m`
    /// deviating words, the running sum `S` is the exact rounded prefix
    /// of the final fold. Every remaining per-pattern delta
    /// `fl(new - old)` is `>= -old` (contributions are nonnegative and
    /// `old` is exactly representable), rounded addition is monotone in
    /// each argument, and adding further nonpositive terms only lowers a
    /// fold — so the final sum is at least the fold of `-old_p` over
    /// *all* patterns of the remaining words onto `S`. The bound `R_j`
    /// on that remaining baseline mass `T` comes from the per-word
    /// baseline sums (one entry per strip in `suffix`, per word inside
    /// a strip added back on the fly) and dominates it, and the
    /// classical summation error of a `64 * (m - j) + 1`-term fold is
    /// below `gamma_n * (|S| + T)`; the margin term over-covers that
    /// gamma, the inflation slack, and the rounding of the bound
    /// expression itself by a factor of at least 3. Hence
    /// `finalize(S - R_j - margin) - current <= ΔE`
    /// always — the pruning decision is sound no matter what threshold
    /// `prune` compares against.
    ///
    /// `prune` is called with each lower bound and finally with the
    /// exact `ΔE`; the first `true` abandons the candidate. If it never
    /// returns `true`, the result is bit-identical to
    /// `with_masked_rows` (the bound computation never touches the
    /// running sum). `suffix` is caller-owned scratch.
    ///
    /// # Panics
    ///
    /// Panics if the shapes mismatch, as [`ErrorEval::with_masked_rows`].
    #[allow(clippy::too_many_arguments)]
    pub fn masked_rows_bounded(
        &self,
        words: &[u32],
        bits: &[u64],
        outs: &[u32],
        rows: &[u64],
        suffix: &mut Vec<f64>,
        current: f64,
        prune: impl FnMut(f64) -> bool,
    ) -> BoundedScore {
        if !is_mean(self.kind) {
            return BoundedScore::Exact(self.with_masked_rows(words, bits, outs, rows));
        }
        assert_eq!(rows.len(), outs.len() * self.stride, "mask row shape");
        assert_eq!(bits.len(), words.len(), "one deviation word per index");
        self.word_base_suffix(words, suffix);
        if self.word_kernel {
            word_kernel_bounded(self, words, bits, outs, rows, suffix, current, prune)
        } else {
            self.pattern_fold_bounded(words, bits, outs, rows, suffix, current, prune)
        }
    }

    /// The per-pattern fold of [`ErrorEval::masked_rows_bounded`]: the
    /// mean arm of [`ErrorEval::with_masked_rows`] with the lower bound
    /// checked before every word. `suffix` holds one bound per strip
    /// (from [`ErrorEval::word_base_suffix`]).
    #[allow(clippy::too_many_arguments)]
    fn pattern_fold_bounded(
        &self,
        words: &[u32],
        bits: &[u64],
        outs: &[u32],
        rows: &[u64],
        suffix: &[f64],
        current: f64,
        mut prune: impl FnMut(f64) -> bool,
    ) -> BoundedScore {
        let m = words.len();
        let mut tog = Toggles::new();
        let mut sum = self.cur_sum;
        let mut unions = [0u64; STRIP];
        let mut rests = [0.0f64; STRIP];
        for (s, (strip, devs)) in words.chunks(STRIP).zip(bits.chunks(STRIP)).enumerate() {
            self.masked_unions(strip, devs, outs.len(), rows, &mut unions);
            self.strip_rests(strip, suffix[s + 1], &mut rests);
            for (i, &w) in strip.iter().enumerate() {
                let j = s * STRIP + i; // words folded so far
                let lb_delta = self.lower_bound(sum, rests[i], m - j, current);
                if prune(lb_delta) {
                    return BoundedScore::Pruned { lb_delta };
                }
                let w = w as usize;
                tog.decode(unions[i], self.mask_rows(outs, rows, w));
                self.each_flipped(w, unions[i], &mut tog, |p, c| sum += c - self.contrib[p]);
            }
        }
        self.bounded_result(sum, current, prune)
    }

    /// The lower bound on `ΔE` a bounded fold checks before its next
    /// word: `sum` is the fold so far, `rest` the inflated baseline
    /// mass of the `left` words still to fold (see
    /// [`ErrorEval::masked_rows_bounded`] for why it is sound).
    #[inline]
    fn lower_bound(&self, sum: f64, rest: f64, left: usize, current: f64) -> f64 {
        let margin = ((left * 64) as f64 + 8.0) * 4.0 * f64::EPSILON * (sum.abs() + rest);
        self.finalize(sum - rest - margin, 0.0) - current
    }

    /// The end of a bounded fold: the exact new error, unless `prune`
    /// rejects its exact `ΔE`.
    #[inline]
    fn bounded_result(
        &self,
        sum: f64,
        current: f64,
        mut prune: impl FnMut(f64) -> bool,
    ) -> BoundedScore {
        let e = self.finalize(sum, 0.0);
        let delta = e - current;
        if prune(delta) {
            return BoundedScore::Pruned { lb_delta: delta };
        }
        BoundedScore::Exact(e)
    }

    /// The flip unions of up to [`STRIP`] deviating words: per strip
    /// word `strip[i]`, `devs[i] & (OR over listed rows) & word_mask`. Looping rows on
    /// the outside over a fixed-width buffer keeps the inner loop a
    /// straight-line OR that autovectorizes.
    #[inline]
    fn masked_unions(
        &self,
        strip: &[u32],
        devs: &[u64],
        n_rows: usize,
        rows: &[u64],
        buf: &mut [u64; STRIP],
    ) {
        buf.fill(0);
        for k in 0..n_rows {
            let row = &rows[k * self.stride..(k + 1) * self.stride];
            for (slot, &w) in buf.iter_mut().zip(strip) {
                *slot |= row[w as usize];
            }
        }
        for (slot, (&w, &d)) in buf.iter_mut().zip(strip.iter().zip(devs)) {
            *slot &= d & self.word_mask(w as usize);
        }
    }

    /// `(output, word)` pairs of the listed mask rows at word `w`, for
    /// [`Toggles::decode`]. Only decoded against a flip union, which
    /// already carries the deviation bits, so `row & union` equals
    /// `dev & row & union`.
    #[inline]
    fn mask_rows<'a>(
        &self,
        outs: &'a [u32],
        rows: &'a [u64],
        w: usize,
    ) -> impl Iterator<Item = (u32, u64)> + 'a {
        let stride = self.stride;
        outs.iter()
            .enumerate()
            .map(move |(k, &o)| (o, rows[k * stride + w]))
    }

    /// The union of the flip rows at word `w`, masked to valid patterns.
    #[inline]
    fn flip_union(&self, flips: &[Vec<u64>], w: usize) -> u64 {
        let mut union = 0u64;
        for f in flips {
            union |= f[w];
        }
        union & self.word_mask(w)
    }

    /// Rescores the flipped patterns of word `w` — the set bits of
    /// `union`, ascending — calling `f(p, contrib)` for each, with the
    /// toggles taken from `tog` (decoded for this word and `union`).
    /// Taking every union bit leaves `tog` all zero for the next word.
    #[inline]
    fn each_flipped(
        &self,
        w: usize,
        mut union: u64,
        tog: &mut Toggles,
        mut f: impl FnMut(usize, f64),
    ) {
        while union != 0 {
            let b = union.trailing_zeros() as usize;
            union &= union - 1;
            let p = w * 64 + b;
            f(
                p,
                self.pattern_contrib(self.cur_vals[p] ^ tog.take(b), self.golden_vals[p]),
            );
        }
    }

    #[inline]
    fn word_mask(&self, w: usize) -> u64 {
        word_mask(self.n_patterns, w)
    }
}

/// Eight words of a plane or row from the slice `s` of exactly
/// [`STRIP`] words.
#[inline(always)]
fn lanes(s: &[u64]) -> Lanes {
    let mut v = [0u64; STRIP];
    v.copy_from_slice(s);
    v
}

/// One plane of the borrow chain of `x - g`, from the least significant
/// plane up: returns plane `o` of `x - g mod 2^n` given planes `o` of
/// `x` and `g`, and carries the borrow into the next plane. After the
/// last plane, `borrow` marks the values where `x < g`.
#[inline(always)]
fn sub_step(x: Lanes, g: Lanes, borrow: &mut Lanes) -> Lanes {
    let mut d = [0u64; STRIP];
    for i in 0..STRIP {
        d[i] = x[i] ^ g[i] ^ borrow[i];
        borrow[i] = (!x[i] & g[i]) | (!(x[i] ^ g[i]) & borrow[i]);
    }
    d
}

/// One plane of the two's-complement negation of the values marked by
/// `sign` (invert, then add one along the carry chain, which starts as
/// `sign`): with `sign` the final borrow of [`sub_step`], it turns the
/// planes of `x - g mod 2^n` into those of `|x - g|`.
#[inline(always)]
fn neg_step(d: Lanes, sign: Lanes, carry: &mut Lanes) -> Lanes {
    let mut a = [0u64; STRIP];
    for i in 0..STRIP {
        let y = d[i] ^ sign[i];
        a[i] = y ^ carry[i];
        carry[i] &= y;
    }
    a
}

/// The full strips of a candidate's ascending deviating words `words`,
/// as the integer word kernel folds them, each as whether its words are
/// consecutive (`true`) or have a gap. The short last strip is not
/// listed. Fuzzing uses it to count which strip shapes it reached.
pub fn full_strips_consecutive(words: &[u32]) -> impl Iterator<Item = bool> + '_ {
    words
        .chunks_exact(STRIP)
        .map(|s| s[STRIP - 1] - s[0] == (STRIP - 1) as u32)
}

dispatched! {
    /// The integer word kernel of [`ErrorEval::masked_rows_bounded`]
    /// (eligible evaluators only; see there for why it is exact): the
    /// deviating words are folded a strip of eight at a time, with the
    /// lower bound checked before each strip.
    #[allow(clippy::too_many_arguments)]
    fn word_kernel_bounded, word_kernel_on = word_kernel_scalar(
        eval: &ErrorEval,
        words: &[u32],
        bits: &[u64],
        outs: &[u32],
        rows: &[u64],
        suffix: &[f64],
        current: f64,
        prune: impl FnMut(f64) -> bool,
    ) -> BoundedScore;
}

/// Scalar body of [`word_kernel_bounded`]. The integer sum of the
/// strips' deltas stays within `±2^53` (it is the change of a sum of
/// `n_patterns` contributions), so `cur_sum + delta` is exact at every
/// strip boundary.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn word_kernel_scalar(
    eval: &ErrorEval,
    words: &[u32],
    bits: &[u64],
    outs: &[u32],
    rows: &[u64],
    suffix: &[f64],
    current: f64,
    mut prune: impl FnMut(f64) -> bool,
) -> BoundedScore {
    debug_assert!(eval.word_kernel, "evaluator not word-kernel eligible");
    let m = words.len();
    let mut diff = [[0u64; STRIP]; WORD_KERNEL_MAX_OUTPUTS];
    let mut delta = 0i64;
    for (s, (strip, devs)) in words.chunks(STRIP).zip(bits.chunks(STRIP)).enumerate() {
        let sum = eval.cur_sum + delta as f64;
        let lb_delta = eval.lower_bound(sum, suffix[s], m - s * STRIP, current);
        if prune(lb_delta) {
            return BoundedScore::Pruned { lb_delta };
        }
        let mut at = [strip[0] as usize; STRIP];
        let mut dev = [0u64; STRIP];
        for (i, (a, d)) in at.iter_mut().zip(&mut dev).enumerate() {
            if let (Some(&w), Some(&b)) = (strip.get(i), devs.get(i)) {
                (*a, *d) = (w as usize, b);
            }
        }
        delta += strip_delta(eval, at, dev, outs, rows, &mut diff);
    }
    eval.bounded_result(eval.cur_sum + delta as f64, current, prune)
}

/// Loads the words `at` of `row`, lane by lane.
#[inline(always)]
fn load(row: &[u64], at: &[usize; STRIP]) -> Lanes {
    let mut v = [0u64; STRIP];
    for i in 0..STRIP {
        v[i] = row[at[i]];
    }
    v
}

/// The exact change of the summed error distance over the deviating
/// words `at` (deviation `dev[i]` at word `at[i]`; a zero lane adds
/// nothing), when output `outs[k]` flips on
/// `rows[k * stride + w] & f`. Per lane, `f = dev & OR(rows) &
/// word_mask`; the new planes `cur ^ (row & f)` go through the borrow
/// chain into `diff`, and the conditional negation turns them into
/// `|new - golden|`, whose popcounts under `f` replace the current
/// ones. With at most 53 outputs every term `2^o * popcnt` of a lane
/// stays below `2^59`, and a strip's sum below `2^62`.
#[inline(always)]
fn strip_delta(
    eval: &ErrorEval,
    at: [usize; STRIP],
    dev: Lanes,
    outs: &[u32],
    rows: &[u64],
    diff: &mut [Lanes; WORD_KERNEL_MAX_OUTPUTS],
) -> i64 {
    let (n, stride) = (eval.n_outputs, eval.stride);
    let mut f = [0u64; STRIP];
    for k in 0..outs.len() {
        let r = load(&rows[k * stride..][..stride], &at);
        for i in 0..STRIP {
            f[i] |= r[i];
        }
    }
    for i in 0..STRIP {
        f[i] &= dev[i] & word_mask(eval.n_patterns, at[i]);
    }
    if f == [0u64; STRIP] {
        return 0;
    }
    let mut borrow = [0u64; STRIP];
    let mut k = 0;
    for (o, d) in diff.iter_mut().enumerate().take(n) {
        let mut x = load(eval.plane(1, o), &at);
        if k < outs.len() && outs[k] as usize == o {
            let r = load(&rows[k * stride..][..stride], &at);
            for i in 0..STRIP {
                x[i] ^= r[i] & f[i];
            }
            k += 1;
        }
        *d = sub_step(x, load(eval.plane(0, o), &at), &mut borrow);
    }
    let mut carry = borrow;
    let mut acc = [0i64; STRIP];
    for (o, &d) in diff.iter().enumerate().take(n) {
        let a_new = neg_step(d, borrow, &mut carry);
        let a_cur = load(eval.plane(2, o), &at);
        for i in 0..STRIP {
            let pops =
                (a_new[i] & f[i]).count_ones() as i64 - (a_cur[i] & f[i]).count_ones() as i64;
            acc[i] += pops << o;
        }
    }
    acc.iter().sum()
}

dispatched! {
    /// The ER error-count change of a sparse deviation (`bits[j]` is
    /// the deviation word at `words[j]`; see
    /// `ErrorEval::er_with_deviation`).
    fn er_delta, er_delta_on = er_delta_scalar(
        er_words: &[u64],
        pops: &[u32],
        e1: &[u64],
        words: &[u32],
        bits: &[u64],
        n_patterns: usize,
    ) -> i64;
}

/// Scalar body of [`er_delta`]: per word under deviation `d` the union
/// diff is selected between the current one (`er_words`) and the
/// all-deviating one (`e1`), and its valid popcount replaces the
/// baseline popcount.
#[inline(always)]
fn er_delta_scalar(
    er_words: &[u64],
    pops: &[u32],
    e1: &[u64],
    words: &[u32],
    bits: &[u64],
    n_patterns: usize,
) -> i64 {
    let mut delta = 0i64;
    for (&w, &d) in words.iter().zip(bits) {
        let w = w as usize;
        let acc = (er_words[w] & !d) | (e1[w] & d);
        delta += (acc & word_mask(n_patterns, w)).count_ones() as i64 - pops[w] as i64;
    }
    delta
}

/// Mean-style metrics: nonnegative per-pattern contributions folded in
/// a fixed ascending order (all arithmetic kinds except the order-free
/// WCE max). Only these support bounded early-terminating replay.
fn is_mean(kind: MetricKind) -> bool {
    matches!(
        kind,
        MetricKind::Med | MetricKind::Nmed | MetricKind::Mred | MetricKind::Mse
    )
}

/// Per-word toggle decoder: slot `b` holds the toggle value of pattern
/// `b` of the word being scored (bit `o` set iff output `o` flips
/// there). [`Toggles::decode`] walks only the set bits of each
/// `row & union`, so a word costs one op per toggled (pattern, output)
/// pair rather than one per (flipped pattern, reached output);
/// [`Toggles::take`] reads a slot and clears it.
struct Toggles([u128; 64]);

impl Toggles {
    fn new() -> Self {
        Toggles([0; 64])
    }

    /// ORs output `o` into the slot of every pattern set in
    /// `row & union`, for each `(o, row)`. Every slot must be clear on
    /// entry, i.e. each earlier decode's union fully taken.
    #[inline]
    fn decode(&mut self, union: u64, rows: impl Iterator<Item = (u32, u64)>) {
        for (o, row) in rows {
            let mut bits = row & union;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.0[b] |= 1u128 << o;
            }
        }
    }

    /// The toggle value of pattern `b`, clearing its slot.
    #[inline]
    fn take(&mut self, b: usize) -> u128 {
        std::mem::take(&mut self.0[b])
    }
}

/// `(output, word)` pairs of every flip row at word `w`, for
/// [`Toggles::decode`].
#[inline]
fn flip_rows(flips: &[Vec<u64>], w: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
    flips.iter().enumerate().map(move |(o, f)| (o as u32, f[w]))
}

/// Sparse WCE rescoring: collects the rescored flipped patterns in
/// ascending order; the unflipped maximum is `cur_max` unless a flipped
/// pattern carried it.
#[derive(Default)]
struct WceRescore {
    flipped: Vec<(usize, f64)>,
    new_max: f64,
    max_flipped: bool,
}

impl WceRescore {
    #[inline]
    fn push(&mut self, eval: &ErrorEval, p: usize, c: f64) {
        self.max_flipped |= eval.contrib[p] == eval.cur_max;
        self.new_max = self.new_max.max(c);
        self.flipped.push((p, c));
    }

    fn finish(self, eval: &ErrorEval) -> f64 {
        if !self.max_flipped {
            return eval.finalize(0.0, eval.cur_max.max(self.new_max));
        }
        // The max-carrying pattern itself flipped: merge-scan all
        // patterns, taking the rescored value where flipped.
        let mut it = self.flipped.iter().peekable();
        let mut max = 0.0f64;
        for p in 0..eval.n_patterns {
            let c = match it.peek() {
                Some(&&(fp, fc)) if fp == p => {
                    it.next();
                    fc
                }
                _ => eval.contrib[p],
            };
            max = max.max(c);
        }
        eval.finalize(0.0, max)
    }
}

fn pattern_contrib(kind: MetricKind, approx: u128, golden: u128) -> f64 {
    let ed = to_f64(approx.abs_diff(golden));
    match kind {
        MetricKind::Er => 0.0,
        MetricKind::Med | MetricKind::Nmed | MetricKind::Wce => ed,
        MetricKind::Mred => ed / to_f64(golden.max(1)),
        MetricKind::Mse => ed * ed,
    }
}

/// `x as f64`, through the hardware `u64` conversion whenever the high
/// half is zero. Both casts round to nearest-even, so the result is
/// the same f64; only the software `u128` routine is skipped. The wide
/// cast sits in its own cold function: inline, the optimizer hoists the
/// `u128` conversion above the test and pays for the software routine
/// on every call.
#[inline]
fn to_f64(x: u128) -> f64 {
    if x >> 64 == 0 {
        x as u64 as f64
    } else {
        wide_to_f64(x)
    }
}

/// The `u128` arm of [`to_f64`].
#[cold]
#[inline(never)]
fn wide_to_f64(x: u128) -> f64 {
    x as f64
}

/// Decodes per-pattern output values (output 0 = LSB) into `vals`,
/// word by word: each signature word's set bits are walked into the
/// word's 64 value slots. Each pattern's value is written into its own
/// slot, so the parallel chunking cannot change the result.
fn decode_values(sigs: &[Vec<u64>], n_patterns: usize, vals: &mut Vec<u128>) {
    vals.clear();
    vals.resize(n_patterns, 0);
    parkit::global().par_chunks_mut(vals, PAT_CHUNK, |c, slice| {
        let first_word = c * (PAT_CHUNK / 64);
        for (i, lanes) in slice.chunks_mut(64).enumerate() {
            let w = first_word + i;
            let valid = word_mask(n_patterns, w);
            for (o, sig) in sigs.iter().enumerate() {
                let mut bits = sig[w] & valid;
                while bits != 0 {
                    lanes[bits.trailing_zeros() as usize] |= 1u128 << o;
                    bits &= bits - 1;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitsim::dispatch::Level;

    /// 2-output golden circuit values: patterns 0..4 -> 0,1,2,3.
    fn golden_2bit() -> Vec<Vec<u64>> {
        // Output 0 (LSB) = 0b0101... pattern parity; output 1 = 0b0011 style.
        vec![vec![0b1010], vec![0b1100]]
    }

    #[test]
    fn zero_error_when_identical() {
        let g = golden_2bit();
        for kind in MetricKind::ALL {
            let mut e = ErrorEval::new(kind, &g, 4);
            e.rebase(&g.clone());
            assert_eq!(e.current(), 0.0, "{kind}");
        }
    }

    #[test]
    fn er_counts_any_output_mismatch() {
        let g = golden_2bit();
        let mut e = ErrorEval::new(MetricKind::Er, &g, 4);
        // Flip output 0 on patterns 1 and 3; output 1 on pattern 3.
        let approx = vec![vec![0b1010 ^ 0b1010u64], vec![0b1100 ^ 0b1000u64]];
        e.rebase(&approx);
        assert_eq!(e.current(), 0.5);
    }

    #[test]
    fn med_and_nmed() {
        let g = golden_2bit(); // values 0,1,2,3
        let approx = vec![vec![0b1011], vec![0b1100]]; // values 1,1,2,3
        let mut e = ErrorEval::new(MetricKind::Med, &g, 4);
        e.rebase(&approx);
        assert_eq!(e.current(), 0.25); // |1-0| averaged over 4
        let mut e = ErrorEval::new(MetricKind::Nmed, &g, 4);
        e.rebase(&approx);
        assert_eq!(e.current(), 0.25 / 3.0);
    }

    #[test]
    fn mred_uses_relative_distance() {
        let g = golden_2bit(); // values 0,1,2,3
        let approx = vec![vec![0b1010], vec![0b0110]]; // values 0,3,2,1
        let mut e = ErrorEval::new(MetricKind::Mred, &g, 4);
        e.rebase(&approx);
        // Pattern 1: |3-1|/1 = 2; pattern 3: |1-3|/3 = 2/3.
        assert!((e.current() - (2.0 + 2.0 / 3.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn wce_is_max_distance() {
        let g = golden_2bit(); // values 0,1,2,3
        let approx = vec![vec![0b1011], vec![0b1110]]; // values 1,3,3,3
        let mut e = ErrorEval::new(MetricKind::Wce, &g, 4);
        e.rebase(&approx);
        assert_eq!(e.current(), 2.0); // pattern 1: |3-1| = 2
    }

    #[test]
    fn with_flips_matches_rebase() {
        let g = golden_2bit();
        let approx = vec![vec![0b1011], vec![0b0100]];
        let flips = vec![vec![0b0110u64], vec![0b1001u64]];
        for kind in MetricKind::ALL {
            let mut e = ErrorEval::new(kind, &g, 4);
            e.rebase(&approx);
            // Word 0 is every word of the one-word signatures.
            let predicted = e.measured_with_flips_words(&[0], &flips);
            let flipped: Vec<Vec<u64>> = approx
                .iter()
                .zip(&flips)
                .map(|(s, f)| s.iter().zip(f).map(|(a, b)| a ^ b).collect())
                .collect();
            let mut e2 = ErrorEval::new(kind, &g, 4);
            e2.rebase(&flipped);
            assert!(
                (predicted - e2.current()).abs() < 1e-12,
                "{kind}: {predicted} vs {}",
                e2.current()
            );
        }
    }

    #[test]
    fn measured_with_flips_words_is_bit_identical_to_rebase() {
        // Multiple PAT_CHUNK chunks with a ragged tail, pseudo-random
        // signatures, and a sparse flip set touching a few words across
        // different chunks (including the tail word).
        let n_patterns = 10_000usize;
        let stride = n_patterns.div_ceil(64);
        let n_outputs = 3;
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state ^ state >> 29
        };
        let golden: Vec<Vec<u64>> = (0..n_outputs)
            .map(|_| (0..stride).map(|_| next()).collect())
            .collect();
        let approx: Vec<Vec<u64>> = golden
            .iter()
            .map(|s| s.iter().map(|w| w ^ (next() & next())).collect())
            .collect();
        let flip_words = [3usize, 64, 65, 130, stride - 1];
        let mut flips = vec![vec![0u64; stride]; n_outputs];
        for &w in &flip_words {
            for f in flips.iter_mut() {
                f[w] = next() & next() & next();
            }
        }
        let words: Vec<u32> = flip_words.iter().map(|&w| w as u32).collect();
        let flipped: Vec<Vec<u64>> = approx
            .iter()
            .zip(&flips)
            .map(|(s, f)| s.iter().zip(f).map(|(a, b)| a ^ b).collect())
            .collect();
        let zero = vec![vec![0u64; stride]; n_outputs];
        for kind in MetricKind::ALL {
            let mut e = ErrorEval::new(kind, &golden, n_patterns);
            e.rebase(&approx);
            let mut e2 = ErrorEval::new(kind, &golden, n_patterns);
            e2.rebase(&flipped);
            assert_eq!(
                e.measured_with_flips_words(&words, &flips).to_bits(),
                e2.current().to_bits(),
                "{kind}"
            );
            assert_eq!(
                e.measured_with_flips_words(&[], &zero).to_bits(),
                e.current().to_bits(),
                "{kind} with no flips"
            );
        }
    }

    /// Reference toggle value of pattern `p`, read bit by bit from the
    /// flip rows.
    fn toggle_bits(flips: &[Vec<u64>], p: usize) -> u128 {
        let (w, b) = (p / 64, p % 64);
        let mut toggle = 0u128;
        for (o, f) in flips.iter().enumerate() {
            toggle |= ((f[w] >> b & 1) as u128) << o;
        }
        toggle
    }

    /// Deterministic xorshift-style generator for the randomized tests.
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state ^ state >> 29
        }
    }

    /// A randomized scoring scenario: golden/approx signatures, a
    /// deviation mask over a few words, and transfer-mask rows for a
    /// subset of outputs.
    struct MaskedCase {
        golden: Vec<Vec<u64>>,
        approx: Vec<Vec<u64>>,
        words: Vec<u32>,
        bits: Vec<u64>,
        outs: Vec<u32>,
        rows: Vec<u64>,
        flips: Vec<Vec<u64>>,
        n_patterns: usize,
    }

    fn masked_case(seed: u64, n_patterns: usize, n_outputs: usize) -> MaskedCase {
        let stride = n_patterns.div_ceil(64);
        let mut next = lcg(seed);
        let golden: Vec<Vec<u64>> = (0..n_outputs)
            .map(|_| (0..stride).map(|_| next()).collect())
            .collect();
        let approx: Vec<Vec<u64>> = golden
            .iter()
            .map(|s| s.iter().map(|w| w ^ (next() & next())).collect())
            .collect();
        let mut word_set: Vec<u32> = (0..stride as u32)
            .filter(|_| next().is_multiple_of(3))
            .collect();
        if word_set.is_empty() {
            word_set.push((next() % stride as u64) as u32);
        }
        let mut dev = vec![0u64; stride];
        for &w in &word_set {
            dev[w as usize] = next() | next(); // dense-ish deviations
        }
        let words: Vec<u32> = word_set
            .iter()
            .copied()
            .filter(|&w| dev[w as usize] != 0)
            .collect();
        let outs: Vec<u32> = (0..n_outputs as u32)
            .filter(|_| !next().is_multiple_of(4))
            .collect();
        let mut rows = vec![0u64; outs.len() * stride];
        for r in rows.iter_mut() {
            *r = next() & next();
        }
        let mut flips = vec![vec![0u64; stride]; n_outputs];
        for (k, &o) in outs.iter().enumerate() {
            for &w in &words {
                let w = w as usize;
                flips[o as usize][w] = dev[w] & rows[k * stride + w];
            }
        }
        MaskedCase {
            golden,
            approx,
            bits: words.iter().map(|&w| dev[w as usize]).collect(),
            words,
            outs,
            rows,
            flips,
            n_patterns,
        }
    }

    #[test]
    fn masked_rows_match_materialized_flips_bitwise() {
        // The fused dev & row decode must equal materializing the flip
        // rows, bit for bit, on every metric kind — including multi-chunk
        // samples with ragged tails and strides that exercise the strip
        // batching. ER and WCE are order-free, so they must equal the
        // rebase-exact replay of the flip rows; the mean metrics are
        // replayed against a bit-by-bit toggle decode and plain u128
        // casts. Output counts above 64 toggle bits past 63 and reach
        // |Δ| >= 2^64, where the narrow conversion falls back to the
        // u128 cast.
        let mut wide_deltas = 0usize;
        for n_outputs in [5usize, 64, 65, 128] {
            for (seed, n_patterns) in [(1u64, 130), (2, 4096 + 77), (3, 10_000), (4, 64)] {
                let c = masked_case(seed, n_patterns, n_outputs);
                for kind in MetricKind::ALL {
                    let mut e = ErrorEval::new(kind, &c.golden, c.n_patterns);
                    e.rebase(&c.approx);
                    let fused = e.with_masked_rows(&c.words, &c.bits, &c.outs, &c.rows);
                    let at = format!("{kind} seed {seed} outputs {n_outputs}");
                    if !is_mean(kind) {
                        let measured = e.measured_with_flips_words(&c.words, &c.flips);
                        assert_eq!(measured.to_bits(), fused.to_bits(), "{at}");
                        continue;
                    }
                    let mut sum = e.cur_sum;
                    for &w in &c.words {
                        let w = w as usize;
                        let union = e.flip_union(&c.flips, w);
                        for b in (0..64).filter(|b| union >> b & 1 == 1) {
                            let p = w * 64 + b;
                            let (val, golden) =
                                (e.cur_vals[p] ^ toggle_bits(&c.flips, p), e.golden_vals[p]);
                            let ed = val.abs_diff(golden);
                            wide_deltas += (ed >> 64 != 0) as usize;
                            let ed = ed as f64;
                            let contrib = match kind {
                                MetricKind::Mred => ed / golden.max(1) as f64,
                                MetricKind::Mse => ed * ed,
                                _ => ed,
                            };
                            sum += contrib - e.contrib[p];
                        }
                    }
                    assert_eq!(
                        e.finalize(sum, 0.0).to_bits(),
                        fused.to_bits(),
                        "{at} replay"
                    );
                }
            }
        }
        assert!(wide_deltas > 0, "no |Δ| >= 2^64 exercised");
    }

    #[test]
    fn bounded_scores_are_exact_and_bounds_never_exceed_delta() {
        // Through the one bounded entry point, whichever kernel it picks:
        // every lower bound handed to the prune callback must be <= the
        // exact final ΔE (soundness), and a never-pruning run must be
        // bit-identical to the unbounded `with_masked_rows`. MED and NMED
        // at 5 outputs run the integer word kernel, every other mean case
        // (NMED at 64 outputs among them) the per-pattern fold; WCE and
        // ER are scored exactly and never consult `prune`.
        let mut per_kernel = [0usize; 2]; // [per-pattern fold, word kernel]
        for (seed, n_patterns, n_outputs) in [
            (11u64, 200, 5),
            (12, 4096 + 77, 5),
            (13, 10_000, 5),
            (14, 200, 64),
            (15, 4096 + 77, 65),
            (16, 10_000, 128),
        ] {
            let c = masked_case(seed, n_patterns, n_outputs);
            let mut suffix = Vec::new();
            for kind in MetricKind::ALL {
                let mut e = ErrorEval::new(kind, &c.golden, c.n_patterns);
                e.rebase(&c.approx);
                let current = e.current();
                let exact = e.with_masked_rows(&c.words, &c.bits, &c.outs, &c.rows);
                let delta = exact - current;
                let mut lbs: Vec<f64> = Vec::new();
                let got = e.masked_rows_bounded(
                    &c.words,
                    &c.bits,
                    &c.outs,
                    &c.rows,
                    &mut suffix,
                    current,
                    |lb| {
                        lbs.push(lb);
                        false
                    },
                );
                assert_eq!(got, BoundedScore::Exact(exact), "{kind} seed {seed}");
                if !is_mean(kind) {
                    assert!(lbs.is_empty(), "{kind} seed {seed}: prune consulted");
                    let always = e.masked_rows_bounded(
                        &c.words,
                        &c.bits,
                        &c.outs,
                        &c.rows,
                        &mut suffix,
                        current,
                        |_| true,
                    );
                    assert_eq!(always, BoundedScore::Exact(exact), "{kind} seed {seed}");
                    continue;
                }
                per_kernel[e.word_kernel_eligible() as usize] += 1;
                // One bound per word (per-pattern fold) or per strip
                // (word kernel), then the exact ΔE.
                let checkpoints = if e.word_kernel_eligible() {
                    c.words.len().div_ceil(STRIP)
                } else {
                    c.words.len()
                };
                assert_eq!(lbs.len(), checkpoints + 1, "{kind} seed {seed}");
                for (j, &lb) in lbs.iter().enumerate() {
                    assert!(
                        lb <= delta,
                        "{kind} seed {seed}: checkpoint {j} bound {lb} > ΔE {delta}"
                    );
                }
                // The final callback sees the exact ΔE.
                assert_eq!(lbs.last().unwrap().to_bits(), delta.to_bits());
                // A threshold just under ΔE prunes at the latest at the
                // final checkpoint, with a sound bound attached.
                let thr = delta - delta.abs() * 1e-6 - 1e-15;
                match e.masked_rows_bounded(
                    &c.words,
                    &c.bits,
                    &c.outs,
                    &c.rows,
                    &mut suffix,
                    current,
                    |lb| lb > thr,
                ) {
                    BoundedScore::Pruned { lb_delta } => {
                        assert!(lb_delta <= delta, "{kind} seed {seed}")
                    }
                    BoundedScore::Exact(_) => panic!("{kind} seed {seed}: must prune"),
                }
            }

            // ER: the deviation-select scorer against the fused-row fold
            // and its scalar instance.
            let mut e = ErrorEval::new(MetricKind::Er, &c.golden, c.n_patterns);
            e.rebase(&c.approx);
            let mut e1 = Vec::new();
            e.er_conditional_union(&c.outs, &c.rows, &mut e1);
            assert_eq!(
                e.er_with_deviation(&c.words, &c.bits, &e1).to_bits(),
                e.with_masked_rows(&c.words, &c.bits, &c.outs, &c.rows)
                    .to_bits(),
                "er seed {seed}"
            );
            let (ew, ep) = (&e.er_words, &e.er_word_pops);
            let er_scalar = er_delta_scalar(ew, ep, &e1, &c.words, &c.bits, c.n_patterns);
            assert_eq!(
                er_delta(ew, ep, &e1, &c.words, &c.bits, c.n_patterns),
                er_scalar,
                "er dispatch seed {seed}"
            );
            for level in Level::supported() {
                assert_eq!(
                    er_delta_on(level, ew, ep, &e1, &c.words, &c.bits, c.n_patterns),
                    er_scalar,
                    "er {level} seed {seed}"
                );
            }
        }
        assert!(per_kernel.iter().all(|&n| n > 0), "kernels {per_kernel:?}");
    }

    /// Runs the per-pattern fold and the integer word kernel with the
    /// same pruning threshold, returning both results and the lower
    /// bounds each one handed to its `prune` callback (per word and per
    /// strip).
    #[allow(clippy::type_complexity)]
    fn both_bounded(
        e: &ErrorEval,
        c: &MaskedCase,
        thr: f64,
    ) -> ((BoundedScore, Vec<u64>), (BoundedScore, Vec<u64>)) {
        let current = e.current();
        let mut suffix = Vec::new();
        e.word_base_suffix(&c.words, &mut suffix);
        let (words, bits, outs, rows) = (&c.words, &c.bits, &c.outs, &c.rows);
        let mut per_pattern = Vec::new();
        let fold = e.pattern_fold_bounded(words, bits, outs, rows, &suffix, current, |lb| {
            per_pattern.push(lb.to_bits());
            lb > thr
        });
        let mut per_strip = Vec::new();
        let kernel = word_kernel_bounded(e, words, bits, outs, rows, &suffix, current, |lb| {
            per_strip.push(lb.to_bits());
            lb > thr
        });
        ((fold, per_pattern), (kernel, per_strip))
    }

    fn score_bits(s: BoundedScore) -> (bool, u64) {
        match s {
            BoundedScore::Exact(e) => (true, e.to_bits()),
            BoundedScore::Pruned { lb_delta } => (false, lb_delta.to_bits()),
        }
    }

    /// Checks the word kernel's run `(b, lb)` against the per-pattern
    /// fold's `(a, la)` on a case of `m` deviating words: the same
    /// `Exact` bits, or both pruned; the kernel's bound before strip `s`
    /// is the fold's before word `8 s` (where the fold got that far),
    /// its bound after the last strip is `ΔE`, and every bound of either
    /// is at most `ΔE`.
    fn assert_same_fold(
        (a, la): &(BoundedScore, Vec<u64>),
        (b, lb): &(BoundedScore, Vec<u64>),
        m: usize,
        delta: f64,
        at: &str,
    ) {
        match (a, b) {
            (BoundedScore::Exact(x), BoundedScore::Exact(y)) => {
                assert_eq!(x.to_bits(), y.to_bits(), "{at}: exact scores differ");
                assert_eq!(la.len(), m + 1, "{at}: bound per word");
                assert_eq!(lb.len(), m.div_ceil(STRIP) + 1, "{at}: bound per strip");
            }
            (BoundedScore::Pruned { .. }, BoundedScore::Pruned { .. }) => {}
            _ => panic!("{at}: one kernel pruned, the other did not: {a:?} vs {b:?}"),
        }
        for (s, &bound) in lb.iter().enumerate() {
            if s == m.div_ceil(STRIP) {
                assert_eq!(bound, delta.to_bits(), "{at}: final ΔE");
            } else if let Some(&fold) = la.get(s * STRIP) {
                assert_eq!(bound, fold, "{at}: bound before strip {s}");
            }
        }
        for bound in la.iter().chain(lb) {
            assert!(f64::from_bits(*bound) <= delta, "{at}: bound above ΔE");
        }
    }

    #[test]
    fn word_kernel_is_bit_identical_to_the_per_pattern_fold() {
        // MED and NMED on the integer word kernel against the
        // per-pattern bounded fold and the fused-row oracle: the same
        // `Exact` bits, both pruning or neither, and the same lower
        // bound at every strip boundary, never pruning and under random
        // thresholds, from one output to the 40-output limit of an
        // 8,192-pattern sample, with full, single and partial tail
        // words.
        let mut next = lcg(0x770d);
        let (mut exact, mut pruned) = (0usize, 0usize);
        for n_outputs in [1usize, 5, 16, 33, 39, 40] {
            for n_patterns in [64usize, 65, 130, 8192] {
                let seed = (n_outputs * 100_003 + n_patterns) as u64;
                let c = masked_case(seed, n_patterns, n_outputs);
                for kind in [MetricKind::Med, MetricKind::Nmed] {
                    let mut e = ErrorEval::new(kind, &c.golden, c.n_patterns);
                    e.rebase(&c.approx);
                    let at = format!("{kind} outputs {n_outputs} patterns {n_patterns}");
                    assert!(e.word_kernel_eligible(), "{at}");
                    let oracle = e.with_masked_rows(&c.words, &c.bits, &c.outs, &c.rows);
                    let delta = oracle - e.current();
                    let (a, b) = both_bounded(&e, &c, f64::INFINITY);
                    assert_eq!(score_bits(a.0), (true, oracle.to_bits()), "{at}");
                    assert_same_fold(&a, &b, c.words.len(), delta, &at);
                    for _ in 0..8 {
                        let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                        let thr = delta + delta.abs() * (4.0 * u - 2.0);
                        let (a, b) = both_bounded(&e, &c, thr);
                        let at = format!("{at} thr {thr}");
                        assert_same_fold(&a, &b, c.words.len(), delta, &at);
                        match a.0 {
                            BoundedScore::Exact(_) => exact += 1,
                            BoundedScore::Pruned { .. } => pruned += 1,
                        }
                    }
                }
            }
        }
        assert!(exact > 0 && pruned > 0, "exact {exact}, pruned {pruned}");
    }

    #[test]
    fn word_kernel_eligibility_stops_at_2_pow_53() {
        let eligible = |kind: MetricKind, n_outputs: usize, n_patterns: usize| {
            let golden = vec![vec![0u64; n_patterns.div_ceil(64)]; n_outputs];
            ErrorEval::new(kind, &golden, n_patterns).word_kernel_eligible()
        };
        // n_patterns * (2^n_outputs - 1) just below and just above 2^53.
        assert!(eligible(MetricKind::Nmed, 40, 8192)); // 2^53 - 2^13
        assert!(!eligible(MetricKind::Nmed, 40, 8193)); // 2^53 + 2^40 - 8193
        assert!(eligible(MetricKind::Med, 52, 2)); // 2^53 - 2
        assert!(!eligible(MetricKind::Med, 52, 3));
        assert!(eligible(MetricKind::Med, 53, 1)); // 2^53 - 1
        assert!(!eligible(MetricKind::Med, 54, 1));
        assert!(!eligible(MetricKind::Nmed, 128, 64));
        for kind in [
            MetricKind::Er,
            MetricKind::Mred,
            MetricKind::Mse,
            MetricKind::Wce,
        ] {
            assert!(!eligible(kind, 5, 64), "{kind}");
        }
        // At the edge every value is near 2^53 and still exact.
        for (seed, n_outputs, n_patterns) in [(31u64, 53, 1), (32, 52, 2), (33, 40, 8192)] {
            let c = masked_case(seed, n_patterns, n_outputs);
            let mut e = ErrorEval::new(MetricKind::Med, &c.golden, c.n_patterns);
            e.rebase(&c.approx);
            let oracle = e.with_masked_rows(&c.words, &c.bits, &c.outs, &c.rows);
            let ((a, _), (b, _)) = both_bounded(&e, &c, f64::INFINITY);
            assert_eq!(
                score_bits(a),
                (true, oracle.to_bits()),
                "outputs {n_outputs}"
            );
            assert_eq!(score_bits(b), score_bits(a), "outputs {n_outputs}");
        }
    }

    /// The per-pattern integer change of the summed error distance over
    /// the flipped patterns of word `w`: the reference each strip's
    /// word delta is checked against.
    fn pattern_delta(e: &ErrorEval, c: &MaskedCase, w: usize) -> i128 {
        let f = e.flip_union(&c.flips, w);
        let mut expect = 0i128;
        for b in (0..64).filter(|b| f >> b & 1 == 1) {
            let p = w * 64 + b;
            let new = e.cur_vals[p] ^ toggle_bits(&c.flips, p);
            let old = e.cur_vals[p].abs_diff(e.golden_vals[p]);
            expect += new.abs_diff(e.golden_vals[p]) as i128 - old as i128;
        }
        expect
    }

    #[test]
    fn dispatched_word_delta_matches_scalar_and_pattern_sum() {
        // Per strip of the plane-major layout, the strip delta against
        // the per-pattern integer sum, and the whole word kernel on
        // every instance the CPU runs against its scalar body.
        for (seed, n_outputs, n_patterns) in [
            (41u64, 1usize, 8192),
            (42, 16, 8192),
            (43, 33, 130),
            (44, 40, 8192),
            (45, 53, 1),
        ] {
            let c = masked_case(seed, n_patterns, n_outputs);
            let mut e = ErrorEval::new(MetricKind::Med, &c.golden, c.n_patterns);
            e.rebase(&c.approx);
            let mut diff = [[0u64; STRIP]; WORD_KERNEL_MAX_OUTPUTS];
            for (strip, devs) in c.words.chunks(STRIP).zip(c.bits.chunks(STRIP)) {
                let at_ = format!("outputs {n_outputs} strip at {}", strip[0]);
                let mut at = [strip[0] as usize; STRIP];
                let mut dev = [0u64; STRIP];
                for (i, (&w, &d)) in strip.iter().zip(devs).enumerate() {
                    (at[i], dev[i]) = (w as usize, d);
                }
                let expect: i128 = strip
                    .iter()
                    .map(|&w| pattern_delta(&e, &c, w as usize))
                    .sum();
                let got = strip_delta(&e, at, dev, &c.outs, &c.rows, &mut diff);
                assert_eq!(got as i128, expect, "{at_}");
            }
            assert_instances_agree(
                &e,
                &c.words,
                &c.bits,
                &c.outs,
                &c.rows,
                &format!("seed {seed}"),
            );
        }
    }

    /// Runs the word kernel's scalar body and its instance at every
    /// supported level, never pruning and under thresholds around
    /// `ΔE`, and requires the same results and bound sequences.
    fn assert_instances_agree(
        e: &ErrorEval,
        words: &[u32],
        bits: &[u64],
        outs: &[u32],
        rows: &[u64],
        at: &str,
    ) {
        let current = e.current();
        let mut suffix = Vec::new();
        e.word_base_suffix(words, &mut suffix);
        let oracle = e.with_masked_rows(words, bits, outs, rows);
        let delta = oracle - current;
        for thr in [
            f64::INFINITY,
            delta,
            delta - delta.abs() * 0.5 - 1e-12,
            -1.0,
        ] {
            let mut expect_lbs = Vec::new();
            let expect = word_kernel_scalar(e, words, bits, outs, rows, &suffix, current, |lb| {
                expect_lbs.push(lb.to_bits());
                lb > thr
            });
            if thr == f64::INFINITY {
                assert_eq!(expect, BoundedScore::Exact(oracle), "{at}");
            }
            for level in Level::supported() {
                let mut lbs = Vec::new();
                let got =
                    word_kernel_on(level, e, words, bits, outs, rows, &suffix, current, |lb| {
                        lbs.push(lb.to_bits());
                        lb > thr
                    });
                assert_eq!(
                    score_bits(got),
                    score_bits(expect),
                    "{at} {level} thr {thr}"
                );
                assert_eq!(lbs, expect_lbs, "{at} {level} thr {thr}");
            }
        }
    }

    #[test]
    fn word_kernel_instances_agree_on_every_strip_shape() {
        // Word lists of 0, 1, 7, 8, 9, 63–65 and 127–129 words, each as
        // one consecutive run (consecutive strips, short last strip) and
        // with gaps (gapped strips), at 16 and 33 outputs on a 131-word
        // sample with a partial tail word.
        let n_patterns = 131 * 64 - 9;
        for n_outputs in [16usize, 33] {
            let c = masked_case(0x5171 + n_outputs as u64, n_patterns, n_outputs);
            let mut e = ErrorEval::new(MetricKind::Nmed, &c.golden, n_patterns);
            e.rebase(&c.approx);
            assert!(e.word_kernel_eligible());
            let mut next = lcg(n_outputs as u64);
            let dev: Vec<u64> = (0..131).map(|_| next() | next()).collect();
            let (mut consecutive, mut gapped_strips, mut short) = (0usize, 0usize, 0usize);
            for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129] {
                // A run ending on the partial tail word, and a list with
                // a gap after every fifth word.
                let run: Vec<u32> = (131 - len as u32..131).collect();
                let gapped: Vec<u32> = (0..131u32).filter(|w| w % 5 != 4).take(len).collect();
                let gapped = if gapped.len() == len {
                    gapped
                } else {
                    (0..131u32).filter(|&w| w != 64).take(len).collect()
                };
                for words in [run, gapped] {
                    assert_eq!(words.len(), len);
                    for full in full_strips_consecutive(&words) {
                        if full {
                            consecutive += 1;
                        } else {
                            gapped_strips += 1;
                        }
                    }
                    short += usize::from(len % STRIP != 0);
                    let bits: Vec<u64> = words.iter().map(|&w| dev[w as usize]).collect();
                    let at = format!("outputs {n_outputs} words {words:?}");
                    assert_instances_agree(&e, &words, &bits, &c.outs, &c.rows, &at);
                }
            }
            assert!(
                consecutive > 0 && gapped_strips > 0 && short > 0,
                "{consecutive} {gapped_strips} {short}"
            );
        }
    }

    #[test]
    fn word_decode_matches_the_per_pattern_loop() {
        // The old decoder: test every (output, pattern) pair.
        fn per_pattern(sigs: &[Vec<u64>], n_patterns: usize) -> Vec<u128> {
            let mut vals = vec![0u128; n_patterns];
            for (o, sig) in sigs.iter().enumerate() {
                for (p, val) in vals.iter_mut().enumerate() {
                    if sig[p / 64] >> (p % 64) & 1 == 1 {
                        *val |= 1 << o;
                    }
                }
            }
            vals
        }
        let mut next = lcg(0xdec0de);
        let mut vals = vec![7u128; 3]; // stale contents are overwritten
        for n_outputs in [1usize, 5, 33, 64, 65, 128] {
            for n_patterns in [1usize, 64, 130, 4096 + 77] {
                // Garbage past the last valid pattern must not leak in.
                let sigs: Vec<Vec<u64>> = (0..n_outputs)
                    .map(|_| (0..n_patterns.div_ceil(64)).map(|_| next()).collect())
                    .collect();
                decode_values(&sigs, n_patterns, &mut vals);
                assert_eq!(
                    vals,
                    per_pattern(&sigs, n_patterns),
                    "outputs {n_outputs} patterns {n_patterns}"
                );
            }
        }
    }

    #[test]
    fn touched_chunk_prefix_sums_stay_below_measured() {
        // The monotone-replay property behind every bound: folding the
        // canonical chunk sequence (baseline sums for untouched chunks,
        // per-pattern replay for touched ones), every prefix is <= the
        // final measured value — contributions are nonnegative and
        // rounded addition of a nonnegative term never decreases the
        // sum. Checked per metric kind with its own monotone statement.
        for seed in [21u64, 22, 23] {
            let c = masked_case(seed, 10_000, 4);
            for kind in MetricKind::ALL {
                let mut e = ErrorEval::new(kind, &c.golden, c.n_patterns);
                e.rebase(&c.approx);
                let measured = e.measured_with_flips_words(&c.words, &c.flips);
                match kind {
                    MetricKind::Er => {
                        // Word prefixes: the remaining words can remove
                        // at most their baseline popcounts.
                        let mut pops: i64 = c
                            .words
                            .iter()
                            .map(|&w| e.er_word_pops[w as usize] as i64)
                            .sum();
                        let mut count = e.er_total as i64;
                        for (j, &w) in c.words.iter().enumerate() {
                            let lb = (count - pops) as f64 / c.n_patterns as f64;
                            assert!(lb <= measured, "er seed {seed} word {j}");
                            let w = w as usize;
                            let mut acc = 0u64;
                            for (d, f) in e.diff.iter().zip(&c.flips) {
                                acc |= d[w] ^ f[w];
                            }
                            count += (acc & e.word_mask(w)).count_ones() as i64
                                - e.er_word_pops[w] as i64;
                            pops -= e.er_word_pops[w] as i64;
                        }
                        assert_eq!(count as f64 / c.n_patterns as f64, measured);
                    }
                    MetricKind::Wce => {
                        // Running maxima only grow toward the final max.
                        let mut max = 0.0f64;
                        for p in 0..c.n_patterns {
                            let val = e.cur_vals[p] ^ toggle_bits(&c.flips, p);
                            max = max.max(e.pattern_contrib(val, e.golden_vals[p]));
                            assert!(e.finalize(0.0, max) <= measured, "wce seed {seed}");
                        }
                    }
                    _ => {
                        // Chunk prefixes of the canonical fold, replaying
                        // touched chunks exactly as the measurement does.
                        let words_per_chunk = PAT_CHUNK / 64;
                        let n_chunks = c.n_patterns.div_ceil(PAT_CHUNK);
                        let mut sum = 0.0f64;
                        let mut wi = 0usize;
                        for ch in 0..n_chunks {
                            let w_end = ((ch + 1) * words_per_chunk) as u32;
                            let chunk_wi = wi;
                            while wi < c.words.len() && c.words[wi] < w_end {
                                wi += 1;
                            }
                            if wi == chunk_wi {
                                sum += e.chunk_sums[ch];
                            } else {
                                let p_end = ((ch + 1) * PAT_CHUNK).min(c.n_patterns);
                                let mut csum = 0.0f64;
                                for w in ch * words_per_chunk..p_end.div_ceil(64) {
                                    let mut union = 0u64;
                                    for f in &c.flips {
                                        union |= f[w];
                                    }
                                    union &= e.word_mask(w);
                                    for b in 0..(p_end - w * 64).min(64) {
                                        let p = w * 64 + b;
                                        csum += if union >> b & 1 == 1 {
                                            let val = e.cur_vals[p] ^ toggle_bits(&c.flips, p);
                                            e.pattern_contrib(val, e.golden_vals[p])
                                        } else {
                                            e.contrib[p]
                                        };
                                    }
                                }
                                sum += csum;
                            }
                            assert!(
                                e.finalize(sum, 0.0) <= measured,
                                "{kind} seed {seed}: prefix after chunk {ch} exceeds final"
                            );
                        }
                        assert_eq!(e.finalize(sum, 0.0).to_bits(), measured.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn tail_patterns_are_masked() {
        // 3 valid patterns in a 1-word signature with garbage in bit 3.
        let g = vec![vec![0b0000u64]];
        let mut e = ErrorEval::new(MetricKind::Er, &g, 3);
        e.rebase(&[vec![0b1000u64]]); // differs only at invalid bit
        assert_eq!(e.current(), 0.0);
    }
}
