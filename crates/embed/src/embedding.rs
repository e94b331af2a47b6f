//! Dense embeddings via feature hashing (the "hashing trick").
//!
//! Every model maps an input to a bag of weighted string features; features
//! are hashed into a fixed-dimension vector with a sign hash, then
//! L2-normalized. Cosine similarity over these vectors is exactly the
//! bi-encoder retrieval rule of paper §2.4.

use laminar_json::Value;

/// A dense embedding vector (always L2-normalized unless all-zero).
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    /// Vector components.
    pub values: Vec<f32>,
}

impl Embedding {
    /// Dimension.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Serialize for registry storage (the `codeEmbedding` /
    /// `descEmbedding` columns).
    pub fn to_value(&self) -> Value {
        Value::Array(self.values.iter().map(|f| Value::Float(*f as f64)).collect())
    }

    /// Inverse of [`Self::to_value`].
    pub fn from_value(v: &Value) -> Option<Embedding> {
        let mut values = Vec::new();
        Embedding::decode_into(v, &mut values)?;
        Some(Embedding { values })
    }

    /// [`Self::from_value`] into a caller-owned buffer, replacing its
    /// contents, so a scan over many stored rows reuses one allocation.
    /// `None` (buffer contents unspecified) when `v` is not an array of
    /// numbers.
    pub fn decode_into(v: &Value, values: &mut Vec<f32>) -> Option<()> {
        let arr = v.as_array()?;
        values.clear();
        values.reserve(arr.len());
        for e in arr {
            values.push(e.as_f64()? as f32);
        }
        Some(())
    }
}

/// FNV-1a, 64-bit — the feature hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Accumulates weighted features into a hashed vector.
pub struct FeatureHasher {
    values: Vec<f32>,
}

impl FeatureHasher {
    /// A hasher with output dimension `dim`.
    pub fn new(dim: usize) -> FeatureHasher {
        assert!(dim > 0);
        FeatureHasher { values: vec![0.0; dim] }
    }

    /// Add one feature occurrence with a weight. The feature's hash picks
    /// the bucket; a second hash bit picks the sign (reduces collision
    /// bias).
    pub fn add(&mut self, feature: &str, weight: f32) {
        let h = fnv1a(feature.as_bytes());
        let dim = self.values.len() as u64;
        let bucket = (h % dim) as usize;
        let sign = if (h >> 63) & 1 == 1 { -1.0 } else { 1.0 };
        self.values[bucket] += sign * weight;
    }

    /// Add a whole channel of `(feature, weight)` pairs scaled by
    /// `channel_weight`.
    pub fn add_channel(
        &mut self,
        features: impl IntoIterator<Item = (String, f32)>,
        channel_weight: f32,
        prefix: &str,
    ) {
        for (f, w) in features {
            self.add(&format!("{prefix}:{f}"), w * channel_weight);
        }
    }

    /// Finish: L2-normalize and return the embedding.
    pub fn finish(mut self) -> Embedding {
        let norm: f32 = self.values.iter().map(|v| v * v).sum::<f32>().sqrt();
        if norm > 0.0 {
            for v in &mut self.values {
                *v /= norm;
            }
        }
        Embedding { values: self.values }
    }
}

/// Fused dot product over raw slices.
///
/// Dispatches once per process: an AVX2+FMA kernel when the CPU has it
/// (rustc's baseline x86-64 target only emits SSE2, which leaves ~8× on
/// the table for the registry's 768/1024-dim matrix scans), otherwise
/// the eight-accumulator scalar kernel. The chosen path is a pure
/// function of the CPU, so within a process every caller — the
/// linear-scan oracle, the registry's dense-vector index and the sparse
/// block kernel ([`SparseQuery`]) that replays this schedule — gets
/// bit-identical scores; that per-process consistency (not cross-machine
/// bit equality, which floating point never promised) is the contract
/// the differential search tests rely on.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot over mismatched lengths");
    match Arm::dispatched() {
        // SAFETY: `Arm::Avx2` is only returned when the CPU has AVX2+FMA.
        #[cfg(target_arch = "x86_64")]
        Arm::Avx2 => unsafe { dot_avx2(a, b) },
        Arm::Scalar => dot_scalar(a, b),
    }
}

/// The two [`dot`] kernels. The sparse block kernel replays the lane
/// schedule of whichever arm the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// [`dot_scalar`]: eight lanes plus a scalar tail.
    Scalar,
    /// [`dot_avx2`]: 4×8 FMA lanes, an 8-lane cleanup, a lane tree and a
    /// scalar tail.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Arm {
    /// The arm this CPU runs — a pure function of the CPU, so every
    /// caller in a process agrees.
    fn dispatched() -> Arm {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
            return Arm::Avx2;
        }
        Arm::Scalar
    }
}

/// Portable kernel, eight parallel accumulators.
///
/// A single `zip().map().sum()` chain is latency-bound: every add waits on
/// the previous one, which caps a 768-dim dot at roughly one add-latency
/// per element. Eight independent accumulator lanes let the FPU pipeline
/// them. The lane structure (not the data order) fixes the rounding, so
/// the result is deterministic.
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for lane in 0..8 {
            acc[lane] += xa[lane] * xb[lane];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// AVX2+FMA kernel: four 8-lane FMA accumulators (32 floats per
/// iteration) to hide the ~4-cycle FMA latency, an 8-wide cleanup loop,
/// a lane-tree horizontal reduction, and a scalar tail. Deterministic
/// for a given input length — the block structure fixes the rounding.
///
/// # Safety
///
/// The CPU must have AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut acc2 = _mm256_setzero_ps();
    let mut acc3 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 32 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i + 8)), _mm256_loadu_ps(bp.add(i + 8)), acc1);
        acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i + 16)), _mm256_loadu_ps(bp.add(i + 16)), acc2);
        acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i + 24)), _mm256_loadu_ps(bp.add(i + 24)), acc3);
        i += 32;
    }
    let mut acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
    while i + 8 <= n {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc);
        i += 8;
    }
    let quad = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps::<1>(acc));
    let pair = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
    let one = _mm_add_ss(pair, _mm_shuffle_ps::<1>(pair, pair));
    let mut sum = _mm_cvtss_f32(one);
    while i < n {
        sum += *ap.add(i) * *bp.add(i);
        i += 1;
    }
    sum
}

/// Rows per block of a dimension-major block matrix, the layout
/// [`SparseQuery::dot_blocks`] reads: dimension `d` of row `j` sits at
/// `d * BLOCK_ROWS + j`, so one dimension of every row in the block is
/// one contiguous run of floats.
pub const BLOCK_ROWS: usize = 128;

/// Rows the sparse kernel scores per pass over the query's terms: 32
/// rows are four AVX2 vectors per term, and the 32 × 4 main-lane
/// accumulators fit in L1.
const CHUNK_ROWS: usize = 32;

/// A query vector reduced to its non-zero dimensions and scheduled for
/// [`dot_blocks`](SparseQuery::dot_blocks).
///
/// A hashed query embedding has a few dozen non-zero dimensions out of
/// 768 or 1024, so [`dot`] mostly multiplies zeros. This kernel visits
/// only the non-zero ones, yet for every row of a block it returns the
/// bits `dot(query, row)` returns: it replays the dispatched arm's lane
/// schedule operation for operation and leaves out only the terms whose
/// query weight is ±0.0.
///
/// Leaving such a term out is exact. It would add `±0.0 · x`, a zero, to
/// its lane, and adding a zero changes no accumulator except a -0.0 one.
/// Every lane starts at +0.0. A scalar lane can never reach -0.0 (a sum
/// is -0.0 only when both addends are), and an FMA lane reaches it only
/// when an FMA's exact result is a negative number too small for f32's
/// subnormals, which rounds to -0.0 — far below any product of
/// embedding components. The argument needs finite rows: `0 · ∞` is NaN.
#[derive(Debug, Clone)]
pub struct SparseQuery {
    arm: Arm,
    dim: usize,
    /// Non-zero terms as `(d * BLOCK_ROWS, lane, weight)`, ascending `d`,
    /// in three phases of the dense schedule: `..main_end` feed the main
    /// lanes (AVX2: `d % 32` of the 4×8 FMA lanes; scalar: `d % 8`),
    /// `main_end..cleanup_end` the AVX2 8-lane cleanup (`d % 8`; empty
    /// for scalar), and the rest the scalar tail.
    terms: Vec<(u32, u32, f32)>,
    main_end: usize,
    cleanup_end: usize,
}

impl SparseQuery {
    /// Schedule `query` for the arm [`dot`] dispatches to.
    pub fn new(query: &[f32]) -> SparseQuery {
        SparseQuery::for_arm(query, Arm::dispatched())
    }

    fn for_arm(query: &[f32], arm: Arm) -> SparseQuery {
        let n = query.len();
        // Where the dense kernel's main loop and cleanup loop stop.
        let (main, cleanup, lanes) = match arm {
            Arm::Scalar => (n / 8 * 8, n / 8 * 8, 8),
            #[cfg(target_arch = "x86_64")]
            Arm::Avx2 => (n / 32 * 32, n / 8 * 8, 32),
        };
        let terms: Vec<(u32, u32, f32)> = query
            .iter()
            .enumerate()
            .filter(|(_, w)| **w != 0.0)
            .map(|(d, &w)| {
                let off = u32::try_from(d * BLOCK_ROWS).expect("block offset fits in u32");
                let lane = if d < main { d % lanes } else { d % 8 };
                (off, lane as u32, w)
            })
            .collect();
        let phase_end = |limit: usize| terms.partition_point(|t| (t.0 as usize) < limit * BLOCK_ROWS);
        let (main_end, cleanup_end) = (phase_end(main), phase_end(cleanup));
        SparseQuery { arm, dim: n, terms, main_end, cleanup_end }
    }

    /// `out[r] = dot(query, row r)`, bit for bit, for every row of a run
    /// of dimension-major blocks (`out.len() / BLOCK_ROWS` blocks of
    /// `dim * BLOCK_ROWS` floats each). Reads `nnz * BLOCK_ROWS` floats
    /// of each block, not `dim * BLOCK_ROWS`.
    pub fn dot_blocks(&self, blocks: &[f32], out: &mut [f32]) {
        let block_len = self.dim * BLOCK_ROWS;
        // Also what keeps the AVX2 arm's unchecked loads in bounds.
        assert_eq!(out.len() % BLOCK_ROWS, 0, "output is not whole blocks");
        assert_eq!(
            blocks.len(),
            out.len() / BLOCK_ROWS * block_len,
            "blocks do not match the query dimension"
        );
        for (c, out) in out.chunks_exact_mut(CHUNK_ROWS).enumerate() {
            let (b, first) = (c * CHUNK_ROWS / BLOCK_ROWS, c * CHUNK_ROWS % BLOCK_ROWS);
            let block = &blocks[b * block_len..(b + 1) * block_len];
            let out: &mut [f32; CHUNK_ROWS] = out.try_into().expect("chunk of CHUNK_ROWS");
            match self.arm {
                // SAFETY: an `Avx2` query is only built when the CPU has
                // AVX2+FMA, and the asserts above bound every term offset.
                #[cfg(target_arch = "x86_64")]
                Arm::Avx2 => unsafe { self.dot_chunk_avx2(block.as_ptr().add(first), out) },
                Arm::Scalar => self.dot_chunk_scalar(block, first, out),
            }
        }
    }

    /// [`dot_scalar`]'s schedule over the `CHUNK_ROWS` rows of `block`
    /// from `first`: per row, eight lanes of multiply-then-add, the
    /// pairwise lane sum, plus the tail.
    fn dot_chunk_scalar(&self, block: &[f32], first: usize, out: &mut [f32; CHUNK_ROWS]) {
        let col = |off: u32| &block[off as usize + first..off as usize + first + CHUNK_ROWS];
        let mut lanes = [[0.0f32; CHUNK_ROWS]; 8];
        for &(off, lane, w) in &self.terms[..self.main_end] {
            for (a, x) in lanes[lane as usize].iter_mut().zip(col(off)) {
                *a += w * x;
            }
        }
        let mut tail = [0.0f32; CHUNK_ROWS];
        for &(off, _, w) in &self.terms[self.cleanup_end..] {
            for (a, x) in tail.iter_mut().zip(col(off)) {
                *a += w * x;
            }
        }
        for (j, o) in out.iter_mut().enumerate() {
            let a = |l: usize| lanes[l][j];
            *o = ((a(0) + a(1)) + (a(2) + a(3))) + ((a(4) + a(5)) + (a(6) + a(7))) + tail[j];
        }
    }

    /// [`dot_avx2`]'s schedule over the `CHUNK_ROWS` rows whose
    /// dimension 0 is at `base`, eight rows per vector: the 32 main FMA
    /// lanes, combined per cleanup lane `l` as
    /// `(a[l] + a[8 + l]) + (a[16 + l] + a[24 + l])`; the cleanup FMAs;
    /// the lane tree `((c0 + c4) + (c2 + c6)) + ((c1 + c5) + (c3 + c7))`;
    /// then the multiply-then-add scalar tail.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX2 and FMA, and `base` must point at a row
    /// offset of at most `BLOCK_ROWS - CHUNK_ROWS` inside a block of
    /// `self.dim * BLOCK_ROWS` readable floats.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_chunk_avx2(&self, base: *const f32, out: &mut [f32; CHUNK_ROWS]) {
        use std::arch::x86_64::*;
        const V: usize = CHUNK_ROWS / 8;

        /// Folds each term's column into its lane.
        ///
        /// # Safety
        ///
        /// As for `dot_chunk_avx2`, for every term offset.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn fma_terms(
            base: *const f32,
            terms: &[(u32, u32, f32)],
            acc: &mut [[__m256; V]],
            mask: usize,
        ) {
            for &(off, lane, w) in terms {
                let w = _mm256_set1_ps(w);
                let col = base.add(off as usize);
                let a = &mut acc[lane as usize & mask];
                for (v, a) in a.iter_mut().enumerate() {
                    *a = _mm256_fmadd_ps(w, _mm256_loadu_ps(col.add(8 * v)), *a);
                }
            }
        }

        let zero = [_mm256_setzero_ps(); V];
        let mut main = [zero; 32];
        fma_terms(base, &self.terms[..self.main_end], &mut main, 31);
        let mut lanes = [zero; 8];
        for (l, lane) in lanes.iter_mut().enumerate() {
            for (v, c) in lane.iter_mut().enumerate() {
                *c = _mm256_add_ps(
                    _mm256_add_ps(main[l][v], main[8 + l][v]),
                    _mm256_add_ps(main[16 + l][v], main[24 + l][v]),
                );
            }
        }
        fma_terms(base, &self.terms[self.main_end..self.cleanup_end], &mut lanes, 7);
        let tail = &self.terms[self.cleanup_end..];
        for (v, out) in out.chunks_exact_mut(8).enumerate() {
            let q0 = _mm256_add_ps(lanes[0][v], lanes[4][v]);
            let q1 = _mm256_add_ps(lanes[1][v], lanes[5][v]);
            let q2 = _mm256_add_ps(lanes[2][v], lanes[6][v]);
            let q3 = _mm256_add_ps(lanes[3][v], lanes[7][v]);
            let mut sum = _mm256_add_ps(_mm256_add_ps(q0, q2), _mm256_add_ps(q1, q3));
            for &(off, _, w) in tail {
                let x = _mm256_loadu_ps(base.add(off as usize + 8 * v));
                sum = _mm256_add_ps(sum, _mm256_mul_ps(_mm256_set1_ps(w), x));
            }
            _mm256_storeu_ps(out.as_mut_ptr(), sum);
        }
    }
}

/// L2 norm via the fused kernel — the norm the cosine family caches.
pub fn l2_norm(v: &[f32]) -> f32 {
    dot(v, v).sqrt()
}

/// Cosine with both norms supplied by the caller. The registry's vector
/// index caches per-row norms at insert time and calls this per candidate,
/// paying one fused dot instead of three passes. [`cosine`] routes through
/// here, so precomputed-norm and from-scratch scores are bit-identical as
/// long as the cached norms came from [`l2_norm`].
pub fn cosine_prenorm(a: &[f32], na: f32, b: &[f32], nb: f32) -> f32 {
    cosine_from_dot(dot(a, b), na, nb)
}

/// The cosine formula applied to an already-computed dot product — what
/// [`cosine_prenorm`] does after its [`dot`], for callers that took the
/// dot from [`SparseQuery::dot_blocks`].
pub fn cosine_from_dot(d: f32, na: f32, nb: f32) -> f32 {
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        d / (na * nb)
    }
}

/// Cosine similarity. Normalized inputs make this a dot product, but the
/// full formula keeps the function safe for un-normalized vectors too.
pub fn cosine(a: &Embedding, b: &Embedding) -> f32 {
    assert_eq!(a.dim(), b.dim(), "cosine over mismatched dimensions");
    cosine_prenorm(&a.values, l2_norm(&a.values), &b.values, l2_norm(&b.values))
}

/// A bounded best-`k` selector over `(id, score)` pairs.
///
/// Keeps at most `k` entries in a binary heap ordered worst-at-the-root
/// (worse = lower score, ties toward the higher id), so a stream of `n`
/// candidates costs `O(n log k)` and `k` slots of memory instead of the
/// sort-everything `O(n log n)`. [`into_sorted`](TopK::into_sorted)
/// returns winners best-first — score descending, ties toward the lower
/// id — exactly the order a full sort by `(score desc, id asc)` followed
/// by `truncate(k)` would produce, which is the contract registry search
/// relies on for oracle equivalence.
pub struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<TopKEntry>,
    /// The weakest survivor's score once `k` are kept (−∞ before): a
    /// candidate scoring strictly below it cannot enter, which turns
    /// the common case into one float compare.
    floor: f64,
}

struct TopKEntry {
    score: f64,
    id: i64,
}

impl PartialEq for TopKEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for TopKEntry {}
impl PartialOrd for TopKEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TopKEntry {
    /// Greater = worse, so the max-heap root is the weakest survivor.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.score.partial_cmp(&self.score).unwrap_or(std::cmp::Ordering::Equal).then(self.id.cmp(&other.id))
    }
}

impl TopK {
    /// Selector keeping the best `k` entries.
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k.saturating_add(1)),
            floor: f64::NEG_INFINITY,
        }
    }

    /// Offer one candidate.
    pub fn push(&mut self, id: i64, score: f64) {
        if score < self.floor {
            return;
        }
        let entry = TopKEntry { score, id };
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if entry < *worst {
                // Dropping the `PeekMut` sifts the replacement down.
                *worst = entry;
            }
        }
        if self.heap.len() == self.k {
            self.floor = self.heap.peek().map_or(f64::NEG_INFINITY, |worst| worst.score);
        }
    }

    /// Winners, best-first (score descending, ties toward the lower id).
    pub fn into_sorted(self) -> Vec<(i64, f64)> {
        self.heap.into_sorted_vec().into_iter().map(|e| (e.id, e.score)).collect()
    }
}

/// Indices of the `k` corpus embeddings most similar to `query`, best
/// first. Ties break toward the lower index (deterministic).
pub fn top_k(query: &Embedding, corpus: &[Embedding], k: usize) -> Vec<(usize, f32)> {
    let mut scored: Vec<(usize, f32)> =
        corpus.iter().enumerate().map(|(i, e)| (i, cosine(query, e))).collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    fn embed(features: &[(&str, f32)], dim: usize) -> Embedding {
        let mut h = FeatureHasher::new(dim);
        for (f, w) in features {
            h.add(f, *w);
        }
        h.finish()
    }

    #[test]
    fn normalization() {
        let e = embed(&[("a", 3.0), ("b", 4.0)], 64);
        let norm: f32 = e.values.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn identical_features_identical_embeddings() {
        let a = embed(&[("x", 1.0), ("y", 2.0)], 128);
        let b = embed(&[("x", 1.0), ("y", 2.0)], 128);
        assert_eq!(a, b);
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn overlap_orders_similarity() {
        let base = embed(&[("a", 1.0), ("b", 1.0), ("c", 1.0)], 512);
        let near = embed(&[("a", 1.0), ("b", 1.0), ("z", 1.0)], 512);
        let far = embed(&[("p", 1.0), ("q", 1.0), ("r", 1.0)], 512);
        assert!(cosine(&base, &near) > cosine(&base, &far));
    }

    #[test]
    fn zero_vector_cosine_is_zero() {
        let z = Embedding { values: vec![0.0; 8] };
        let e = embed(&[("a", 1.0)], 8);
        assert_eq!(cosine(&z, &e), 0.0);
    }

    #[test]
    fn top_k_ordering_and_ties() {
        let q = embed(&[("a", 1.0)], 256);
        let corpus =
            vec![embed(&[("b", 1.0)], 256), embed(&[("a", 1.0)], 256), embed(&[("a", 1.0), ("b", 1.0)], 256)];
        let top = top_k(&q, &corpus, 2);
        assert_eq!(top[0].0, 1, "exact match first");
        assert_eq!(top[1].0, 2, "partial overlap second");
        // k larger than corpus is fine.
        assert_eq!(top_k(&q, &corpus, 10).len(), 3);
    }

    #[test]
    fn value_round_trip() {
        let e = embed(&[("a", 1.0), ("b", -2.0)], 16);
        let back = Embedding::from_value(&e.to_value()).unwrap();
        assert_eq!(back, e);
        assert!(Embedding::from_value(&Value::Str("no".into())).is_none());
    }

    #[test]
    #[should_panic(expected = "mismatched dimensions")]
    fn dim_mismatch_panics() {
        let a = embed(&[("a", 1.0)], 8);
        let b = embed(&[("a", 1.0)], 16);
        let _ = cosine(&a, &b);
    }

    #[test]
    fn dot_handles_tails_and_matches_norm() {
        // Exercise the remainder path (lengths not divisible by 8).
        for len in [0usize, 1, 7, 8, 9, 16, 19] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32) * 0.25 - 1.0).collect();
            let b: Vec<f32> = (0..len).map(|i| 1.5 - (i as f32) * 0.5).collect();
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - naive).abs() < 1e-4, "len {len}");
        }
        let v = vec![3.0f32, 4.0];
        assert!((l2_norm(&v) - 5.0).abs() < 1e-6);
        assert_eq!(l2_norm(&[]), 0.0);
    }

    #[test]
    fn simd_and_scalar_kernels_agree() {
        // The dispatched kernel (AVX2 where the CPU has it) must agree
        // with the portable one to FP tolerance at every tail shape; the
        // *bit*-level contract is only per-process consistency, which
        // holds because dispatch is a pure function of the CPU.
        for len in [0usize, 1, 7, 8, 15, 31, 32, 33, 40, 63, 768, 1024, 1027] {
            let a: Vec<f32> = (0..len).map(|i| ((i * 37 + 11) % 97) as f32 * 0.021 - 1.0).collect();
            let b: Vec<f32> = (0..len).map(|i| ((i * 53 + 29) % 89) as f32 * 0.017 - 0.7).collect();
            let dispatched = dot(&a, &b);
            let scalar = dot_scalar(&a, &b);
            let tol = 1e-4 * (len as f32 + 1.0);
            assert!((dispatched - scalar).abs() < tol, "len {len}: {dispatched} vs {scalar}");
        }
    }

    /// `rows` (whole blocks of them) laid out as dimension-major blocks.
    fn blocks_of(rows: &[Vec<f32>], dim: usize) -> Vec<f32> {
        let mut blocks = vec![0.0; rows.len() * dim];
        for (r, row) in rows.iter().enumerate() {
            for (d, x) in row.iter().enumerate() {
                blocks[r / BLOCK_ROWS * dim * BLOCK_ROWS + d * BLOCK_ROWS + r % BLOCK_ROWS] = *x;
            }
        }
        blocks
    }

    /// Each component is non-zero with probability `density`%: a
    /// full-mantissa value of either sign in [2^-10, 1), so sums round
    /// and a wrong lane order shows. Zeros carry either sign.
    fn sparse_vec(rng: &mut impl RngCore, dim: usize, density: u64) -> Vec<f32> {
        (0..dim)
            .map(|_| {
                let bits = rng.next_u64();
                let sign = ((bits >> 63) as u32) << 31;
                if bits % 100 >= density {
                    return f32::from_bits(sign);
                }
                let exponent = 117 + ((bits >> 32) % 10) as u32;
                f32::from_bits(sign | exponent << 23 | (bits as u32 & 0x7f_ffff))
            })
            .collect()
    }

    type DenseDot = fn(&[f32], &[f32]) -> f32;

    /// Both arms' sparse kernels against their dense kernels, bit for bit.
    fn assert_block_kernel_exact(dim: usize, query_density: u64, row_density: u64, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let query = sparse_vec(&mut rng, dim, query_density);
        let rows: Vec<Vec<f32>> =
            (0..2 * BLOCK_ROWS).map(|_| sparse_vec(&mut rng, dim, row_density)).collect();
        let blocks = blocks_of(&rows, dim);
        let arms: [(SparseQuery, DenseDot); 2] =
            [(SparseQuery::for_arm(&query, Arm::Scalar), dot_scalar), (SparseQuery::new(&query), dot)];
        for (sparse, dense) in arms {
            let mut out = [f32::NAN; 2 * BLOCK_ROWS];
            sparse.dot_blocks(&blocks, &mut out);
            for (j, row) in rows.iter().enumerate() {
                assert_eq!(
                    out[j].to_bits(),
                    dense(&query, row).to_bits(),
                    "{:?} arm, dim {dim}, densities {query_density}/{row_density}, seed {seed}, row {j}",
                    sparse.arm
                );
            }
        }
    }

    #[test]
    fn sparse_block_kernel_is_exact_at_every_tail_shape() {
        for dim in (0..=70).chain([96, 768, 1024]) {
            for (q, r) in [(0, 100), (100, 0), (100, 100), (5, 100), (50, 50)] {
                assert_block_kernel_exact(dim, q, r, dim as u64 * 1000 + q);
            }
        }
    }

    proptest! {
        /// Any dimension shape, any query and row density from all-zero to
        /// fully dense, signed values and signed zeros.
        #[test]
        fn sparse_block_kernel_matches_dot_bitwise(
            dim in prop_oneof![0usize..=70, Just(96usize), Just(768usize), Just(1024usize)],
            query_density in prop_oneof![Just(0u64), Just(100u64), 0u64..=100],
            row_density in prop_oneof![Just(0u64), Just(100u64), 0u64..=100],
            seed in any::<u64>(),
        ) {
            assert_block_kernel_exact(dim, query_density, row_density, seed);
        }
    }

    #[test]
    fn sparse_query_keeps_only_nonzero_terms() {
        let q = SparseQuery::new(&[0.0, 1.0, -0.0, -2.0, 0.0]);
        assert_eq!((q.dim, q.terms.len()), (5, 2));
        assert!(SparseQuery::new(&[]).terms.is_empty());
    }

    #[test]
    #[should_panic(expected = "blocks do not match")]
    fn sparse_block_rejects_a_short_block() {
        SparseQuery::new(&[1.0; 8]).dot_blocks(&[0.0; 8], &mut [0.0; BLOCK_ROWS]);
    }

    #[test]
    fn cosine_prenorm_is_bit_identical_to_cosine() {
        let a = embed(&[("a", 1.0), ("b", 2.0)], 100);
        let b = embed(&[("a", 1.0), ("c", 3.0)], 100);
        let full = cosine(&a, &b);
        let pre = cosine_prenorm(&a.values, l2_norm(&a.values), &b.values, l2_norm(&b.values));
        assert_eq!(full.to_bits(), pre.to_bits());
        // Zero-norm guard matches cosine's.
        assert_eq!(cosine_prenorm(&[0.0; 4], 0.0, &b.values[..4], 1.0), 0.0);
    }

    #[test]
    fn top_k_selector_matches_full_sort() {
        let scored: Vec<(i64, f64)> =
            vec![(5, 0.5), (1, 0.9), (9, 0.5), (2, 0.9), (7, 0.1), (3, 0.5), (8, 0.0)];
        for k in 0..=scored.len() + 1 {
            let mut sel = TopK::new(k);
            for &(id, s) in &scored {
                sel.push(id, s);
            }
            let mut oracle = scored.clone();
            oracle.sort_by(|a, b| {
                b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
            });
            oracle.truncate(k);
            assert_eq!(sel.into_sorted(), oracle, "k = {k}");
        }
    }
}
