//! Catalog retrieval strategies — the paper's future-work item on
//! trading "prediction quality with inference latency, such as model
//! quantisation \[36\] or approximate nearest neighbor search \[37\]"
//! (Section IV).
//!
//! All SBR models end in a maximum-inner-product search over the catalog;
//! this module provides three interchangeable implementations of that
//! search:
//!
//! * [`ExactIndex`] — the exhaustive f32 scan the paper's models use
//!   (the `O(C·d)` baseline),
//! * [`QuantizedIndex`] — int8 symmetric quantisation of the embedding
//!   table: 4x less memory for a small recall loss,
//! * [`IvfIndex`] — an inverted-file ANN index (k-means coarse quantiser,
//!   probe the `nprobe` nearest clusters): sub-linear scans that trade
//!   recall for latency via `nprobe`.
//!
//! Only [`ExactIndex`] is on a serving path ([`CatalogShard`] wraps it).
//! The other two are the paper's future-work trade-offs, measured by
//! `futurework_tradeoffs` and served by nothing: the int8 scan widens
//! every byte back to a float lane, so it is quicker than the f32 scan
//! only on tables a scan crosses in under 0.2 ms and 1.3–1.9x slower at
//! d = 32 (DESIGN.md §16 has the table).
//!
//! Each index reports a [`CostSpec`] so the serving simulation can price
//! deployments using it, and the recall helpers quantify the quality side
//! of the trade-off.

use etude_tensor::cost::CostSpec;
use etude_tensor::topk::{score_topk_into, score_topk_q8_into, topk, TopkScratch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

/// A maximum-inner-product index over `C` item embeddings.
pub trait MipsIndex {
    /// Returns the ids and scores of the `k` best items for `query`.
    fn search(&self, query: &[f32], k: usize) -> (Vec<u32>, Vec<f32>);

    /// Batch-parametric cost of one search (for the device models).
    fn cost_spec(&self) -> CostSpec;

    /// Resident size of the index in bytes.
    fn memory_bytes(&self) -> u64;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Reusable per-request buffers for index searches: the quantised query
/// and the fused top-k selection state (one bounded heap per shard of
/// the `score_topk` scaffold plus its merge buffer, `O(shards · k)` in
/// all — there is no `C`-sized score vector). Holding one of these
/// across calls makes [`ExactIndex::search_into`] /
/// [`QuantizedIndex::search_into`] allocation-free in steady state at
/// every catalog size, sharded scans included.
#[derive(Debug, Default)]
pub struct SearchScratch {
    q8: Vec<i32>,
    topk: TopkScratch,
}

thread_local! {
    /// Per-thread scratch backing the allocating [`MipsIndex::search`]
    /// entry points, so server handler threads reuse their buffers
    /// without coordination.
    static SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::default());
}

fn with_thread_scratch<R>(f: impl FnOnce(&mut SearchScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// The exhaustive f32 scan used by the paper's models.
#[derive(Debug, Clone)]
pub struct ExactIndex {
    table: Vec<f32>,
    c: usize,
    d: usize,
}

impl ExactIndex {
    /// Wraps a `[c, d]` row-major embedding table.
    pub fn new(table: Vec<f32>, c: usize, d: usize) -> ExactIndex {
        assert_eq!(table.len(), c * d, "table shape mismatch");
        ExactIndex { table, c, d }
    }

    /// [`MipsIndex::search`] without per-request allocation: the fused
    /// SIMD scan streams scores straight into the top-k heap, so no
    /// `C`-sized buffer exists. Results land in the (cleared) output
    /// vectors; warm scratch buffers are reused.
    pub fn search_into(
        &self,
        query: &[f32],
        k: usize,
        scratch: &mut SearchScratch,
        out_ids: &mut Vec<u32>,
        out_scores: &mut Vec<f32>,
    ) {
        score_topk_into(
            &self.table,
            query,
            self.c,
            k,
            &mut scratch.topk,
            out_ids,
            out_scores,
        );
    }
}

impl ExactIndex {
    /// Read-only view of the backing `[c, d]` row-major table.
    pub fn table(&self) -> &[f32] {
        &self.table
    }
}

impl MipsIndex for ExactIndex {
    fn search(&self, query: &[f32], k: usize) -> (Vec<u32>, Vec<f32>) {
        let mut ids = Vec::with_capacity(k);
        let mut scores = Vec::with_capacity(k);
        with_thread_scratch(|scratch| self.search_into(query, k, scratch, &mut ids, &mut scores));
        (ids, scores)
    }

    fn cost_spec(&self) -> CostSpec {
        let n = (self.c * self.d) as f64;
        CostSpec {
            flops_per_item: 2.0 * n,
            shared_bytes: 4.0 * n,
            // Fused score+top-k: only the query is streamed per item —
            // the `[C]` score vector is never written or re-read.
            per_item_bytes: 4.0 * self.d as f64,
            launches: 1,
            ..CostSpec::default()
        }
    }

    fn memory_bytes(&self) -> u64 {
        4 * self.table.len() as u64
    }

    fn name(&self) -> &'static str {
        "exact-f32"
    }
}

/// Int8 symmetric per-row quantisation of the embedding table.
#[derive(Debug, Clone)]
pub struct QuantizedIndex {
    data: Vec<i8>,
    /// Per-row dequantisation scale.
    scales: Vec<f32>,
    c: usize,
    d: usize,
}

impl QuantizedIndex {
    /// Quantises a `[c, d]` f32 table.
    pub fn from_f32(table: &[f32], c: usize, d: usize) -> QuantizedIndex {
        assert_eq!(table.len(), c * d, "table shape mismatch");
        let mut data = Vec::with_capacity(c * d);
        let mut scales = Vec::with_capacity(c);
        for row in table.chunks_exact(d) {
            let max = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
            scales.push(scale);
            for &x in row {
                data.push((x / scale).round().clamp(-127.0, 127.0) as i8);
            }
        }
        QuantizedIndex { data, scales, c, d }
    }

    /// Allocation-free int8 search into reusable buffers; the fused
    /// scan dequantises each raw integer dot in-register and streams it
    /// straight into the top-k heap, exactly like
    /// [`ExactIndex::search_into`].
    pub fn search_into(
        &self,
        query: &[f32],
        k: usize,
        scratch: &mut SearchScratch,
        out_ids: &mut Vec<u32>,
        out_scores: &mut Vec<f32>,
    ) {
        // Quantise the query once (symmetric, per-tensor).
        let qmax = query.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let qscale = if qmax > 0.0 { qmax / 127.0 } else { 1.0 };
        let SearchScratch { q8, topk } = scratch;
        q8.clear();
        q8.extend(
            query
                .iter()
                .map(|&x| (x / qscale).round().clamp(-127.0, 127.0) as i32),
        );
        score_topk_q8_into(
            &self.data,
            &self.scales,
            q8,
            qscale,
            self.c,
            k,
            topk,
            out_ids,
            out_scores,
        );
    }
}

impl MipsIndex for QuantizedIndex {
    fn search(&self, query: &[f32], k: usize) -> (Vec<u32>, Vec<f32>) {
        let mut ids = Vec::with_capacity(k);
        let mut scores = Vec::with_capacity(k);
        with_thread_scratch(|scratch| self.search_into(query, k, scratch, &mut ids, &mut scores));
        (ids, scores)
    }

    fn cost_spec(&self) -> CostSpec {
        let n = (self.c * self.d) as f64;
        CostSpec {
            flops_per_item: 2.0 * n,
            // One byte per weight instead of four: the entire point.
            shared_bytes: n + 4.0 * self.c as f64,
            // Fused scan: per-item traffic is the quantised query only.
            per_item_bytes: 4.0 * self.d as f64,
            launches: 1,
            ..CostSpec::default()
        }
    }

    fn memory_bytes(&self) -> u64 {
        (self.data.len() + 4 * self.scales.len()) as u64
    }

    fn name(&self) -> &'static str {
        "int8"
    }
}

/// An inverted-file ANN index: items are assigned to `nlist` k-means
/// clusters; a search scores the centroids, then scans only the `nprobe`
/// closest clusters exhaustively.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    table: Vec<f32>,
    centroids: Vec<f32>,
    lists: Vec<Vec<u32>>,
    nprobe: usize,
    c: usize,
    d: usize,
}

impl IvfIndex {
    /// Builds the index over a `[c, d]` table with `nlist` clusters,
    /// probing `nprobe` of them per query. K-means runs a fixed number of
    /// Lloyd iterations from a seeded start, so builds are deterministic.
    pub fn build(table: Vec<f32>, c: usize, d: usize, nlist: usize, nprobe: usize) -> IvfIndex {
        assert_eq!(table.len(), c * d, "table shape mismatch");
        let nlist = nlist.clamp(1, c.max(1));
        let mut rng = SmallRng::seed_from_u64(0xC1u64);
        // Initialise centroids from random items.
        let mut centroids: Vec<f32> = (0..nlist)
            .flat_map(|_| {
                let i = rng.gen_range(0..c);
                table[i * d..(i + 1) * d].to_vec()
            })
            .collect();
        let mut assignment = vec![0u32; c];
        for _iter in 0..8 {
            // Assign each item to its nearest centroid (L2).
            for i in 0..c {
                let row = &table[i * d..(i + 1) * d];
                let mut best = 0usize;
                let mut best_dist = f32::INFINITY;
                for (j, cent) in centroids.chunks_exact(d).enumerate() {
                    let dist: f32 = row.iter().zip(cent).map(|(a, b)| (a - b) * (a - b)).sum();
                    if dist < best_dist {
                        best_dist = dist;
                        best = j;
                    }
                }
                assignment[i] = best as u32;
            }
            // Recompute centroids.
            let mut sums = vec![0.0f32; nlist * d];
            let mut counts = vec![0u32; nlist];
            for i in 0..c {
                let j = assignment[i] as usize;
                counts[j] += 1;
                for (s, &x) in sums[j * d..(j + 1) * d]
                    .iter_mut()
                    .zip(&table[i * d..(i + 1) * d])
                {
                    *s += x;
                }
            }
            for j in 0..nlist {
                if counts[j] > 0 {
                    for s in sums[j * d..(j + 1) * d].iter_mut() {
                        *s /= counts[j] as f32;
                    }
                    centroids[j * d..(j + 1) * d].copy_from_slice(&sums[j * d..(j + 1) * d]);
                }
            }
        }
        let mut lists = vec![Vec::new(); nlist];
        for (i, &j) in assignment.iter().enumerate() {
            lists[j as usize].push(i as u32);
        }
        IvfIndex {
            table,
            centroids,
            lists,
            nprobe: nprobe.clamp(1, nlist),
            c,
            d,
        }
    }

    /// Returns a copy of this index probing `nprobe` clusters per query.
    /// The expensive k-means build is shared — sweep `nprobe` without
    /// re-clustering.
    pub fn with_nprobe(&self, nprobe: usize) -> IvfIndex {
        let mut index = self.clone();
        index.nprobe = nprobe.clamp(1, self.lists.len());
        index
    }

    /// Mean fraction of the catalog scanned per query.
    pub fn scan_fraction(&self) -> f64 {
        let mut sizes: Vec<usize> = self.lists.iter().map(Vec::len).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let probed: usize = sizes.iter().take(self.nprobe).sum();
        probed as f64 / self.c.max(1) as f64
    }

    /// The configured probe count.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }
}

impl MipsIndex for IvfIndex {
    fn search(&self, query: &[f32], k: usize) -> (Vec<u32>, Vec<f32>) {
        // Rank centroids by inner product with the query.
        let cent_scores: Vec<f32> = self
            .centroids
            .chunks_exact(self.d)
            .map(|cent| etude_tensor::kernels::dot(cent, query))
            .collect();
        let (probe_ids, _) = topk(&cent_scores, self.nprobe);
        let mut candidates: Vec<(u32, f32)> = Vec::new();
        for &list_id in &probe_ids {
            for &item in &self.lists[list_id as usize] {
                let row = &self.table[item as usize * self.d..(item as usize + 1) * self.d];
                candidates.push((item, etude_tensor::kernels::dot(row, query)));
            }
        }
        let scores: Vec<f32> = candidates.iter().map(|&(_, s)| s).collect();
        let (local_idx, top_scores) = topk(&scores, k);
        let ids = local_idx
            .iter()
            .map(|&i| candidates[i as usize].0)
            .collect();
        (ids, top_scores)
    }

    fn cost_spec(&self) -> CostSpec {
        let scanned = self.scan_fraction() * self.c as f64;
        let nlist = self.lists.len() as f64;
        CostSpec {
            flops_per_item: 2.0 * (scanned + nlist) * self.d as f64,
            shared_bytes: 4.0 * (scanned + nlist) * self.d as f64,
            per_item_bytes: 4.0 * scanned,
            launches: 2, // centroid scan + probed-list scan
            ..CostSpec::default()
        }
    }

    fn memory_bytes(&self) -> u64 {
        (4 * self.table.len() + 4 * self.centroids.len() + 4 * self.c) as u64
    }

    fn name(&self) -> &'static str {
        "ivf"
    }
}

/// A contiguous slice of the catalog served by one shard group in the
/// scatter/gather tier: rows `[base, base + len)` of the global `[c, d]`
/// embedding table, searched with the same fused kernel as
/// [`ExactIndex`] but reporting **global** item ids (`base + local row`),
/// offset in [`MipsIndex::search`] below and nowhere else. Because the
/// slice rows are bit-identical to the corresponding global rows and the
/// selection comparator is shared, concatenating per-shard results and
/// re-sorting (the router's `merge_shard_topk`) reproduces the unsharded
/// scan exactly.
#[derive(Debug, Clone)]
pub struct CatalogShard {
    index: ExactIndex,
    base: u32,
}

impl CatalogShard {
    /// Extracts rows `range` of a global `[_, d]` row-major table.
    pub fn from_table(table: &[f32], d: usize, range: std::ops::Range<usize>) -> CatalogShard {
        let slice = table[range.start * d..range.end * d].to_vec();
        CatalogShard {
            index: ExactIndex::new(slice, range.len(), d),
            base: range.start as u32,
        }
    }

    /// Wraps an already-extracted slice whose row 0 is global row `base`.
    pub fn new(slice: Vec<f32>, d: usize, base: u32) -> CatalogShard {
        let rows = slice.len() / d.max(1);
        CatalogShard {
            index: ExactIndex::new(slice, rows, d),
            base,
        }
    }

    /// Number of catalog rows held by this shard.
    pub fn rows(&self) -> usize {
        self.index.c
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.index.d
    }

    /// First global row held by this shard.
    pub fn base(&self) -> u32 {
        self.base
    }
}

impl MipsIndex for CatalogShard {
    fn search(&self, query: &[f32], k: usize) -> (Vec<u32>, Vec<f32>) {
        let (mut ids, scores) = self.index.search(query, k);
        for id in ids.iter_mut() {
            *id += self.base;
        }
        (ids, scores)
    }

    fn cost_spec(&self) -> CostSpec {
        self.index.cost_spec()
    }

    fn memory_bytes(&self) -> u64 {
        self.index.memory_bytes()
    }

    fn name(&self) -> &'static str {
        "shard"
    }
}

/// Deterministic session-to-query embedding shared by every retrieval
/// backend in the scatter/gather tier.
///
/// Shard pods hold only their catalog slice, so they cannot look up
/// embeddings for arbitrary session items; the (tiny) session encoder is
/// therefore replicated as a *pure function* of the item ids — a seeded
/// hash embedding with recency weighting — while only the `C x d` catalog
/// scan is partitioned. The unsharded reference server and every shard
/// backend call this same function, so a query produces bit-identical
/// vectors everywhere and bit-identity of the merged top-k reduces to
/// bit-identity of the partitioned scan.
pub fn encode_session_query(items: &[u32], d: usize, seed: u64) -> Vec<f32> {
    let mut q = vec![0.0f32; d];
    for (pos, &item) in items.iter().enumerate() {
        // Later items dominate, mirroring the recency bias of real
        // session encoders.
        let weight = 1.0 / (items.len() - pos) as f32;
        for (j, slot) in q.iter_mut().enumerate() {
            // FNV-1a over (seed, item, dim), mapped into [-1, 1).
            let mut h = 0xcbf29ce484222325u64 ^ seed;
            for byte in item
                .to_le_bytes()
                .into_iter()
                .chain((j as u32).to_le_bytes())
            {
                h ^= byte as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            let unit = (h >> 40) as f32 / (1u64 << 24) as f32;
            *slot += weight * (2.0 * unit - 1.0);
        }
    }
    q
}

/// Recall@k of `approx` against ground-truth ids `exact`.
pub fn recall_at_k(exact: &[u32], approx: &[u32]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let hits = approx.iter().filter(|i| exact.contains(i)).count();
    hits as f64 / exact.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_table(c: usize, d: usize, seed: u64) -> Vec<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..c * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn random_query(d: usize, seed: u64) -> Vec<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn quantized_recall_stays_high() {
        let (c, d) = (5_000, 16);
        let table = random_table(c, d, 1);
        let exact = ExactIndex::new(table.clone(), c, d);
        let quant = QuantizedIndex::from_f32(&table, c, d);
        let mut total = 0.0;
        for s in 0..10 {
            let q = random_query(d, 100 + s);
            let (e, _) = exact.search(&q, 21);
            let (a, _) = quant.search(&q, 21);
            total += recall_at_k(&e, &a);
        }
        let recall = total / 10.0;
        assert!(recall > 0.85, "int8 recall@21 = {recall:.3}");
    }

    #[test]
    fn quantized_index_is_about_4x_smaller() {
        let (c, d) = (1_000, 32);
        let table = random_table(c, d, 2);
        let exact = ExactIndex::new(table.clone(), c, d);
        let quant = QuantizedIndex::from_f32(&table, c, d);
        let ratio = exact.memory_bytes() as f64 / quant.memory_bytes() as f64;
        assert!(ratio > 3.3 && ratio < 4.0, "ratio {ratio:.2}");
    }

    #[test]
    fn ivf_recall_grows_with_nprobe() {
        let (c, d) = (4_000, 12);
        let table = random_table(c, d, 3);
        let exact = ExactIndex::new(table.clone(), c, d);
        let recall_for = |nprobe: usize| {
            let ivf = IvfIndex::build(table.clone(), c, d, 64, nprobe);
            let mut total = 0.0;
            for s in 0..8 {
                let q = random_query(d, 200 + s);
                let (e, _) = exact.search(&q, 21);
                let (a, _) = ivf.search(&q, 21);
                total += recall_at_k(&e, &a);
            }
            total / 8.0
        };
        let low = recall_for(2);
        let high = recall_for(32);
        assert!(
            high > low,
            "recall must grow with nprobe: {low:.3} vs {high:.3}"
        );
        assert!(high > 0.9, "nprobe=32/64 recall {high:.3}");
    }

    #[test]
    fn ivf_scans_a_fraction_of_the_catalog() {
        let (c, d) = (4_000, 12);
        let ivf = IvfIndex::build(random_table(c, d, 4), c, d, 64, 4);
        let frac = ivf.scan_fraction();
        assert!(frac < 0.35, "scan fraction {frac:.3}");
        assert!(frac > 0.0);
    }

    #[test]
    fn ivf_cost_is_cheaper_than_exact() {
        let (c, d) = (10_000, 16);
        let table = random_table(c, d, 5);
        let exact = ExactIndex::new(table.clone(), c, d);
        let ivf = IvfIndex::build(table, c, d, 128, 8);
        let e = exact.cost_spec().at_batch(1);
        let a = ivf.cost_spec().at_batch(1);
        assert!(a.bytes < 0.5 * e.bytes, "{} vs {}", a.bytes, e.bytes);
    }

    #[test]
    fn all_indexes_agree_on_an_easy_query() {
        // A query equal to one of the rows: every index must rank that
        // row first (it maximises the inner product with itself among
        // near-orthogonal random rows, with overwhelming probability).
        let (c, d) = (2_000, 24);
        let table = random_table(c, d, 6);
        let target = 777usize;
        let q: Vec<f32> = table[target * d..(target + 1) * d].to_vec();
        let exact = ExactIndex::new(table.clone(), c, d);
        let quant = QuantizedIndex::from_f32(&table, c, d);
        let ivf = IvfIndex::build(table, c, d, 64, 16);
        assert_eq!(exact.search(&q, 1).0[0], target as u32);
        assert_eq!(quant.search(&q, 1).0[0], target as u32);
        assert_eq!(ivf.search(&q, 1).0[0], target as u32);
    }

    #[test]
    fn search_into_matches_search_and_reuses_buffers() {
        let (c, d, k) = (3_000, 16, 21);
        let table = random_table(c, d, 9);
        let exact = ExactIndex::new(table.clone(), c, d);
        let quant = QuantizedIndex::from_f32(&table, c, d);
        let mut scratch = SearchScratch::default();
        let mut ids = Vec::new();
        let mut scores = Vec::new();
        for s in 0..5 {
            let q = random_query(d, 300 + s);
            exact.search_into(&q, k, &mut scratch, &mut ids, &mut scores);
            let (eids, escores) = exact.search(&q, k);
            assert_eq!(ids, eids);
            assert_eq!(scores, escores);
            quant.search_into(&q, k, &mut scratch, &mut ids, &mut scores);
            let (qids, qscores) = quant.search(&q, k);
            assert_eq!(ids, qids);
            assert_eq!(scores, qscores);
        }
    }

    #[test]
    fn shard_search_reports_global_ids() {
        let (c, d, k) = (1_000, 8, 21);
        let table = random_table(c, d, 12);
        let exact = ExactIndex::new(table.clone(), c, d);
        let q = random_query(d, 13);
        let (gids, gscores) = exact.search(&q, k);
        // Partition into three uneven slices and merge the partials.
        let cuts = [0usize, 300, 650, c];
        let mut partials = Vec::new();
        for w in cuts.windows(2) {
            let shard = CatalogShard::from_table(&table, d, w[0]..w[1]);
            assert_eq!(shard.base() as usize, w[0]);
            assert_eq!(shard.rows(), w[1] - w[0]);
            assert_eq!(shard.memory_bytes(), 4 * ((w[1] - w[0]) * d) as u64);
            let (ids, scores) = shard.search(&q, k);
            assert!(ids
                .iter()
                .all(|&i| (i as usize) >= w[0] && (i as usize) < w[1]));
            partials.push((ids, scores));
        }
        let merged = etude_tensor::topk::merge_shard_topk(&partials, k);
        assert_eq!(merged, (gids, gscores));
    }

    #[test]
    fn full_range_shard_matches_exact_index() {
        let (c, d, k) = (500, 12, 10);
        let table = random_table(c, d, 14);
        let exact = ExactIndex::new(table.clone(), c, d);
        let shard = CatalogShard::from_table(&table, d, 0..c);
        let q = random_query(d, 15);
        assert_eq!(shard.search(&q, k), exact.search(&q, k));
    }

    #[test]
    fn session_query_is_deterministic_and_seed_sensitive() {
        let items = [3u32, 9, 4, 9];
        let a = encode_session_query(&items, 18, 7);
        let b = encode_session_query(&items, 18, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 18);
        assert!(a.iter().any(|&x| x != 0.0));
        let c = encode_session_query(&items, 18, 8);
        assert_ne!(a, c);
        // Order matters (recency weighting).
        let d = encode_session_query(&[9, 4, 9, 3], 18, 7);
        assert_ne!(a, d);
    }

    #[test]
    fn with_nprobe_shares_the_build() {
        let (c, d) = (2_000, 8);
        let table = random_table(c, d, 16);
        let base = IvfIndex::build(table, c, d, 32, 4);
        let wide = base.with_nprobe(16);
        assert_eq!(wide.nprobe(), 16);
        assert_eq!(base.nprobe(), 4);
        assert!(wide.scan_fraction() > base.scan_fraction());
        // Clamped to nlist.
        assert_eq!(base.with_nprobe(10_000).nprobe(), 32);
    }

    #[test]
    fn recall_helper_handles_edge_cases() {
        assert_eq!(recall_at_k(&[], &[]), 1.0);
        assert_eq!(recall_at_k(&[1, 2], &[2, 3]), 0.5);
        assert_eq!(recall_at_k(&[1, 2], &[1, 2]), 1.0);
    }
}
