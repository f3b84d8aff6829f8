//! Paged KV cache: block allocation, prefix sharing and a byte budget.
//!
//! [`PagedKvCache`] is the one storage layout batched decoding uses.
//! Per-sequence contiguous K/V rows would cap serving capacity at the
//! *sum of worst-case* context lengths — memory, not compute, limits
//! concurrency ("Scaling Up Silicon Photonic-based Accelerators"
//! identifies memory movement as the dominant non-photonic cost). This
//! module manages the KV working set like an OS manages RAM:
//!
//! * [`PageAllocator`] — a slab of fixed-size **pages** (each holding
//!   `block_tokens` K rows + V rows for one layer), recycled through a
//!   free list, refcounted, and capped by an optional byte budget
//!   ([`PagedConfig::budget_bytes`]).
//! * [`PagedKvCache`] — per-slot, per-layer **page tables** mapping
//!   token positions to pages. Appends allocate lazily. Pages are shared
//!   one way only: as published full blocks, which are never written
//!   again, so a slot only ever writes a page it holds alone.
//! * **Hash-consed prefix cache** — one index entry per published block,
//!   keyed by the chained hash of the token embeddings up to that block
//!   ([`prefix_block_hashes`]) and linked to the entry of the block
//!   before it; a later request with the same prefix maps the
//!   already-computed pages instead of recomputing them. Because decode
//!   is deterministic, shared pages hold exactly the bits a recompute
//!   would produce. Leaf entries are evicted least-recently-used when an
//!   allocation would exceed the budget; an evicted prefix is simply
//!   recomputed on its next use.
//!
//! The decode engine reads K/V through the page-table indirection
//! (`gather_kt` / `gather_v` produce, element for element, the gathers
//! solo `decode_step` makes from its flat [`crate::KvCache`]), so the
//! row-r ≡ solo-`decode_step` **bit-identity invariant** of
//! [`crate::batch`] holds — the `pdac-verify` rows
//! `decode.kv.paged_vs_decode_step.*` and
//! `decode.kv.shared_prefix_vs_unshared` pin it.
//!
//! Telemetry: gauges `serve.kv.pages` / `serve.kv.bytes` (live mapped
//! pages and bytes), counters `serve.kv.shared` (tokens mapped from the
//! prefix cache), `serve.kv.evicted` (pages freed by eviction) and
//! `serve.kv.over_budget` (pages allocated past the budget to keep an
//! in-flight decode step from failing). See DESIGN.md §15.

use std::collections::{HashMap, HashSet};

use crate::batch::DecodeScratch;
use crate::inference::TransformerModel;

/// Handle to one page in a [`PageAllocator`]'s slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(u32);

impl PageId {
    /// The slab index (stable for the allocator's lifetime).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Shape and budget knobs for a [`PagedKvCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagedConfig {
    /// Tokens per page (the block size). Smaller blocks waste less tail
    /// space and share shorter prefixes; larger blocks amortize
    /// page-table overhead.
    pub block_tokens: usize,
    /// Total byte budget for page backing memory (`None` = unbounded).
    /// The allocator never *grows* past it; see
    /// [`PageAllocator::try_alloc`] for the exact accounting.
    pub budget_bytes: Option<usize>,
}

impl Default for PagedConfig {
    fn default() -> Self {
        Self {
            block_tokens: 16,
            budget_bytes: None,
        }
    }
}

impl PagedConfig {
    /// A config with the given block size and no budget.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens == 0`.
    pub fn new(block_tokens: usize) -> Self {
        assert!(block_tokens > 0, "block_tokens must be nonzero");
        Self {
            block_tokens,
            budget_bytes: None,
        }
    }

    /// Caps page backing memory at `bytes`.
    pub fn with_budget_bytes(mut self, bytes: usize) -> Self {
        self.budget_bytes = Some(bytes);
        self
    }
}

/// One page: `block_tokens` K rows and V rows of one layer, plus a
/// refcount (number of page-table + prefix-cache mappings).
#[derive(Debug)]
struct Page {
    k: Vec<f64>,
    v: Vec<f64>,
    refs: u32,
}

/// Slab allocator for KV pages: free-list reuse, per-page refcounts and
/// a strict byte budget on backing growth.
///
/// Accounting: the budget bounds **backing memory** (`pages.len() ×
/// page_bytes`) — the slab never shrinks, so a freed page stays
/// reusable without counting as headroom twice. "Live" pages are the
/// mapped subset (`refs > 0`).
#[derive(Debug)]
pub struct PageAllocator {
    width: usize,
    block_tokens: usize,
    budget_bytes: Option<usize>,
    pages: Vec<Page>,
    free: Vec<PageId>,
}

impl PageAllocator {
    /// An empty allocator for rows of `width` values, `block_tokens`
    /// rows per page.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `block_tokens == 0`.
    pub fn new(width: usize, block_tokens: usize, budget_bytes: Option<usize>) -> Self {
        assert!(width > 0, "page width must be nonzero");
        assert!(block_tokens > 0, "block_tokens must be nonzero");
        Self {
            width,
            block_tokens,
            budget_bytes,
            pages: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Bytes of K + V payload per page.
    pub fn page_bytes(&self) -> usize {
        2 * self.block_tokens * self.width * std::mem::size_of::<f64>()
    }

    /// The configured budget, if any.
    pub fn budget_bytes(&self) -> Option<usize> {
        self.budget_bytes
    }

    /// Pages ever allocated (backing slab size).
    pub fn total_pages(&self) -> usize {
        self.pages.len()
    }

    /// Pages currently on the free list.
    pub fn free_pages(&self) -> usize {
        self.free.len()
    }

    /// Mapped (refcount > 0) pages.
    pub fn live_pages(&self) -> usize {
        self.pages.len() - self.free.len()
    }

    /// Bytes of mapped pages.
    pub fn live_bytes(&self) -> usize {
        self.live_pages() * self.page_bytes()
    }

    /// Bytes of backing memory (what the budget bounds).
    pub fn backing_bytes(&self) -> usize {
        self.pages.len() * self.page_bytes()
    }

    /// Snapshot of the free list (test/diagnostic aid).
    pub fn free_ids(&self) -> Vec<PageId> {
        self.free.clone()
    }

    /// Current refcount of `id`.
    pub fn refs(&self, id: PageId) -> u32 {
        self.pages[id.index()].refs
    }

    fn fresh_page(&self) -> Page {
        let n = self.block_tokens * self.width;
        Page {
            k: vec![0.0; n],
            v: vec![0.0; n],
            refs: 1,
        }
    }

    /// Allocates a page (refcount 1): reuses the free list first, grows
    /// the slab otherwise — unless growth would push
    /// [`Self::backing_bytes`] past the budget, in which case `None`.
    pub fn try_alloc(&mut self) -> Option<PageId> {
        if let Some(id) = self.free.pop() {
            let page = &mut self.pages[id.index()];
            debug_assert_eq!(page.refs, 0, "free page with live refs");
            page.refs = 1;
            return Some(id);
        }
        if let Some(budget) = self.budget_bytes {
            if (self.pages.len() + 1) * self.page_bytes() > budget {
                return None;
            }
        }
        Some(self.grow())
    }

    /// Allocates ignoring the budget (the in-flight-decode fallback:
    /// a step that already holds partial state must not fail mid-layer).
    pub fn alloc_unbounded(&mut self) -> PageId {
        if let Some(id) = self.free.pop() {
            self.pages[id.index()].refs = 1;
            return id;
        }
        self.grow()
    }

    fn grow(&mut self) -> PageId {
        let id = PageId(u32::try_from(self.pages.len()).expect("page slab fits in u32"));
        let page = self.fresh_page();
        self.pages.push(page);
        id
    }

    /// Adds one mapping to `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is on the free list (refcount 0).
    pub fn retain(&mut self, id: PageId) {
        let page = &mut self.pages[id.index()];
        assert!(page.refs > 0, "retain of free page {id:?}");
        page.refs += 1;
    }

    /// Drops one mapping from `id`; returns `true` when the page's
    /// refcount reached zero and it moved to the free list.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already free (double free).
    pub fn release(&mut self, id: PageId) -> bool {
        let page = &mut self.pages[id.index()];
        assert!(page.refs > 0, "release of free page {id:?}");
        page.refs -= 1;
        if page.refs == 0 {
            self.free.push(id);
            true
        } else {
            false
        }
    }

    /// K row `off` (0-based within the page).
    pub fn k_row(&self, id: PageId, off: usize) -> &[f64] {
        debug_assert!(off < self.block_tokens);
        let page = &self.pages[id.index()];
        &page.k[off * self.width..(off + 1) * self.width]
    }

    /// V row `off` (0-based within the page).
    pub fn v_row(&self, id: PageId, off: usize) -> &[f64] {
        debug_assert!(off < self.block_tokens);
        let page = &self.pages[id.index()];
        &page.v[off * self.width..(off + 1) * self.width]
    }

    fn set_row(&mut self, id: PageId, off: usize, k: &[f64], v: &[f64]) {
        debug_assert!(off < self.block_tokens);
        let w = self.width;
        let page = &mut self.pages[id.index()];
        page.k[off * w..(off + 1) * w].copy_from_slice(k);
        page.v[off * w..(off + 1) * w].copy_from_slice(v);
    }
}

/// One sequence's page table for one layer.
#[derive(Debug, Default, Clone)]
struct LayerPages {
    pages: Vec<PageId>,
    rows: usize,
}

/// One published block: its page in every layer, the key of the block
/// before it, how many published blocks continue it, and an LRU stamp.
#[derive(Debug)]
struct PrefixEntry {
    /// `pages[layer]`, one ref each.
    pages: Vec<PageId>,
    /// `None` for block 0.
    parent: Option<u64>,
    children: u32,
    stamp: u64,
}

/// Aggregate paging statistics (also mirrored onto `serve.kv.*`
/// telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvStats {
    /// Mapped pages right now.
    pub live_pages: usize,
    /// Bytes of mapped pages right now.
    pub live_bytes: usize,
    /// Tokens mapped from the prefix cache instead of recomputed.
    pub shared_tokens: u64,
    /// Prefix-cache lookups that hit.
    pub shared_hits: u64,
    /// Pages freed by LRU prefix eviction.
    pub evicted_pages: u64,
    /// Always 0: only full blocks are shared, and a full block is never
    /// written again, so no page is ever copied. Kept for the readers of
    /// this struct.
    pub cow_copies: u64,
    /// Pages allocated past the budget (in-flight decode fallback).
    pub over_budget_pages: u64,
    /// Published blocks currently indexed (one per block boundary).
    pub prefix_entries: usize,
}

/// A paged, prefix-shared, budget-capped KV cache for a fixed number of
/// sequence slots — the storage behind
/// [`TransformerModel::decode_batch`] /
/// [`TransformerModel::decode_batch_with`] and `pdac-serve::TokenServer`.
///
/// # Examples
///
/// ```
/// use pdac_math::Mat;
/// use pdac_nn::{ExactGemm, PagedConfig, PagedKvCache, TransformerConfig, TransformerModel};
///
/// let model = TransformerModel::random(TransformerConfig::tiny(), 4, 42);
/// let mut cache = PagedKvCache::new(&model, 2, PagedConfig::new(4));
/// let tokens = Mat::from_fn(2, model.config().hidden, |r, c| {
///     ((r * 31 + c) as f64).sin() * 0.1
/// });
/// let hidden = model.decode_batch(&tokens, &mut cache, &ExactGemm);
/// assert_eq!(hidden.shape(), (2, model.config().hidden));
/// assert_eq!(cache.seq_len(0), 1);
/// assert_eq!(cache.stats().live_pages, 2 * model.config().layers);
/// ```
#[derive(Debug)]
pub struct PagedKvCache {
    alloc: PageAllocator,
    layers: usize,
    width: usize,
    block_tokens: usize,
    /// `slots[slot][layer]` page tables.
    slots: Vec<Vec<LayerPages>>,
    /// Published blocks by chained hash: a tree rooted at block 0.
    prefix: HashMap<u64, PrefixEntry>,
    scratch: DecodeScratch,
    clock: u64,
    shared_tokens: u64,
    shared_hits: u64,
    evicted_pages: u64,
    over_budget_pages: u64,
}

impl PagedKvCache {
    /// A cache with `slots` empty sequences shaped for `model`.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` or the config's block size is zero.
    pub fn new(model: &TransformerModel, slots: usize, config: PagedConfig) -> Self {
        Self::with_dims(model.layers.len(), model.config().hidden, slots, config)
    }

    /// Model-free constructor (layer count + row width given directly);
    /// lets allocator tests drive the cache without building a model.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn with_dims(layers: usize, width: usize, slots: usize, config: PagedConfig) -> Self {
        assert!(layers > 0, "layers must be nonzero");
        assert!(slots > 0, "batch must be nonzero");
        assert!(config.block_tokens > 0, "block_tokens must be nonzero");
        Self {
            alloc: PageAllocator::new(width, config.block_tokens, config.budget_bytes),
            layers,
            width,
            block_tokens: config.block_tokens,
            slots: vec![vec![LayerPages::default(); layers]; slots],
            prefix: HashMap::new(),
            scratch: DecodeScratch::new(),
            clock: 0,
            shared_tokens: 0,
            shared_hits: 0,
            evicted_pages: 0,
            over_budget_pages: 0,
        }
    }

    /// Number of sequence slots.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Layer count the cache was shaped for.
    pub fn layer_count(&self) -> usize {
        self.layers
    }

    /// Tokens per page.
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Tokens currently cached for `slot`.
    pub fn seq_len(&self, slot: usize) -> usize {
        self.slots[slot][0].rows
    }

    /// The underlying allocator (budget / occupancy diagnostics).
    pub fn allocator(&self) -> &PageAllocator {
        &self.alloc
    }

    /// The shared decode scratch (for reuse diagnostics).
    pub fn scratch(&self) -> &DecodeScratch {
        &self.scratch
    }

    pub(crate) fn take_scratch(&mut self) -> DecodeScratch {
        std::mem::take(&mut self.scratch)
    }

    pub(crate) fn put_scratch(&mut self, scratch: DecodeScratch) {
        self.scratch = scratch;
    }

    /// Aggregate paging statistics.
    pub fn stats(&self) -> KvStats {
        KvStats {
            live_pages: self.alloc.live_pages(),
            live_bytes: self.alloc.live_bytes(),
            shared_tokens: self.shared_tokens,
            shared_hits: self.shared_hits,
            evicted_pages: self.evicted_pages,
            cow_copies: 0,
            over_budget_pages: self.over_budget_pages,
            prefix_entries: self.prefix.len(),
        }
    }

    /// Every page id mapped by `slot` (all layers, table order).
    pub fn slot_page_ids(&self, slot: usize) -> Vec<PageId> {
        self.slots[slot]
            .iter()
            .flat_map(|lp| lp.pages.iter().copied())
            .collect()
    }

    /// Every page mapping held by slots and prefix entries, **with
    /// multiplicity** — its multiset must equal the per-page refcounts
    /// (the invariant the allocator battery checks).
    pub fn mapped_page_ids(&self) -> Vec<PageId> {
        let mut ids: Vec<PageId> = (0..self.slots.len())
            .flat_map(|s| self.slot_page_ids(s))
            .collect();
        ids.extend(self.prefix.values().flat_map(|e| e.pages.iter().copied()));
        ids
    }

    fn publish_gauges(&self) {
        pdac_telemetry::gauge_set("serve.kv.pages", self.alloc.live_pages() as f64);
        pdac_telemetry::gauge_set("serve.kv.bytes", self.alloc.live_bytes() as f64);
    }

    /// Allocates a page: budget-respecting first, then LRU prefix
    /// eviction, then (counted) over-budget growth — an in-flight decode
    /// step must never fail mid-layer.
    fn alloc_page(&mut self) -> PageId {
        loop {
            if let Some(id) = self.alloc.try_alloc() {
                self.publish_gauges();
                return id;
            }
            if !self.evict_lru_prefix() {
                break;
            }
        }
        self.over_budget_pages += 1;
        pdac_telemetry::counter_add("serve.kv.over_budget", 1);
        let id = self.alloc.alloc_unbounded();
        self.publish_gauges();
        id
    }

    /// Evicts the least-recently-used prefix entry **that reclaims at
    /// least one page**; returns `false` when no entry would. Only a
    /// leaf (no published block continues it) whose page some layer no
    /// slot maps qualifies: dropping any other entry frees nothing and
    /// only destroys future sharing. Reclaimed pages return to the free
    /// list and count as `serve.kv.evicted`.
    fn evict_lru_prefix(&mut self) -> bool {
        let victim = self
            .prefix
            .iter()
            .filter(|(_, e)| e.children == 0 && e.pages.iter().any(|&id| self.alloc.refs(id) == 1))
            .min_by_key(|(_, e)| e.stamp)
            .map(|(&hash, _)| hash);
        let Some(hash) = victim else {
            return false;
        };
        let entry = self.prefix.remove(&hash).expect("victim exists");
        if let Some(parent) = entry.parent {
            self.prefix
                .get_mut(&parent)
                .expect("parent outlives its children")
                .children -= 1;
        }
        let mut freed = 0u64;
        for id in entry.pages {
            freed += u64::from(self.alloc.release(id));
        }
        self.evicted_pages += freed;
        pdac_telemetry::counter_add("serve.kv.evicted", freed);
        self.publish_gauges();
        true
    }

    /// Appends one K/V row for `slot` at `layer`.
    ///
    /// # Panics
    ///
    /// Panics if the row widths differ from the cache's, or if the tail
    /// page is shared — which cannot happen, since only full blocks are
    /// ever shared.
    pub fn push_row(&mut self, slot: usize, layer: usize, k: &[f64], v: &[f64]) {
        assert_eq!(k.len(), self.width, "k row width mismatch");
        assert_eq!(v.len(), self.width, "v row width mismatch");
        let off = self.slots[slot][layer].rows % self.block_tokens;
        if off == 0 {
            let id = self.alloc_page();
            self.slots[slot][layer].pages.push(id);
        }
        let tail = *self.slots[slot][layer].pages.last().expect("tail page");
        assert_eq!(self.alloc.refs(tail), 1, "push into shared page {tail:?}");
        self.alloc.set_row(tail, off, k, v);
        self.slots[slot][layer].rows += 1;
    }

    /// K row of token `t` for `slot` at `layer`.
    pub fn k_row(&self, slot: usize, layer: usize, t: usize) -> &[f64] {
        let lp = &self.slots[slot][layer];
        assert!(t < lp.rows, "token {t} beyond cached rows {}", lp.rows);
        self.alloc
            .k_row(lp.pages[t / self.block_tokens], t % self.block_tokens)
    }

    /// V row of token `t` for `slot` at `layer`.
    pub fn v_row(&self, slot: usize, layer: usize, t: usize) -> &[f64] {
        let lp = &self.slots[slot][layer];
        assert!(t < lp.rows, "token {t} beyond cached rows {}", lp.rows);
        self.alloc
            .v_row(lp.pages[t / self.block_tokens], t % self.block_tokens)
    }

    /// Transposed K gather for the grouped attention kernel: writes
    /// `out[r * l + t] = K[t][c0 + r]` for every cached token `t` and
    /// head column `r < dh` — element-for-element the solo
    /// `decode_step` gather, just through the page table.
    pub(crate) fn gather_kt(
        &self,
        slot: usize,
        layer: usize,
        c0: usize,
        dh: usize,
        l: usize,
        out: &mut [f64],
    ) {
        let lp = &self.slots[slot][layer];
        debug_assert_eq!(lp.rows, l, "gather length mismatch");
        debug_assert_eq!(out.len(), dh * l);
        let w = self.width;
        for (bi, &pid) in lp.pages.iter().enumerate() {
            let t0 = bi * self.block_tokens;
            let rows_here = (lp.rows - t0).min(self.block_tokens);
            let page = &self.alloc.pages[pid.index()];
            for i in 0..rows_here {
                let t = t0 + i;
                let key = &page.k[i * w + c0..i * w + c0 + dh];
                for (r, &kv) in key.iter().enumerate() {
                    out[r * l + t] = kv;
                }
            }
        }
    }

    /// V gather for the grouped attention kernel: writes
    /// `out[t * dh..(t + 1) * dh] = V[t][c0..c0 + dh]` for every cached
    /// token `t`.
    pub(crate) fn gather_v(
        &self,
        slot: usize,
        layer: usize,
        c0: usize,
        dh: usize,
        out: &mut [f64],
    ) {
        let lp = &self.slots[slot][layer];
        debug_assert_eq!(out.len(), lp.rows * dh);
        let w = self.width;
        for (bi, &pid) in lp.pages.iter().enumerate() {
            let t0 = bi * self.block_tokens;
            let rows_here = (lp.rows - t0).min(self.block_tokens);
            let page = &self.alloc.pages[pid.index()];
            for i in 0..rows_here {
                let t = t0 + i;
                out[t * dh..(t + 1) * dh].copy_from_slice(&page.v[i * w + c0..i * w + c0 + dh]);
            }
        }
    }

    /// Releases every page mapped by `slot` and empties its tables
    /// (retirement). Pages shared with other slots or published
    /// prefixes survive with their remaining refcounts.
    pub fn reset_slot(&mut self, slot: usize) {
        for layer in 0..self.layers {
            let pages = std::mem::take(&mut self.slots[slot][layer].pages);
            for id in pages {
                self.alloc.release(id);
            }
            self.slots[slot][layer].rows = 0;
        }
        self.publish_gauges();
    }

    /// The published blocks `hashes` opens with: its entries from block 0
    /// up to the first block not in the index.
    fn chain<'a>(&'a self, hashes: &'a [u64]) -> impl Iterator<Item = &'a PrefixEntry> {
        let mut parent = None;
        hashes.iter().map_while(move |hash| {
            let entry = self.prefix.get(hash).filter(|e| e.parent == parent)?;
            parent = Some(*hash);
            Some(entry)
        })
    }

    /// Deepest shareable prefix (in tokens) for `hashes` without
    /// mapping anything — the budget-aware admission probe.
    pub fn probe_prefix(&self, hashes: &[u64]) -> usize {
        self.chain(hashes).count() * self.block_tokens
    }

    /// Maps the deepest published prefix matching `hashes` into the
    /// empty `slot` (sharing the physical pages) and returns the number
    /// of tokens now cached — the caller skips recomputing them.
    /// `hashes[i]` must be the chained hash of the first
    /// `(i + 1) * block_tokens` tokens ([`prefix_block_hashes`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not empty.
    pub fn lookup_prefix(&mut self, slot: usize, hashes: &[u64]) -> usize {
        assert_eq!(self.seq_len(slot), 0, "prefix lookup into non-empty slot");
        let blocks = self.chain(hashes).count();
        if blocks == 0 {
            return 0;
        }
        self.clock += 1;
        self.prefix
            .get_mut(&hashes[blocks - 1])
            .expect("hit entry")
            .stamp = self.clock;
        for hash in &hashes[..blocks] {
            for (layer, &id) in self.prefix[hash].pages.iter().enumerate() {
                self.alloc.retain(id);
                self.slots[slot][layer].pages.push(id);
            }
        }
        let tokens = blocks * self.block_tokens;
        for lp in &mut self.slots[slot] {
            lp.rows = tokens;
        }
        self.shared_tokens += tokens as u64;
        self.shared_hits += 1;
        pdac_telemetry::counter_add("serve.kv.shared", tokens as u64);
        self.publish_gauges();
        tokens
    }

    /// Publishes every full block of `slot` under `hashes` (chained, one
    /// per block boundary — [`prefix_block_hashes`]), one entry per
    /// block: later [`Self::lookup_prefix`] calls with an equal prefix
    /// share the physical pages instead of recomputing. Boundaries
    /// beyond the slot's cached rows are ignored; already-published
    /// hashes just refresh their LRU stamp and keep their pages.
    /// Published pages are full blocks, which [`Self::push_row`] never
    /// writes again — so sharing is safe without copies.
    pub fn publish_prefix(&mut self, slot: usize, hashes: &[u64]) {
        let blocks = hashes.len().min(self.seq_len(slot) / self.block_tokens);
        for (i, &hash) in hashes[..blocks].iter().enumerate() {
            self.clock += 1;
            if let Some(entry) = self.prefix.get_mut(&hash) {
                entry.stamp = self.clock;
                continue;
            }
            let parent = i.checked_sub(1).map(|p| hashes[p]);
            if let Some(p) = parent {
                self.prefix
                    .get_mut(&p)
                    .expect("parent published first")
                    .children += 1;
            }
            let pages: Vec<PageId> = self.slots[slot].iter().map(|lp| lp.pages[i]).collect();
            for &id in &pages {
                self.alloc.retain(id);
            }
            self.prefix.insert(
                hash,
                PrefixEntry {
                    pages,
                    parent,
                    children: 0,
                    stamp: self.clock,
                },
            );
        }
        self.publish_gauges();
    }

    /// Pages that repeated LRU eviction could reclaim now: the
    /// index-only pages (refcount 1) of every entry that no slot maps
    /// and that sits above no entry a slot maps.
    pub fn evictable_pages(&self) -> usize {
        self.reclaimable_pages(&[])
    }

    /// Pages that repeated LRU eviction could reclaim while the
    /// published blocks `keep` opens with stay mapped. Eviction takes
    /// only a leaf with a page no slot maps, so an entry whose pages
    /// slots map can never go, and neither can any entry above it;
    /// every other entry's index-only pages count.
    fn reclaimable_pages(&self, keep: &[u64]) -> usize {
        let mut held: HashSet<u64> = keep.iter().zip(self.chain(keep)).map(|(&h, _)| h).collect();
        for (&hash, entry) in &self.prefix {
            if entry.pages.iter().any(|&id| self.alloc.refs(id) == 1) {
                continue;
            }
            let mut at = Some(hash);
            while let Some(h) = at {
                if !held.insert(h) {
                    break; // every entry above a held one is held already
                }
                at = self.prefix[&h].parent;
            }
        }
        self.prefix
            .iter()
            .filter(|(hash, _)| !held.contains(hash))
            .flat_map(|(_, e)| &e.pages)
            .filter(|&&id| self.alloc.refs(id) == 1)
            .count()
    }

    /// Whether a request can map the published prefix of its block
    /// `hashes` and then cache `new_tokens` freshly computed tokens
    /// (worst case: no further block reuse) without over-budget growth,
    /// counting free pages, remaining budget headroom and the pages
    /// eviction could reclaim with that prefix mapped. Always `true`
    /// without a budget.
    pub fn can_fit(&self, hashes: &[u64], new_tokens: usize) -> bool {
        let Some(budget) = self.alloc.budget_bytes() else {
            return true;
        };
        let needed = self.layers * new_tokens.div_ceil(self.block_tokens);
        let headroom = (budget / self.alloc.page_bytes()).saturating_sub(self.alloc.total_pages());
        needed <= self.alloc.free_pages() + headroom + self.reclaimable_pages(hashes)
    }
}

/// Chained block-boundary hashes of a token-embedding prefix: entry `i`
/// hashes the first `(i + 1) * block_tokens` embeddings' `f64` bit
/// patterns (FNV-1a, chained so each boundary commits to everything
/// before it). Two prompts produce equal entry `i` exactly when their
/// first `(i + 1) * block_tokens` embeddings are bit-identical — the
/// keys [`PagedKvCache::publish_prefix`] / `lookup_prefix` consume.
pub fn prefix_block_hashes<'a, I>(tokens: I, block_tokens: usize) -> Vec<u64>
where
    I: IntoIterator<Item = &'a [f64]>,
{
    assert!(block_tokens > 0, "block_tokens must be nonzero");
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut hashes = Vec::new();
    for (i, token) in tokens.into_iter().enumerate() {
        for &value in token {
            for byte in value.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        if (i + 1) % block_tokens == 0 {
            hashes.push(h);
        }
    }
    hashes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(width: usize, seed: u64) -> Vec<f64> {
        let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(seed);
        (0..width).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect()
    }

    #[test]
    fn allocator_reuses_freed_pages() {
        let mut a = PageAllocator::new(4, 2, None);
        let p0 = a.try_alloc().unwrap();
        let p1 = a.try_alloc().unwrap();
        assert_eq!(a.live_pages(), 2);
        assert!(a.release(p0));
        assert_eq!(a.free_pages(), 1);
        let p2 = a.try_alloc().unwrap();
        assert_eq!(p2, p0, "free list reused before slab growth");
        assert_eq!(a.total_pages(), 2);
        assert!(a.release(p1));
        assert!(a.release(p2));
        assert_eq!(a.live_pages(), 0);
    }

    #[test]
    fn allocator_budget_blocks_growth_but_not_reuse() {
        let mut a = PageAllocator::new(4, 2, Some(2 * 2 * 2 * 4 * 8));
        let p0 = a.try_alloc().unwrap();
        let _p1 = a.try_alloc().unwrap();
        assert!(a.try_alloc().is_none(), "third page would exceed budget");
        assert!(a.backing_bytes() <= a.budget_bytes().unwrap());
        a.release(p0);
        assert!(a.try_alloc().is_some(), "freed page reusable at budget");
        let over = a.alloc_unbounded();
        assert!(a.backing_bytes() > a.budget_bytes().unwrap());
        assert_eq!(a.refs(over), 1);
    }

    #[test]
    #[should_panic(expected = "release of free page")]
    fn allocator_double_free_panics() {
        let mut a = PageAllocator::new(2, 2, None);
        let p = a.try_alloc().unwrap();
        a.release(p);
        a.release(p);
    }

    #[test]
    #[should_panic(expected = "retain of free page")]
    fn allocator_retain_of_free_page_panics() {
        let mut a = PageAllocator::new(2, 2, None);
        let p = a.try_alloc().unwrap();
        a.release(p);
        a.retain(p);
    }

    #[test]
    fn push_and_read_round_trip_across_pages() {
        let mut c = PagedKvCache::with_dims(2, 4, 1, PagedConfig::new(2));
        let mut rows = Vec::new();
        for t in 0..5 {
            let (k, v) = (row(4, 2 * t), row(4, 2 * t + 1));
            for layer in 0..2 {
                c.push_row(0, layer, &k, &v);
            }
            rows.push((k, v));
        }
        assert_eq!(c.seq_len(0), 5);
        // 5 rows at block 2 → 3 pages per layer.
        assert_eq!(c.stats().live_pages, 6);
        for (t, (k, v)) in rows.iter().enumerate() {
            for layer in 0..2 {
                assert_eq!(c.k_row(0, layer, t), &k[..]);
                assert_eq!(c.v_row(0, layer, t), &v[..]);
            }
        }
        c.reset_slot(0);
        assert_eq!(c.stats().live_pages, 0);
        assert_eq!(c.allocator().free_pages(), 6);
    }

    #[test]
    #[should_panic(expected = "push into shared page")]
    fn push_into_a_shared_tail_panics() {
        let mut c = PagedKvCache::with_dims(1, 4, 1, PagedConfig::new(2));
        c.push_row(0, 0, &row(4, 1), &row(4, 2));
        // Only full blocks are ever shared; a second ref on a partial
        // tail is a broken invariant, not a copy-on-write trigger.
        let tail = c.slot_page_ids(0)[0];
        c.alloc.retain(tail);
        c.push_row(0, 0, &row(4, 3), &row(4, 4));
    }

    #[test]
    fn a_block_computed_twice_is_published_once() {
        // Two slots compute the same first block side by side. The first
        // publisher's page is the entry; the second publishes only its
        // new block, chained to it, and its own copy of block 0 is freed
        // when it retires.
        let mut c = PagedKvCache::with_dims(1, 4, 3, PagedConfig::new(2));
        let prompt: Vec<Vec<f64>> = (0..4).map(|t| row(4, 50 + t)).collect();
        let hashes = prefix_block_hashes(prompt.iter().map(Vec::as_slice), 2);
        for tok in &prompt[..2] {
            c.push_row(0, 0, tok, tok);
        }
        for tok in &prompt {
            c.push_row(1, 0, tok, tok);
        }
        c.publish_prefix(0, &hashes);
        c.publish_prefix(1, &hashes);
        assert_eq!(c.stats().prefix_entries, 2);
        let (first, second) = (c.slot_page_ids(0), c.slot_page_ids(1));
        c.reset_slot(0);
        c.reset_slot(1);
        assert_eq!(c.stats().live_pages, 2, "one page per published block");
        assert_eq!(c.lookup_prefix(2, &hashes), 4);
        assert_eq!(c.slot_page_ids(2), vec![first[0], second[1]]);
        for (t, tok) in prompt.iter().enumerate() {
            assert_eq!(c.k_row(2, 0, t), &tok[..], "token {t}");
        }
    }

    #[test]
    fn publish_lookup_shares_and_eviction_reclaims() {
        let mut c = PagedKvCache::with_dims(1, 4, 2, PagedConfig::new(2));
        let prompt: Vec<Vec<f64>> = (0..4).map(|t| row(4, 40 + t)).collect();
        let hashes = prefix_block_hashes(prompt.iter().map(Vec::as_slice), 2);
        assert_eq!(hashes.len(), 2);
        for tok in &prompt {
            c.push_row(0, 0, tok, tok);
        }
        c.publish_prefix(0, &hashes);
        assert_eq!(c.stats().prefix_entries, 2);
        assert_eq!(c.probe_prefix(&hashes), 4);
        let shared = c.lookup_prefix(1, &hashes);
        assert_eq!(shared, 4);
        assert_eq!(c.seq_len(1), 4);
        assert_eq!(c.slot_page_ids(1), c.slot_page_ids(0));
        assert_eq!(c.stats().shared_tokens, 4);
        // Retire both slots: pages survive via the prefix entries.
        c.reset_slot(0);
        c.reset_slot(1);
        assert_eq!(c.stats().live_pages, 2);
        assert_eq!(c.evictable_pages(), 2);
        // Evict both entries: all pages return to the free list.
        assert!(c.evict_lru_prefix());
        assert!(c.evict_lru_prefix());
        assert!(!c.evict_lru_prefix());
        assert_eq!(c.stats().live_pages, 0);
        assert!(c.stats().evicted_pages >= 2);
    }

    #[test]
    fn lookup_prefers_deepest_boundary() {
        let mut c = PagedKvCache::with_dims(1, 2, 2, PagedConfig::new(1));
        let prompt: Vec<Vec<f64>> = (0..3).map(|t| row(2, 70 + t)).collect();
        let hashes = prefix_block_hashes(prompt.iter().map(Vec::as_slice), 1);
        for tok in &prompt {
            c.push_row(0, 0, tok, tok);
        }
        c.publish_prefix(0, &hashes);
        // Capping the hash list caps the share depth (the serving layer
        // uses this to keep the last prompt token computed).
        assert_eq!(c.lookup_prefix(1, &hashes[..2]), 2);
        c.reset_slot(1);
        assert_eq!(c.lookup_prefix(1, &hashes), 3);
    }

    #[test]
    fn prefix_hashes_chain_and_align() {
        let toks: Vec<Vec<f64>> = (0..5).map(|t| row(3, t)).collect();
        let h2 = prefix_block_hashes(toks.iter().map(Vec::as_slice), 2);
        assert_eq!(h2.len(), 2, "5 tokens at block 2 → boundaries 2 and 4");
        // Same prefix → same boundary hash; diverging later token
        // leaves earlier boundaries untouched.
        let mut other = toks.clone();
        other[3][0] += 1.0;
        let g2 = prefix_block_hashes(other.iter().map(Vec::as_slice), 2);
        assert_eq!(h2[0], g2[0]);
        assert_ne!(h2[1], g2[1]);
    }

    #[test]
    fn can_fit_counts_free_headroom_and_evictable() {
        let page_bytes = 2 * 2 * 4 * 8; // block 2, width 4
        let mut c = PagedKvCache::with_dims(
            1,
            4,
            2,
            PagedConfig::new(2).with_budget_bytes(3 * page_bytes),
        );
        assert!(c.can_fit(&[], 6), "empty cache: 3 pages of headroom");
        assert!(!c.can_fit(&[], 7), "4 pages exceed the 3-page budget");
        let prompt: Vec<Vec<f64>> = (0..4).map(|t| row(4, t)).collect();
        let hashes = prefix_block_hashes(prompt.iter().map(Vec::as_slice), 2);
        for tok in &prompt {
            c.push_row(0, 0, tok, tok);
        }
        c.publish_prefix(0, &hashes);
        assert!(!c.can_fit(&[], 6), "live slot pins its pages");
        c.reset_slot(0);
        assert!(c.can_fit(&[], 6), "prefix-only pages count as evictable");
    }

    #[test]
    fn can_fit_leaves_out_the_prefix_the_request_maps() {
        let page_bytes = 2 * 2 * 2 * 8; // block 2, width 2
        let mut c = PagedKvCache::with_dims(
            1,
            2,
            3,
            PagedConfig::new(2).with_budget_bytes(4 * page_bytes),
        );
        let prompt: Vec<Vec<f64>> = (0..4).map(|t| row(2, 80 + t)).collect();
        let hashes = prefix_block_hashes(prompt.iter().map(Vec::as_slice), 2);
        for tok in &prompt {
            c.push_row(0, 0, tok, tok);
        }
        c.publish_prefix(0, &hashes);
        c.reset_slot(0);
        c.push_row(1, 0, &row(2, 90), &row(2, 91));
        // One page of headroom; the two index pages are reclaimable only
        // by a request that does not map them.
        assert!(c.can_fit(&[], 4));
        assert!(c.can_fit(&hashes, 2));
        assert!(
            !c.can_fit(&hashes, 4),
            "the mapped prefix counted as evictable"
        );
        // Admitted anyway, the request's second page is over budget.
        assert_eq!(c.lookup_prefix(2, &hashes), 4);
        for t in 0..4 {
            c.push_row(2, 0, &row(2, 100 + t), &row(2, 110 + t));
        }
        assert_eq!(c.stats().over_budget_pages, 1);
    }

    #[test]
    fn can_fit_counts_no_entry_a_mapped_child_holds() {
        let page_bytes = 2 * 2 * 2 * 8; // block 2, width 2
        let mut c = PagedKvCache::with_dims(
            1,
            2,
            3,
            PagedConfig::new(2).with_budget_bytes(3 * page_bytes),
        );
        let prompt: Vec<Vec<f64>> = (0..4).map(|t| row(2, 60 + t)).collect();
        let hashes = prefix_block_hashes(prompt.iter().map(Vec::as_slice), 2);
        // Slots 0 and 1 compute block 0 side by side; slot 1 also
        // computes block 1, publishes it under slot 0's entry and stays.
        for tok in &prompt[..2] {
            c.push_row(0, 0, tok, tok);
        }
        for tok in &prompt {
            c.push_row(1, 0, tok, tok);
        }
        c.publish_prefix(0, &hashes);
        c.publish_prefix(1, &hashes);
        c.reset_slot(0);
        // Block 0's page is index-only, but slot 1 maps its child, so
        // eviction can take neither entry.
        assert_eq!(c.evictable_pages(), 0);
        assert!(!c.can_fit(&[], 2), "a parent of a mapped entry counted");
        c.push_row(2, 0, &row(2, 70), &row(2, 71));
        assert_eq!(c.stats().over_budget_pages, 1);
        c.reset_slot(1);
        assert_eq!(
            c.evictable_pages(),
            2,
            "both entries free once slot 1 retires"
        );
    }
}
