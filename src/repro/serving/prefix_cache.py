"""Radix-tree prefix cache over packed KV storage.

Production traffic is not i.i.d.: shared system prompts and multi-turn
conversations mean most prompts repeat a long token prefix the fleet has
already prefilled.  Because KV entries for position ``p`` depend only on
tokens ``0..p``, that prefix's keys and values can be reused verbatim —
the insight behind SGLang's RadixAttention, applied here to the repo's
packed-pool substrate.

The cache is a radix tree at *block* granularity: each node owns exactly
``block_tokens`` token ids (its edge label) and, in KV mode, one slot of
an internal :class:`~repro.models.packed_kv.PackedKVPool` holding the
corresponding K/V entries for every layer.  Sharing is copy-on-write in
spirit: cached blocks are read-only; a request that matches a prefix
gets the entries *copied* into its own working slot, so running requests
never alias cache storage and an eviction can never corrupt a batch.

Safety against eviction-under-use comes from two refcount layers:

node refcounts
    :meth:`RadixPrefixCache.match` takes a reference on every matched
    node; :meth:`RadixPrefixCache.release` drops them when the request
    finishes (or is preempted / failed over).  :meth:`evict` only frees
    leaf nodes at refcount zero — a cached block is never evicted out
    from under a live request.
pool refcounts
    In KV mode each node's storage slot mirrors the node refcount via
    :meth:`PackedKVPool.retain` / ``release``, so even the backing slot
    cannot be recycled while any reference is outstanding.

Capacity is bounded by ``capacity_blocks`` and, optionally, by a shared
:class:`~repro.serving.kv_pool.PagedKVPool`: when ``paged_pool`` is
given, every cached node leases one block from it under a private
negative owner id, so cache occupancy is visible in pool utilization and
competes with running requests for HBM — the scheduler can then reclaim
cache blocks (LRU) *before* resorting to preemption.

Two modes serve the repo's two execution tracks:

KV mode (``store_kv=True``)
    Used by :class:`~repro.serving.ServingEngine`: real K/V entries are
    captured from a finished prefill's slot and copied back into future
    requests' slots, so matched tokens genuinely skip the forward pass
    while outputs stay bit-identical.
timing mode (``store_kv=False``)
    Used by the cluster's timing-level replicas: the tree tracks token
    structure and refcounts only, and a match simply discounts the
    billed prefill time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..models.packed_kv import PackedKVPool

__all__ = ["CacheStats", "PrefixMatch", "RadixPrefixCache"]


@dataclass
class CacheStats:
    """Cumulative cache counters (all token counts, not bytes)."""

    lookups: int = 0
    hits: int = 0            # lookups matching at least one block
    hit_tokens: int = 0      # prefill tokens skipped across all hits
    lookup_tokens: int = 0   # prompt tokens presented across all lookups
    inserted_blocks: int = 0
    evictions: int = 0       # evict() calls that freed at least a block
    evicted_blocks: int = 0
    bypassed: int = 0        # admissions skipped by degraded service mode

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that matched at least one block."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def token_hit_rate(self) -> float:
        """Fraction of presented prompt tokens served from cache."""
        return self.hit_tokens / self.lookup_tokens \
            if self.lookup_tokens else 0.0

    def merged(self, other: "CacheStats") -> "CacheStats":
        """Combine counters from another cache (cluster aggregation)."""
        return CacheStats(
            lookups=self.lookups + other.lookups,
            hits=self.hits + other.hits,
            hit_tokens=self.hit_tokens + other.hit_tokens,
            lookup_tokens=self.lookup_tokens + other.lookup_tokens,
            inserted_blocks=self.inserted_blocks + other.inserted_blocks,
            evictions=self.evictions + other.evictions,
            evicted_blocks=self.evicted_blocks + other.evicted_blocks,
            bypassed=self.bypassed + other.bypassed)


class _RadixNode:
    """One cached block: an edge of ``block_tokens`` ids plus storage."""

    __slots__ = ("key", "parent", "children", "depth", "slot", "owner",
                 "refcount", "stamp")

    def __init__(self, key: tuple, parent: "_RadixNode | None",
                 depth: int, slot: int | None, owner: int | None,
                 stamp: int):
        self.key = key
        self.parent = parent
        self.children: dict[tuple, _RadixNode] = {}
        self.depth = depth          # blocks from the root (root = 0)
        self.slot = slot            # internal store slot (KV mode)
        self.owner = owner          # paged-pool lease owner id
        self.refcount = 0           # outstanding PrefixMatch references
        self.stamp = stamp          # LRU clock of the last touch


@dataclass(frozen=True)
class PrefixMatch:
    """A leased prefix match: hold while the request runs, then release.

    ``tokens`` is how many prompt tokens the cache can supply; it is
    always capped below the prompt length so at least one token remains
    to forward (the first output token needs fresh logits).
    """

    tokens: int = 0
    path: tuple = field(default_factory=tuple)  # matched nodes, root-first

    @property
    def hit(self) -> bool:
        return self.tokens > 0


class RadixPrefixCache:
    """Block-granular radix tree of reusable prompt prefixes.

    Parameters
    ----------
    block_tokens:
        Tokens per cached block; must equal the serving ``block_size``
        so cache leases and request leases use the same currency.
    capacity_blocks:
        Hard bound on resident cached blocks; LRU eviction of
        unreferenced leaves keeps the tree within it.
    num_layers, num_kv_heads, head_dim, dtype:
        KV geometry for the internal store (KV mode only).
    store_kv:
        ``True`` stores real K/V entries (engine); ``False`` tracks
        structure only (timing-level cluster replicas).
    paged_pool:
        Optional shared block allocator to charge cache residency to.
    """

    def __init__(self, block_tokens: int, capacity_blocks: int, *,
                 num_layers: int = 0, num_kv_heads: int = 0,
                 head_dim: int = 0, dtype=np.float64,
                 store_kv: bool = True, paged_pool=None):
        if block_tokens < 1:
            raise ValueError(f"block_tokens must be >= 1: {block_tokens}")
        if capacity_blocks < 1:
            raise ValueError(
                f"capacity_blocks must be >= 1: {capacity_blocks}")
        self.block_tokens = block_tokens
        self.capacity_blocks = capacity_blocks
        self.store: PackedKVPool | None = None
        if store_kv:
            self.store = PackedKVPool(
                num_layers, num_kv_heads, head_dim,
                num_slots=capacity_blocks, max_len=block_tokens,
                block_tokens=block_tokens, dtype=dtype)
        self.paged_pool = paged_pool
        self._root = _RadixNode((), None, 0, None, None, 0)
        self._resident = 0                 # nodes under the root
        self._clock = itertools.count(1)   # LRU stamps
        self._owners = itertools.count(1)  # paged-pool lease ids
        self.stats = CacheStats()

    # -- introspection ---------------------------------------------------
    def _nodes(self) -> list[_RadixNode]:
        out: list[_RadixNode] = []
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children.values())
        return out

    @property
    def num_blocks(self) -> int:
        """Cached blocks currently resident."""
        return self._resident

    @property
    def referenced_blocks(self) -> int:
        """Resident blocks pinned by at least one live match."""
        return sum(1 for n in self._nodes() if n.refcount > 0)

    # -- lookup ----------------------------------------------------------
    def peek(self, prompt) -> int:
        """Length of the longest cached block-prefix, with no side effects.

        A pure read for cache-aware routing: the router probes *every*
        candidate replica's cache before picking one, so unlike
        :meth:`match` this takes no references, moves no LRU stamps,
        and records no stats — probing must not perturb the caches it
        compares.  The returned length is capped the same way
        :meth:`match` caps it (at least one token is always left to
        forward).
        """
        tokens = np.asarray(prompt, dtype=np.int64).ravel()
        block = self.block_tokens
        node = self._root
        pos = 0
        while pos + block <= tokens.size:
            child = node.children.get(
                tuple(tokens[pos:pos + block].tolist()))
            if child is None:
                break
            node = child
            pos += block
        return max(0, min(pos, int(tokens.size) - 1))

    def match(self, prompt) -> PrefixMatch:
        """Find the longest cached block-prefix of ``prompt``.

        Takes one reference on every node along the matched path (and on
        its storage slot in KV mode); the caller must :meth:`release`
        the returned match exactly once when the request leaves the
        running set.  The match length is capped at ``len(prompt) - 1``
        so the suffix forward always produces first-token logits.
        """
        tokens = np.asarray(prompt, dtype=np.int64).ravel()
        self.stats.lookups += 1
        self.stats.lookup_tokens += int(tokens.size)
        block = self.block_tokens
        node = self._root
        path: list[_RadixNode] = []
        pos = 0
        while pos + block <= tokens.size:
            child = node.children.get(tuple(tokens[pos:pos + block].tolist()))
            if child is None:
                break
            path.append(child)
            node = child
            pos += block
        # Drop trailing blocks until at least one prompt token remains
        # to forward (a full-prompt match would emit no fresh logits).
        while path and pos >= tokens.size:
            path.pop()
            pos -= block
        matched = min(pos, int(tokens.size) - 1)
        if matched <= 0 or not path:
            return PrefixMatch(0, ())
        stamp = next(self._clock)
        for n in path:
            n.refcount += 1
            n.stamp = stamp
            if self.store is not None:
                self.store.retain(n.slot)
        self.stats.hits += 1
        self.stats.hit_tokens += matched
        return PrefixMatch(matched, tuple(path))

    def release(self, match: PrefixMatch) -> None:
        """Drop the references a :meth:`match` took."""
        for node in match.path:
            if node.refcount < 1:
                raise ValueError("prefix match released more than once")
            node.refcount -= 1
            if self.store is not None:
                self.store.release(node.slot)

    def copy_into(self, match: PrefixMatch, pool: PackedKVPool,
                  slot: int) -> None:
        """Seed a request's working slot with the matched prefix KV.

        KV mode only (timing mode has nothing to copy).  After this the
        slot holds ``match.tokens`` positions in every layer, and the
        engine only forwards the prompt suffix.
        """
        if self.store is None or not match.hit:
            return
        remaining = match.tokens
        pos = 0
        for node in match.path:
            take = min(self.block_tokens, remaining)
            k_parts, v_parts = self.store.export_span(node.slot, 0, take)
            pool.import_span(slot, pos, k_parts, v_parts)
            pos += take
            remaining -= take
            if remaining <= 0:
                break

    # -- insertion -------------------------------------------------------
    def insert(self, prompt, source: PackedKVPool | None = None,
               slot: int | None = None) -> int:
        """Cache the full blocks of ``prompt`` after its prefill finished.

        Walks the tree, creating nodes for blocks not yet present; in KV
        mode each new node's entries are copied out of the request's
        ``(source, slot)``.  Capacity pressure is resolved by evicting
        unreferenced LRU leaves — never by touching referenced nodes and
        never by preempting a request; if nothing is evictable the
        insert simply stops early.  Returns the number of new blocks.
        """
        tokens = np.asarray(prompt, dtype=np.int64).ravel()
        block = self.block_tokens
        node = self._root
        pos = 0
        created = 0
        # The walked chain is the new block's ancestry: eviction making
        # room for a child must never free one of its own ancestors, or
        # the chain would be orphaned mid-insert (and its storage slots
        # leaked).
        path: list[_RadixNode] = []
        while pos + block <= tokens.size:
            key = tuple(tokens[pos:pos + block].tolist())
            child = node.children.get(key)
            if child is None:
                child = self._make_node(
                    node, key, tokens, pos, source, slot,
                    protect=frozenset(id(n) for n in path))
                if child is None:
                    break  # capacity exhausted by referenced blocks
                created += 1
            child.stamp = next(self._clock)
            path.append(child)
            node = child
            pos += block
        self.stats.inserted_blocks += created
        return created

    def _make_node(self, parent: _RadixNode, key: tuple, tokens,
                   pos: int, source, slot,
                   protect: frozenset = frozenset()
                   ) -> _RadixNode | None:
        """Materialize one cached block, evicting LRU space if needed."""
        if self.num_blocks >= self.capacity_blocks:
            if self.evict(1, protect=protect) < 1:
                return None
        owner = None
        if self.paged_pool is not None:
            owner = -next(self._owners)
            if not self.paged_pool.allocate(owner, self.block_tokens):
                if self.evict(1, protect=protect) < 1 or \
                        not self.paged_pool.allocate(
                            owner, self.block_tokens):
                    return None
        store_slot = None
        if self.store is not None:
            store_slot = self.store.acquire()
            try:
                k_parts, v_parts = source.export_span(
                    slot, pos, pos + self.block_tokens)
                self.store.import_span(store_slot, 0, k_parts, v_parts)
            except Exception:
                # The slot has not escaped into a _RadixNode yet, so
                # nothing else can ever release it — do it here or the
                # pool slot is orphaned for the cache's lifetime.
                self.store.release(store_slot)
                raise
        child = _RadixNode(key, parent, parent.depth + 1, store_slot,
                           owner, next(self._clock))
        parent.children[key] = child
        self._resident += 1
        return child

    # -- eviction --------------------------------------------------------
    def evict(self, blocks: int = 1, *,
              protect: frozenset = frozenset()) -> int:
        """Free up to ``blocks`` unreferenced LRU leaf blocks.

        Only leaves at refcount zero are candidates — interior nodes are
        prefixes of resident children, and referenced nodes belong to
        running requests, so neither is ever touched.  ``protect`` holds
        ``id()``s of nodes an in-flight insert depends on (its ancestor
        chain), which are equally off-limits.  Returns how many blocks
        were actually freed (possibly zero).
        """
        if blocks < 1:
            raise ValueError(f"blocks must be >= 1: {blocks}")
        freed = 0
        while freed < blocks:
            victims = [n for n in self._nodes()
                       if not n.children and n.refcount == 0
                       and id(n) not in protect]
            if not victims:
                break
            victim = min(victims, key=lambda n: (n.stamp, n.depth))
            del victim.parent.children[victim.key]
            self._resident -= 1
            if self.store is not None:
                self.store.release(victim.slot)
            if self.paged_pool is not None:
                self.paged_pool.free(victim.owner)
            freed += 1
        if freed:
            self.stats.evictions += 1
            self.stats.evicted_blocks += freed
        return freed

    def clear(self) -> int:
        """Drop every unreferenced block (e.g. on replica failover)."""
        total = 0
        while True:
            freed = self.evict(max(1, self.num_blocks))
            total += freed
            if freed == 0:
                return total
