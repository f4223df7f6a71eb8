"""Calibrated synthetic stand-ins for the paper's 15 real datasets.

The paper's datasets (EcoCyc metabolic networks, citation graphs, XML
documents, ontologies — Table 2) cannot be downloaded in this offline
environment, so each is replaced by a generator from the matching graph
family, parameterized to hit the published ``(|V|, |E|, Degmax, d, µ,
|V_DAG|/|V|)`` profile.  What k-reach interacts with — vertex-cover size
relative to n, degree skew, SCC structure, diameter, and the typical
distance µ — is what the generators reproduce; ``kreach-bench table2``
prints each stand-in's measured profile beside the published one.

Five families:

* :func:`metabolic_graph` — hub-dominated near-DAGs (AgroCyc, Anthra,
  Ecoo, Human, Mtbrv, Vchocyc): Degmax ≈ 0.3–0.7 n, µ = 2, a sprinkle of
  reciprocal reaction pairs producing small SCCs.
* :func:`metabolic_core_graph` — aMaze, Kegg: a giant strongly connected
  reaction core swallows most vertices (``|V_DAG| ≪ |V|``).
* :func:`citation_graph` — ArXiv, CiteSeer, PubMed: pure DAGs, edges from
  newer to older, preferential attachment with a recency window.
* :func:`xml_graph` — Nasa, Xmark: deep document trees plus reference
  edges, diameters in the twenties.
* :func:`semantic_graph` — GO, YAGO: shallow multi-parent ontology DAGs.

All generators are deterministic in ``seed`` and honor exact ``n``; edge
counts land within a few percent of ``m`` (duplicates are collapsed).

Structure drivers, shared across the family generators:

* **µ (median distance)** is pinned by making one structural motif dominate
  the finite-distance histogram (hub-mediated 2-hop pairs for metabolic,
  direct fact→category edges for YAGO, …).
* **d (diameter)** is realized by a dedicated *chain zone*: a few directed
  paths of the target length, vertex-disjoint from the hub spokes so no
  shortcut collapses them.
* **|V_DAG|** is controlled by explicitly placed 2-cycles (or a designed
  giant core), never by accidental cycles: all "filler" edges are oriented
  low-id → high-id, which keeps them acyclic by construction.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph

__all__ = [
    "metabolic_graph",
    "metabolic_core_graph",
    "citation_graph",
    "xml_graph",
    "semantic_graph",
]


def metabolic_graph(
    n: int,
    m: int,
    *,
    hub_degree_fraction: float = 0.35,
    num_hubs: int = 6,
    scc_vertex_fraction: float = 0.09,
    loop_size: int = 12,
    chain_length: int = 9,
    num_chains: int = 6,
    seed: int = 0,
) -> DiGraph:
    """Hub-dominated metabolic-style network (EcoCyc family).

    Layout (disjoint vertex zones): ``[hubs | chains | loops | spokes]``.

    * The dominant "currency metabolite" hub 0 has
      ``hub_degree_fraction · n`` spokes, half inbound and half outbound,
      so in-spoke → hub → out-spoke pairs put the median finite distance
      at 2; minor hubs decay geometrically.
    * ``num_chains`` reaction chains of ``chain_length`` edges realize the
      published diameter.
    * The ``|V_DAG|`` deficit comes from **reaction loops**: star-shaped
      SCCs of ``loop_size`` vertices cycling through a loop center
      (center → member → center).  Every loop edge is incident to its
      center, so a loop costs one cover vertex while merging
      ``loop_size`` vertices in the condensation — this is what keeps the
      vertex cover at the few-percent level the paper reports (Table 9:
      AgroCyc's cover is 2.8% of |V|) while ``|V_DAG|/|V|`` ≈ 0.91.
    * Leftover edge budget becomes extra spokes on the minor hubs
      (hub-incident, hence cover-free).
    """
    num_loops = max(0, int(scc_vertex_fraction * n) // max(1, loop_size - 1))
    chain_zone = num_chains * (chain_length + 1)
    loop_zone = num_loops * loop_size
    if n < num_hubs + chain_zone + loop_zone + 8:
        raise ValueError(f"n={n} too small for the metabolic shape")
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    chain_lo = num_hubs
    loop_lo = chain_lo + chain_zone
    spoke_lo = loop_lo + loop_zone
    # Fixed substrate/product roles keep the hub region acyclic: substrates
    # (first half of the spoke zone) only feed hubs, products only drain
    # them, and hubs never link to each other.
    pool = np.arange(spoke_lo, n)
    substrates = pool[: len(pool) // 2]
    products = pool[len(pool) // 2 :]

    # --- dominant hub spokes: substrates -> hub0 -> products.
    spokes = min(int(hub_degree_fraction * n), len(pool))
    half = spokes // 2
    ins = rng.choice(substrates, size=min(half, len(substrates)), replace=False)
    outs = rng.choice(products, size=min(spokes - half, len(products)), replace=False)
    edges.extend((int(v), 0) for v in ins)
    edges.extend((0, int(v)) for v in outs)

    # --- reaction chains: the diameter driver.
    for c in range(num_chains):
        base = chain_lo + c * (chain_length + 1)
        for i in range(chain_length):
            edges.append((base + i, base + i + 1))
        # Anchor chains to the hub system so they join the giant component.
        edges.append((0, base))
        edges.append((base + chain_length, 1 if num_hubs > 1 else 0))

    # --- reaction loops: star SCCs (center <-> members).
    for l in range(num_loops):
        center = loop_lo + l * loop_size
        for off in range(1, loop_size):
            member = center + off
            edges.append((center, member))
            edges.append((member, center))

    # --- minor hubs with geometrically decaying spoke counts; the leftover
    # edge budget tops up the smallest hub (all hub-incident, cover-free).
    budget = m - len(edges)
    for h in range(1, num_hubs):
        deg = max(4, int(spokes * (0.4**h)))
        if h == num_hubs - 1:
            deg = max(deg, budget)
        deg = min(deg, max(0, budget))
        if deg == 0:
            break
        ins = rng.choice(substrates, size=min(deg // 2, len(substrates)), replace=False)
        outs = rng.choice(products, size=min(deg - deg // 2, len(products)), replace=False)
        edges.extend((int(v), h) for v in ins)
        edges.extend((h, int(v)) for v in outs)
        budget -= deg
    return DiGraph(n, edges)


def metabolic_core_graph(
    n: int,
    m: int,
    *,
    core_fraction: float = 0.7,
    hub_degree_fraction: float = 0.25,
    tail_length: int = 5,
    seed: int = 0,
) -> DiGraph:
    """Metabolic network with a giant strongly connected core (aMaze, Kegg).

    ``core_fraction · n`` vertices form one SCC, *hub-mediated* the way
    real metabolic cores are: a handful of fully interconnected reaction
    hubs, with every other core vertex exchanging with at least one hub in
    both directions (so ``u → hub_i → hub_j → v`` strongly connects the
    whole core at distance ≤ 3, giving the published µ = 2).  Because all
    core edges touch a hub, the vertex cover of the region stays tiny —
    matching the paper's Table 9, where aMaze's cover is only 4% of |V|.
    The remaining vertices form inbound/outbound periphery, including
    chains of ``tail_length`` that stretch the diameter to the published
    11–16.
    """
    if n < 20:
        raise ValueError(f"n={n} too small for the core shape")
    rng = np.random.default_rng(seed)
    core_size = max(10, int(core_fraction * n))
    edges: list[tuple[int, int]] = []

    # Fully interconnected reaction hubs.
    num_hubs = 3
    for a in range(num_hubs):
        for b in range(num_hubs):
            if a != b:
                edges.append((a, b))
    # Every core vertex exchanges with a primary hub (both directions) —
    # this alone makes the core one SCC with all edges hub-incident.
    members = np.arange(num_hubs, core_size)
    primary = rng.integers(0, num_hubs, size=len(members))
    for v, h in zip(members, primary):
        edges.append((int(v), int(h)))
        edges.append((int(h), int(v)))
    # Extra exchanges with secondary hubs spend the remaining budget while
    # keeping Deg(hub) near the published Degmax (each hub's degree is its
    # member slice, ~core/3 ~ hub_degree_fraction * n for these datasets).
    periphery = np.arange(core_size, n)
    budget = m - len(edges) - len(periphery)
    if budget > 0:
        extra_v = rng.choice(members, size=budget)
        extra_h = rng.integers(0, num_hubs, size=budget)
        for v, h in zip(extra_v, extra_h):
            if rng.random() < 0.5:
                edges.append((int(v), int(h)))
            else:
                edges.append((int(h), int(v)))

    # Periphery: almost all vertices hang directly off a hub (their edges
    # are hub-covered, keeping the vertex cover tiny — the paper's aMaze
    # cover is 4% of |V|).  A handful of chains of `tail_length` realize
    # the published diameter: in-tail -> core -> out-tail.
    num_tails = 8
    tail_budget = num_tails * tail_length
    for i, v in enumerate(periphery[: len(periphery) - tail_budget]):
        h = int(rng.integers(0, num_hubs))
        if i % 2 == 0:
            edges.append((int(v), h))
        else:
            edges.append((h, int(v)))
    tail_zone = periphery[len(periphery) - tail_budget :]
    for tail_i in range(num_tails):
        block = [int(p) for p in tail_zone[tail_i * tail_length : (tail_i + 1) * tail_length]]
        if not block:
            continue
        h = int(rng.integers(0, num_hubs))
        if tail_i % 2 == 0:
            # chain feeding the core: p0 -> p1 -> ... -> hub
            for a, b in zip(block, block[1:]):
                edges.append((a, b))
            edges.append((block[-1], h))
        else:
            # chain draining the core: hub -> p0 -> p1 -> ...
            edges.append((h, block[0]))
            for a, b in zip(block, block[1:]):
                edges.append((a, b))
    return DiGraph(n, edges)


def citation_graph(
    n: int,
    m: int,
    *,
    window_fraction: float = 0.05,
    preferential: float = 0.3,
    seed: int = 0,
) -> DiGraph:
    """Citation network: a pure DAG, newer papers cite older ones.

    Each paper cites ``m/n`` references on average: with probability
    ``preferential`` a recently *cited* paper (degree-proportional — the
    rich-get-richer skew of real citation data), otherwise a uniformly
    random paper inside the recency window (``window_fraction · n`` most
    recent).  The preferential pool is windowed as well, so no citation
    jumps far back in time; smaller windows therefore force long paths
    through many "generations", producing the published diameters (11–20).
    """
    if n < 3:
        raise ValueError(f"n={n} too small for a citation graph")
    rng = np.random.default_rng(seed)
    window = max(2, int(window_fraction * n))
    per_vertex = max(1, round(m / max(1, n - 1)))
    pool_size = window * per_vertex
    edges: list[tuple[int, int]] = []
    cited: list[int] = []  # ring buffer of recent citation endpoints
    pool_head = 0
    for i in range(1, n):
        lo = max(0, i - window)
        for _ in range(per_vertex):
            j = -1
            if cited and rng.random() < preferential:
                j = cited[int(rng.integers(0, len(cited)))]
                if j < lo:
                    j = -1  # pool entry has aged out of the window
            if j < 0:
                j = int(rng.integers(lo, i))
            edges.append((i, j))
            if len(cited) < pool_size:
                cited.append(j)
            else:
                cited[pool_head] = j
                pool_head = (pool_head + 1) % pool_size
    return DiGraph(n, edges)


def xml_graph(
    n: int,
    m: int,
    *,
    branching: int = 6,
    trunk_depth: int | None = None,
    chain_length: int = 17,
    num_chains: int = 3,
    hub_fraction: float = 0.0,
    seed: int = 0,
) -> DiGraph:
    """XML document graph: an element tree plus deep runs and idrefs.

    Layout: ``[tree | chain zone]``.  Two tree shapes:

    * ``trunk_depth=None`` (default): a complete ``branching``-ary tree
      (parent of element ``i`` is ``(i-1) // branching``) — wide documents
      like Xmark, vertex cover near ``2n/branching``.
    * ``trunk_depth=D``: a *caterpillar forest* — trunks of ``D`` nested
      elements hanging off the root, each trunk element carrying
      ``branching`` leaf children.  Deep documents like Nasa: typical
      distances ≈ D/2 (the published µ = 7) while the cover stays at the
      trunk fraction ``1/(branching+1)`` ≈ the paper's 32%.

    ``num_chains`` runs of ``chain_length`` single-child elements hang off
    the deepest element, realizing the published diameters (22–24).  Edges
    beyond the tree become cross-references pointing forward in document
    order (acyclic); ``hub_fraction`` of them emanate from the root
    catalog element, modeling Xmark's high-degree node.
    """
    chain_zone = num_chains * chain_length
    if n < chain_zone + branching + (trunk_depth or 0) + 2:
        raise ValueError(f"n={n} too small for the XML shape")
    rng = np.random.default_rng(seed)
    tree_size = n - chain_zone
    edges: list[tuple[int, int]] = []
    anchor = tree_size - 1  # deepest id in the b-ary layout
    trunks: list[int] = []
    run_end_of: dict[int, int] = {}
    if trunk_depth is None:
        for i in range(1, tree_size):
            edges.append(((i - 1) // branching, i))
    else:
        # Caterpillar forest: blocks of (1 trunk element + `branching`
        # leaves); trunks chained in runs of `trunk_depth`.  Runs hang off
        # a thin layer of section elements so no single element's degree
        # explodes (Nasa's Degmax is only 32).
        block = branching + 1
        num_sections = max(1, round((tree_size / block / max(1, trunk_depth)) ** 0.5))
        sections = list(range(1, 1 + num_sections))
        for sec in sections:
            edges.append((0, sec))
        trunk_pos = 0
        prev_trunk = 0
        run_index = 0
        run_start_pos = 0
        first_base = 1 + num_sections
        for base in range(first_base, tree_size - block + 1, block):
            trunk = base
            if trunk_pos == 0:
                parent = sections[run_index % num_sections]
                run_index += 1
                run_start_pos = len(trunks)
            else:
                parent = prev_trunk
            edges.append((parent, trunk))
            trunks.append(trunk)
            for leaf in range(base + 1, base + block):
                edges.append((trunk, leaf))
            prev_trunk = trunk
            trunk_pos = (trunk_pos + 1) % trunk_depth
            if trunk_pos == 0:
                anchor = trunk
                # Record, for every trunk of the finished run, the run tail.
                for position in range(run_start_pos, len(trunks)):
                    run_end_of[trunks[position]] = trunk
        # Stragglers become section children.
        first_straggler = first_base + ((tree_size - first_base) // block) * block
        for v in range(first_straggler, tree_size):
            edges.append((sections[v % num_sections], v))
    # Nested element runs anchored at the deepest tree element.
    for c in range(num_chains):
        base = tree_size + c * chain_length
        edges.append((anchor, base))
        for i in range(chain_length - 1):
            edges.append((base + i, base + i + 1))
    # Cross-references (idrefs), forward in document order.  They emanate
    # from container (trunk/internal) elements — which the tree matching
    # already covers, so idrefs do not inflate the vertex cover — and in
    # the caterpillar layout they stay *inside their own run*, shortening
    # within-document distances without stitching runs into artificial
    # long paths.
    extra = max(0, m - len(edges))
    hub_edges = int(hub_fraction * extra)
    for _ in range(hub_edges):
        edges.append((0, int(rng.integers(1, tree_size))))
    refs = extra - hub_edges
    if trunk_depth is None:
        internal_count = max(1, (tree_size - 2) // branching)
        heads = rng.integers(0, internal_count, size=refs)
        for u in heads:
            v = int(rng.integers(int(u) + 1, tree_size))
            edges.append((int(u), v))
    elif trunks:
        # Short-range references: at most two blocks ahead, clamped to the
        # run tail, so documents keep their published depth profile.
        block = branching + 1
        span = 3 * block
        made = 0
        attempts = 0
        while made < refs and attempts < 20 * refs:
            attempts += 1
            u = trunks[int(rng.integers(0, len(trunks)))]
            hi = min(run_end_of.get(u, trunks[-1]), u + span)
            if hi > u:
                v = int(rng.integers(u + 1, hi + 1))
                edges.append((u, v))
                made += 1
    return DiGraph(n, edges)


def semantic_graph(
    n: int,
    m: int,
    *,
    levels: int = 10,
    top_fraction: float = 0.05,
    hub_skew: float = 0.0,
    spine_length: int = 0,
    seed: int = 0,
) -> DiGraph:
    """Multi-parent ontology DAG (GO, YAGO).

    Vertices are split into ``levels`` strata of geometrically decreasing
    size (instances at the bottom, broad categories at the top); every
    edge points from a stratum to the one above, targeting parents with a
    Zipf-like skew (``hub_skew = 0`` is uniform — GO's flat degrees;
    large skew concentrates edges on a few categories — YAGO's hubs).
    ``spine_length`` adds one thin chain at the top to realize diameters
    beyond the level count.
    """
    if n < levels + spine_length + 1:
        raise ValueError(f"n={n} too small for {levels} levels")
    rng = np.random.default_rng(seed)
    sizes = np.array(
        [
            top_fraction * n * (1 / top_fraction) ** (i / max(1, levels - 1))
            for i in range(levels)
        ]
    )
    sizes = np.maximum(1, (sizes / sizes.sum() * (n - spine_length))).astype(np.int64)
    while sizes.sum() > n - spine_length:
        sizes[np.argmax(sizes)] -= 1
    while sizes.sum() < n - spine_length:
        sizes[np.argmax(sizes)] += 1
    order = np.argsort(-sizes)
    sizes = sizes[order]  # level 0 = bottom (largest) ... levels-1 = top
    bounds = np.concatenate(([0], np.cumsum(sizes)))

    def pick_parent(lo: int, hi: int, count: int) -> np.ndarray:
        width = hi - lo
        if hub_skew <= 0:
            return lo + rng.integers(0, width, size=count)
        weights = 1.0 / np.arange(1, width + 1) ** hub_skew
        weights /= weights.sum()
        return lo + rng.choice(width, size=count, p=weights)

    edges: list[tuple[int, int]] = []
    # Mandatory parent per vertex keeps the DAG connected level-to-level.
    mandatory = int(bounds[-1] - bounds[1])
    extra = max(0, m - mandatory - spine_length)
    level_weights = np.asarray(sizes[:-1], dtype=np.float64)
    level_extra = (level_weights / level_weights.sum() * extra).astype(np.int64)
    for lvl in range(levels - 1):
        lo, hi = int(bounds[lvl]), int(bounds[lvl + 1])
        nlo, nhi = int(bounds[lvl + 1]), int(bounds[lvl + 2])
        for u in range(lo, hi):
            edges.append((u, int(pick_parent(nlo, nhi, 1)[0])))
        count = int(level_extra[lvl])
        if count:
            heads = rng.integers(lo, hi, size=count)
            tails = pick_parent(nlo, nhi, count)
            edges.extend((int(u), int(v)) for u, v in zip(heads, tails))
    # Optional spine: a thin chain hanging off the top stratum.
    if spine_length:
        spine = list(range(int(bounds[-1]), int(bounds[-1]) + spine_length))
        top_anchor = int(bounds[-1]) - 1
        edges.append((spine[0], top_anchor))
        for a, b in zip(spine, spine[1:]):
            edges.append((b, a))
    return DiGraph(n, edges)
