"""Synthetic network generators.

All generators are deterministic in ``seed`` and return pandas edge lists
(columns ``src``, ``dst``; vertices 0..n-1, no self-loops, no duplicate
arcs). :mod:`repro.graphs.networks` registers the paper's networks.

* :func:`barabasi_albert` — the paper's BA_s/BA_d model: preferential
  attachment, each undirected edge given one random direction.
* :func:`directed_scale_free` — substitute for directed social networks
  (Physicians, Wiki-Vote, soc-Pokec): capped out-degree, preferential
  (skewed) in-degree.
* :func:`community_collab` — substitute for collaboration/social networks
  with high clustering and core–whisker structure (ca-GrQc, com-Youtube):
  power-law-sized cliques (core communities) + tree whiskers, symmetrized.
"""
import numpy as np
import pandas as pd


def _dedupe(src: np.ndarray, dst: np.ndarray) -> pd.DataFrame:
    keep = src != dst
    df = pd.DataFrame({"src": src[keep], "dst": dst[keep]})
    return df.drop_duplicates(ignore_index=True)


def barabasi_albert(n: int, m_per_vertex: int, *, seed: int) -> pd.DataFrame:
    """BA preferential attachment exactly as the paper builds BA_s / BA_d.

    Starts from ``m_per_vertex`` isolated vertices; each subsequent vertex
    attaches to ``m_per_vertex`` distinct existing vertices chosen
    preferentially by (degree + 1). Each undirected edge is then assigned a
    single uniformly random direction, so the arc count is
    ``(n - m_per_vertex) * m_per_vertex`` — 999 for BA_s(1000, 1) and
    10,879 for BA_d(1000, 11), matching Table 3.
    """
    if n <= m_per_vertex:
        raise ValueError("need n > m_per_vertex")
    rng = np.random.default_rng(seed)
    # Repeated-vertices list: vertex v appears deg(v) + 1 times, which makes
    # sampling proportional to degree + 1 a uniform draw from the list.
    repeated = list(range(m_per_vertex))
    a, b = [], []
    for v in range(m_per_vertex, n):
        targets: set[int] = set()
        while len(targets) < m_per_vertex:
            targets.add(repeated[rng.integers(len(repeated))])
        for t in targets:
            a.append(v)
            b.append(t)
            repeated.append(t)
        repeated.extend([v] * (m_per_vertex + 1))
    a_arr = np.array(a, dtype=np.int64)
    b_arr = np.array(b, dtype=np.int64)
    flip = rng.random(len(a_arr)) < 0.5
    src = np.where(flip, b_arr, a_arr)
    dst = np.where(flip, a_arr, b_arr)
    return _dedupe(src, dst)


def directed_scale_free(
    n: int,
    m: int,
    *,
    max_out: int,
    in_skew: float = 1.0,
    out_skew: float = 0.0,
    seed: int,
) -> pd.DataFrame:
    """Directed graph with bounded (optionally skewed) out-degree and
    skewed in-degree.

    Arc sources get Zipf-like weights ``(rank+1)^-out_skew`` (``0`` →
    uniform capacities) allocated multinomially and capped at ``max_out``;
    destinations are drawn from ``(rank+1)^-in_skew`` weights over an
    independent random permutation. This yields the heavy in-degree tail
    (large Δ⁻) of Physicians / soc-Pokec, plus a heavy out-degree tail for
    Wiki-Vote when ``out_skew`` > 0.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    w = (np.arange(n, dtype=np.float64) + 1.0) ** (-in_skew)
    w /= w.sum()
    if out_skew > 0:
        w_out = (np.arange(n, dtype=np.float64) + 1.0) ** (-out_skew)
        w_out = rng.permutation(w_out / w_out.sum())
        out_deg = np.minimum(rng.multinomial(m, w_out), max_out)
        out_deg = np.maximum(out_deg, 1).astype(np.int64)
    else:
        # Uniform capacities in [1, max_out], rescaled to sum ~ m.
        out_deg = rng.integers(1, max_out + 1, size=n).astype(np.float64)
        out_deg *= m / out_deg.sum()
        out_deg = np.maximum(1, np.round(out_deg)).astype(np.int64)
        out_deg = np.minimum(out_deg, max_out)
    src = np.repeat(np.arange(n, dtype=np.int64), out_deg)
    dst = perm[rng.choice(n, size=len(src), p=w)]
    df = _dedupe(src, dst)
    if len(df) > m:  # rounding overshoot: trim uniformly, deterministically
        df = df.sample(n=m, random_state=int(seed)).sort_index(
            ignore_index=True
        )
    return df


def community_collab(
    n: int,
    *,
    clique_alpha: float,
    whisker_frac: float = 0.35,
    extra_edge_frac: float = 0.15,
    max_clique: int = 45,
    seed: int,
) -> pd.DataFrame:
    """Symmetric collaboration-style network with core–whisker structure.

    A fraction ``1 - whisker_frac`` of vertices is packed into cliques
    (papers' co-authorship groups → high clustering coefficient). Clique
    sizes follow the power law P(s) ∝ s^-``clique_alpha`` over
    [2, max_clique], which matches real collaboration networks'
    heavy-tailed group sizes; the big cliques are what percolate into a
    giant component under UC_0.1 (the paper's core–whisker traversal-cost
    finding on ca-GrQc). Cliques are chained into a connected core with
    bridge edges plus ``extra_edge_frac * n`` random core–core edges.
    Remaining vertices hang off random vertices as tree whiskers. Every
    undirected edge appears as two arcs, so Δ⁺ = Δ⁻ as in ca-GrQc.
    """
    rng = np.random.default_rng(seed)
    n_core = max(2, int(round(n * (1 - whisker_frac))))
    support = np.arange(2, max_clique + 1, dtype=np.float64)
    pw = support**(-clique_alpha)
    pw /= pw.sum()
    sizes = []
    total = 0
    while total < n_core:
        s = int(rng.choice(support, p=pw))
        s = min(s, n_core - total) if n_core - total < 2 * s else s
        sizes.append(max(1, s))
        total += sizes[-1]
    und: list[tuple[int, int]] = []
    start = 0
    reps = []  # one representative vertex per clique
    for s in sizes:
        members = range(start, start + s)
        for i in members:
            for j in members:
                if i < j:
                    und.append((i, j))
        reps.append(start)
        start += s
    # Chain cliques (connected core) + random shortcuts.
    for i in range(1, len(reps)):
        und.append((reps[i - 1], reps[i]))
    n_extra = int(extra_edge_frac * n)
    core_ids = np.arange(n_core)
    for _ in range(n_extra):
        i, j = rng.choice(core_ids, size=2, replace=False)
        und.append((min(i, j), max(i, j)))
    # Tree whiskers: each remaining vertex attaches to a random earlier vertex
    # (core or whisker), giving tree-like tendrils off the core.
    for v in range(n_core, n):
        u = int(rng.integers(v))
        und.append((u, v))
    e = np.array(sorted(set(und)), dtype=np.int64)
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    return _dedupe(src, dst)
