"""Golden results for the benchmark's graphs.

``libgrape_lite_ray.graph.oracle`` holds the literal reference
semantics, but only its PageRank arithmetic fits benchmark scale: its
edge dedup (``np.unique(axis=0)``), WCC (``np.minimum.at`` sweeps), CDLP
and triangle count (per-vertex Python loops) are far too slow at 10^6
edges.  The functions here compute the same results with sorted int64
edge keys; ``tests/test_goldens.py`` cross-checks every one of them
against the oracle.

``web_edges`` is the golden for the extract layer: it finds anchors
with the standard library's ``html.parser`` instead of the library's
regexes, so an extraction bug cannot hide behind a shared code path.
"""

from __future__ import annotations

from html.parser import HTMLParser

import numpy as np

__all__ = ["cdlp", "dedup_edges", "pagerank", "triangles_lcc", "undirected_edges",
           "wcc", "web_edges"]


def dedup_edges(src, dst, n: int):
    """Distinct (src, dst) pairs sorted by (src, dst)."""
    key = np.unique(np.asarray(src, np.int64) * n + np.asarray(dst, np.int64))
    return key // n, key % n


def undirected_edges(src, dst, n: int):
    """Symmetrized distinct pairs sorted by (src, dst)."""
    s = np.asarray(src, np.int64)
    t = np.asarray(dst, np.int64)
    return dedup_edges(np.concatenate([s, t]), np.concatenate([t, s]), n)


def pagerank(src, dst, n: int, rounds: int = 10, d: float = 0.85) -> np.ndarray:
    """oracle.pagerank's arithmetic, in its order of summation."""
    src, dst = dedup_edges(src, dst, n)
    deg = np.bincount(src, minlength=n).astype(np.int64)
    p = 1.0 / n
    total_dangling = int((deg == 0).sum())
    result = np.where(deg > 0, p / np.maximum(deg, 1), p)
    dangling_sum = p * total_dangling
    for _ in range(rounds):
        base = (1.0 - d) / n + d * dangling_sum / n
        dangling_sum = base * total_dangling
        cur = np.bincount(src, weights=result[dst], minlength=n)
        result = np.where(deg > 0, (d * cur + base) / np.maximum(deg, 1), base)
    return np.where(deg > 0, result * deg, result)


def wcc(src, dst, n: int) -> np.ndarray:
    """Smallest vertex id of each vertex's weakly connected component:
    min-label propagation with pointer jumping."""
    s, t = undirected_edges(src, dst, n)
    has_nbr = np.bincount(s, minlength=n) > 0
    seg = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]])) if len(s) else s
    comp = np.arange(n, dtype=np.int64)
    while True:
        new = comp.copy()
        if len(s):
            new[has_nbr] = np.minimum(comp[has_nbr], np.minimum.reduceat(comp[t], seg))
        new = new[new]
        if np.array_equal(new, comp):
            return comp
        comp = new


def cdlp(src, dst, n: int, rounds: int = 10) -> np.ndarray:
    """Synchronous label propagation with oracle.cdlp's semantics: each
    vertex takes the most frequent neighbour label, the smallest label
    on a tie; vertices without neighbours keep their label."""
    s, t = undirected_edges(src, dst, n)
    labels = np.arange(n, dtype=np.int64)
    for _ in range(rounds):
        # sorted (vertex, neighbour label) keys; equal keys form runs
        key = np.sort(s * n + labels[t])
        run_start = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        count = np.diff(np.append(run_start, len(key)))
        run_v, run_label = key[run_start] // n, key[run_start] % n
        # runs are ordered by (vertex, label): the first run of a vertex
        # holding its largest count carries the smallest such label
        best = np.zeros(n, np.int64)
        np.maximum.at(best, run_v, count)
        win = count == best[run_v]
        first = np.unique(run_v[win], return_index=True)[1]
        labels = labels.copy()
        labels[run_v[win][first]] = run_label[win][first]
    return labels


def triangles_lcc(src, dst, n: int, chunk: int = 1 << 16):
    """Per-vertex triangle counts and local clustering coefficients,
    as oracle.triangles_lcc returns them: (tricnt int64[n], lcc f64[n])."""
    s, t = undirected_edges(src, dst, n)
    deg = np.bincount(s, minlength=n).astype(np.int64)
    # orient every edge towards the endpoint of lower (degree, id)
    keep = (deg[t] < deg[s]) | ((deg[t] == deg[s]) & (t < s))
    os_, ot = s[keep], t[keep]  # still sorted by (src, dst)
    oindptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(os_, minlength=n), out=oindptr[1:])
    okeys = os_ * n + ot
    fan = oindptr[ot + 1] - oindptr[ot]
    tricnt = np.zeros(n, np.int64)
    # wedges v->u->w, closed iff v->w is an oriented edge; chunked over
    # the oriented edges so the wedge arrays stay bounded
    for lo in range(0, len(os_), chunk):
        v, u, f = os_[lo:lo + chunk], ot[lo:lo + chunk], fan[lo:lo + chunk]
        total = int(f.sum())
        if total == 0:
            continue
        wv = np.repeat(v, f)
        wu = np.repeat(u, f)
        offs = np.arange(total) - np.repeat(np.cumsum(f) - f, f)
        ww = ot[oindptr[wu] + offs]
        q = wv * n + ww
        pos = np.minimum(np.searchsorted(okeys, q), len(okeys) - 1)
        closed = okeys[pos] == q
        for corner in (wv[closed], wu[closed], ww[closed]):
            tricnt += np.bincount(corner, minlength=n)
    lcc = np.zeros(n, dtype=np.float64)
    m = deg >= 2
    lcc[m] = 2.0 * tricnt[m] / (deg[m] * (deg[m] - 1.0))
    return tricnt, lcc


class _Anchors(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.hrefs: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag == "a":
            self.hrefs.extend(v for k, v in attrs if k == "href" and v is not None)


def web_edges(urls, htmls) -> tuple[list[str], list[str]]:
    """(src url, dst url) per anchor, duplicates and self-links kept:
    absolute http(s) hrefs as written, site-relative ``/x`` hrefs
    resolved against the page's scheme and host, everything else
    dropped (the extraction spec in ``libgrape_lite_ray.extract``)."""
    src: list[str] = []
    dst: list[str] = []
    for url, html in zip(urls, htmls):
        parser = _Anchors()
        parser.feed(html.decode("utf-8"))
        parser.close()
        root = url[: url.index("/", url.index("://") + 3)]
        for href in parser.hrefs:
            if href.startswith(("http://", "https://")):
                target = href
            elif href.startswith("/"):
                target = root + href
            else:
                continue
            src.append(url)
            dst.append(target)
    return src, dst
