"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in libgrape_lite_ray) calls ray.init()/ray.shutdown().

``queries()`` exposes one entry per implemented operator (SURVEY.md §2
graph engine + the training-data ops); ``oracle_sql()`` gives the exact
DuckDB twin where the op is SQL-expressible (iterative graph programs
use deterministically unrolled / recursive SQL; SSSP and the
hash-signature ops are rows-only checked).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

# ------------------------------------------------------------------ shared SQL

K = 2000
# MATERIALIZED so the unrolled iterative oracles scan the parquet once
_E = f"""
E AS MATERIALIZED (
  SELECT DISTINCT CAST(l_orderkey % {K} AS BIGINT) AS src,
                  CAST((l_partkey * 7 + l_suppkey) % {K} AS BIGINT) AS dst
  FROM lineitem
  WHERE (l_orderkey % {K}) <> ((l_partkey * 7 + l_suppkey) % {K})
)"""
_U = "U AS (SELECT src AS a, dst AS b FROM E UNION SELECT dst AS a, src AS b FROM E)"
_V = "V AS (SELECT DISTINCT a AS node FROM U)"
_UD = "UD AS (SELECT DISTINCT LEAST(a,b) AS x, GREATEST(a,b) AS y FROM U)"


def _pagerank_sql(rounds: int = 10, d: float = 0.85) -> str:
    """Unrolled reference PageRank (pagerank.h:52-219 semantics) —
    fixed-round iteration as a chain of CTEs."""
    # every CTE MATERIALIZED: without it DuckDB inlines each reference
    # and the round-over-round chain expands exponentially
    ctes = [
        _E, _U, _V,
        "DEG AS MATERIALIZED (SELECT v.node, COALESCE(o.c, 0) AS deg FROM V v LEFT JOIN "
        "(SELECT src, COUNT(*) AS c FROM E GROUP BY src) o ON v.node = o.src)",
        "SC AS MATERIALIZED (SELECT CAST(COUNT(*) AS DOUBLE) AS n, "
        "CAST(SUM(CASE WHEN deg = 0 THEN 1 ELSE 0 END) AS DOUBLE) AS dang FROM DEG)",
        "r0 AS MATERIALIZED (SELECT node, deg, CASE WHEN deg > 0 THEN (1.0/(SELECT n FROM SC))/deg "
        "ELSE 1.0/(SELECT n FROM SC) END AS r FROM DEG)",
        "ds0 AS MATERIALIZED (SELECT (1.0/(SELECT n FROM SC)) * (SELECT dang FROM SC) AS v)",
    ]
    for k in range(1, rounds + 1):
        ctes.append(
            f"b{k} AS MATERIALIZED (SELECT (1.0 - {d})/(SELECT n FROM SC) + {d} * (SELECT v FROM ds{k-1})/(SELECT n FROM SC) AS v)"
        )
        ctes.append(f"ds{k} AS MATERIALIZED (SELECT (SELECT v FROM b{k}) * (SELECT dang FROM SC) AS v)")
        ctes.append(
            f"cur{k} AS MATERIALIZED (SELECT E.src AS node, SUM(p.r) AS s FROM E JOIN r{k-1} p ON E.dst = p.node GROUP BY E.src)"
        )
        ctes.append(
            f"r{k} AS MATERIALIZED (SELECT v.node, v.deg, CASE WHEN v.deg > 0 THEN ({d} * COALESCE(c.s, 0) + (SELECT v FROM b{k}))/v.deg "
            f"ELSE (SELECT v FROM b{k}) END AS r FROM r{k-1} v LEFT JOIN cur{k} c ON v.node = c.node)"
        )
    final = (
        f"SELECT node AS oid, ROUND(CASE WHEN deg > 0 THEN r * deg ELSE r END, 8) AS pagerank "
        f"FROM r{rounds} ORDER BY oid"
    )
    return "WITH " + ",\n".join(ctes) + "\n" + final


def _pagerank_local_sql(rounds: int = 10, d: float = 0.85) -> str:
    """Unrolled competitor-matched PageRankLocal (pagerank_local.h:49-223,
    Performance.md:61-67): init 1/outdeg, rank = (1-d) + d*sum over
    out-neighbors' divided state, divide every round except the LAST,
    no dangling redistribution, no 1/N."""
    ctes = [
        _E, _U, _V,
        "DEG AS MATERIALIZED (SELECT v.node, COALESCE(o.c, 0) AS deg FROM V v LEFT JOIN "
        "(SELECT src, COUNT(*) AS c FROM E GROUP BY src) o ON v.node = o.src)",
        "p0 AS MATERIALIZED (SELECT node, deg, CASE WHEN deg > 0 THEN 1.0/deg ELSE 1.0 END AS r FROM DEG)",
    ]
    for k in range(1, rounds + 1):
        ctes.append(
            f"pc{k} AS MATERIALIZED (SELECT E.src AS node, SUM(p.r) AS s FROM E JOIN p{k-1} p ON E.dst = p.node GROUP BY E.src)"
        )
        rank = f"(1.0 - {d}) + {d} * COALESCE(c.s, 0)"
        div = rank if k == rounds else \
            f"CASE WHEN v.deg > 0 THEN ({rank})/v.deg ELSE {rank} END"
        ctes.append(
            f"p{k} AS MATERIALIZED (SELECT v.node, v.deg, {rank} AS rank, {div} AS r "
            f"FROM p{k-1} v LEFT JOIN pc{k} c ON v.node = c.node)"
        )
    final = (f"SELECT node AS oid, ROUND(rank, 8) AS pagerank "
             f"FROM p{rounds} ORDER BY oid")
    return "WITH " + ",\n".join(ctes) + "\n" + final


def _ppr_sql(n_sources: int = 4, rounds: int = 8, d: float = 0.85) -> str:
    """Unrolled personalized PageRank / random walk with restart
    (programs/ppr.py semantics): teleport mass concentrated on the
    n_sources smallest vertex ids (gids 0..S-1 ARE the smallest oids),
    dangling mass leaks (no redistribution), and mass flows along
    OUT-edges like a real surfer (textbook direction — v gathers
    r(u)/outdeg(u) over its IN-edges), so sum(ppr) <= 1."""
    ctes = [
        _E, _U, _V,
        "DEG AS MATERIALIZED (SELECT v.node, COALESCE(o.c, 0) AS deg FROM V v LEFT JOIN "
        "(SELECT src, COUNT(*) AS c FROM E GROUP BY src) o ON v.node = o.src)",
        f"S AS MATERIALIZED (SELECT node FROM V ORDER BY node LIMIT {n_sources})",
        "EV AS MATERIALIZED (SELECT d.node, d.deg, CASE WHEN s.node IS NOT NULL "
        f"THEN 1.0/{n_sources} ELSE 0.0 END AS e FROM DEG d LEFT JOIN S s ON d.node = s.node)",
        "q0 AS MATERIALIZED (SELECT node, deg, e, e AS rank, "
        "CASE WHEN deg > 0 THEN e/deg ELSE 0.0 END AS r FROM EV)",
    ]
    for k in range(1, rounds + 1):
        ctes.append(
            f"qc{k} AS MATERIALIZED (SELECT E.dst AS node, SUM(p.r) AS s FROM E "
            f"JOIN q{k-1} p ON E.src = p.node GROUP BY E.dst)"
        )
        rank = f"(1.0 - {d}) * v.e + {d} * COALESCE(c.s, 0)"
        ctes.append(
            f"q{k} AS MATERIALIZED (SELECT v.node, v.deg, v.e, {rank} AS rank, "
            f"CASE WHEN v.deg > 0 THEN ({rank})/v.deg ELSE 0.0 END AS r "
            f"FROM q{k-1} v LEFT JOIN qc{k} c ON v.node = c.node)"
        )
    final = (f"SELECT node AS oid, ROUND(rank, 8) AS ppr "
             f"FROM q{rounds} ORDER BY oid")
    return "WITH " + ",\n".join(ctes) + "\n" + final


def _ppr_weighted_sql(n_sources: int = 4, rounds: int = 8, d: float = 0.85) -> str:
    """Weighted personalized PageRank (programs/ppr.py weighted=True):
    transition probability proportional to edge weight, w(e)/W(src(e))
    — the random-walk analog of the gnn_sampler's accumulated-weight
    draws.  Same teleport/leak semantics as _ppr_sql; per-edge division
    mirrors the engine's cached transition array exactly."""
    K_ = K
    ew = f"""EW AS MATERIALIZED (
  SELECT CAST(l_orderkey % {K_} AS BIGINT) AS src,
         CAST((l_partkey * 7 + l_suppkey) % {K_} AS BIGINT) AS dst,
         CAST(MIN(l_quantity) AS DOUBLE) AS w
  FROM lineitem
  WHERE (l_orderkey % {K_}) <> ((l_partkey * 7 + l_suppkey) % {K_})
  GROUP BY 1, 2
)"""
    ctes = [
        _E, _U, _V, ew,
        "WD AS MATERIALIZED (SELECT src, SUM(w) AS tw FROM EW GROUP BY src)",
        f"S AS MATERIALIZED (SELECT node FROM V ORDER BY node LIMIT {n_sources})",
        "EV AS MATERIALIZED (SELECT v.node, CASE WHEN s.node IS NOT NULL "
        f"THEN 1.0/{n_sources} ELSE 0.0 END AS e FROM V v LEFT JOIN S s ON v.node = s.node)",
        "w0 AS MATERIALIZED (SELECT node, e, e AS rank FROM EV)",
    ]
    for k in range(1, rounds + 1):
        ctes.append(
            f"wc{k} AS MATERIALIZED (SELECT ew.dst AS node, "
            f"SUM(p.rank * ew.w / wd.tw) AS s FROM EW ew "
            f"JOIN w{k-1} p ON ew.src = p.node "
            f"JOIN WD wd ON wd.src = ew.src GROUP BY ew.dst)"
        )
        ctes.append(
            f"w{k} AS MATERIALIZED (SELECT v.node, v.e, "
            f"(1.0 - {d}) * v.e + {d} * COALESCE(c.s, 0) AS rank "
            f"FROM w{k-1} v LEFT JOIN wc{k} c ON v.node = c.node)"
        )
    final = (f"SELECT node AS oid, ROUND(rank, 8) AS ppr "
             f"FROM w{rounds} ORDER BY oid")
    return "WITH " + ",\n".join(ctes) + "\n" + final


def _hits_sql(iters: int = 8) -> str:
    """Unrolled HITS hubs & authorities (programs/hits.py semantics):
    L1-normalized per iteration, with the engine's exact arithmetic
    order replicated — RAW vectors are aggregated first and the SUM is
    divided by the previous global norm (hraw0 = 1, nh0 = 1), so the
    only float divergence is summation order, absorbed by ROUND(,8)."""
    ctes = [
        _E, _U, _V,
        "hraw0 AS MATERIALIZED (SELECT node, 1.0 AS hraw FROM V)",
        "nh0 AS MATERIALIZED (SELECT 1.0 AS s)",
    ]
    for k in range(1, iters + 1):
        ctes.append(
            f"ac{k} AS MATERIALIZED (SELECT E.dst AS node, SUM(p.hraw) AS s FROM E "
            f"JOIN hraw{k-1} p ON E.src = p.node GROUP BY E.dst)"
        )
        ctes.append(
            f"a{k} AS MATERIALIZED (SELECT v.node, COALESCE(c.s, 0)/(SELECT s FROM nh{k-1}) AS a "
            f"FROM V v LEFT JOIN ac{k} c ON v.node = c.node)"
        )
        ctes.append(f"na{k} AS MATERIALIZED (SELECT SUM(a) AS s FROM a{k})")
        ctes.append(
            f"hc{k} AS MATERIALIZED (SELECT E.src AS node, SUM(q.a) AS s FROM E "
            f"JOIN a{k} q ON E.dst = q.node GROUP BY E.src)"
        )
        ctes.append(
            f"hraw{k} AS MATERIALIZED (SELECT v.node, COALESCE(c.s, 0)/(SELECT s FROM na{k}) AS hraw "
            f"FROM V v LEFT JOIN hc{k} c ON v.node = c.node)"
        )
        ctes.append(f"nh{k} AS MATERIALIZED (SELECT SUM(hraw) AS s FROM hraw{k})")
    final = (
        f"SELECT a.node AS oid, ROUND(a.a/(SELECT s FROM na{iters}), 8) AS authority, "
        f"ROUND(h.hraw/(SELECT s FROM nh{iters}), 8) AS hub "
        f"FROM a{iters} a JOIN hraw{iters} h ON a.node = h.node ORDER BY oid"
    )
    return "WITH " + ",\n".join(ctes) + "\n" + final


# unroll depths shared by the fixed-depth SQL oracles AND the engine-side
# query fns: run_graph_query(max_oracle_rounds=...) raises if the engine's
# measured round count reaches the oracle's unroll, so a larger scale
# factor can never silently under-iterate the oracle (calibrated at
# sf0.01 with ~2.5x margin)
_KCORE_DEPTH = 30
_CORENESS_DEPTH = 16
_MSBFS_DEPTH = 8


def _kcore_sql(k: int = 3, rounds: int = _KCORE_DEPTH) -> str:
    """Unrolled k-core peeling on the distinct undirected edge set:
    round r keeps vertices with >= k alive neighbors; the derived
    graphs converge well under 30 peels (the Ray side converges
    exactly and its round count is asserted < 30 in pytest)."""
    ctes = [_E, _U, "a0 AS MATERIALIZED (SELECT DISTINCT a AS node FROM U)"]
    for r in range(1, rounds + 1):
        ctes.append(
            f"d{r} AS MATERIALIZED (SELECT x.node, COUNT(*) AS deg FROM a{r-1} x "
            f"JOIN U u ON u.a = x.node JOIN a{r-1} y ON u.b = y.node GROUP BY x.node)"
        )
        ctes.append(f"a{r} AS MATERIALIZED (SELECT node FROM d{r} WHERE deg >= {k})")
    final = (
        f"SELECT v.node AS oid, CAST(CASE WHEN a.node IS NULL THEN 0 ELSE 1 END AS BIGINT) AS in_kcore "
        f"FROM a0 v LEFT JOIN a{rounds} a ON v.node = a.node ORDER BY oid"
    )
    return "WITH " + ",\n".join(ctes) + "\n" + final


def _coreness_sql(rounds: int = _CORENESS_DEPTH) -> str:
    """Unrolled h-index iteration (Lu et al. 2016): c0 = degree over
    the distinct undirected edge set; each round replaces c(v) with
    min(c(v), h-index of neighbors' c) via a ROW_NUMBER ranking.  The
    engine converges in 12 rounds at sf0.01 (measured; asserted in the
    parity test), 16 gives margin — extra rounds past the fixpoint are
    no-ops."""
    ctes = [_E, _U,
            "c0 AS MATERIALIZED (SELECT a AS node, COUNT(*) AS c FROM U GROUP BY a)"]
    for r in range(1, rounds + 1):
        ctes.append(
            f"h{r} AS MATERIALIZED (SELECT a AS node, MAX(LEAST(rnk, cv)) AS h FROM "
            f"(SELECT u.a AS a, c.c AS cv, ROW_NUMBER() OVER "
            f"(PARTITION BY u.a ORDER BY c.c DESC) AS rnk "
            f"FROM U u JOIN c{r-1} c ON u.b = c.node) GROUP BY a)"
        )
        ctes.append(
            f"c{r} AS MATERIALIZED (SELECT c.node, LEAST(c.c, COALESCE(h.h, 0)) AS c "
            f"FROM c{r-1} c LEFT JOIN h{r} h ON c.node = h.node)"
        )
    final = (f"SELECT node AS oid, CAST(c AS BIGINT) AS coreness "
             f"FROM c{rounds} ORDER BY oid")
    return "WITH " + ",\n".join(ctes) + "\n" + final


def _msbfs_sql(n_sources: int = 64, rounds: int = _MSBFS_DEPTH) -> str:
    """Unrolled 64-source BFS closeness base: sources = the n_sources
    smallest vertex ids (the engine picks gids 0..S-1, which ARE the
    smallest oids), per-round frontier expansion with MIN-d dedup.
    The engine converges in 4 rounds at sf0.01 (measured); 8 gives
    margin — extra rounds are no-ops."""
    ctes = [_E, _U, _V,
            f"S AS MATERIALIZED (SELECT node FROM V ORDER BY node LIMIT {n_sources})",
            "m0 AS MATERIALIZED (SELECT node AS src, node, 0 AS d FROM S)"]
    for r in range(1, rounds + 1):
        ctes.append(
            f"m{r} AS MATERIALIZED (SELECT src, node, MIN(d) AS d FROM ("
            f"SELECT src, node, d FROM m{r-1} UNION ALL "
            f"SELECT x.src, u.b AS node, {r} AS d FROM m{r-1} x "
            f"JOIN U u ON u.a = x.node WHERE x.d = {r-1}) GROUP BY src, node)"
        )
    final = (
        f"SELECT v.node AS oid, CAST(COUNT(m.src) AS BIGINT) AS n_reach, "
        f"CAST(COALESCE(SUM(m.d), 0) AS BIGINT) AS sum_dist "
        f"FROM V v LEFT JOIN m{rounds} m ON m.node = v.node "
        f"GROUP BY v.node ORDER BY oid"
    )
    return "WITH " + ",\n".join(ctes) + "\n" + final


def _cdlp_sql(rounds: int = 10) -> str:
    """Unrolled synchronous LPA with (count desc, label asc) tiebreak
    (cdlp_utils.h:28-60)."""
    ctes = [_E, _U, _V, "w0 AS (SELECT node, node AS lbl FROM V)"]
    for k in range(1, rounds + 1):
        ctes.append(
            f"c{k} AS (SELECT U.a AS node, p.lbl AS lbl, COUNT(*) AS c FROM U JOIN w{k-1} p ON U.b = p.node GROUP BY U.a, p.lbl)"
        )
        ctes.append(
            f"w{k} AS (SELECT node, lbl FROM (SELECT node, lbl, ROW_NUMBER() OVER "
            f"(PARTITION BY node ORDER BY c DESC, lbl ASC) AS rn FROM c{k}) WHERE rn = 1)"
        )
    return "WITH " + ",\n".join(ctes) + f"\nSELECT node AS oid, lbl AS label FROM w{rounds} ORDER BY oid"


_WCC_SQL = f"""
WITH RECURSIVE {_E},
{_U},
{_V},
r(node, lbl) AS (
  SELECT node, node FROM V
  UNION
  SELECT U.b, r.lbl FROM r JOIN U ON r.node = U.a WHERE r.lbl < U.b
)
SELECT node AS oid, MIN(lbl) AS comp FROM r GROUP BY node ORDER BY oid
"""

_TRI_COUNT_SQL = f"""
WITH {_E}, {_U}, {_UD}
SELECT CAST(COUNT(*) AS BIGINT) AS triangles
FROM UD e1 JOIN UD e2 ON e1.y = e2.x JOIN UD e3 ON e3.x = e1.x AND e3.y = e2.y
"""

_TRI_PER_VERTEX_SQL = f"""
WITH {_E}, {_U}, {_V}, {_UD},
T AS (SELECT e1.x AS ux, e1.y AS uy, e2.y AS uz
      FROM UD e1 JOIN UD e2 ON e1.y = e2.x JOIN UD e3 ON e3.x = e1.x AND e3.y = e2.y),
C AS (SELECT node, COUNT(*) AS c FROM (
        SELECT ux AS node FROM T UNION ALL SELECT uy FROM T UNION ALL SELECT uz FROM T
      ) GROUP BY node)
SELECT v.node AS oid, CAST(COALESCE(C.c, 0) AS BIGINT) AS tricnt
FROM V v LEFT JOIN C ON v.node = C.node ORDER BY oid
"""

_BFS_SQL = f"""
WITH RECURSIVE {_E}, {_U}, {_V},
bf(node, d) AS (
  SELECT (SELECT MIN(node) FROM V), 0
  UNION
  SELECT E.dst, bf.d + 1 FROM bf JOIN E ON bf.node = E.src WHERE bf.d < {K + 10}
)
SELECT v.node AS oid, CAST(COALESCE(MIN(bf.d), -1) AS BIGINT) AS depth
FROM V v LEFT JOIN bf ON v.node = bf.node GROUP BY v.node ORDER BY oid
"""

_IN_DEGREE_SQL = f"""
WITH {_E}, {_U}, {_V}
SELECT v.node AS oid, CAST(COUNT(E.dst) AS BIGINT) AS in_degree
FROM V v LEFT JOIN E ON E.dst = v.node GROUP BY v.node ORDER BY oid
"""

_BFS_REV_SQL = f"""
WITH RECURSIVE {_E}, {_U}, {_V},
bf(node, d) AS (
  SELECT (SELECT MIN(node) FROM V), 0
  UNION
  SELECT E.src, bf.d + 1 FROM bf JOIN E ON bf.node = E.dst WHERE bf.d < {K + 10}
)
SELECT v.node AS oid, CAST(COALESCE(MIN(bf.d), -1) AS BIGINT) AS depth
FROM V v LEFT JOIN bf ON v.node = bf.node GROUP BY v.node ORDER BY oid
"""

def _sssp_sql(rounds: int = 30) -> str:
    """Unrolled Bellman-Ford on the weighted derived graph
    (w = MIN(l_quantity) per distinct (src,dst)); the derived graph
    converges in <= 20 sweeps at every test sf (measured), 30 gives
    margin.  Matches sssp.h's min-plus relaxation semantics."""
    K_ = K
    ctes = [
        f"""EW AS MATERIALIZED (
  SELECT CAST(l_orderkey % {K_} AS BIGINT) AS src,
         CAST((l_partkey * 7 + l_suppkey) % {K_} AS BIGINT) AS dst,
         CAST(MIN(l_quantity) AS DOUBLE) AS w
  FROM lineitem
  WHERE (l_orderkey % {K_}) <> ((l_partkey * 7 + l_suppkey) % {K_})
  GROUP BY 1, 2)""",
        "VW AS MATERIALIZED (SELECT DISTINCT node FROM "
        "(SELECT src AS node FROM EW UNION SELECT dst FROM EW))",
        "d0 AS MATERIALIZED (SELECT node, CASE WHEN node = (SELECT MIN(node) FROM VW) "
        "THEN 0.0 ELSE CAST('infinity' AS DOUBLE) END AS d FROM VW)",
    ]
    for k in range(1, rounds + 1):
        ctes.append(
            f"m{k} AS MATERIALIZED (SELECT EW.dst AS node, MIN(p.d + EW.w) AS md "
            f"FROM EW JOIN d{k-1} p ON EW.src = p.node WHERE NOT isinf(p.d) GROUP BY EW.dst)"
        )
        ctes.append(
            f"d{k} AS MATERIALIZED (SELECT v.node, LEAST(v.d, COALESCE(m{k}.md, "
            f"CAST('infinity' AS DOUBLE))) AS d FROM d{k-1} v LEFT JOIN m{k} ON v.node = m{k}.node)"
        )
    final = (
        f"SELECT node AS oid, CASE WHEN isinf(d) THEN d ELSE ROUND(d, 8) END AS dist "
        f"FROM d{rounds} ORDER BY oid"
    )
    return "WITH " + ",\n".join(ctes) + "\n" + final


_TAG_MATCH_SQL = f"""
WITH {_E}, {_U}, {_V},
P AS MATERIALIZED (
  SELECT CAST(o_orderkey % {K} AS BIGINT) AS oid, o_orderpriority AS tag,
         ROW_NUMBER() OVER (PARTITION BY o_orderkey % {K}
                            ORDER BY o_orderkey DESC) AS rn
  FROM orders),
TAG AS (SELECT oid, tag FROM P WHERE rn = 1),
M AS (SELECT E.src AS node, COUNT(*) AS c
      FROM E
      LEFT JOIN TAG ts ON ts.oid = E.src
      LEFT JOIN TAG td ON td.oid = E.dst
      WHERE COALESCE(ts.tag, '') = COALESCE(td.tag, '')
      GROUP BY E.src)
SELECT v.node AS oid, CAST(COALESCE(M.c, 0) AS BIGINT) AS match_count
FROM V v LEFT JOIN M ON v.node = M.node ORDER BY oid
"""

_MULTIHOP_SQL = f"""
WITH EW AS MATERIALIZED (
  SELECT CAST(l_orderkey % {K} AS BIGINT) AS src,
         CAST((l_partkey * 7 + l_suppkey) % {K} AS BIGINT) AS dst,
         CAST(MIN(l_quantity) AS DOUBLE) AS w
  FROM lineitem
  WHERE (l_orderkey % {K}) <> ((l_partkey * 7 + l_suppkey) % {K})
  GROUP BY 1, 2),
VW AS (SELECT DISTINCT node FROM (SELECT src AS node FROM EW UNION SELECT dst FROM EW)),
R AS MATERIALIZED (
  SELECT src, dst,
         ROW_NUMBER() OVER (PARTITION BY src ORDER BY w DESC, dst) AS rk
  FROM EW),
roots AS (SELECT node FROM VW ORDER BY node LIMIT 3),
H1 AS (SELECT roots.node AS root, R.src, R.dst
       FROM roots JOIN R ON R.src = roots.node WHERE R.rk <= 3),
H2 AS (SELECT h1.root, R.src, R.dst
       FROM H1 h1 JOIN R ON R.src = h1.dst WHERE R.rk <= 2)
SELECT CAST(1 AS BIGINT) AS hop, root, src AS src_oid, dst AS dst_oid FROM H1
UNION ALL
SELECT CAST(2 AS BIGINT), root, src, dst FROM H2
"""

_NBR_VDATA_SQL = f"""
WITH {_E}, {_U}, {_V},
VD AS MATERIALIZED (SELECT CAST(o_orderkey % {K} AS BIGINT) AS node,
                           CAST(COUNT(*) AS BIGINT) AS val
                    FROM orders GROUP BY 1)
SELECT v.node AS oid, CAST(COALESCE(SUM(vd.val), 0) AS BIGINT) AS nbr_val_sum
FROM V v LEFT JOIN E e ON v.node = e.src LEFT JOIN VD vd ON e.dst = vd.node
GROUP BY v.node ORDER BY oid
"""

_DEDUP_SQL = """
SELECT doc_id, md5(text) AS h FROM documents
QUALIFY ROW_NUMBER() OVER (PARTITION BY md5(text) ORDER BY doc_id) = 1
ORDER BY doc_id
"""

_TOKEN_SQL = r"""
SELECT doc_id,
       CAST(length(text) AS BIGINT) AS n_chars,
       CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens
FROM documents ORDER BY doc_id
"""

_QUALITY_SQL = r"""
SELECT doc_id,
       CAST(length(text) AS BIGINT) AS n_chars,
       CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens,
       CAST(len(regexp_extract_all(text, '[A-Za-z]')) AS BIGINT) AS n_alpha,
       CAST(len(regexp_extract_all(text, '[0-9]')) AS BIGINT) AS n_digit,
       CAST(len(regexp_extract_all(text, '[.,;:!?]')) AS BIGINT) AS n_punct,
       ROUND(CAST(len(regexp_extract_all(text, '[A-Za-z]')) AS DOUBLE)
             / GREATEST(length(text), 1), 8) AS alpha_ratio
FROM documents ORDER BY doc_id
"""

_LANG_SQL = r"""
WITH h AS (
  SELECT doc_id,
    CAST(len(regexp_extract_all(lower(text), '\b(the|and|of|to|a|in|is|it)\b')) AS BIGINT) AS en_hits,
    CAST(len(regexp_extract_all(lower(text), '\b(der|und|das|zu|ein|ist|nicht|mit)\b')) AS BIGINT) AS de_hits,
    CAST(len(regexp_extract_all(lower(text), '\b(le|et|de|un|est|pas|que|pour)\b')) AS BIGINT) AS fr_hits
  FROM documents)
SELECT doc_id,
       CASE WHEN en_hits >= de_hits AND en_hits >= fr_hits THEN 'en'
            WHEN de_hits >= fr_hits THEN 'de' ELSE 'fr' END AS pred_lang,
       en_hits, de_hits, fr_hits
FROM h ORDER BY doc_id
"""

_HOURLY_SQL = """
SELECT user_id,
       CAST((epoch_us(ts) // 3600000000) * 3600000000 AS BIGINT) AS hour_start_us,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       ROUND(SUM(value), 6) AS sum_value
FROM events GROUP BY 1, 2 ORDER BY 1, 2
"""

_TOP_TOKENS_SQL = """
WITH toks AS (
  SELECT UNNEST(string_split_regex(text, '\\s+')) AS token FROM documents
)
SELECT token, CAST(COUNT(*) AS BIGINT) AS n
FROM toks WHERE token <> ''
GROUP BY token ORDER BY n DESC, token ASC LIMIT 100
"""

_SLIDING_SQL = """
WITH x AS (SELECT user_id, epoch_us(ts) AS ts_us, value FROM events),
k AS (SELECT UNNEST(range(4)) AS k),
e AS (SELECT user_id, ((ts_us // 900000000) - k.k) * 900000000 AS ws, value
      FROM x CROSS JOIN k)
SELECT user_id,
       CAST(ws AS BIGINT) AS window_start_us,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       ROUND(SUM(value), 6) AS sum_value
FROM e GROUP BY 1, 2 ORDER BY 1, 2
"""

_QUANTILES_SQL = """
WITH v AS (SELECT value, ROW_NUMBER() OVER (ORDER BY value) - 1 AS rnk FROM events),
n AS (SELECT COUNT(*) AS c FROM v),
qs AS (SELECT CAST(UNNEST([0.1, 0.5, 0.9, 0.99]) AS DOUBLE) AS q)
SELECT qs.q,
       CAST(FLOOR(qs.q * ((SELECT c FROM n) - 1)) AS BIGINT) AS rank,
       v.value
FROM qs JOIN v ON v.rnk = CAST(FLOOR(qs.q * ((SELECT c FROM n) - 1)) AS BIGINT)
ORDER BY qs.q
"""

_SESSION_SQL = """
WITH x AS (SELECT user_id, epoch_us(ts) AS ts_us FROM events),
y AS (SELECT user_id, ts_us,
             CASE WHEN LAG(ts_us) OVER w IS NULL
                       OR ts_us - LAG(ts_us) OVER w > 1800000000
                  THEN 1 ELSE 0 END AS brk
      FROM x WINDOW w AS (PARTITION BY user_id ORDER BY ts_us)),
z AS (SELECT user_id, ts_us,
             SUM(brk) OVER (PARTITION BY user_id ORDER BY ts_us
                            ROWS UNBOUNDED PRECEDING) AS session_id
      FROM y)
SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
       CAST(MIN(ts_us) AS BIGINT) AS session_start_us,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM z GROUP BY user_id, session_id ORDER BY user_id, session_id
"""

_ANN_SQL = """
WITH q AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings WHERE vec_id < 5),
s AS (SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
             list_cosine_similarity(q.v, CAST(e.embedding AS DOUBLE[])) AS sim
      FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.vec_id)
SELECT query_id, neighbor_id, CAST(rank AS BIGINT) AS rank FROM (
  SELECT query_id, neighbor_id,
         ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY sim DESC, neighbor_id ASC) AS rank
  FROM s)
WHERE rank <= 10 ORDER BY query_id, rank
"""

_MINHASH_SQL = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS t FROM documents
),
sh AS (
  SELECT doc_id,
    CASE WHEN len(t) = 0 THEN []::VARCHAR[]
         WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
         ELSE list_transform(range(1, len(t) - 1),
                             j -> t[j] || ' ' || t[j+1] || ' ' || t[j+2])
    END AS shingles
  FROM toks
),
ex AS (SELECT doc_id, unnest(list_distinct(shingles)) AS s FROM sh),
mh AS (
  SELECT doc_id, r.i AS i, MIN(md5(r.i::VARCHAR || '|' || s)) AS h
  FROM ex CROSS JOIN range(12) r(i) GROUP BY doc_id, r.i
),
sig AS (SELECT doc_id, list(h ORDER BY i) AS hs FROM mh GROUP BY doc_id),
bandsx AS (
  SELECT doc_id, r.i AS b,
         md5(array_to_string(hs[r.i*3+1 : r.i*3+3], '|')) AS bh
  FROM sig CROSS JOIN range(4) r(i)
),
capped AS (
  SELECT doc_id, b, bh FROM bandsx
  QUALIFY ROW_NUMBER() OVER (PARTITION BY b, bh ORDER BY doc_id) <= 64
),
pairs AS (
  SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
  FROM capped x JOIN capped y ON x.b = y.b AND x.bh = y.bh AND x.doc_id < y.doc_id
),
shs AS (SELECT doc_id, list_distinct(shingles) AS ss FROM sh),
jac AS (
  SELECT p.a, p.b,
         CASE WHEN len(list_distinct(sa.ss || sb.ss)) = 0 THEN 0.0
              ELSE len(list_intersect(sa.ss, sb.ss))::DOUBLE
                   / len(list_distinct(sa.ss || sb.ss)) END AS j
  FROM pairs p JOIN shs sa ON p.a = sa.doc_id JOIN shs sb ON p.b = sb.doc_id
)
SELECT a, b, ROUND(j, 8) AS jaccard FROM jac WHERE j >= 0.7 ORDER BY a, b
"""

_NGRAM_SQL = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS t FROM documents
),
sh AS (
  SELECT doc_id,
    CASE WHEN len(t) = 0 THEN []::VARCHAR[]
         WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
         ELSE list_transform(range(1, len(t) - 1),
                             j -> t[j] || ' ' || t[j+1] || ' ' || t[j+2])
    END AS shingles
  FROM toks
),
ex AS (SELECT doc_id, unnest(list_distinct(shingles)) AS s FROM sh),
exh AS (SELECT doc_id, substr(md5(s), 1, 16) AS h FROM ex),
capped AS (
  SELECT doc_id, h FROM exh
  QUALIFY ROW_NUMBER() OVER (PARTITION BY h ORDER BY doc_id) <= 256
),
pairs AS (
  SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
  FROM capped x JOIN capped y ON x.h = y.h AND x.doc_id < y.doc_id
),
shs AS (SELECT doc_id, list_distinct(shingles) AS ss FROM sh),
jac AS (
  SELECT p.a, p.b,
         CASE WHEN len(list_distinct(sa.ss || sb.ss)) = 0 THEN 0.0
              ELSE len(list_intersect(sa.ss, sb.ss))::DOUBLE
                   / len(list_distinct(sa.ss || sb.ss)) END AS j
  FROM pairs p JOIN shs sa ON p.a = sa.doc_id JOIN shs sb ON p.b = sb.doc_id
)
SELECT a, b, ROUND(j, 8) AS jaccard FROM jac WHERE j >= 0.5 ORDER BY a, b
"""

# The full training-data cleaning pipeline composed end-to-end:
# quality filter -> MinHash pair graph over the SURVIVORS -> transitive
# closure -> keep one doc per near-dup cluster -> token counts.
# The pair CTEs are _MINHASH_SQL retargeted at the filtered corpus
# (CTE `fdocs`); thresholds use the same ROUND(...,8) the Ray kernel
# applies so boundary docs can't flip sides.
_CORPUS_CLEAN_SQL = f"""
WITH RECURSIVE fdocs AS MATERIALIZED (
  SELECT doc_id, text FROM documents
  WHERE ROUND(CAST(len(regexp_extract_all(text, '[A-Za-z]')) AS DOUBLE)
              / GREATEST(length(text), 1), 8) >= 0.815
    AND len(regexp_extract_all(text, '\\S+')) >= 20
),
P AS MATERIALIZED (
  SELECT a, b FROM ({_MINHASH_SQL.replace("FROM documents", "FROM fdocs")}) q
),
UU AS (SELECT a AS u, b AS v FROM P UNION ALL SELECT b, a FROM P),
NN AS (SELECT DISTINCT u AS node FROM UU),
r(node, lbl) AS (
  SELECT node, node FROM NN
  UNION
  SELECT UU.v, r.lbl FROM r JOIN UU ON r.node = UU.u WHERE r.lbl < UU.v
),
comp AS (SELECT node, MIN(lbl) AS c FROM r GROUP BY node)
SELECT f.doc_id,
       CAST(len(regexp_extract_all(f.text, '\\S+')) AS BIGINT) AS n_tokens
FROM fdocs f LEFT JOIN comp ON f.doc_id = comp.node
WHERE COALESCE(comp.c, f.doc_id) = f.doc_id
ORDER BY f.doc_id
"""


# Dedup clustering: the MinHash pair graph's transitive closure, the
# same min-label recursion as _WCC_SQL, left-joined to the corpus
# (docs with no verified near-dup are their own cluster).
_DEDUP_CLUSTER_SQL = f"""
WITH RECURSIVE P AS MATERIALIZED (
  SELECT a, b FROM ({_MINHASH_SQL}) q
),
UU AS (SELECT a AS u, b AS v FROM P UNION ALL SELECT b, a FROM P),
NN AS (SELECT DISTINCT u AS node FROM UU),
r(node, lbl) AS (
  SELECT node, node FROM NN
  UNION
  SELECT UU.v, r.lbl FROM r JOIN UU ON r.node = UU.u WHERE r.lbl < UU.v
),
comp AS (SELECT node, MIN(lbl) AS c FROM r GROUP BY node)
SELECT d.doc_id, CAST(COALESCE(comp.c, d.doc_id) AS BIGINT) AS cluster
FROM documents d LEFT JOIN comp ON d.doc_id = comp.node ORDER BY d.doc_id
"""

_EMB_NEARDUP_SQL = """
WITH q AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings)
SELECT x.vec_id AS a, y.vec_id AS b,
       ROUND(list_cosine_similarity(x.v, y.v), 8) AS cos
FROM q x JOIN q y ON x.vec_id < y.vec_id
WHERE list_cosine_similarity(x.v, y.v) >= 0.45 ORDER BY a, b
"""

# SimHash-in-SQL: identical md5-derived 64-bit token hashes (first 16
# hex chars == first 8 digest bytes big-endian), per-bit +/-1 vote,
# two's-complement int64 assembly (bit 63 via the MIN_BIGINT constant —
# 1<<63 overflows BIGINT).  Shared CTE for signatures and pairs.
_SIMHASH_CTES = r"""
toks AS MATERIALIZED (
  SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS tok FROM documents
),
th AS MATERIALIZED (
  SELECT doc_id, ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS h FROM toks
),
bits AS MATERIALIZED (
  SELECT doc_id, i.i AS i,
         SUM(CASE WHEN (h >> i.i) & 1 = 1 THEN 1 ELSE -1 END) AS acc
  FROM th CROSS JOIN (SELECT unnest(range(64)) AS i) i
  GROUP BY doc_id, i.i
),
sim0 AS MATERIALIZED (
  SELECT doc_id,
         SUM(CASE WHEN acc > 0 THEN
               CASE WHEN i = 63 THEN -9223372036854775807 - 1
                    ELSE (1::BIGINT << i) END
             ELSE 0 END)::BIGINT AS simhash
  FROM bits GROUP BY doc_id
),
sim AS MATERIALIZED (
  -- a document with zero \S+ tokens vanishes after the unnest, but
  -- simhash64 emits signature 0 for it: LEFT JOIN back to documents
  -- so the oracle covers empty/whitespace-only texts too
  SELECT d.doc_id, COALESCE(s.simhash, 0)::BIGINT AS simhash
  FROM documents d LEFT JOIN sim0 s ON d.doc_id = s.doc_id
)
"""

_SIMHASH_SQL = f"WITH {_SIMHASH_CTES} SELECT doc_id, simhash FROM sim ORDER BY doc_id"

# Exact O(n^2) reference for the banded pair search: the 4x16-bit
# blocking is lossless at max_hamming<=3 (pigeonhole), so the bucketed
# distributed search must equal the brute-force cross join.
_SIMHASH_PAIRS_SQL = f"""
WITH {_SIMHASH_CTES}
SELECT x.doc_id AS a, y.doc_id AS b
FROM sim x JOIN sim y ON x.doc_id < y.doc_id
WHERE bit_count(xor(x.simhash, y.simhash)) <= 3
ORDER BY a, b
"""

_DEGREE_HIST_SQL = f"""
WITH {_E}, {_U}, {_V},
D AS (SELECT v.node, COALESCE(c.c, 0) AS deg FROM V v LEFT JOIN
      (SELECT src, COUNT(*) AS c FROM E GROUP BY src) c ON v.node = c.src)
SELECT CAST(deg AS BIGINT) AS degree, CAST(COUNT(*) AS BIGINT) AS n_vertices
FROM D GROUP BY deg ORDER BY degree
"""

_OUT_DEGREE_SQL = f"WITH {_E} SELECT src, CAST(COUNT(*) AS BIGINT) AS out_degree FROM E GROUP BY src ORDER BY src"
_EDGES_SQL = f"WITH {_E} SELECT src, dst FROM E ORDER BY src, dst"


# ------------------------------------------------------------------ Ray side


def _edges_distinct(sf_dir: str):
    from ray.data.aggregate import Count

    from libgrape_lite_ray.pipelines.tpch_graph import derived_edges

    return (
        derived_edges(sf_dir)
        .groupby(["src", "dst"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["src", "dst"])
    )


def _q_edges(sf_dir: str):
    return _edges_distinct(sf_dir)


def _q_kcore(sf_dir: str):
    """k-core membership on the symmetrized derived graph via the
    engine KCore peeling program (programs/kcore.py).  k=44 peels a
    real boundary at sf0.01 (59 vertices cascade out; k=46 empties the
    graph) so the oracle checks actual peeling, not a no-op."""
    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    return run_graph_query(sf_dir, "kcore", {"k": 44}, variant="undirected",
                           max_oracle_rounds=_KCORE_DEPTH)


def _q_coreness(sf_dir: str):
    """Full core decomposition on the symmetrized derived graph via the
    engine h-index-iteration program (programs/coreness.py)."""
    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    return run_graph_query(sf_dir, "coreness", variant="undirected",
                           max_oracle_rounds=_CORENESS_DEPTH)


def _q_msbfs(sf_dir: str):
    """64-way bit-parallel multi-source BFS (programs/msbfs.py): exact
    (n_reach, sum_dist) closeness base from the 64 smallest-oid
    sources."""
    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    return run_graph_query(sf_dir, "msbfs", {"n_sources": 64},
                           variant="undirected",
                           max_oracle_rounds=_MSBFS_DEPTH)


def _q_hll_tokens(sf_dir: str):
    """Approximate distinct-token count over the documents table via
    the HyperLogLog sketch (ops/sketch.py) — rows-only by design
    (~1.6% rel. error at p=12; deterministic for a given corpus).
    Returns one row (estimate, p) plus the corpus doc count."""
    import os

    import pyarrow as pa
    import ray.data as rd

    from libgrape_lite_ray.ops.sketch import hll_distinct

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["text"])

    def toks(t):
        import pyarrow.compute as pc

        flat = pc.list_flatten(pc.ascii_split_whitespace(t.column("text")))
        return pa.table({"tok": flat.filter(pc.not_equal(flat, ""))})

    est, _ = hll_distinct(docs.map_batches(toks, batch_format="pyarrow",
                                           batch_size=None), "tok", p=12)
    return pa.table({"distinct_tokens_est": pa.array([round(est, 1)]),
                     "p": pa.array([12], pa.int64())})


def _q_quantiles(sf_dir: str):
    """Exact distributed quantiles of events.value: distributed sort +
    rank-select fetching only the rank-holding blocks
    (ops/quantile.py)."""
    import os

    import ray.data as rd

    from libgrape_lite_ray.ops.quantile import exact_quantiles

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["value"])
    return exact_quantiles(ev, "value", [0.1, 0.5, 0.9, 0.99])


def _q_degree_hist(sf_dir: str):
    """Degree-distribution histogram STAYING DISTRIBUTED end to end:
    the engine's zero-superstep Degree program (CSR row lengths, M6 /
    GetLocalOutDegree analog) -> Dataset groupby over the V-sized
    result — no oid re-attach, no driver-side histogram."""
    from ray.data.aggregate import Count

    from libgrape_lite_ray.graph.driver import GraphEngine
    from libgrape_lite_ray.pipelines.tpch_graph import graph_meta_for

    meta = graph_meta_for(sf_dir, "directed")
    eng = GraphEngine(meta)
    try:
        handle, _ = eng.run("degree")
        out = (handle.to_dataset().select_columns(["degree"])
               .groupby("degree")
               .aggregate(Count(alias_name="n_vertices"))
               .materialize())  # consume before the engine goes away
    finally:
        eng.shutdown()
    return out


def _q_out_degree(sf_dir: str):
    from ray.data.aggregate import Count

    return (
        _edges_distinct(sf_dir)
        .groupby("src")
        .aggregate(Count(alias_name="out_degree"))
    )


def _q_pagerank(sf_dir: str):
    import pyarrow.compute as pc

    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    t = run_graph_query(sf_dir, "pagerank", {"rounds": 10, "damping": 0.85}, variant="directed")
    return t.set_column(t.schema.get_field_index("pagerank"), "pagerank",
                        pc.round(t.column("pagerank"), ndigits=8))


def _q_ppr(sf_dir: str):
    """Personalized PageRank from the 4 smallest-oid seed pages
    (programs/ppr.py): topic-sensitive relevance over the derived
    directed graph, 8 fixed rounds, dangling mass leaks (standard
    random-walk-with-restart)."""
    import pyarrow.compute as pc

    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    t = run_graph_query(sf_dir, "ppr",
                        {"sources": [0, 1, 2, 3], "rounds": 8, "damping": 0.85},
                        variant="directed")
    return t.set_column(t.schema.get_field_index("ppr"), "ppr",
                        pc.round(t.column("ppr"), ndigits=8))


def _q_ppr_weighted(sf_dir: str):
    """Weighted personalized PageRank on the weighted derived graph
    (w = MIN(l_quantity) per edge): transitions proportional to edge
    weight via the engine's cached per-edge transition array."""
    import pyarrow.compute as pc

    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    t = run_graph_query(sf_dir, "ppr",
                        {"sources": [0, 1, 2, 3], "rounds": 8,
                         "damping": 0.85, "weighted": True},
                        variant="weighted")
    return t.set_column(t.schema.get_field_index("ppr"), "ppr",
                        pc.round(t.column("ppr"), ndigits=8))


def _q_hits(sf_dir: str):
    """HITS hubs & authorities (programs/hits.py): 8 L1-normalized
    iterations over the derived directed graph, run as 2 supersteps
    per iteration (push a-phase, pull h-phase) with per-round global
    norms over the Communicator channel."""
    import pyarrow.compute as pc

    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    t = run_graph_query(sf_dir, "hits", {"rounds": 8}, variant="directed")
    for col in ("authority", "hub"):
        t = t.set_column(t.schema.get_field_index(col), col,
                         pc.round(t.column(col), ndigits=8))
    return t


def _q_pagerank_local(sf_dir: str):
    import pyarrow.compute as pc

    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    t = run_graph_query(sf_dir, "pagerank_local",
                        {"rounds": 10, "damping": 0.85}, variant="directed")
    return t.set_column(t.schema.get_field_index("pagerank"), "pagerank",
                        pc.round(t.column("pagerank"), ndigits=8))


def _oid_labels(sf_dir: str, program: str, params: dict, col: str):
    """A label-valued program (a component's min member, a community)
    on the undirected derived graph, its labels mapped gid -> oid as the
    oracles label.  gid is the rank in oid order, so the map keeps every
    min and every smallest-label tie-break."""
    from libgrape_lite_ray.pipelines.tpch_graph import graph_meta_for, run_graph_query

    t = run_graph_query(sf_dir, program, params, variant="undirected")
    return t.set_column(t.schema.get_field_index(col), col,
                        graph_meta_for(sf_dir, "undirected").oids_of(t.column(col)))


def _q_wcc(sf_dir: str):
    return _oid_labels(sf_dir, "wcc", {}, "comp")


def _q_cdlp(sf_dir: str):
    return _oid_labels(sf_dir, "cdlp", {"rounds": 10}, "label")


def _q_triangle_count(sf_dir: str):
    import pyarrow as pa

    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    t = run_graph_query(sf_dir, "lcc", variant="undirected")
    total = int(pa.compute.sum(t.column("tricnt")).as_py()) // 3
    return pa.table({"triangles": pa.array([total], pa.int64())})


def _q_tricnt(sf_dir: str):
    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    return run_graph_query(sf_dir, "lcc", variant="undirected").select(["oid", "tricnt"])


def _q_bfs(sf_dir: str):
    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    return run_graph_query(sf_dir, "bfs", {"source": 0}, variant="directed")


def _q_in_degree(sf_dir: str):
    """In-degree from the ENGINE's reversed fragments (LoadStrategy
    kBothOutIn, build.reverse_graph): one route-only transpose of the
    already-built directed graph's CSRs — no re-extract, no second
    dictionary build; the reversed fragments' out-CSR row lengths are
    the in-degrees."""
    import pyarrow as pa

    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    t = run_graph_query(sf_dir, "degree", {}, variant="reversed")
    return t.rename_columns(["oid", "in_degree"])


def _q_nbr_tag_match(sf_dir: str):
    """STRING-vdata path end to end (grape/types.h:30-39 VDATA_T):
    per-vertex count of out-neighbors sharing the vertex's string tag
    (o_orderpriority of the max orderkey), through translate -> route
    -> one-time mirror sync -> factorized per-edge equality."""
    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    t = run_graph_query(sf_dir, "vdata_match_count", {}, variant="vdata_str")
    return t


def _q_sample_multihop(sf_dir: str):
    """Query-driven multi-hop TOP-K-by-weight walk from the 3 smallest
    vertices, hop_and_num=[3,2] (sampler.h:154-205 analog; top-k is
    deterministic — heaviest edge first, ties by neighbor id — so the
    SQL window-function oracle is exact, including path
    multiplicities)."""
    from libgrape_lite_ray.graph.build import attach_oids
    from libgrape_lite_ray.graph.driver import GraphEngine
    from libgrape_lite_ray.pipelines.tpch_graph import graph_meta_for

    meta = graph_meta_for(sf_dir, "weighted")
    eng = GraphEngine(meta)
    try:
        ds, _ = eng.run("sample_multihop", {
            "sources": [0, 1, 2], "hop_and_num": [3, 2], "strategy": "topk"})
        t = ds.to_arrow()
    finally:
        eng.shutdown()
    for col, name in [("root_gid", "root"), ("src_gid", "src_oid"),
                      ("dst_gid", "dst_oid")]:
        t = attach_oids(t, meta, gid_col=col, oid_name=name)
        t = t.drop_columns([col])
    return t


def _q_bfs_rev(sf_dir: str):
    """Reverse BFS (hop depth along IN-edges) on the reversed
    fragments — the SendMsgThroughIEdges direction
    (default_message_manager.h:175-268) exercised end to end."""
    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    return run_graph_query(sf_dir, "bfs", {"source": 0}, variant="reversed")


def _q_sssp(sf_dir: str):
    import numpy as np
    import pyarrow as pa

    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    t = run_graph_query(sf_dir, "sssp", {"source": 0}, variant="weighted")
    d = t.column("dist").to_numpy(zero_copy_only=False)
    d = np.where(np.isinf(d), d, np.round(d, 8))
    return t.set_column(t.schema.get_field_index("dist"), "dist", pa.array(d, pa.float64()))


def _q_nbr_vdata_sum(sf_dir: str):
    """Per-vertex sum of a vertex property (order count) over
    out-neighbors — exercises the full VDATA path: property translate,
    per-owner routing, one-time mirror vdata sync, neighbor gather."""
    import pyarrow as pa

    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    t = run_graph_query(sf_dir, "vdata_sum", {"col": "val"}, variant="vdata")
    s = t.column("nbr_val_sum").to_numpy(zero_copy_only=False)
    return t.set_column(t.schema.get_field_index("nbr_val_sum"), "nbr_val_sum",
                        pa.array(s.astype("int64"), pa.int64()))


def _docs(sf_dir: str):
    import os

    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])


def _q_dedup_exact(sf_dir: str):
    from libgrape_lite_ray.ops.dedup import exact_dedup

    return exact_dedup(_docs(sf_dir))


def _q_token_count(sf_dir: str):
    from libgrape_lite_ray.ops.text import token_stats

    return _docs(sf_dir).map_batches(token_stats, batch_format="pyarrow", batch_size=None)


def _q_quality(sf_dir: str):
    from libgrape_lite_ray.ops.text import quality_stats

    return _docs(sf_dir).map_batches(quality_stats, batch_format="pyarrow", batch_size=None)


def _q_lang_id(sf_dir: str):
    from libgrape_lite_ray.ops.text import lang_id

    return _docs(sf_dir).map_batches(lang_id, batch_format="pyarrow", batch_size=None)


def _q_fingerprint(sf_dir: str):
    from libgrape_lite_ray.ops.text import fingerprint

    return _docs(sf_dir).map_batches(fingerprint, batch_format="pyarrow", batch_size=None)


def _q_hourly(sf_dir: str):
    import os

    import ray.data as rd

    from libgrape_lite_ray.ops.window import hourly_rollup

    import pyarrow.compute as pc

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "value"])
    t = hourly_rollup(ev)

    def rnd(b):
        return b.set_column(b.schema.get_field_index("sum_value"), "sum_value",
                            pc.round(b.column("sum_value"), ndigits=6))

    return t.map_batches(rnd, batch_format="pyarrow", batch_size=None)


def _q_top_tokens(sf_dir: str):
    import os

    import ray.data as rd

    from libgrape_lite_ray.ops.text import top_tokens

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["text"])
    return top_tokens(docs, k=100)


def _q_sliding(sf_dir: str):
    import os

    import ray.data as rd

    import pyarrow.compute as pc

    from libgrape_lite_ray.ops.window import sliding_rollup

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "value"])
    t = sliding_rollup(ev, window_minutes=60, hop_minutes=15)

    def rnd(b):
        return b.set_column(b.schema.get_field_index("sum_value"), "sum_value",
                            pc.round(b.column("sum_value"), ndigits=6))

    return t.map_batches(rnd, batch_format="pyarrow", batch_size=None)


def _q_sessionize(sf_dir: str):
    import os

    import ray.data as rd

    from libgrape_lite_ray.ops.window import sessionize

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"])
    return sessionize(ev)


def _q_ann(sf_dir: str):
    import os

    import ray.data as rd

    from libgrape_lite_ray.ops.ann import brute_topk

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    return brute_topk(emb, query_ids=[0, 1, 2, 3, 4], k=10)


def _q_ann_ivf(sf_dir: str):
    """IVF-indexed ANN (the scale path): approximate by design, so this
    is a rows-only check — deterministic given the fixed seed."""
    import os

    import ray.data as rd

    from libgrape_lite_ray.ops.ann import ivf_topk

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    return ivf_topk(emb, query_ids=[0, 1, 2, 3, 4], k=10, n_lists=32, n_probe=8)


def _q_minhash_pairs(sf_dir: str):
    """mode="md5": the oracle-parity signature kernel (DuckDB md5()
    reproduces the signatures bit-for-bit); the library default is the
    vectorized FNV "fast" mode (see ops/dedup.py docstring)."""
    from libgrape_lite_ray.ops.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(_docs(sf_dir), mode="md5")


def _q_dedup_clusters(sf_dir: str):
    """Keep-one-per-cluster dedup: MinHash pair graph -> engine WCC ->
    per-doc canonical cluster id (md5 signature mode for oracle
    parity; transitive closure checked against the recursive SQL)."""
    from libgrape_lite_ray.pipelines.dedup_cluster import (cluster_cache_dir,
                                                           dedup_clusters)

    return dedup_clusters(_docs(sf_dir), cluster_cache_dir(sf_dir),
                          mode="md5")


def _q_corpus_clean(sf_dir: str):
    """The canonical training-data cleaning pipeline, composed from
    the library's own stages: quality filter (alpha_ratio >= 0.815,
    n_tokens >= 20) -> near-dup clustering over the survivors (MinHash
    md5 pair graph -> engine WCC) -> keep one doc per cluster ->
    per-survivor token counts."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from libgrape_lite_ray.ops.text import quality_stats
    from libgrape_lite_ray.pipelines.dedup_cluster import (cluster_cache_dir,
                                                           dedup_clusters,
                                                           dedup_keep)

    def qfilter(t: pa.Table) -> pa.Table:
        s = quality_stats(t)
        keep = pc.and_(
            pc.greater_equal(s.column("alpha_ratio"), pa.scalar(0.815)),
            pc.greater_equal(s.column("n_tokens"), pa.scalar(20)),
        )
        return t.filter(keep)

    docs = (_docs(sf_dir)
            .map_batches(qfilter, batch_format="pyarrow", batch_size=None)
            .materialize())  # feeds the pair op (sig + verify) and the keep join
    clusters = dedup_clusters(docs, cluster_cache_dir(sf_dir, "corpus-clean"),
                              mode="md5")
    kept = dedup_keep(docs, clusters)

    def toks(t: pa.Table) -> pa.Table:
        s = quality_stats(t)
        return pa.table({"doc_id": t.column("doc_id"),
                         "n_tokens": s.column("n_tokens")})

    return kept.map_batches(toks, batch_format="pyarrow", batch_size=None)


def _q_ngram_pairs(sf_dir: str):
    from libgrape_lite_ray.ops.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(_docs(sf_dir), threshold=0.5)


def _q_emb_neardup(sf_dir: str):
    import os

    import ray.data as rd

    from libgrape_lite_ray.ops.ann import cosine_neardup_exact

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    return cosine_neardup_exact(emb, threshold=0.45)


def _q_simhash(sf_dir: str):
    from libgrape_lite_ray.ops.dedup import simhash64

    # mode="md5" = oracle parity; the library default is vectorized FNV
    return _docs(sf_dir).map_batches(
        lambda b: simhash64(b, mode="md5"),
        batch_format="pyarrow", batch_size=None)


def _q_simhash_pairs(sf_dir: str):
    """SimHash near-dup pairs, verified against the exact
    ``_SIMHASH_PAIRS_SQL`` oracle: the 4x16-bit blocking is lossless at
    max_hamming<=3 (pigeonhole — 4 blocks, <=3 differing bits, so at
    least one block matches exactly), so the bucketed distributed
    search must equal the O(n^2) brute-force cross join."""
    from libgrape_lite_ray.ops.dedup import simhash_pairs

    return simhash_pairs(_docs(sf_dir), max_hamming=3, mode="md5")


def _q_sample_neighbors(sf_dir: str):
    """Deterministic per-partition-seeded neighbor sampling (rows-only:
    the sample is random by construction; determinism is pytest-checked)."""
    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    return run_graph_query(sf_dir, "sample_neighbors",
                           {"k": 3, "strategy": "random", "seed": 7}, variant="directed")


def _q_image_decode(sf_dir: str):
    """Multimodal plumbing: deterministic fake images keyed by doc_id,
    decoded by the actor-pool stage (rows-only check)."""
    import pyarrow as pa

    from libgrape_lite_ray.ops.multimodal import DecodeImage, fake_image_bytes

    def attach(b: pa.Table) -> pa.Table:
        keys = b.column("doc_id").to_pylist()
        return pa.table({
            "key": pa.array(keys, pa.int64()),
            "image": pa.array([fake_image_bytes(k) for k in keys], pa.binary()),
        })

    return (
        _docs(sf_dir)
        .map_batches(attach, batch_format="pyarrow", batch_size=256)
        .map_batches(DecodeImage, batch_format="pyarrow", batch_size=256, concurrency=2)
    )


def _q_audio_features(sf_dir: str):
    """Multimodal audio plumbing: deterministic fake PCM keyed by
    doc_id, decoded + windowed RMS/ZCR features by actor-pool stages
    (rows-only check; the fake format is decoded for real, real codecs
    are import-gated on soundfile)."""
    import pyarrow as pa

    from libgrape_lite_ray.ops.multimodal import DecodeAudio, fake_audio_bytes

    def attach(b: pa.Table) -> pa.Table:
        keys = b.column("doc_id").to_pylist()
        return pa.table({
            "key": pa.array(keys, pa.int64()),
            "audio": pa.array([fake_audio_bytes(k) for k in keys], pa.binary()),
        })

    from libgrape_lite_ray.ops.multimodal import ResampleAudio

    # half-CPU pool actors: two chained pools of two whole-CPU actors
    # would reserve all 4 CPUs of a small cluster and starve the read
    # tasks that feed them
    return (
        _docs(sf_dir)
        .map_batches(attach, batch_format="pyarrow", batch_size=256)
        .map_batches(ResampleAudio, fn_constructor_kwargs={"target_sr": 8_000},
                     batch_format="pyarrow", batch_size=256, concurrency=2,
                     num_cpus=0.5)
        .map_batches(DecodeAudio, batch_format="pyarrow",
                     batch_size=256, concurrency=2, num_cpus=0.5)
    )


# ------------------------------------------------------------------ contract


def entry() -> Any:
    """Flagship: derived hyperlink-style graph on sf0.001 -> PageRank +
    WCC joined per vertex."""
    from libgrape_lite_ray.pipelines.tpch_graph import run_graph_query

    sf_dir = "/root/testdata/sf0.001"
    pr = run_graph_query(sf_dir, "pagerank", {"rounds": 10}, variant="directed").to_pandas()
    wc = _q_wcc(sf_dir).to_pandas()
    return pr.merge(wc, on="oid").sort_values("oid").reset_index(drop=True)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "edges": _q_edges,
        "out_degree": _q_out_degree,
        "degree_hist": _q_degree_hist,
        "kcore": _q_kcore,
        "coreness": _q_coreness,
        "msbfs_closeness": _q_msbfs,
        "pagerank": _q_pagerank,
        "pagerank_local": _q_pagerank_local,
        "ppr": _q_ppr,
        "ppr_weighted": _q_ppr_weighted,
        "hits": _q_hits,
        "wcc": _q_wcc,
        "cdlp": _q_cdlp,
        "triangle_count": _q_triangle_count,
        "tricnt_per_vertex": _q_tricnt,
        "bfs": _q_bfs,
        "in_degree": _q_in_degree,
        "bfs_rev": _q_bfs_rev,
        "sample_multihop": _q_sample_multihop,
        "nbr_tag_match": _q_nbr_tag_match,
        "sssp": _q_sssp,
        "nbr_vdata_sum": _q_nbr_vdata_sum,
        "dedup_exact": _q_dedup_exact,
        "token_count": _q_token_count,
        "quality_stats": _q_quality,
        "lang_id": _q_lang_id,
        "doc_fingerprint": _q_fingerprint,
        "top_tokens": _q_top_tokens,
        "hll_tokens": _q_hll_tokens,
        "value_quantiles": _q_quantiles,
        "events_hourly": _q_hourly,
        "events_sliding": _q_sliding,
        "sessionize": _q_sessionize,
        "ann_topk": _q_ann,
        "ann_topk_ivf": _q_ann_ivf,
        "minhash_pairs": _q_minhash_pairs,
        "dedup_clusters": _q_dedup_clusters,
        "corpus_clean": _q_corpus_clean,
        "ngram_pairs": _q_ngram_pairs,
        "emb_neardup": _q_emb_neardup,
        "simhash": _q_simhash,
        "simhash_pairs": _q_simhash_pairs,
        "image_decode": _q_image_decode,
        "audio_decode": _q_audio_features,
        "sample_neighbors": _q_sample_neighbors,
    }


def oracle_sql() -> dict[str, str]:
    return {
        "edges": _EDGES_SQL,
        "out_degree": _OUT_DEGREE_SQL,
        "degree_hist": _DEGREE_HIST_SQL,
        "kcore": _kcore_sql(k=44),
        "coreness": _coreness_sql(),
        "msbfs_closeness": _msbfs_sql(),
        "pagerank": _pagerank_sql(10, 0.85),
        "pagerank_local": _pagerank_local_sql(10, 0.85),
        "ppr": _ppr_sql(n_sources=4, rounds=8, d=0.85),
        "ppr_weighted": _ppr_weighted_sql(n_sources=4, rounds=8, d=0.85),
        "hits": _hits_sql(iters=8),
        "wcc": _WCC_SQL,
        "cdlp": _cdlp_sql(10),
        "triangle_count": _TRI_COUNT_SQL,
        "tricnt_per_vertex": _TRI_PER_VERTEX_SQL,
        "bfs": _BFS_SQL,
        "in_degree": _IN_DEGREE_SQL,
        "bfs_rev": _BFS_REV_SQL,
        "sample_multihop": _MULTIHOP_SQL,
        "nbr_tag_match": _TAG_MATCH_SQL,
        "sssp": _sssp_sql(30),
        "nbr_vdata_sum": _NBR_VDATA_SQL,
        "dedup_exact": _DEDUP_SQL,
        "token_count": _TOKEN_SQL,
        "quality_stats": _QUALITY_SQL,
        "lang_id": _LANG_SQL,
        "doc_fingerprint": "SELECT doc_id, md5(text) AS fp FROM documents ORDER BY doc_id",
        "top_tokens": _TOP_TOKENS_SQL,
        "value_quantiles": _QUANTILES_SQL,
        "events_hourly": _HOURLY_SQL,
        "events_sliding": _SLIDING_SQL,
        "sessionize": _SESSION_SQL,
        "ann_topk": _ANN_SQL,
        "minhash_pairs": _MINHASH_SQL,
        "dedup_clusters": _DEDUP_CLUSTER_SQL,
        "corpus_clean": _CORPUS_CLEAN_SQL,
        "ngram_pairs": _NGRAM_SQL,
        "emb_neardup": _EMB_NEARDUP_SQL,
        "simhash": _SIMHASH_SQL,
        "simhash_pairs": _SIMHASH_PAIRS_SQL,
        # ann_topk_ivf (approximate by design), image_decode /
        # audio_decode (stub decode), sample_neighbors (seeded RNG)
        # -> rows-only checks
    }
