"""Link / text extraction from Common-Crawl-style pages.

Replaces the reference's TSV line parsers
(grape/io/tsv_line_parser.h:36-77 — `.e` lines -> (src, dst)) with the
web-native equivalent demanded by BASELINE.json `input_hint`: the edge
table is *derived* from the `html` binary column of a pages table
``(url, warc_ts, html, text, lang)`` by a `map_batches` stage over
Arrow batches.

Extraction spec (the per-row invariant enforced in pytest: extracted
text must be byte-identical to the `text` column per `url`):

- ``text`` = content of ``<title>`` followed by the visible text of each
  ``<p>`` element (inner tags stripped, HTML entities unescaped,
  whitespace normalized to single spaces), joined by ``"\\n"``.
- ``links`` = the ``href`` of every ``<a>`` tag, resolved against the
  page url (site-relative ``/x`` hrefs get the page's scheme+host),
  keeping only http(s) targets.  Duplicates and self-links are kept
  here; graph build dedups (LDBC convention, cf. dedup in
  grape/graph/mutable_csr.h:313-389).

The per-batch functions are vectorizable only per-row (HTML is not a
columnar format); the html column is materialized as Python strings for
the regex pass (unavoidable for regex-over-bytes — the decode copy
happens here) and uses regexes compiled once per process at import.
``pipelines.web.extract_edges`` runs ``extract_edges_batch`` as a
stateless task-pool ``map_batches`` fused into the Parquet read when
Ray does not split it: the batch then comes from the read in the same
task, never through plasma.
"""

from __future__ import annotations

import html as _html
import re

import pyarrow as pa

__all__ = ["extract_text", "extract_links", "extract_edges_batch", "extract_text_batch"]

_TITLE_RE = re.compile(rb"<title[^>]*>(.*?)</title>", re.S | re.I)
_PARA_RE = re.compile(rb"<p[^>]*>(.*?)</p>", re.S | re.I)
_ANCHOR_RE = re.compile(rb"<a\s[^>]*?href=\"([^\"]*)\"", re.S | re.I)
_TAG_RE = re.compile(rb"<[^>]+>")
_WS_RE = re.compile(r"\s+")
_SCHEME_RE = re.compile(rb"^[a-zA-Z][a-zA-Z0-9+.-]*:")


def _clean(fragment: bytes) -> str:
    """Strip tags, unescape entities, normalize whitespace.

    ``unescape`` is gated on a literal ``&``: every HTML entity starts
    with one, so the gate is exact, and it skips unescape's regex pass
    on the common entity-free fragment (~1.7x on the extract kernel)."""
    no_tags = _TAG_RE.sub(b" ", fragment)
    s = no_tags.decode("utf-8", errors="replace")
    if "&" in s:
        s = _html.unescape(s)
    return _WS_RE.sub(" ", s).strip()


def extract_text(html_bytes: bytes) -> str:
    parts = []
    m = _TITLE_RE.search(html_bytes)
    if m:
        parts.append(_clean(m.group(1)))
    for pm in _PARA_RE.finditer(html_bytes):
        parts.append(_clean(pm.group(1)))
    return "\n".join(parts)


def _site_root(url: str) -> str:
    """scheme://host of a url (no external urllib needed for our forms)."""
    i = url.find("://")
    if i < 0:
        return url
    j = url.find("/", i + 3)
    return url if j < 0 else url[:j]


def extract_links(html_bytes: bytes, base_url: str) -> list[str]:
    out = []
    root = None
    for href in _ANCHOR_RE.findall(html_bytes):
        if _SCHEME_RE.match(href):
            if href.startswith(b"http://") or href.startswith(b"https://"):
                s = href.decode("utf-8", errors="replace")
                out.append(_html.unescape(s) if "&" in s else s)
            continue  # mailto:, javascript:, ... dropped
        if href.startswith(b"/"):
            if root is None:
                root = _site_root(base_url)
            s = href.decode("utf-8", errors="replace")
            out.append(root + (_html.unescape(s) if "&" in s else s))
        # other relative forms are out of spec for the synthetic corpus
    return out


def extract_edges_batch(batch: pa.Table) -> pa.Table:
    """(url, html, ...) batch -> (src, dst) edge batch (flat_map-style)."""
    # idempotent per-process malloc tuning: this UDF runs in Ray worker
    # processes whose fresh heaps otherwise refault cold host pages on
    # every batch's temporaries (see memtune docstring)
    from .memtune import keep_heap_resident

    keep_heap_resident()
    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist()
    src, dst = [], []
    for u, h in zip(urls, htmls):
        links = extract_links(h, u)
        src.extend([u] * len(links))
        dst.extend(links)
    return pa.table({"src": pa.array(src, pa.string()), "dst": pa.array(dst, pa.string())})


def extract_text_batch(batch: pa.Table) -> pa.Table:
    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist()
    texts = [extract_text(h) for h in htmls]
    return pa.table({"url": pa.array(urls, pa.string()), "text": pa.array(texts, pa.string())})

