"""The driver contract's audio query runs to completion on the 4-CPU
test cluster: its two chained actor pools must leave CPU for the
Parquet read tasks that feed them."""

import importlib.util
import os

import pyarrow as pa
import pyarrow.parquet as pq


def _queries():
    p = os.path.join(os.path.dirname(__file__), "..", "__ray_entry__.py")
    spec = importlib.util.spec_from_file_location("_entry_multimodal", p)
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m.queries()


def test_audio_decode_completes_on_four_cpus(ray_session, tmp_work):
    n = 300
    pq.write_table(pa.table({"doc_id": pa.array(range(n), pa.int64()),
                             "text": pa.array([f"doc {i}" for i in range(n)])}),
                   os.path.join(tmp_work, "documents.parquet"))
    out = _queries()["audio_decode"](tmp_work).to_pandas()
    assert list(out.columns) == ["key", "sample_rate", "duration_s", "rms"]
    assert len(out) == n
    assert sorted(out["key"]) == list(range(n))
