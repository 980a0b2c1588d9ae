"""Resumable partitioned Parquet output.

The 100-TB contract: results are written as ONE directory per
partition (`part=K/`), each committed atomically (hidden tmp file +
rename + `_SUCCESS` marker), so a re-run of a failed job skips every
finished partition and re-writes only the missing ones — never one
giant file, never a half-written partition visible to readers.

One writer, ``write_dataset_partitioned(ds, out_dir, num_partitions)``,
for any Dataset, including an engine ``ResultHandle.to_dataset()``.  It
is a split → commit over the Dataset's block refs with no Ray Data
shuffle: one task per block splits its rows by a hash of the first
column, then one task per unfinished partition concatenates its pieces
and commits them.  The driver only routes refs.

Reference analog: the result writer surface
(grape/fragment/immutable_edgecut_fragment.h Output path +
app_tests.sh's per-worker output files) — re-expressed as an
idempotent, restartable distributed sink.
"""

from __future__ import annotations

import glob
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from .ids import split_by_part

__all__ = ["finished_partitions", "write_dataset_partitioned"]

_MARKER = "_SUCCESS"


def finished_partitions(out_dir: str) -> set[int]:
    """Partition ids under ``out_dir`` whose write committed (marker
    present).  Torn partitions (no marker) are rewritten on resume."""
    done = set()
    for m in glob.glob(os.path.join(out_dir, "part=*", _MARKER)):
        try:
            done.add(int(os.path.basename(os.path.dirname(m)).split("=")[1]))
        except ValueError:
            continue
    return done


def _write_one(pdir: str, *pieces) -> int:
    """Atomic per-partition commit of the concatenated pieces:
    .data.parquet.tmp -> rename -> marker.  A crash at any point leaves
    either nothing or a torn tmp, never a marked partial.  The tmp is
    hidden from directory readers, and tmps left by earlier killed
    commits are removed first."""
    table = pa.concat_tables(pieces, promote_options="default") if pieces else pa.table({})
    os.makedirs(pdir, exist_ok=True)
    for name in os.listdir(pdir):
        if ".tmp-" in name:
            os.remove(os.path.join(pdir, name))
    tmp = os.path.join(pdir, f".data.parquet.tmp-{os.getpid()}")
    pq.write_table(table, tmp)
    os.replace(tmp, os.path.join(pdir, "data.parquet"))
    with open(os.path.join(pdir, _MARKER), "w") as f:
        f.write("ok")
    return table.num_rows


def _split_block(t: pa.Table, num_partitions: int):
    """One block's rows as ``num_partitions`` tables (empty where no row
    hashes there); the bucket is the pandas hash of the first column."""
    pieces = [t.schema.empty_table()] * num_partitions
    if t.num_rows:  # a block emptied by a filter may have no columns
        first = t.column(0).to_pandas()
        buckets = pd.util.hash_pandas_object(first, index=False).to_numpy() % num_partitions
        for p, sub in split_by_part(t, buckets):
            pieces[p] = sub
    return pieces if num_partitions > 1 else pieces[0]


def write_dataset_partitioned(ds, out_dir: str, num_partitions: int,
                              resume: bool = True) -> dict:
    """Write ``ds`` as ``out_dir/part=K/data.parquet`` + ``_SUCCESS``
    markers for K in ``range(num_partitions)``, routing each row by a
    hash of its first column.  Every partition is committed, an empty
    one as an empty file.

    ``resume=True`` skips partitions already marked finished — a killed
    run restarts and writes only what is missing.  Returns
    {"written": n, "skipped": n, "rows": n}.
    """
    import ray

    os.makedirs(out_dir, exist_ok=True)
    done = finished_partitions(out_dir) if resume else set()
    todo = [p for p in range(num_partitions) if p not in done]
    rows = 0
    if todo:
        # 1-CPU tasks: half-CPU ones make Ray start and kill extra workers on every call
        split = ray.remote(num_returns=num_partitions)(_split_block)
        pieces = [split.remote(ref, num_partitions) for ref in ds.to_arrow_refs()]
        if num_partitions == 1:  # one return value comes back as a bare ref
            pieces = [[r] for r in pieces]
        commit = ray.remote(_write_one)
        rows = sum(ray.get([
            commit.remote(os.path.join(out_dir, f"part={p}"), *(b[p] for b in pieces))
            for p in todo]))
    return {"written": len(todo), "skipped": num_partitions - len(todo), "rows": rows}
