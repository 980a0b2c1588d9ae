"""The one exchange bundle format: ``_pack`` of ``{dest: {channel:
array | tuple of arrays}}`` and ``_unpack(bundle, part)``, and the
eager plasma free of consumed payloads."""

import numpy as np
import pytest

from libgrape_lite_ray.graph.driver import _free_bundles, _pack, _unpack


def test_channels_reach_exactly_their_destinations():
    vals = np.arange(6, dtype=np.float64)
    bundle = _pack({
        3: {"push": np.array([7, 8, 9]), "msgs": (np.array([30]), np.array([0.5]))},
        0: {"sync": vals[:2], "msgs": (np.array([1, 2]), np.array([0.25, 0.75]))},
        2: {"sync": vals[2:2]},  # zero-length: still delivered
    })
    got = _unpack(bundle, 0)
    assert set(got) == {"sync", "msgs"}
    assert np.array_equal(got["sync"], [0.0, 1.0])
    assert isinstance(got["msgs"], tuple) and len(got["msgs"]) == 2
    assert np.array_equal(got["msgs"][0], [1, 2])
    assert np.array_equal(got["msgs"][1], [0.25, 0.75])

    got = _unpack(bundle, 2)
    assert set(got) == {"sync"}
    assert len(got["sync"]) == 0 and got["sync"].dtype == np.float64

    got = _unpack(bundle, 3)
    assert set(got) == {"push", "msgs"}
    assert isinstance(got["push"], np.ndarray)
    assert np.array_equal(got["push"], [7, 8, 9])
    assert np.array_equal(got["msgs"][0], [30]) and np.array_equal(got["msgs"][1], [0.5])

    # parts with no slice in the bundle get nothing
    assert _unpack(bundle, 1) == {}
    assert _unpack(bundle, 4) == {}


def test_tuple_channel_keeps_column_dtypes():
    bundle = _pack({1: {"vdata": (np.array([1.5]), np.array(["a"], dtype=object))},
                    4: {"vdata": (np.array([2.5, 3.5]), np.array(["b", "c"], dtype=object))}})
    f, s = _unpack(bundle, 4)["vdata"]
    assert f.dtype == np.float64 and s.dtype == object
    assert f.tolist() == [2.5, 3.5] and s.tolist() == ["b", "c"]
    assert _unpack(bundle, 1)["vdata"][1].tolist() == ["a"]


def test_nothing_to_send_packs_to_none():
    assert _pack({}) is None


def test_consumed_payloads_are_freed(ray_session):
    """``_free_bundles`` releases a payload at once (the page reuse the
    exchange rounds rely on); a Ray that drops the call fails here
    instead of silently falling back to async ref GC."""
    import ray

    ref = ray.put(np.arange(1 << 16))
    _free_bundles([{"ref": ref}, {"ref": None}])
    with pytest.raises(ray.exceptions.ObjectFreedError):
        ray.get(ref, timeout=30)
