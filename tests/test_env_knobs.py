"""The library reads a fixed set of environment variables: a new
behaviour switch must be a parameter, not a hidden env knob."""

import ast
import os

import libgrape_lite_ray

ALLOWED = {"RAY_RAYLET_PID", "RAY_ADDRESS", "LGR_PREWARM_DEADLINE_S"}


def _is_environ(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "environ"


def _env_keys(tree):
    """String keys of ``*.environ.get(k)``, ``*.getenv(k)`` and
    ``*.environ[k]``; a non-literal key is reported as ``<dynamic>``."""
    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Call):
            f = node.func
            env_get = isinstance(f, ast.Attribute) and f.attr == "get" and _is_environ(f.value)
            getenv = (isinstance(f, ast.Attribute) and f.attr == "getenv") or \
                (isinstance(f, ast.Name) and f.id == "getenv")
            if (env_get or getenv) and node.args:
                key = node.args[0]
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            key = node.slice
        if key is not None:
            yield key.value if isinstance(key, ast.Constant) else "<dynamic>"


def test_env_reads_are_the_known_set():
    root = os.path.dirname(libgrape_lite_ray.__file__)
    found = {}
    for d, _, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(d, name)
                with open(path) as f:
                    for k in _env_keys(ast.parse(f.read(), path)):
                        found.setdefault(k, []).append(os.path.relpath(path, root))
    assert set(found) == ALLOWED, found
