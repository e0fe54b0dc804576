"""Small shared helpers: float formatting, hashing, bounded parallelism."""

from __future__ import annotations

import hashlib


def fmt(x: float) -> str:
    """Format a float with 17 significant digits (exact text round trip)."""
    return f"{float(x):.17g}"


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def parallel_map(fn, items, jobs: int = 1) -> list:
    """Apply `fn` over `items`, optionally on a thread pool.

    Results are collected in input order, so the output is identical for
    any `jobs` value; tasks must not share mutable state. The pool's
    module is imported only when a pool starts, so a stage at `jobs` 1
    does not load it.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))
