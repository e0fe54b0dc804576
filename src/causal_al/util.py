"""Small shared helpers: name checks, float formatting, hashing, bounded parallelism."""

from __future__ import annotations

import hashlib

from .errors import SchemaError


def checked_names(names, allowed=None, where: str = "names", error=SchemaError) -> tuple[str, ...]:
    """`names` as a tuple, after raising `error` at the first name that is
    not one of `allowed` (when given) or that is named twice.

    This is the one check of a list of names; its message names `where`
    (the key, file or argument the names came from) and the name at fault.
    """
    names = tuple(names)
    seen: set[str] = set()
    for name in names:
        if allowed is not None and name not in allowed:
            raise error(f"{where}: {name!r} is not one of {','.join(allowed)}")
        if name in seen:
            raise error(f"{where}: {name!r} is named twice")
        seen.add(name)
    return names


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
