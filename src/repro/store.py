"""The on-disk layer every persistent store shares.

The run ledger, the schedule cache and the experiment result cache are
JSONL append logs (:func:`append_json`; :func:`read_json_lines` reads a
whole log, :func:`scan_json_lines` indexes one as it grows); serving
checkpoints are whole files replaced atomically (:func:`write_atomic`).
Each store keeps its own failure policy on top.
Nothing here fsyncs: a store survives a killed process, not a power cut.
"""

from __future__ import annotations

import contextlib
import json
import os
import warnings
from pathlib import Path
from typing import Any, Callable

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = ["env_path", "append_json", "read_json_lines", "scan_json_lines", "write_atomic"]

#: environment values that switch a store off
_OFF = frozenset({"0", "off", "none", "disabled"})


def env_path(var: str, default: str | os.PathLike) -> Path | None:
    """The store location ``$var`` names: ``default`` when unset or empty,
    ``None`` when it is ``0``, ``off``, ``none`` or ``disabled`` (any case)."""
    env = os.environ.get(var, "").strip()
    if not env:
        return Path(default)
    if env.lower() in _OFF:
        return None
    return Path(env)


def append_json(path: Path, obj: dict[str, Any]) -> None:
    """Append ``obj`` to ``path`` as one compact, key-sorted JSON line.

    One ``os.write`` on an ``O_APPEND`` descriptor under ``flock``, so
    concurrent writers never interleave bytes and a killed writer leaves
    at most a truncated final line.  On an error nothing was written.
    """
    line = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    data = (line + "\n").encode("utf-8")
    flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
    try:
        fd = os.open(path, flags, 0o644)
    except FileNotFoundError:  # first write into a missing directory
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o644)
    try:
        if fcntl is not None:
            with contextlib.suppress(OSError):  # filesystems without flock
                fcntl.flock(fd, fcntl.LOCK_EX)
        os.write(fd, data)
    finally:
        os.close(fd)  # closing the descriptor releases the lock


def _decode_line(line: str | bytes, decode: Callable[[dict], Any]) -> Any:
    data = json.loads(line)
    if not isinstance(data, dict):
        raise TypeError("not a JSON object")
    return decode(data)


def read_json_lines(path: Path, label: str, decode: Callable[[dict], Any]) -> list[Any]:
    """Every readable line of ``path`` decoded, oldest first; a missing
    file reads as empty.  A line that is not a JSON object, or that
    ``decode`` rejects with ``KeyError``/``TypeError``/``ValueError``, is
    skipped with a ``RuntimeWarning`` naming the store, file and line."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return []
    out: list[Any] = []
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            out.append(_decode_line(line, decode))
        except (KeyError, TypeError, ValueError):
            tail = " (truncated final line?)" if i >= len(lines) - 2 else ""
            warnings.warn(
                f"{label} {path}: skipping corrupt line {i + 1}{tail}",
                RuntimeWarning,
                stacklevel=3,
            )
    return out


def scan_json_lines(
    path: Path, label: str, decode: Callable[[dict], Any], start: int = 0
) -> tuple[list[tuple[int, Any]], int]:
    """``(offset, decoded)`` for each readable line of ``path`` that starts
    at or after byte ``start``, and the offset just past the last complete
    line; a missing file reads as empty.

    For readers that index a log as it grows: a final line without its
    newline may still be being written, so it is left for the next call,
    which passes the returned offset back as ``start``.  Lines that
    :func:`read_json_lines` would skip are skipped with the same warning,
    naming the line's byte offset instead of its number.  The file is read
    one line at a time, so a large log is never held in memory whole.
    """
    out: list[tuple[int, Any]] = []
    offset = start
    try:
        with path.open("rb") as fh:
            fh.seek(start)
            for line in fh:
                if not line.endswith(b"\n"):
                    break
                if line.strip():
                    try:
                        out.append((offset, _decode_line(line, decode)))
                    except (KeyError, TypeError, ValueError):
                        warnings.warn(
                            f"{label} {path}: skipping corrupt line at byte {offset}",
                            RuntimeWarning,
                            stacklevel=3,
                        )
                offset += len(line)
    except OSError:
        pass  # what was read so far stands; a missing file reads as empty
    return out, offset


def write_atomic(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data``: readers see the old or the new file.

    The tmp name ``.<name>.<pid>.tmp`` is unique per process, so two
    writers of one path never share it.  On an error the tmp file is
    removed and ``path`` is untouched.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

