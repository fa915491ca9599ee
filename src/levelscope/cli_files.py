"""The data files of the command line: the manifest, the CSV and JSON
tables, and the writers, whose failures raise WriteFailure (exit code 4).

Only the commands that write files import this module, so `criterion`
never compiles it.
"""

from __future__ import annotations

import os
import time
from argparse import Namespace
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from . import __version__
from .numerics import FLOAT_FMT, MAX_TERMS, REL_EPS

# The SOURCE_DATE_EPOCH range whose timestamp is a four-digit-year ISO 8601
# date: 1970-01-01T00:00:00Z through 9999-12-31T23:59:59Z.
_MAX_EPOCH = 253402300799


def build_manifest(args: Namespace, command: str, extra: dict[str, str] | None = None,
                   keys: Sequence[str] = ("b", "kappa", "omega", "lam", "grid")) -> dict:
    """The provenance block of every data file: the JSON `manifest` object,
    which the CSV header renders as its `#` lines. Its parameters are extra
    and the flags named in keys that were given or have a default."""
    params: dict[str, str] = dict(extra or {})
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            params[key.replace("_", "-")] = (
                ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            )
    # SOURCE_DATE_EPOCH pins the manifest for reproducible output. Every
    # command builds its manifest before it writes a file or directory.
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch:
        try:
            seconds = int(epoch)
        except ValueError:
            seconds = -1
        if not 0 <= seconds <= _MAX_EPOCH:
            raise ValueError(f"SOURCE_DATE_EPOCH must be an integer count of seconds from "
                             f"0 to {_MAX_EPOCH} (9999-12-31T23:59:59Z), got {epoch!r}")
    else:
        seconds = int(time.time())
    return {
        "command": command,
        "parameters": dict(sorted(params.items())),
        "tool_version": __version__,
        "tolerances": {"rel_eps": getattr(args, "eps", REL_EPS), "max_terms": MAX_TERMS},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(seconds)),
    }


def csv_rows(rows: Sequence[Sequence[object]]) -> str:
    """The rows as CSV lines joined by newlines, each value formatted as
    numerics.fmt formats it.

    Every column keeps the type of its first entry, so one %-format string,
    built from the first row and repeated per row, formats the whole table
    with one %; a bool column is swapped for its words by one slice
    assignment first.
    """
    if not rows:
        return ""
    first = rows[0]
    line = ",".join(FLOAT_FMT if isinstance(v, float) else "%s" for v in first)
    width = len(first)
    values = [v for row in rows for v in row]
    for j, v in enumerate(first):
        if isinstance(v, bool):
            values[j::width] = ["true" if flag else "false" for flag in values[j::width]]
    return "\n".join([line] * len(rows)) % tuple(values)


def csv_blocks(blocks: Iterable[tuple[tuple, list[int], list[float]]]) -> Iterator[str]:
    """The rows of each (shared columns, levels, weights) block as CSV lines
    joined by newlines, as csv_rows would format them.

    One % formats a block: the shared columns are formatted once into its
    rows' format string, which is repeated per level and applied to the
    levels and weights interleaved. A block with no levels yields nothing.
    """
    for (kt, trace, n_cut, tail), levels, weights in blocks:
        if levels:
            line = (f"{FLOAT_FMT % kt},%s,{FLOAT_FMT},"
                    f"{FLOAT_FMT % trace},{n_cut},{FLOAT_FMT % tail}")
            values = [None] * (2 * len(levels))
            values[::2], values[1::2] = levels, weights
            yield "\n".join([line] * len(levels)) % tuple(values)


class WriteFailure(OSError):
    """Output file could not be written (maps to exit code 4)."""


def write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise WriteFailure(f"cannot write {path}: {exc}") from exc


def write_table(
    path: Path,
    manifest: dict,
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
    footer_comments: Sequence[str] = (),
    fmt: str = "csv",
    unit_note: str | None = None,
) -> None:
    if fmt == "json":
        import json

        # json encodes a tuple row, a Frozen one included, as a list would be.
        payload = {
            "manifest": manifest,
            "units": unit_note,
            "columns": list(header),
            "rows": rows,
            "footer": list(footer_comments),
        }
        write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    # One entry, so the rows go out in one write.
    body = [csv_rows(rows)] if rows else []
    write_csv(path, manifest, header, body, footer_comments, unit_note)


def write_csv(
    path: Path,
    manifest: dict,
    header: Sequence[str],
    body: Iterable[str],
    footer_comments: Sequence[str] = (),
    unit_note: str | None = None,
) -> None:
    """Write a CSV table whose data rows are already formatted: each entry of
    body is one line or several joined by newlines. Entries are written as
    body yields them, so a generator streams the table."""
    params = " ".join(f"{k}={v}" for k, v in manifest["parameters"].items())
    tol = manifest["tolerances"]
    head = [
        f"# levelscope {manifest['command']} v{manifest['tool_version']}",
        f"# generated: {manifest['timestamp']}",
        f"# parameters: {params}",
        f"# tolerances: rel_eps={tol['rel_eps']:g} max_terms={tol['max_terms']}",
    ]
    if unit_note:
        head.append(f"# units: {unit_note}")
    head.append(",".join(header))
    try:
        with open(path, "w", encoding="utf-8") as out:
            out.write("\n".join(head) + "\n")
            for entry in body:
                out.write(entry + "\n")
            out.writelines(f"# {comment}\n" for comment in footer_comments)
    except OSError as exc:
        raise WriteFailure(f"cannot write {path}: {exc}") from exc
