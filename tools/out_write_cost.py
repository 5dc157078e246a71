"""Price one ``--out`` write: a truncating ``open(path, "w")`` against ``cli._write_text``.

For each case, prints the median and quartiles, in µs, of one write of a
table of about ``--kb`` kilobytes by each writer:

- ``new``: the path does not exist yet;
- ``settled``: the path holds an earlier table that was fsynced a second
  before, so none of its data is dirty or in writeback;
- ``same-path``: one path is rewritten back to back, as every op of the
  benchmark's grid-sweep does.

The directory (default: a new one in the system's temporary directory)
picks the file system under test; what the script writes there is removed
at the end.  Run it from the root of a source checkout:

    python3 tools/out_write_cost.py [--dir DIR] [--kb 66] [--count 200]
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from su2qfi.cli import _write_text  # noqa: E402


def truncating_write(text: str, path: str):
    """``cli._write_text`` before in-place rewriting: truncate at open, then write."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


WRITERS = {"truncating open": truncating_write, "_write_text": _write_text}


def timed(write, text: str, path: str) -> float:
    start = time.perf_counter_ns()
    write(text, path)
    return (time.perf_counter_ns() - start) / 1e3


def case_samples(case: str, write, text: str, directory: str, count: int) -> list[float]:
    paths = [os.path.join(directory, f"{i}.csv") for i in range(count)]
    if case == "new":
        return [timed(write, text, path) for path in paths]
    if case == "settled":
        for path in paths:
            truncating_write(text, path)
            fd = os.open(path, os.O_RDONLY)
            os.fsync(fd)
            os.close(fd)
        time.sleep(1.0)
        return [timed(write, text, path) for path in paths]
    write(text, paths[0])
    return [timed(write, text, paths[0]) for _ in range(count)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default=None, help="directory on the file system under test")
    parser.add_argument("--kb", type=int, default=66, help="table size in kilobytes")
    parser.add_argument("--count", type=int, default=200, help="writes per case and writer")
    args = parser.parse_args()
    row = "0.12345678901234567,1.2345678901234567,2.3456789012345678\n"
    text = row * max(1, args.kb * 1024 // len(row))
    root = tempfile.mkdtemp(prefix="out-write-cost-", dir=args.dir)
    try:
        for case in ("new", "settled", "same-path"):
            cells = []
            for name, write in WRITERS.items():
                directory = os.path.join(root, f"{case}-{len(cells)}")
                os.mkdir(directory)
                q1, median, q3 = statistics.quantiles(
                    case_samples(case, write, text, directory, args.count), n=4
                )
                cells.append(f"{name} {median:7.1f} us (quartiles {q1:.1f}/{q3:.1f})")
            print(f"{case:9s} " + "   ".join(cells), flush=True)
    finally:
        shutil.rmtree(root)
    print(f"{len(text)} bytes per write, {args.count} writes per cell, in {args.dir or tempfile.gettempdir()}")


if __name__ == "__main__":
    main()
