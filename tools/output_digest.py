"""Run a fixed abflux CLI script and print the SHA-256 of every output file.

A development script, not part of the package: it needs only the standard
library and abflux.

    python tools/output_digest.py            # this checkout's src/abflux
    python tools/output_digest.py ROOT       # ROOT/src/abflux, e.g. another checkout

Each output line is ``<sha256>  <path>``, with the path relative to the
temporary directory the script writes into, in path order.  Two checkouts
that write the same bytes print the same lines, so ``diff`` of two runs
shows which outputs a change moved.

The script covers every command that writes a file: ``simulate`` at
theta = pi/2 and theta = 0, each at phi = 1.3 and phi = pi, and once with
LARGE_N_HITS hits (six-digit indices, many blocks of the hits writer) and
once with SMALL_N_HITS; ``pattern --heatmap``; a 3 x 3 ``sweep``;
``figure3`` and ``figure4 --heatmap``; ``infer`` on a 61 x 61 surface and
``discriminate`` on each N_HITS file; ``infer`` on a 61 x 61 surface on the
SMALL_N_HITS file, where the likelihood kernel takes several fans of the
surface to a block, and on the LARGE_N_HITS file, where one fan takes more
than one pass of the kernel's matrix of logs; and ``discriminate`` on the
LARGE_N_HITS file, which the hits reader reads in many blocks, and on two
copies of it that the reader must clean: one with a blank line in the
middle, one with every newline a lone carriage return.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

N_HITS = "20000"   # more than one block of the hits writer
LARGE_N_HITS = "120000"
SMALL_N_HITS = "300"
SEED = "7"


def _line_end_copy(source, target, middle, newline):
    """A step that copies the file ``source`` to ``target`` with the bytes
    ``middle`` after its middle line and each newline made ``newline``."""
    def copy():
        text = source.read_bytes()
        cut = text.index(b"\n", len(text) // 2) + 1
        target.write_bytes((text[:cut] + middle + text[cut:]).replace(b"\n", newline))
    return copy


def _script():
    """The CLI argument lists, and the steps that copy a file, in the order
    they run.

    ``infer`` and ``discriminate`` record their input path in a comment, so
    every file is named relative to the directory the script runs in.
    """
    out = Path(".")
    runs = []
    hits_files = []
    for theta_name, theta in (("pi_2", math.pi / 2), ("0", 0.0)):
        for phi_name, phi in (("1.3", 1.3), ("pi", math.pi)):
            hits = out / f"hits_theta_{theta_name}_phi_{phi_name}.csv"
            hits_files.append(hits)
            runs.append(["simulate", "--theta", repr(theta), "--phi", repr(phi),
                         "--n-hits", N_HITS, "--seed", SEED, "--out", str(hits)])
    large = out / "hits_large.csv"
    small = out / "hits_small.csv"
    for hits, n_hits in ((large, LARGE_N_HITS), (small, SMALL_N_HITS)):
        runs.append(["simulate", "--theta", repr(math.pi / 2), "--phi", "1.3",
                     "--n-hits", n_hits, "--seed", SEED, "--out", str(hits)])
    runs.append(["pattern", "--theta", repr(math.pi / 2), "--phi", "1.3", "--heatmap",
                 "--out", str(out / "pattern.csv")])
    runs.append(["sweep", "--thetas", f"0,{math.pi / 2!r},{math.pi!r}",
                 "--phis", f"0.4,1.3,{math.pi!r}", "--out-dir", str(out)])
    for figure in ("figure3", "figure4"):
        runs.append([figure, "--heatmap", "--out-dir", str(out)])
    for hits in hits_files + [small, large]:
        runs.append(["infer", str(hits), "--theta-points", "61", "--phi-points", "61",
                     "--out", str(hits.with_name("surface_" + hits.name))])
    for hits in hits_files:
        runs.append(["discriminate", str(hits),
                     "--out", str(hits.with_name("discriminate_" + hits.name))])
    for name, middle, newline in (("blank", b"\n", b"\n"), ("cr", b"", b"\r")):
        copy = large.with_name(f"hits_large_{name}.csv")
        runs.append(_line_end_copy(large, copy, middle, newline))
        runs.append(["discriminate", str(copy), "--out", str(copy.with_name("discriminate_" + copy.name))])
    runs.append(["discriminate", str(large), "--out", str(large.with_name("discriminate_" + large.name))])
    return runs


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path.insert(0, str(root / "src"))
    from abflux.cli import main as abflux_main
    import abflux

    if not Path(abflux.__file__).resolve().is_relative_to(root):
        sys.exit(f"abflux was imported from {abflux.__file__}, not from {root}")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for args in _script():
            if callable(args):
                args()
                continue
            with contextlib.redirect_stdout(io.StringIO()):
                code = abflux_main(args)
            if code != 0:
                sys.exit(f"abflux {' '.join(args)} exited {code}")
        for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path}")
        os.chdir(root)


if __name__ == "__main__":
    main()
