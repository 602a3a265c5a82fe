"""The CLI artefacts of acceptance criterion 10, against committed goldens.

Criterion 10 runs each invocation twice on one tree; this test compares
one in-process run with the files under ``tests/golden/``, so a change
against the commit that wrote them shows. Text that is not a number,
and every integer, must match exactly; floats within ``FLOAT_RTOL``
relative, since the CLI prints ``repr`` floats and an ulp may move
across toolchains. ``golden/SHA256SUMS`` holds each file's digest: where
all digests match, the run is byte-identical, and the test says so.

Regenerate after a change that is meant to move an output, and record
which outputs moved, by how much and why::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import math
import re
import shutil
import sys
from pathlib import Path

from xsplice import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SUMS = GOLDEN / "SHA256SUMS"
FLOAT_RTOL = 1e-12

#: name -> (arguments, whether the artefacts go to ``--out``); criterion 10's seven
INVOCATIONS = {
    "calibrate": (("calibrate", "--pump", "771", "--signal", "670"), False),
    "tuning-curve": (("tuning-curve", "--from", "769", "--to", "773", "--steps", "5"), False),
    "phase-map": (("phase-map", "--compensated", "--points", "31"), True),
    "optimize-compensators": (("optimize-compensators",), False),
    "state": (("state", "--power", "30"), False),
    "power-sweep": (("power-sweep", "--min", "10", "--max", "50", "--steps", "3",
                     "--seed", "7"), True),
    "tomography-demo": (("tomography-demo", "--counts-per-setting", "2000", "--seed", "5",
                         "--bootstrap", "3"), True),
}

_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")
_INTEGER = re.compile(r"-?\d+")


def run_invocations(root: Path) -> dict:
    """Run every invocation in this process; ``{relative path: bytes}`` of its artefacts.

    stdout goes to ``<name>/stdout``, ``--out`` files to ``<name>/<file>``.
    """
    artefacts = {}
    for name, (args, to_dir) in INVOCATIONS.items():
        out_dir = root / name
        argv = [*args, "--out", str(out_dir)] if to_dir else list(args)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        assert code == 0, (name, code)
        if stdout.getvalue():
            artefacts[f"{name}/stdout"] = stdout.getvalue().encode()
        if to_dir:
            for path in sorted(out_dir.iterdir()):
                artefacts[f"{name}/{path.name}"] = path.read_bytes()
    return artefacts


def digest_lines(artefacts: dict) -> str:
    return "".join(f"{hashlib.sha256(blob).hexdigest()}  {rel}\n"
                   for rel, blob in sorted(artefacts.items()))


def mismatches(golden: str, actual: str) -> list:
    """Where ``actual`` differs from ``golden`` beyond the stated bounds; empty if nowhere."""
    text_g, text_a = _NUMBER.split(golden), _NUMBER.split(actual)
    nums_g, nums_a = _NUMBER.findall(golden), _NUMBER.findall(actual)
    if text_g != text_a:
        return ["text or layout differs"]
    found = []
    for k, (g, a) in enumerate(zip(nums_g, nums_a)):
        if g == a:
            continue
        if _INTEGER.fullmatch(g) or _INTEGER.fullmatch(a):
            found.append(f"number {k}: integer {g} != {a}")
            continue
        fg, fa = float(g), float(a)
        if not (fg == fa or abs(fa - fg) <= FLOAT_RTOL * max(abs(fg), abs(fa))
                or (math.isnan(fg) and math.isnan(fa))):
            rel = abs(fa - fg) / max(abs(fg), abs(fa))
            found.append(f"number {k}: {g} != {a} (relative {rel:.2e})")
    return found


def test_goldens_match_their_digests():
    files = {str(p.relative_to(GOLDEN)): p.read_bytes()
             for p in sorted(GOLDEN.rglob("*")) if p.is_file() and p != SUMS}
    assert SUMS.read_text() == digest_lines(files)
    assert {rel.split("/")[0] for rel in files} == set(INVOCATIONS)


def test_cli_artefacts_match_goldens(tmp_path, monkeypatch):
    monkeypatch.delenv("XSPLICE_MATERIALS", raising=False)
    artefacts = run_invocations(tmp_path)
    golden = {rel: (GOLDEN / rel).read_bytes() for rel in sorted(artefacts)
              if (GOLDEN / rel).is_file()}
    assert sorted(golden) == sorted(artefacts), "artefact set differs from the goldens"
    failures = {rel: found for rel in artefacts
                if (found := mismatches(golden[rel].decode(), artefacts[rel].decode()))}
    assert not failures, failures
    identical = digest_lines(artefacts) == SUMS.read_text()
    print(f"GOLDEN: {len(INVOCATIONS)} CLI invocations, {len(artefacts)} files, "
          + ("byte-identical" if identical else f"within {FLOAT_RTOL:g} relative"))


def test_mismatches_reads_numbers():
    assert mismatches('{"a": 1.0, "n": 3}', '{"a": 1.0000000000001, "n": 3}') == []
    assert mismatches("x,1.0\n", "x,1.00001\n")
    assert mismatches('{"n": 3}', '{"n": 4}')
    assert mismatches("260.0", "260")
    assert mismatches('{"a": 1.0}', '{"b": 1.0}')
    assert mismatches("1.0,2.0", "1.0,2.0,3.0")


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    blobs = run_invocations(GOLDEN)
    for rel, blob in blobs.items():
        (GOLDEN / rel).parent.mkdir(parents=True, exist_ok=True)
        (GOLDEN / rel).write_bytes(blob)
    SUMS.write_text(digest_lines(blobs))
    sys.stdout.write(f"wrote {len(blobs)} files under {GOLDEN}\n")
