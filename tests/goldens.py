"""Golden artifacts: tiny pipeline runs whose every output file is committed.

Each config tests/golden/<name>.cfg has its run's artifacts under
tests/golden/<name>/, and tests/golden/PLATFORM.json records the numpy,
BLAS and CPU those bits belong to. test_golden.py reruns every config and
compares the files byte for byte. A change that moves bits regenerates
them with

    PYTHONPATH=src python tests/goldens.py

which prints each golden file it added, removed or changed, and lists the
moved lines in CHANGES.md; a pure refactor moves none.
"""
from __future__ import annotations

import json
import platform
import shutil
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
PLATFORM = GOLDEN / "PLATFORM.json"


def names() -> list[str]:
    return sorted(p.stem for p in GOLDEN.glob("*.cfg"))


def run(name: str, outdir: Path) -> None:
    from latentlqr import load_config, run_pipeline

    run_pipeline(load_config(GOLDEN / f"{name}.cfg"), outdir)


def artifacts(root: Path) -> dict[str, bytes]:
    """Every file under root by its relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def fingerprint() -> dict:
    """What the bits depend on besides the source: numpy, the BLAS it links,
    the SIMD extensions numpy found, and the CPU."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                  if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return {"numpy": np.__version__,
            "blas": blas.get("openblas configuration") or blas.get("name", "unknown"),
            "simd": sorted(config.get("SIMD Extensions", {}).get("found", [])),
            "machine": platform.machine(), "cpu": cpu}


def recorded_fingerprint() -> dict:
    return json.loads(PLATFORM.read_text())


def changes(before: dict[str, bytes], after: dict[str, bytes]) -> list[str]:
    """'added', 'removed' or 'changed', then the path, for each file that differs."""
    lines = []
    for path in sorted(before.keys() | after.keys()):
        if before.get(path) != after.get(path):
            kind = "added" if path not in before else "removed" if path not in after else "changed"
            lines.append(f"{kind} {path}")
    return lines


def regenerate() -> None:
    """Rerun every config into its golden directory and record the platform,
    printing each golden file that the rerun added, removed or changed."""
    before = artifacts(GOLDEN)
    for name in names():
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        run(name, GOLDEN / name)
    PLATFORM.write_text(json.dumps(fingerprint(), indent=1) + "\n")
    for line in changes(before, artifacts(GOLDEN)) or ["no golden file changed"]:
        print(line)


if __name__ == "__main__":
    regenerate()
