"""Every artifact of each golden run (tests/goldens.py) is reproduced.

On the platform the goldens were made on (tests/golden/PLATFORM.json) the
files must match byte for byte. Elsewhere the last bits may differ with the
BLAS kernels and SIMD paths, so the files are compared field by field, to a
relative 1e-6, and a warning says that the bytes were not compared.
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from goldens import GOLDEN, artifacts, changes, fingerprint, names, recorded_fingerprint, run
from latentlqr import EmissionModel, make_benchmark_instance, pipeline

RTOL, ATOL = 1e-6, 1e-12


def test_every_golden_config_has_its_artifacts():
    assert names(), "no golden configs"
    for name in names():
        assert "report.csv" in artifacts(GOLDEN / name), name


def moved_lines(path: str, want: bytes, got: bytes) -> list[str]:
    """Each line of a file that moved; a report line with its relative move and,
    where the report has one, its metric's standard error."""
    old, new = want.decode().splitlines(), got.decode().splitlines()
    if len(old) != len(new):
        return [f"{path}: {len(old)} lines became {len(new)}"]
    stderr = dict(line.split(",", 1) for line in old if "," in line)
    out = []
    for a, b in zip(old, new):
        if a == b:
            continue
        line = f"{path}: {a} -> {b}"
        key, _, value = a.partition(",")
        if path == "report.csv":
            try:
                rel = abs(float(b.partition(",")[2]) / float(value) - 1.0)
                line += f" (relative move {rel:.3g}"
                line += f", stderr {stderr[key + '_stderr']})" if key + "_stderr" in stderr else ")"
            except (ValueError, ZeroDivisionError):
                pass
        out.append(line)
    return out


def close_fields(want: bytes, got: bytes) -> bool:
    """Same lines and fields, numbers within RTOL (or ATOL), all else equal."""
    old, new = want.decode().splitlines(), got.decode().splitlines()
    if len(old) != len(new):
        return False
    for a, b in zip(old, new):
        fa, fb = a.split(","), b.split(",")
        if len(fa) != len(fb):
            return False
        for x, y in zip(fa, fb):
            try:
                if not math.isclose(float(x), float(y), rel_tol=RTOL, abs_tol=ATOL):
                    return False
            except ValueError:
                if x != y:
                    return False
    return True


@pytest.mark.parametrize("name", names())
def test_artifacts_match_the_goldens(name, tmp_path):
    run(name, tmp_path)
    want, got = artifacts(GOLDEN / name), artifacts(tmp_path)
    assert sorted(got) == sorted(want)
    recorded, here = recorded_fingerprint(), fingerprint()
    if here == recorded:
        moved = [line for path in want if got[path] != want[path]
                 for line in moved_lines(path, want[path], got[path])]
        assert not moved, "artifacts moved:\n" + "\n".join(moved)
    else:
        warnings.warn(f"goldens were made on {recorded}, this is {here}: compared to a "
                      f"relative {RTOL:g}, not byte for byte")
        far = [path for path in want if not close_fields(want[path], got[path])]
        assert not far, f"artifacts moved beyond a relative {RTOL:g}: {far}"


def test_fields_compare_to_a_relative_tolerance():
    want = b"metric,value\ngap,0.125\nclip_events,3\n"
    assert close_fields(want, b"metric,value\ngap,0.12500000000000003\nclip_events,3\n")
    assert not close_fields(want, b"metric,value\ngap,0.126\nclip_events,3\n")
    assert not close_fields(want, b"metric,value\ngap,0.125\nclip_events,4\n")
    assert not close_fields(want, b"metric,value\ngaps,0.125\nclip_events,3\n")


def test_another_platform_warns_and_compares_to_the_tolerance(monkeypatch, tmp_path):
    monkeypatch.setitem(globals(), "fingerprint", lambda: {"numpy": "another"})
    with pytest.warns(UserWarning, match="not byte for byte"):
        test_artifacts_match_the_goldens("scalar-identity", tmp_path)


def test_a_moved_report_line_shows_its_move_and_stderr():
    want = b"metric,value\ngap,0.1\ngap_stderr,0.01\ngap_zero,0.5\n"
    got = b"metric,value\ngap,0.2\ngap_stderr,0.01\ngap_zero,0.25\n"
    assert moved_lines("report.csv", want, got) == [
        "report.csv: gap,0.1 -> gap,0.2 (relative move 1, stderr 0.01)",
        "report.csv: gap_zero,0.5 -> gap_zero,0.25 (relative move 0.5)"]


def test_regeneration_lists_each_added_removed_and_changed_file():
    before = {"a/report.csv": b"1", "a/policy/old.csv": b"2", "b/report.csv": b"3"}
    after = {"a/report.csv": b"1", "a/policy/new.csv": b"2", "b/report.csv": b"4"}
    assert changes(before, after) == ["added a/policy/new.csv", "removed a/policy/old.csv",
                                      "changed b/report.csv"]


# A signed permutation P of the five observation coordinates: (P y)_i = SIGNS_i y_PERM_i.
PERM, SIGNS = np.array([3, 0, 4, 2, 1]), np.array([1.0, -1.0, 1.0, 1.0, -1.0])


def relabeled(instance: str):
    """make_benchmark_instance(instance) observed as y' = P y, with the true decoder
    and every candidate composed with P^-1; indexing and sign flips are exact."""
    spec, emission, cls = make_benchmark_instance(instance)
    back = np.argsort(PERM)

    def unlabel(f):
        return lambda y: f((SIGNS * y)[:, back])

    relabeled_emission = EmissionModel(d_y=emission.d_y,
                                       emit=lambda x: SIGNS * emission.emit(x)[:, PERM],
                                       true_decoder=unlabel(emission.true_decoder))
    return spec, relabeled_emission, dataclasses.replace(
        cls, candidates=tuple(unlabel(f) for f in cls.candidates))


@pytest.mark.parametrize("name", ["di-cubic-lift", "stable2x1-lift5"])
def test_relabeling_the_observations_changes_no_artifact(name, tmp_path, monkeypatch):
    """The learner reaches y only through the candidates, so observing P y through
    candidates composed with P^-1 must leave every artifact's bytes as they were."""
    x = np.random.default_rng(0).standard_normal((3, 2))
    emission, moved = make_benchmark_instance(name)[1], relabeled(name)[1]
    assert not np.array_equal(moved.emit_batch(x), emission.emit_batch(x))
    assert np.array_equal(moved.decode_batch(moved.emit_batch(x)),
                          emission.decode_batch(emission.emit_batch(x)))
    run(name, tmp_path / "plain")
    monkeypatch.setattr(pipeline, "make_benchmark_instance", relabeled)
    run(name, tmp_path / "relabeled")
    want, got = artifacts(tmp_path / "plain"), artifacts(tmp_path / "relabeled")
    assert sorted(got) == sorted(want)
    assert [path for path in want if got[path] != want[path]] == []
