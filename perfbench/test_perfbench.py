"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib.util
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


# ----------------------------------------------------------------- p90 rule


def test_p90_has_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    value, beyond = run.p90_with_tail(samples)
    assert 89 < value < 91
    assert beyond == 10


def test_p90_refuses_too_few_samples():
    with pytest.raises(ValueError, match="samples"):
        run.p90_with_tail([float(i) for i in range(99)])


def test_p90_refuses_when_ties_leave_too_few_beyond():
    with pytest.raises(ValueError, match="beyond"):
        run.p90_with_tail([1.0] * 95 + [2.0] * 5)


# ----------------------------------------------------------------- host-speed probe


def test_normalised_wall_scales_by_median_probe():
    ref = run.PROBE_REF_S
    assert run.normalised_wall(3.0, [ref * 1.5, ref * 1.5, ref * 9]) == pytest.approx(2.0)
    assert run.normalised_wall(3.0, [ref]) == pytest.approx(3.0)


def test_probes_run_between_calls_and_stay_out_of_the_wall_time(monkeypatch):
    monkeypatch.setattr(run, "PROBE_INTERVAL_S", 0.0)
    monkeypatch.setattr(run, "probe_seconds", lambda: time.sleep(0.05) or 0.05)
    calls = [workloads.Call(["noop"], None)] * 3
    probes = []
    wall, results = run.run_round(calls, invoke=lambda argv: 0, probes=probes)
    assert probes == [0.05] * 4  # before each call and after the last
    assert [r.rc for r in results] == [0, 0, 0]
    assert wall < 0.05


# ----------------------------------------------------------------- self time


def _span(sid, parent, start, end, name="x"):
    return (sid, parent, 0, name, start, end)


def test_self_time_nested_and_siblings():
    spans = [
        _span(1, 0, 0.0, 10.0),  # root
        _span(2, 1, 1.0, 4.0),  # first child
        _span(3, 2, 2.0, 3.0),  # grandchild
        _span(4, 1, 5.0, 7.0),  # sibling of the first child
    ]
    own = tracing.self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 1.0, 4: 2.0}
    assert sum(own.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [_span(1, 0, 0.0, 10.0), _span(2, 1, 1.0, 6.0), _span(3, 1, 4.0, 8.0)]
    assert tracing.self_times(spans)[1] == 3.0


def test_tracer_records_parents_and_generator_resumes():
    ticks = iter(range(1000))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def items():
        yield leaf()
        yield leaf()

    leaf_w = tracer.wrap(leaf, "graphs.leaf")
    items_w = tracer.wrap(items, "partitions.items")
    leaf = leaf_w  # items() resolves leaf here, as a patched module global would
    assert list(items_w()) == [1, 1]
    names = [s[3] for s in tracer.spans]
    assert names.count("partitions.items") == 3  # two items and the final resume
    by_id = {s[0]: s for s in tracer.spans}
    for sid, parent, _, name, _, _ in tracer.spans:
        if name == "graphs.leaf":
            assert by_id[parent][3] == "partitions.items"
    assert tracer.yields["partitions.items"] == 2
    assert tracer.calls["graphs.leaf"] == 2


def test_install_wraps_import_sites_and_uninstall_restores():
    cli = run.import_program()
    import spantree.partitions
    import spantree.witness

    originals = (cli.tau, spantree.witness.primes_up_to, spantree.partitions.primes_up_to)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.tau is not originals[0]
        assert spantree.witness.primes_up_to is spantree.partitions.primes_up_to
        wall, results = run.run_round(
            [workloads.Call(["witness", "--n", "10"], None)], tracer=tracer
        )
    finally:
        tracer.uninstall()
    assert (cli.tau, spantree.witness.primes_up_to, spantree.partitions.primes_up_to) == originals
    assert results[0].rc == 0
    metrics = tracing.layer_metrics(tracer, wall, wall)
    assert metrics["cli.calls"][0] == 1
    assert metrics["witness.built"][0] == 8
    layers = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert layers + metrics["trace.glue_s"][0] == pytest.approx(wall)
    assert metrics["trace.glue_s"][0] >= 0


# ----------------------------------------------------------------- references


def test_modular_determinant_matches_cayley():
    for n in range(2, 16):
        edges = [(u, v, 1) for u in range(n) for v in range(u + 1, n)]
        assert ref.tau_residues(n, edges) == tuple(n ** (n - 2) % p for p in ref.PRIMES)


def test_modular_determinant_matches_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(60):
        g = oracles.random_multigraph(rng, max_vertices=7, max_edges=14)
        if g.n_vertices < 2:
            continue
        lap = ref.reduced_laplacian(g.n_vertices, list(g.edges))
        exact = oracles.det_cofactor(lap.tolist())
        assert tuple(exact % p for p in ref.PRIMES) == ref.tau_residues(g.n_vertices, list(g.edges))


def test_reference_constants_agree_with_test_oracles():
    assert ref.ATLAS_SETS == {3: oracles.ATLAS_3, 4: oracles.ATLAS_4}
    assert (ref.P_50, ref.P_100) == (oracles.P_50, oracles.P_100)
    p = ref.partition_numbers(100)
    assert p[: len(oracles.PARTITION_COUNTS)] == oracles.PARTITION_COUNTS
    assert (p[50], p[100]) == (oracles.P_50, oracles.P_100)
    odd = ref.restricted_partition_numbers(12, [3, 5, 7, 11])
    assert odd == oracles.ODD_PRIME_COUNTS


# ----------------------------------------------------------------- checks


def _complete_calls(tmp_path):
    calls = workloads.build("tau-dense", 3, tmp_path).calls
    return [c for c in calls if "--complete" in c.argv and int(c.argv[-1]) <= 40]


def test_correct_outputs_pass(tmp_path):
    run.import_program()
    calls = _complete_calls(tmp_path)
    _, results = run.run_round(calls)
    assert all(run.check_round(calls, results))


def test_wrong_output_raises_failed_ratio(tmp_path):
    run.import_program()
    calls = _complete_calls(tmp_path)
    wrong = calls[0].argv

    def corrupting(argv):
        if argv == wrong:
            print("1")
            return 0
        return run.invoke_cli(argv)

    def crashing(argv):
        raise RuntimeError("boom")

    for invoke in (corrupting, crashing):
        _, results = run.run_round(calls, invoke=invoke)
        verdicts = run.check_round(calls, results)
        assert verdicts.count(False) / len(verdicts) > 0


def test_inputs_depend_only_on_seed(tmp_path):
    a = workloads.build("tau-sparse", 5, tmp_path / "a")
    b = workloads.build("tau-sparse", 5, tmp_path / "b")
    c = workloads.build("tau-sparse", 6, tmp_path / "c")

    def texts(w):
        return [Path(call.argv[-1]).read_text() for call in w.calls]

    assert texts(a) == texts(b)
    assert texts(a) != texts(c)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "results"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
