"""Tests for the benchmark's own parts: generator, oracle, span arithmetic, checks."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import procgeom.cli  # noqa: E402
from procgeom import Pfsa, as_process, inner_exact  # noqa: E402

from perfbench import hostspeed, inputs, layers, oracle, run, tracing, workloads  # noqa: E402
from perfbench.inputs import ClassSpec, Machine  # noqa: E402

G2 = inputs.g2_machine()
M2 = Machine(np.array([[0, 1], [0, 1]]), np.array([[0.9, 0.1], [0.2, 0.8]]))
U3 = Machine(
    np.array([[0, 1, 2], [0, 2, 0], [0, 0, 1]]),
    np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]),
)
SPECS = (
    ClassSpec("r", "random_pair", 12, 9, 3),
    ClassSpec("c", "cerny_pair", 6, 0, 2),
    ClassSpec("b", "random_base", 8, 6, 2),
    ClassSpec("g", "g2"),
)


def handle(m: Machine, alphabet=("0", "1")):
    return as_process(Pfsa(alphabet, [f"s{i}" for i in range(m.n_states)], m.delta, m.morph))


def test_generator_is_byte_deterministic(tmp_path):
    a = inputs.write_pool(inputs.build_pool(SPECS, 7), tmp_path / "a")
    b = inputs.write_pool(inputs.build_pool(SPECS, 7), tmp_path / "b")
    c = inputs.write_pool(inputs.build_pool(SPECS, 8), tmp_path / "c")
    assert a == b != c
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_random_machines_are_unichain_at_target_size():
    pool = inputs.build_pool(SPECS, 3)
    for inp in pool[0] + pool[2]:
        for m in inp.machines:
            sinks = inputs.sink_components(m.delta)
            assert len(sinks) == 1 and len(sinks[0]) == SPECS[0 if inp.label == "r" else 2].sink
            assert np.allclose(m.morph.sum(axis=1), 1.0, atol=1e-15) and m.morph.min() > 0
    skipped = inputs.manifest(pool, SPECS)["r"]["skipped_draws"]
    assert set(skipped) <= {"not_unichain", "sink_size_off_target"}


def test_cerny_machine_and_synchronizing_check():
    m = inputs.cerny_machine(1, (0,), 5)
    assert m.delta[:, 0].tolist() == [1, 2, 3, 4, 0]
    assert m.delta[:, 1].tolist() == [1, 1, 2, 3, 4]
    assert inputs.is_synchronizing(m.delta) and inputs.is_synchronizing(G2.delta)
    rotations = np.array([[1, 2], [2, 0], [0, 1]])  # the t3 fixture: no word merges its states
    assert not inputs.is_synchronizing(rotations)


def test_written_files_parse_back_exactly():
    m = inputs.build_pool(SPECS, 5)[0][0].machines[0]
    back = oracle.parse_machine(inputs.format_machine(m))
    assert np.array_equal(back.delta, m.delta) and np.array_equal(back.morph, m.morph)


@pytest.mark.parametrize("pair", [("G2", "G2"), ("G2", "M2"), ("M2", "G2"), ("M2", "M2"), ("U3", "U3")])
def test_oracle_matches_inner_exact_on_fixtures(pair):
    machines = {"G2": G2, "M2": M2, "U3": U3}
    g, h = (machines[name] for name in pair)
    alphabet = ("a", "b", "c") if pair[0] == "U3" else ("0", "1")
    expected = inner_exact(handle(g, alphabet), handle(h, alphabet)).value
    assert abs(oracle.pair_inner(g, h) - expected) <= 1e-12
    if g is h:
        assert abs(oracle.norm_sq(g) - expected) <= 1e-12


def test_oracle_agrees_with_program_on_generated_pairs():
    for inp in inputs.build_pool(SPECS, 11)[0]:
        g, h = inp.machines
        program = inner_exact(handle(g), handle(h)).value
        assert abs(oracle.pair_inner(g, h) - program) <= 1e-12


def test_sum_reference_matches_itself_through_a_file():
    g, h = inputs.build_pool(SPECS, 2)[0][0].machines
    ref = oracle.word_probabilities(oracle.sum_machine(g, h), 4)
    assert abs(sum(p for w, p in ref.items() if len(w) == 4) - 1.0) <= 1e-12
    again = oracle.word_probabilities(
        oracle.parse_machine(inputs.format_machine(oracle.sum_machine(g, h))), 4)
    assert max(abs(again[w] - ref[w]) for w in ref) <= 1e-15


def test_exact_check_accepts_the_program_and_rejects_a_perturbed_angle(tmp_path):
    inp = inputs.build_pool(SPECS, 4)[0][0]
    inputs.write_pool([[inp]], tmp_path)
    out = run.run_op(procgeom.cli, workloads.exact_argv(inp, tmp_path), tmp_path, ())
    refs = workloads.References()
    assert out.rc == 0
    workloads.exact_check(inp, out, refs)
    theta = float(out.stdout)
    out.stdout = f"{theta + 1e-9:.17g}\n"
    with pytest.raises(workloads.CheckFailed):
        workloads.exact_check(inp, out, refs)


def test_self_times_on_a_hand_built_tree():
    #   root [0, 10]: children a [1, 4], c [3, 6] (overlapping a), b [5, 9]
    #   b has child d [6, 7]
    spans = [
        ["cli.main", -1, 0, 0.0, 10.0, False],
        ["pfsa.minimize", 0, 0, 1.0, 4.0, False],
        ["process.inner_exact", 0, 0, 5.0, 9.0, False],
        ["pfsa.matrices", 2, 0, 6.0, 7.0, False],
        ["pfsa.validate", 0, 0, 3.0, 6.0, False],
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 3.0, 1.0, 3.0])
    # pfsa.matrices is in no group: its time is billed to its caller's group
    assert tracing.span_groups(spans) == [
        "cli.self", "pfsa.minimize", "process.inner_exact", "process.inner_exact", "pfsa.validate"]


def test_errors_count_once_per_layer_exit():
    spans = [
        ["experiment.run_noise_experiment", -1, 0, 0.0, 5.0, False],
        ["process.angle", 0, 0, 1.0, 2.0, True],
        ["process.process_norm", 1, 0, 1.0, 1.5, True],
    ]
    assert tracing.errors_by_layer(spans)["process"] == 1


def test_tracer_records_nested_spans_and_restores_bindings(tmp_path, capsys):
    import procgeom.process as process

    path = tmp_path / "g2.pfsa"
    path.write_text(inputs.format_machine(G2))
    original = process.minimize
    tracer = tracing.Tracer(layers.HOOKS)
    with tracer:
        assert process.minimize is not original
        assert procgeom.cli.main(["angle", str(path), str(path)]) == 0
    assert process.minimize is original
    with tracer:  # re-entering reuses the wrappers and keeps recording
        procgeom.cli.main(["angle", str(path), str(path)])
    assert process.minimize is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "cli.main" and "process.inner_exact" in names and "pfsa.minimize" in names
    roots = [s for s in tracer.spans if s[tracing.PARENT] < 0]
    assert len(roots) == 2
    selfs = tracing.self_times(tracer.spans)
    assert sum(selfs) == pytest.approx(sum(r[tracing.END] - r[tracing.START] for r in roots), rel=1e-9)
    assert len(tracer.kept["inner_exact"]) == 6 and tracer.counts["pfsa.minimize_states_in"] == 8
    capsys.readouterr()


def test_host_speed_scales_by_the_samples_around_an_interval():
    speed = hostspeed.HostSpeed()
    speed.samples = [1.0, 2.0, 4.0, 8.0, 16.0]
    ref = hostspeed.REFERENCE_S
    # two samples before mark 3 (2.0, 4.0) and two after it (8.0, 16.0)
    assert speed.factor(3) == pytest.approx(ref / 6.0)
    assert speed.factor(0) == pytest.approx(ref / 1.5)  # clipped at the start
    assert speed.factor(5) == pytest.approx(ref / 12.0)  # clipped at the end
    assert speed.mark() == 5
    assert speed.sample() > 0.0 and speed.mark() == 6


def test_tail_percentile():
    times = [float(i) for i in range(1, 61)]
    value, pct = run.tail(times)
    assert pct == 83 and value == 50.0 and sum(t > value for t in times) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why

