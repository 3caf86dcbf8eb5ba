import hashlib
import math

import numpy as np
import pytest

from procgeom import (
    ExperimentConfig,
    Pfsa,
    StreamTooShort,
    angle,
    as_process,
    run_noise_experiment,
    write_pfsa,
)
from procgeom.experiment import DEFAULT_SCALES
from procgeom.cli import main


def small_config(**overrides):
    base = dict(stream_length=30_000, depth=4, smoothing=0.5, seed=11)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestNoiseExperiment:
    def test_report_shapes_and_labels(self, g2):
        rep = run_noise_experiment(g2, small_config())
        n = 5
        assert rep.labels == ("1G", "-1G", "0.1G", "-0.1G", "0G")
        assert rep.model_angles.shape == (n, n)
        assert rep.empirical_angles.shape == (n, n)
        assert rep.stream_means.shape == (n, 2)

    def test_model_level_angles(self, g2):
        rep = run_noise_experiment(g2, small_config())
        i = {lab: k for k, lab in enumerate(rep.labels)}
        assert rep.model_angles[i["1G"], i["-1G"]] == pytest.approx(math.pi, abs=1e-9)
        assert rep.model_angles[i["0.1G"], i["-0.1G"]] == pytest.approx(math.pi, abs=1e-9)
        assert rep.model_angles[i["1G"], i["0.1G"]] == pytest.approx(0.0, abs=1e-9)

    def test_zero_scale_row_flagged(self, g2):
        rep = run_noise_experiment(g2, small_config())
        i = {lab: k for k, lab in enumerate(rep.labels)}
        assert rep.zero_norm[i["0G"]]
        assert not rep.zero_norm[i["1G"]]
        assert np.isnan(rep.model_angles[i["0G"], i["1G"]])

    @pytest.mark.parametrize("bad, error, message", [
        (dict(smoothing=math.nan), ValueError, "smoothing must be finite and > 0"),
        (dict(smoothing=math.inf), ValueError, "smoothing must be finite and > 0"),
        (dict(depth=-1), ValueError, "depth must be >= 0"),
        (dict(depth=40), ValueError, r"depth 40 gives 2\*\*40 contexts"),
        (dict(stream_length=-1), ValueError, "stream_length must be >= 0"),
        (dict(stream_length=4, depth=4), StreamTooShort, "stream length 4 <= depth 4"),
        (dict(stream_length=0), StreamTooShort, "stream length 0 <= depth 4"),
        (dict(stream_length=2000.0), TypeError, "stream_length must be an int, got 2000.0"),
        (dict(depth=2.0), TypeError, "depth must be an int, got 2.0"),
        (dict(depth=True), TypeError, "depth must be an int, got True"),
    ], ids=["nan-smoothing", "inf-smoothing", "negative-depth", "huge-depth", "negative-length",
            "length-at-depth", "empty-streams", "float-length", "float-depth", "bool-depth"])
    def test_bad_config_rejected_before_any_work(self, g2, monkeypatch, bad, error, message):
        import procgeom.experiment as experiment
        import procgeom.process as process

        def no_work(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(process, "inner_exact", no_work)
        monkeypatch.setattr(experiment, "_sampler", no_work)
        with pytest.raises(error, match=message):
            run_noise_experiment(g2, small_config(**bad))

    def test_peak_memory_holds_two_streams_whatever_the_scales(self, g2):
        # each stream is reduced before the next is sampled, so the peak is
        # a few streams' worth of bytes and does not grow with the scales
        import tracemalloc

        length = 400_000
        stream_bytes = 8 * length
        run_noise_experiment(g2, small_config(stream_length=2_000))  # first-call imports and caches
        peaks = []
        for scales in ((1.0, -1.0), DEFAULT_SCALES):
            tracemalloc.start()
            try:
                run_noise_experiment(g2, small_config(scales=scales, stream_length=length))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        two, five = peaks
        assert five < 4 * stream_bytes, five / stream_bytes
        assert abs(five - two) <= 0.05 * two, (two / stream_bytes, five / stream_bytes)

    def test_peak_memory_does_not_grow_with_the_stream_length(self, g2, monkeypatch):
        # streams are sampled and counted in pieces, so eight times the
        # symbols leave the peak where it was
        import tracemalloc

        import procgeom.pfsa as pfsa

        monkeypatch.setattr(pfsa, "_STREAM_CHUNK", 4_096)
        run_noise_experiment(g2, small_config(stream_length=2_000))  # first-call imports and caches
        peaks = []
        for length in (1 << 17, 1 << 20):
            tracemalloc.start()
            try:
                run_noise_experiment(g2, small_config(stream_length=length))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        short, long = peaks
        assert abs(long - short) <= 0.1 * short, (short, long)

    def test_peak_memory_per_symbol_on_a_six_state_base(self):
        # symbols go from the sampler to the window counter one byte each,
        # which leaves the float64 draws as the largest transient: about 11
        # bytes a symbol at 10**6, where int64 symbols took about 18
        import tracemalloc

        rng = np.random.default_rng(1)
        rows = np.maximum(rng.dirichlet([2.0, 2.0], 8), 1e-3)
        base = Pfsa(["0", "1"], [f"s{i}" for i in range(8)], rng.integers(0, 8, (8, 2)),
                    rows / rows.sum(axis=1, keepdims=True))
        assert as_process(base).machine.n_states == 6
        length = 1_000_000
        run_noise_experiment(base, small_config(stream_length=2_000))  # first-call imports and caches
        tracemalloc.start()
        try:
            run_noise_experiment(base, small_config(stream_length=length))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13 * length, peak / length

    def test_each_model_solves_its_stationary_vector_once(self, g2, monkeypatch):
        import procgeom.pfsa as pfsa

        solved = []
        solve = pfsa._stationary

        def counted(block, weights):
            # a machine's solve weights by its rows, an inner product by 1/k
            if np.ndim(weights) == 2:
                solved.append(1)
            return solve(block, weights)

        monkeypatch.setattr(pfsa, "_stationary", counted)
        rep = run_noise_experiment(g2, small_config(stream_length=2_000))
        # five models, two streams each
        assert len(solved) == 5
        assert [m.machine.n_states for m in rep.models] == [2, 2, 2, 2, 1]

    def test_each_model_builds_its_sampler_tables_once(self, g2, monkeypatch):
        import procgeom.experiment as experiment
        import procgeom.pfsa as pfsa

        calls = {"_sampler": [], "_block_tables": [], "_stitched_starts": []}

        def counted(module, name):
            real = getattr(module, name)

            def call(*args):
                calls[name].append(1)
                return real(*args)

            monkeypatch.setattr(module, name, call)

        counted(experiment, "_sampler")
        counted(pfsa, "_block_tables")
        counted(pfsa, "_stitched_starts")
        run_noise_experiment(g2, small_config(stream_length=2_000))
        # five models, the four of two states tabulate blocks; two streams each
        assert {name: len(c) for name, c in calls.items()} == {
            "_sampler": 5, "_block_tables": 4, "_stitched_starts": 8}

    def test_each_norm_and_each_pair_solved_once(self, g2, monkeypatch):
        import procgeom.process as process

        solved = []
        solve = process._stationary

        def counted(block, weights):
            # an inner product weights its pair chain uniformly, by 1/k
            if np.ndim(weights) == 0:
                solved.append(block)
            return solve(block, weights)

        monkeypatch.setattr(process, "_stationary", counted)
        rep = run_noise_experiment(g2, small_config(stream_length=2_000))
        # five norms, and the six cross pairs of the four models of nonzero norm
        assert len(solved) == 11
        assert all(m._norm is not None for m in rep.models)
        monkeypatch.undo()
        for i in range(5):
            for j in range(5):
                if rep.zero_norm[i] or rep.zero_norm[j]:
                    assert np.isnan(rep.model_angles[i, j])
                else:
                    assert rep.model_angles[i, j] == angle(rep.models[i], rep.models[j])

    def test_undefined_stream_angles_are_nan_empty_and_na(self, g2, tmp_path, capsys):
        # two-symbol streams at depth 0: the first stream of every model but
        # 1G reads one 0 and one 1, a uniform table of zero norm
        rep = run_noise_experiment(g2, ExperimentConfig(stream_length=2, depth=0, seed=0))
        undefined = np.isnan(rep.empirical_angles)
        assert undefined.sum() == 24 and not undefined[0, 0]
        write_pfsa(g2, tmp_path / "g2.pfsa")
        assert main(["experiment", str(tmp_path / "g2.pfsa"), "--outdir", str(tmp_path),
                     "--length", "2", "--depth", "0", "--seed", "0"]) == 0
        capsys.readouterr()
        rows = (tmp_path / "stream_angles.csv").read_text().splitlines()[2:]
        cells = np.array([row.split(",")[1:] for row in rows])
        assert np.array_equal(cells == "", undefined)
        summary = (tmp_path / "summary.txt").read_text()
        assert summary == rep.summary()
        self_angles = [line.split()[3] for line in summary.splitlines()[3:8]]
        assert self_angles == ["0.0000"] + ["n/a"] * 4
        pairs = [line for line in summary.splitlines() if " vs " in line]
        assert len(pairs) == 10 and all(line.endswith("| n/a") for line in pairs)

    def test_near_uniform_single_state_is_not_zero_norm(self):
        # a one-state base scaled by 1e-6 is within 1e-5 of uniform, but its
        # norm is about 4e-7, far above the 1e-12 cut: its angle is defined
        from procgeom import Pfsa

        base = Pfsa(["0", "1"], ["s"], [[0, 0]], [[0.6, 0.4]])
        rep = run_noise_experiment(base, small_config(scales=(1.0, 1e-6, 0.0), stream_length=2_000))
        assert rep.zero_norm == (False, False, True)
        assert rep.model_angles[0, 1] == 0.0

    def test_matrices_symmetric(self, g2):
        rep = run_noise_experiment(g2, small_config())
        def sym(m):
            a, b = m, m.T
            mask = ~(np.isnan(a) | np.isnan(b))
            return np.array_equal(a[mask], b[mask]) and np.array_equal(np.isnan(a), np.isnan(b))
        assert sym(rep.model_angles)
        assert sym(rep.empirical_angles)

    def test_self_angles_non_negative(self, g2):
        rep = run_noise_experiment(g2, small_config())
        diag = np.diag(rep.empirical_angles)
        assert np.all(diag[~np.isnan(diag)] >= 0.0)

    def test_deterministic_for_seed(self, g2):
        a = run_noise_experiment(g2, small_config())
        b = run_noise_experiment(g2, small_config())
        np.testing.assert_array_equal(a.stream_means, b.stream_means)
        mask = ~np.isnan(a.empirical_angles)
        np.testing.assert_array_equal(a.empirical_angles[mask], b.empirical_angles[mask])

    def test_csv_outputs_parse(self, g2):
        rep = run_noise_experiment(g2, small_config())
        for text in (rep.model_angles_csv(), rep.empirical_angles_csv(), rep.stats_csv()):
            lines = [l for l in text.splitlines() if not l.startswith("#")]
            header = lines[0].split(",")
            assert all(len(l.split(",")) == len(header) for l in lines[1:])
        assert "self-angle" in rep.summary() or "1G" in rep.summary()


# sha256 of the four output files of ``experiment BASE --length 20000``; the
# streams are the per-symbol loop's, whatever route the sampler takes, and
# each std in stream_stats.csv is the one of the stream's symbol counts
PINNED_OUTPUTS = {
    "g2": {
        "model_angles.csv": "d75f4fe9a787b0bca451350bc1184e7cb8cb3f48602b76a601d6127a67a7a0e5",
        "stream_angles.csv": "3c09cfec2af677d3aa538689e9c1f37861cfd86546354b283bd5848149dcd165",
        "stream_stats.csv": "53028de0bcba78694ede7739d7d80316aa369f368da93865cc38ba91e08e4c5a",
        "summary.txt": "fa04b2d604147af6dc2bba00aa25c4556ca1816a079badc16f30fc964857f885",
    },
    "r6": {
        "model_angles.csv": "2c4eebb4ed476486101935f31f4f36faa2461720983a8e5512dec2d29ee9e3ff",
        "stream_angles.csv": "e072cd70f79361b0e150f6c519c36099e492857254c7d18f2d1c521a976916ba",
        "stream_stats.csv": "26d018c5c9162409e021ab23fe56ff4c1f3dab87ff5a7a864d5c961bbb767df2",
        "summary.txt": "65d29063a73856b7c4457ca0a1fe759cac801ae1f892797ec87870518692702b",
    },
}


def random_base(n, seed):
    # symbol 0 walks a cycle through every state, so the machine is ergodic
    rng = np.random.default_rng(seed)
    delta = rng.integers(0, n, (n, 2))
    delta[:, 0] = np.roll(np.arange(n), -1)
    rows = np.maximum(rng.dirichlet([2.0, 2.0], n), 1e-3)
    return Pfsa(["0", "1"], [f"s{i}" for i in range(n)], delta,
                rows / rows.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_experiment_files_are_pinned(name, g2, tmp_path, capsys):
    base = g2 if name == "g2" else random_base(6, 1)
    assert as_process(base).machine.n_states == {"g2": 2, "r6": 6}[name]
    write_pfsa(base, tmp_path / "base.pfsa")
    outdir = tmp_path / "out"
    assert main(["experiment", str(tmp_path / "base.pfsa"), "--outdir", str(outdir),
                 "--length", "20000"]) == 0
    capsys.readouterr()
    digests = {f: hashlib.sha256((outdir / f).read_bytes()).hexdigest() for f in PINNED_OUTPUTS[name]}
    assert digests == PINNED_OUTPUTS[name]
