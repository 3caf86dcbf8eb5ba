import math

import numpy as np
import pytest

from procgeom import ExperimentConfig, angle, run_noise_experiment


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

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf])
    def test_non_finite_smoothing_rejected_before_any_work(self, g2, monkeypatch, smoothing):
        import procgeom.experiment as experiment

        def no_work(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(experiment, "inner_exact", no_work)
        monkeypatch.setattr(experiment, "stream_from_model", no_work)
        with pytest.raises(ValueError, match="smoothing must be finite and > 0"):
            run_noise_experiment(g2, small_config(smoothing=smoothing))

    def test_each_norm_and_each_pair_solved_once(self, g2, monkeypatch):
        import procgeom.experiment as experiment

        calls = []
        solve = experiment.inner_exact

        def counted(p, q):
            calls.append((p, q))
            return solve(p, q)

        monkeypatch.setattr(experiment, "inner_exact", counted)
        rep = run_noise_experiment(g2, small_config(stream_length=2_000))
        # five norms, and the six cross pairs of the four models of nonzero norm
        assert len(calls) == 11
        assert len(set(map(frozenset, calls))) == 11
        monkeypatch.undo()
        for i in range(5):
            for j in range(5):
                if rep.zero_norm[i] or rep.zero_norm[j]:
                    assert np.isnan(rep.model_angles[i, j])
                else:
                    assert rep.model_angles[i, j] == angle(rep.models[i], rep.models[j])

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
