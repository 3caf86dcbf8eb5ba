import math

import numpy as np
import pytest

from procgeom import Pfsa, format_pfsa, parse_pfsa, read_stream
from procgeom.cli import build_parser, main
from conftest import make_feed3, make_redundant_g2, make_t3, make_two_sinks, make_vanishing2


@pytest.fixture
def g2_path(tmp_path, g2):
    path = tmp_path / "G2.pfsa"
    path.write_text(format_pfsa(g2), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_model(self, capsys, g2_path):
        code, out, _ = run(capsys, "validate", g2_path)
        assert code == 0 and "valid" in out

    def test_invalid_model(self, capsys, tmp_path):
        bad = "pfsa v1\nalphabet: 0 1\nstate A:\n  0 -> A 0.5\n  1 -> A 0.6\n"
        path = tmp_path / "bad.pfsa"
        path.write_text(bad)
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1 and "sums to" in out

    def test_parse_error_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "junk.pfsa"
        path.write_text("not a model\n")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1 and "PfsaFormatError" in err

    def test_a_file_that_is_not_utf8_is_a_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bin.pfsa"
        path.write_bytes(b"\xff\xfe\x00\x01")
        code, _, err = run(capsys, "angle", str(path), str(path))
        assert code == 1 and "PfsaFormatError" in err and str(path) in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/x.pfsa")
        assert code == 1 and "error" in err


class TestStationary:
    def test_seventeen_digit_output(self, capsys, g2_path):
        code, out, _ = run(capsys, "stationary", g2_path)
        assert code == 0
        tokens = out.splitlines()[1].split()
        values = [float(t) for t in tokens]
        np.testing.assert_allclose(values, [0.6, 0.4], atol=1e-13)
        digits = [sum(c.isdigit() for c in t) for t in tokens]
        assert all(d >= 17 for d in digits)

    def test_not_ergodic_exit_one(self, capsys, tmp_path):
        path = tmp_path / "two.pfsa"
        path.write_text(format_pfsa(make_two_sinks()))
        code, _, err = run(capsys, "stationary", str(path))
        assert code == 1 and "NotErgodic" in err


class TestModelTransforms:
    def test_clx_drops_transient_states(self, capsys, tmp_path):
        path = tmp_path / "feed.pfsa"
        path.write_text(format_pfsa(make_feed3()))
        code, out, _ = run(capsys, "clx", str(path))
        assert code == 0
        g = parse_pfsa(out)
        assert g.states == ("a", "b")

    def test_minimize_merges(self, capsys, tmp_path):
        path = tmp_path / "red.pfsa"
        path.write_text(format_pfsa(make_redundant_g2()))
        out_path = tmp_path / "min.pfsa"
        code, _, _ = run(capsys, "minimize", str(path), "-o", str(out_path))
        assert code == 0
        assert parse_pfsa(out_path.read_text()).n_states == 2

    def test_scale_round_trip_stable(self, capsys, g2_path, tmp_path):
        f1 = tmp_path / "s1.pfsa"
        f2 = tmp_path / "s2.pfsa"
        assert run(capsys, "scale", g2_path, "--alpha", "1", "-o", str(f1))[0] == 0
        # write/read round trip reproduces the file bit for bit
        reread = parse_pfsa(f1.read_text())
        f2.write_text(format_pfsa(reread))
        assert f1.read_bytes() == f2.read_bytes()

    def test_scale_zero_gives_single_uniform_state(self, capsys, g2_path):
        code, out, _ = run(capsys, "scale", g2_path, "--alpha", "0")
        g = parse_pfsa(out)
        assert code == 0 and g.n_states == 1

    def test_sum_with_inverse_collapses(self, capsys, g2_path, tmp_path):
        neg = tmp_path / "neg.pfsa"
        assert run(capsys, "scale", g2_path, "--alpha", "-1", "-o", str(neg))[0] == 0
        code, out, _ = run(capsys, "sum", g2_path, str(neg))
        assert code == 0
        assert parse_pfsa(out).n_states == 1

    def test_sum_of_operands_whose_state_names_hold_a_comma(self, capsys, tmp_path):
        ga, hb = tmp_path / "ga.pfsa", tmp_path / "hb.pfsa"
        ga.write_text("pfsa v1\nalphabet: 0 1\nstate a,b:\n  0 -> a 0.3\n  1 -> a,b 0.7\n"
                      "state a:\n  0 -> a,b 0.6\n  1 -> a 0.4\n")
        hb.write_text("pfsa v1\nalphabet: 0 1\nstate c:\n  0 -> b,c 0.2\n  1 -> b,c 0.8\n"
                      "state b,c:\n  0 -> c 0.55\n  1 -> c 0.45\n")
        code, out, err = run(capsys, "sum", str(ga), str(hb))
        assert code == 0 and err == ""
        assert parse_pfsa(out).states == ("(0,0)", "(1,1)", "(0,1)", "(1,0)")


class TestGenerateAndWordprob:
    def test_generate_deterministic(self, capsys, g2_path, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        code, out, _ = run(capsys, "generate", g2_path, "--length", "200", "--seed", "9", "-o", str(a))
        assert code == 0 and "seed=9" in out
        run(capsys, "generate", g2_path, "--length", "200", "--seed", "9", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert len(read_stream(a, alphabet=["0", "1"])) == 200

    def test_wordprob(self, capsys, g2_path):
        code, out, _ = run(capsys, "wordprob", g2_path, "01")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.12, abs=1e-13)

    def test_wordprob_empty_word(self, capsys, g2_path):
        code, out, _ = run(capsys, "wordprob", g2_path, "")
        assert code == 0 and float(out.strip()) == 1.0

    @pytest.mark.parametrize("word, printed", [("ab", "0.59999999999999998"), ("ab cd", "0.12"), ("", "1")])
    def test_wordprob_over_a_wide_alphabet(self, capsys, tmp_path, word, printed):
        # g2's rows over the symbols ab and cd: a word with no space is one
        # symbol, since a symbol is wider than one character
        g = Pfsa(["ab", "cd"], ["A", "B"],
                 {"A": {"ab": "A", "cd": "B"}, "B": {"ab": "A", "cd": "B"}},
                 {"A": [0.8, 0.2], "B": [0.3, 0.7]})
        path = tmp_path / "wide.pfsa"
        path.write_text(format_pfsa(g), encoding="utf-8")
        assert run(capsys, "wordprob", str(path), word) == (0, printed + "\n", "")

    @pytest.mark.parametrize("word, printed", [("0", "0"), ("10", "0"), ("01", "0"), ("1", "1")])
    def test_wordprob_of_a_word_that_cannot_occur_prints_zero(self, capsys, tmp_path, word, printed):
        path = tmp_path / "vanishing.pfsa"
        path.write_text(format_pfsa(make_vanishing2()), encoding="utf-8")
        assert run(capsys, "wordprob", str(path), word) == (0, printed + "\n", "")

    @pytest.mark.parametrize("word, symbol", [("2", "'2'"), ("0 x", "'x'"), ("012", "'2'")])
    def test_wordprob_symbol_outside_alphabet_exits_two(self, capsys, g2_path, word, symbol):
        code, out, err = run(capsys, "wordprob", g2_path, word)
        assert (code, out) == (2, "")
        assert err == f"error: symbol {symbol} not in alphabet 0 1\n"


class TestSync:
    def test_g2(self, capsys, g2_path):
        code, out, _ = run(capsys, "sync", g2_path, "--eps", "0.01")
        assert code == 0
        assert "string: 0" in out and "achieved: 1" in out and "state: A" in out

    def test_depth_exceeded(self, capsys, tmp_path):
        perm = (
            "pfsa v1\nalphabet: 0 1\n"
            "state p:\n  0 -> q 0.5\n  1 -> p 0.5\n"
            "state q:\n  0 -> p 0.5\n  1 -> q 0.5\n"
        )
        path = tmp_path / "perm.pfsa"
        path.write_text(perm)
        code, _, err = run(capsys, "sync", str(path), "--eps", "0.01", "--max-depth", "5")
        assert code == 1 and "DepthExceeded" in err


class TestInnerAndAngle:
    def test_inner_exact(self, capsys, g2_path):
        code, out, _ = run(capsys, "inner", g2_path, g2_path)
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.3198628599447695, abs=1e-12)

    def test_angle_pi_anchor(self, capsys, g2_path, tmp_path):
        neg = tmp_path / "neg.pfsa"
        run(capsys, "scale", g2_path, "--alpha", "-1", "-o", str(neg))
        code, out, _ = run(capsys, "angle", g2_path, str(neg))
        assert code == 0
        assert float(out.strip()) == pytest.approx(math.pi, abs=1e-9)

    def test_inner_mc_echoes_seed(self, capsys, g2_path):
        code, out, _ = run(
            capsys, "inner", g2_path, g2_path, "--mode", "mc",
            "--walk-length", "500", "--repeats", "4", "--seed", "3",
        )
        assert code == 0
        assert out.startswith("# seed=3")
        value, stderr_ = (float(t) for t in out.splitlines()[1].split())
        assert abs(value - 1.3198628599447695) < 6 * max(stderr_, 1e-3)

    def test_angle_zero_norm_exit_one(self, capsys, g2_path, tmp_path):
        zero = tmp_path / "zero.pfsa"
        run(capsys, "scale", g2_path, "--alpha", "0", "-o", str(zero))
        code, _, err = run(capsys, "angle", g2_path, str(zero))
        assert code == 1 and "ZeroNorm" in err

    @pytest.mark.parametrize("command", ["inner", "angle"])
    @pytest.mark.parametrize("option", [("--eps", "1e-3"), ("--walk-length", "5"),
                                        ("--repeats", "3"), ("--seed", "1")])
    @pytest.mark.parametrize("mode", [(), ("--mode", "exact")])
    def test_exact_mode_rejects_monte_carlo_options(self, capsys, g2_path, command, option, mode):
        code, out, err = run(capsys, command, g2_path, g2_path, *mode, *option)
        assert (code, out, err) == (2, "", "error: exact mode takes no Monte Carlo options\n")

    @pytest.mark.parametrize("command", ["inner", "angle"])
    def test_mc_mode_fills_unset_options_with_defaults(self, capsys, g2_path, command):
        code, out, _ = run(capsys, command, g2_path, g2_path, "--mode", "mc", "--walk-length", "50")
        assert code == 0
        assert out.splitlines()[0] == "# seed=42 eps=1e-06 walk_length=50 repeats=20"

    def test_determinism_across_runs(self, capsys, g2_path):
        args = ("inner", g2_path, g2_path, "--mode", "mc",
                "--walk-length", "400", "--repeats", "4", "--seed", "5")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestGeodesicChart:
    def test_default_chart(self, capsys):
        code, out, _ = run(capsys, "geodesic-chart", "--samples", "11")
        assert code == 0
        lines = out.splitlines()
        assert any(l.startswith("# intersection: theta_star=") for l in lines)
        header = [l for l in lines if l.startswith("curve,")][0]
        assert header == "curve,theta,x1,x2,x3"
        rows = [l for l in lines if l.startswith(("gamma,", "eta,"))]
        assert len(rows) == 22
        for row in rows:
            parts = row.split(",")
            vals = [float(t) for t in parts[2:]]
            assert all(v > 0 for v in vals)
            assert abs(sum(vals) - 1.0) < 1e-9

    def test_explicit_curves(self, capsys, tmp_path):
        out_path = tmp_path / "chart.csv"
        code, _, _ = run(
            capsys, "geodesic-chart",
            "--p0", "0.6,0.3,0.1", "--p1", "0.2,0.4,0.4",
            "--q0", "0.6,0.3,0.1", "--q1", "0.2,0.4,0.4",
            "--samples", "5", "-o", str(out_path),
        )
        # parallel curves are not orthogonal; chart still renders
        assert code == 0
        assert "not orthogonal" in out_path.read_text()

    def test_partial_endpoints_usage_error(self, capsys):
        code, out, err = run(capsys, "geodesic-chart", "--p0", "0.5,0.5")
        assert (code, out, err) == (
            2, "", "error: geodesic-chart needs all of --p0 --p1 --q0 --q1, or none\n")

    @pytest.mark.parametrize("option, value, message", [
        ("--extend", "nan", "error: --extend must be finite, got nan\n"),
        ("--extend", "inf", "error: --extend must be finite, got inf\n"),
        ("--samples", "-3", "error: --samples must be >= 0, got -3\n"),
    ])
    def test_bad_option_is_named(self, capsys, option, value, message):
        code, out, err = run(capsys, "geodesic-chart", f"{option}={value}")
        assert (code, out, err) == (2, "", message)


class TestEstimate:
    def test_table_csv(self, capsys, g2_path, tmp_path):
        stream = tmp_path / "s.txt"
        run(capsys, "generate", g2_path, "--length", "2000", "--seed", "4", "-o", str(stream))
        code, out, _ = run(capsys, "estimate", str(stream), "--depth", "2", "--alphabet", "0 1")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "context,count,p_0,p_1"
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            ctx, count, p0, p1 = line.split(",")
            assert abs(float(p0) + float(p1) - 1.0) < 1e-12

    def test_one_symbol_over_a_wide_alphabet_reads_back(self, capsys, tmp_path):
        # the file holds "ab " or "cd ": without the trailing space, estimate
        # read two one-character symbols
        g = Pfsa(["ab", "cd"], ["A", "B"],
                 {"A": {"ab": "A", "cd": "B"}, "B": {"ab": "A", "cd": "B"}},
                 {"A": [0.8, 0.2], "B": [0.3, 0.7]})
        model, stream = tmp_path / "wide.pfsa", tmp_path / "s.txt"
        model.write_text(format_pfsa(g), encoding="utf-8")
        for seed in ("1", "2", "3"):
            run(capsys, "generate", str(model), "--length", "1", "--seed", seed, "-o", str(stream))
            symbol = stream.read_text(encoding="utf-8")
            assert symbol in ("ab \n", "cd \n")
            code, out, _ = run(capsys, "estimate", str(stream), "--depth", "0")
            assert code == 0
            assert "length=1" in out.splitlines()[0]
            assert out.splitlines()[1:] == ["context,count,p_" + symbol[:2], ",1,1"]

    def test_stream_too_short(self, capsys, tmp_path):
        stream = tmp_path / "s.txt"
        stream.write_text("01\n")
        code, _, err = run(capsys, "estimate", str(stream), "--depth", "4")
        assert code == 1 and "StreamTooShort" in err

    def test_empty_stream_file(self, capsys, tmp_path):
        stream = tmp_path / "s.txt"
        stream.write_text("\n")
        code, _, err = run(capsys, "estimate", str(stream), "--depth", "1")
        assert code == 1 and "StreamTooShort" in err

    def test_depth_beyond_the_context_limit_exits_two(self, capsys, tmp_path):
        stream = tmp_path / "s.txt"
        stream.write_text("01" * 50 + "\n")
        code, out, err = run(capsys, "estimate", str(stream), "--depth", "40")
        assert (code, out) == (2, "")
        assert err == "error: depth 40 gives 2**40 contexts, more than 1048576\n"

    @pytest.mark.parametrize("smoothing", ["nan", "inf", "-inf"])
    def test_non_finite_smoothing_exits_two(self, capsys, tmp_path, smoothing):
        stream = tmp_path / "s.txt"
        stream.write_text("0110100110010110\n")
        code, out, err = run(capsys, "estimate", str(stream), "--depth", "1", f"--smoothing={smoothing}")
        assert (code, out) == (2, "")
        assert err == f"error: smoothing must be finite and > 0, got {float(smoothing)!r}\n"


class TestExperiment:
    def test_writes_all_outputs(self, capsys, g2_path, tmp_path):
        outdir = tmp_path / "exp"
        code, out, _ = run(
            capsys, "experiment", g2_path, "--length", "20000",
            "--seed", "2", "--outdir", str(outdir),
        )
        assert code == 0
        for name in ("model_angles.csv", "stream_angles.csv", "stream_stats.csv", "summary.txt"):
            assert (outdir / name).exists()
        assert "seed=2" in (outdir / "model_angles.csv").read_text()
        assert "pairwise angles" in out

    def test_summary_built_once_for_its_file_and_stdout(self, capsys, g2_path, tmp_path, monkeypatch):
        from procgeom.experiment import ExperimentReport

        calls = []
        summary = ExperimentReport.summary

        def counted(report):
            calls.append(1)
            return summary(report)

        monkeypatch.setattr(ExperimentReport, "summary", counted)
        outdir = tmp_path / "exp"
        code, out, _ = run(capsys, "experiment", g2_path, "--length", "2000", "--outdir", str(outdir))
        assert (code, len(calls)) == (0, 1)
        assert (outdir / "summary.txt").read_text(encoding="utf-8") == out

    def test_pair_without_a_defined_angle_leaves_an_empty_cell(self, capsys, tmp_path):
        # T and 0.1 T share a permutation structure and 0.1 T's rows are
        # nearly uniform: the joint search for their start runs out of depth
        model = tmp_path / "t3.pfsa"
        model.write_text(format_pfsa(make_t3()), encoding="utf-8")
        outdir = tmp_path / "exp"
        code, out, _ = run(
            capsys, "experiment", str(model), "--scales", "1,0.1", "--length", "2000",
            "--outdir", str(outdir),
        )
        assert code == 0
        summary = (outdir / "summary.txt").read_text()
        assert summary == out
        assert "1G vs 0.1G: undefined (DepthExceeded: no string within depth" in summary
        assert "zero norm" not in summary
        rows = [line.split(",") for line in (outdir / "model_angles.csv").read_text().splitlines()]
        assert rows[2][2] == "" and rows[3][1] == ""
        assert float(rows[2][1]) == 0.0

    @pytest.mark.parametrize("smoothing", ["nan", "inf"])
    def test_non_finite_smoothing_exits_two(self, capsys, g2_path, tmp_path, smoothing):
        outdir = tmp_path / "exp"
        code, out, err = run(capsys, "experiment", g2_path, "--length", "2000",
                             f"--smoothing={smoothing}", "--outdir", str(outdir))
        assert (code, out) == (2, "")
        assert err == f"error: smoothing must be finite and > 0, got {float(smoothing)!r}\n"
        assert not outdir.exists()

    def test_depth_beyond_the_context_limit_exits_two(self, capsys, g2_path, tmp_path):
        outdir = tmp_path / "exp"
        code, out, err = run(capsys, "experiment", g2_path, "--depth", "40", "--outdir", str(outdir))
        assert (code, out) == (2, "")
        assert err == "error: depth 40 gives 2**40 contexts, more than 1048576\n"
        assert not outdir.exists()

    def test_mc_angle_at_defaults_is_unchanged(self, capsys, g2_path, tmp_path):
        neg = tmp_path / "neg.pfsa"
        run(capsys, "scale", g2_path, "--alpha", "-1", "-o", str(neg))
        code, out, _ = run(capsys, "angle", g2_path, str(neg), "--mode", "mc")
        assert code == 0
        assert out == (
            "# seed=42 eps=1e-06 walk_length=100000 repeats=20\n"
            "3.1295797705539474 cos=-0.99992784618829567 cos_std_error=0.00034219416308241192\n"
        )


class TestParser:
    def test_built_once_and_reused_across_commands(self, capsys, g2_path, tmp_path):
        assert build_parser() is build_parser()
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        code, out, _ = run(capsys, "generate", g2_path, "--length", "200", "--seed", "9", "-o", str(a))
        assert code == 0 and "seed=9" in out
        code, out, _ = run(capsys, "wordprob", g2_path, "01")
        assert code == 0 and float(out.strip()) == pytest.approx(0.12, abs=1e-13)
        with pytest.raises(SystemExit):
            main(["generate", g2_path, "--length", "5"])
        capsys.readouterr()
        # options of one call do not leak into the next: the seed is back at its default
        code, out, _ = run(capsys, "generate", g2_path, "--length", "200", "-o", str(b))
        assert code == 0 and "seed=42" in out
        code, out, _ = run(capsys, "stationary", g2_path)
        assert code == 0
        np.testing.assert_allclose([float(t) for t in out.splitlines()[1].split()], [0.6, 0.4], atol=1e-13)
        run(capsys, "generate", g2_path, "--length", "200", "--seed", "9", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestUsageErrors:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2

    def test_missing_required_flag_exits_two(self, capsys, g2_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["generate", g2_path, "--length", "5"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["angle", "{m}", "{m}", "--mode", "mc", "--repeats", "1"],
        ["angle", "{m}", "{m}", "--mode", "mc", "--walk-length", "0"],
        ["sync", "{m}", "--eps", "0"],
        ["generate", "{m}", "--length", "-1", "-o", "{tmp}/s.txt"],
        ["minimize", "{m}", "--tol", "-1"],
        ["minimize", "{m}", "--tol", "nan"],
    ])
    def test_bad_numeric_option_exits_two(self, capsys, g2_path, tmp_path, argv):
        code, out, err = run(capsys, *(a.format(m=g2_path, tmp=tmp_path) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["inner", "angle"])
    @pytest.mark.parametrize("eps", ["nan", "0", "1", "-1", "inf"])
    def test_bad_mc_eps_exits_two_on_synchronizing_operands(self, capsys, g2_path, command, eps):
        # g2 has a reset word, so no epsilon search would reject eps later
        code, out, err = run(capsys, command, g2_path, g2_path, "--mode", "mc", "--eps", eps)
        assert (code, out) == (2, "")
        assert err.startswith("error: eps must be in (0, 1), got ") and err.count("\n") == 1
