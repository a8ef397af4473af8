"""CLI: argument parsing, exit codes, and report files."""

import json

import pytest

from carnotx.cli import _parse_eps_spec, _parse_q_spec, run
from carnotx.report import CSV_HEADER, SCHEMA_VERSION


class TestParsing:
    def test_dyadic_range(self):
        got = _parse_eps_spec("2^-3..2^-6")
        assert got == (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6)

    def test_comma_list_with_dyadics(self):
        assert _parse_eps_spec("0.125,2^-4") == (0.125, 0.0625)

    def test_fractional_exponents(self):
        got = _parse_q_spec("2,8/3")
        assert got[0] == 2.0
        assert got[1] == pytest.approx(8.0 / 3.0, rel=1e-16)

    def test_bad_tokens_exit_usage(self):
        assert run(["counterexample", "--eps", "banana"]) == 2
        assert run(["counterexample", "--q", "8//3"]) == 2
        assert run(["counterexample", "--group", "e8:1"]) == 2
        assert run(["no-such-command"]) == 2

    def test_version_exits_clean(self, capsys):
        assert run(["--version"]) == 0
        assert "carnotx" in capsys.readouterr().out


class TestCounterexampleCommand:
    def test_small_run_writes_reports(self, tmp_path):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "rows.csv"
        code = run(
            [
                "counterexample",
                "--eps", "2^-3..2^-6",
                "--q", "2,8/3",
                "--samples", "2000",
                "--annihilation-samples", "1200",
                "--out", str(out),
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["passed"] is True
        assert set(payload["config"]) >= {"d", "alpha", "eps_list", "q_list", "seed"}
        assert "workers" not in payload["config"]
        assert len(payload["rows"]) == 8
        assert len(payload["annihilation"]) == 4
        header = csv_path.read_text().splitlines()[0]
        assert header == ",".join(CSV_HEADER)
        assert len(csv_path.read_text().splitlines()) == 9

    def test_workers_do_not_change_bytes(self, tmp_path):
        blobs = []
        for w in ("1", "3"):
            out = tmp_path / f"r{w}.json"
            code = run(
                [
                    "counterexample",
                    "--eps", "2^-3..2^-6",
                    "--q", "2",
                    "--samples", "1500",
                    "--annihilation-samples", "0",
                    "--workers", w,
                    "--out", str(out),
                ]
            )
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_falsified_run_still_writes_report(self, tmp_path):
        out = tmp_path / "failing.json"
        code = run(
            [
                "counterexample",
                "--eps", "2^-3..2^-6",
                "--q", "2",
                "--samples", "2000",
                "--annihilation-samples", "0",
                "--slope-tol", "1e-9",
                "--out", str(out),
            ]
        )
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["passed"] is False

    def test_bad_alpha_is_usage_error(self):
        assert run(["counterexample", "--alpha", "1.5"]) == 2

    def test_unwritable_output_is_io_error(self, tmp_path):
        code = run(
            [
                "counterexample",
                "--eps", "2^-3..2^-6",
                "--q", "2",
                "--samples", "1500",
                "--annihilation-samples", "0",
                "--out", str(tmp_path / "missing-dir" / "x.json"),
            ]
        )
        assert code == 2


class TestOtherCommands:
    def test_verify_radial(self):
        assert run(["verify-radial", "--points", "20"]) == 0

    def test_pucci(self):
        assert run(["pucci", "--count", "4", "--samples", "512"]) == 0

    def test_convexity(self, tmp_path):
        out = tmp_path / "conv.json"
        code = run(
            ["convexity", "--lines", "24", "--points", "24", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert len(payload["results"]) == 6 * 4

    def test_pointwise_bound(self):
        assert run(["pointwise-bound", "--count", "16"]) == 0

    def test_ball_volume(self, capsys):
        assert run(["ball-volume", "--r", "0.5,1", "--samples", "50000"]) == 0
        assert "scaling check" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pucci", "--count", "0"], "positive integer"),
        (["pucci", "--dim", "0"], "positive integer"),
        (["pucci", "--samples", "0"], "positive integer"),
        (["pointwise-bound", "--count", "0"], "positive integer"),
        (["verify-radial", "--points", "0"], "positive integer"),
        (["convexity", "--lines", "0"], "positive integer"),
        (["convexity", "--points", "-3"], "positive integer"),
        (["ball-volume", "--r", "inf", "--samples", "2000"], "finite"),
        (
            [
                "counterexample", "--eps", "2^-3..2^-6", "--q", "2",
                "--samples", "1000", "--annihilation-samples", "1",
            ],
            "at least 2 samples",
        ),
    ],
)
def test_degenerate_work_is_usage_error(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "overall:" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-radial", "--points", "4"],
        ["pucci", "--count", "2", "--samples", "256"],
        ["convexity", "--lines", "8", "--points", "8", "--c", "2"],
        ["pointwise-bound", "--count", "4"],
        ["ball-volume", "--r", "0.5,1", "--samples", "2000"],
    ],
)
def test_report_envelope(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert list(payload) == [
        "schema_version", "version", "command", "config", "results", "passed"
    ]
    assert payload["command"] == argv[0]
    assert payload["passed"] is True
    assert capsys.readouterr().out.splitlines()[-1] == "overall: PASS"
