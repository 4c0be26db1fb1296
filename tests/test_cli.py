import json

import numpy as np
import pytest

from capax import (
    CapacityConfig,
    cap,
    cap_unitary_search,
    diag_problem,
    identity_channel,
    problem_to_json,
    random_cp,
    random_direction,
    report_to_dict,
    run_probe,
    to_json,
    trace_channel,
)
import capax.holderlab
from capax.cli import main
from conftest import make_op


@pytest.fixture
def op_file(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(to_json(identity_channel(2)))
    return str(path)


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(to_json(trace_channel(2, 2)))
    return str(path)


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(problem_to_json(diag_problem(trace_channel(2, 2))))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cap_identity(capsys, op_file):
    code, out, err = _run(capsys, ["cap", op_file])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert abs(payload["value"] - 1.0) <= 1e-8
    assert payload["method"] == "direct_pd"


def test_cap_without_restarts_uses_library_defaults(capsys, tmp_path):
    """Without --restarts each route runs with the library's own default."""
    t = make_op(2, 2, 2, seed=3)
    path = tmp_path / "op.json"
    path.write_text(to_json(t))
    code, out, _ = _run(capsys, ["cap", str(path)])
    assert code == 0
    assert out == json.dumps(report_to_dict(cap(t)), sort_keys=True) + "\n"
    code, out, _ = _run(capsys, ["cap", str(path), "--method", "psi"])
    assert code == 0
    assert out == json.dumps(report_to_dict(cap_unitary_search(t)), sort_keys=True) + "\n"


def test_cap_restarts_set_the_unitary_cross_check(capsys, tmp_path):
    """--restarts sets the unitary search's starts, here for --check-psi."""
    t = make_op(2, 2, 2, seed=3)
    path = tmp_path / "op.json"
    path.write_text(to_json(t))
    code, out, _ = _run(capsys, ["cap", str(path), "--check-psi", "--restarts", "2"])
    assert code == 0
    expected = cap(t, CapacityConfig(check_psi=True, restarts_unitary=2))
    assert out == json.dumps(report_to_dict(expected), sort_keys=True) + "\n"


def test_cap_on_a_zero_capacity_operator_reports_degenerate(capsys, tmp_path):
    """Kraus operators with a common kernel (K m = 2 < n = 3), or a singular
    T(I) (K n = 4 < m = 5): the direct route reports Degenerate with value
    0, and the verb exits 0."""
    path = tmp_path / "op.json"
    for op in (random_cp(3, 1, 2, rng=1), random_cp(2, 5, 2, rng=401)):
        path.write_text(to_json(op))
        code, out, err = _run(capsys, ["cap", str(path)])
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["value"] == 0.0
        assert payload["flags"] == ["Degenerate"]


def test_cap_method_selection(capsys, trace_file):
    code, out, _ = _run(capsys, ["cap", trace_file, "--method", "scaling"])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "scaling"
    assert abs(payload["value"] - 2.0) <= 1e-9


def test_cap0_trace(capsys, trace_file):
    code, out, _ = _run(capsys, ["cap0", trace_file])
    assert code == 0
    assert abs(json.loads(out)["value"] - 2.0) <= 1e-9


def test_coeffs_stdout_and_csv(capsys, trace_file, tmp_path):
    code, out, _ = _run(capsys, ["coeffs", trace_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == [1.0, 2.0, 1.0]

    csv_path = tmp_path / "out.csv"
    code, out, _ = _run(capsys, ["coeffs", trace_file, "-o", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "j_1,j_2,d"
    assert len(lines) == 4


def test_coeffs_all_reports_deltas(capsys, trace_file, tmp_path):
    csv_path = tmp_path / "all.csv"
    code, out, _ = _run(capsys, ["coeffs", trace_file, "--method", "all", "-o", str(csv_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["max_delta_cauchy_binet"] <= 1e-9
    assert payload["max_delta_interpolate"] <= 1e-9
    assert csv_path.exists()


def test_coeffs_all_requires_output(capsys, trace_file):
    code, _, err = _run(capsys, ["coeffs", trace_file, "--method", "all"])
    assert code == 2
    assert "ConfigError" in err


def test_psi_verb(capsys, problem_file):
    code, out, _ = _run(capsys, ["psi", problem_file])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 4.0) <= 1e-9
    assert payload["classification"] == "InteriorZero"


def test_entropy_verb(capsys, problem_file):
    code, out, _ = _run(capsys, ["entropy", problem_file, "--theta", "0,0"])
    assert code == 0
    payload = json.loads(out)
    assert np.allclose(payload["p"], [0.25, 0.5, 0.25], atol=1e-8)
    assert abs(payload["value"] - np.log(4.0)) <= 1e-9


def test_scale_verb(capsys, trace_file):
    code, out, _ = _run(capsys, ["scale", trace_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "scaling"
    assert abs(payload["value"] - 2.0) <= 1e-9


def test_probe_verb_writes_csv(capsys, tmp_path, monkeypatch):
    op_path = tmp_path / "op.json"
    op_path.write_text(to_json(make_op(2, 2, 2, seed=31)))
    csv_path = tmp_path / "probe.csv"
    code, out, _ = _run(
        capsys,
        [
            "probe",
            str(op_path),
            "--seed",
            "5",
            "--direction",
            "scaling",
            "--scales",
            "0.25,0.125,0.0625,0.03125,0.015625",
            "-o",
            str(csv_path),
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["samples"] == 5
    assert 0.99 <= payload["alpha"] <= 1.01
    assert csv_path.read_text().startswith("scale,dist,dcap")

    # --tol reaches every capacity solve, and the fit is run_probe's at that tol.
    tols = []
    solve = capax.holderlab._cap_direct

    def spy(t, tol, start=None):
        tols.append(tol)
        return solve(t, tol, start)

    monkeypatch.setattr(capax.holderlab, "_cap_direct", spy)
    code, out, _ = _run(capsys, ["probe", str(op_path), "--seed", "5", "--tol", "1e-9"])
    assert code == 0
    assert tols == [1e-9] * 12  # the base and the 11 default scales
    payload = json.loads(out)
    t = make_op(2, 2, 2, seed=31)
    expected = run_probe(t, random_direction(t, rng=5), tol=1e-9)
    assert payload["alpha"] == expected.fitted_alpha
    assert payload["logC"] == expected.fitted_logc
    assert payload["r2"] == expected.r_squared


def test_probe_requires_seed(capsys, trace_file):
    code, _, err = _run(capsys, ["probe", trace_file])
    assert code == 2
    assert "ConfigError" in err


def test_config_file_supplies_defaults(capsys, trace_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "scaling"}))
    code, out, _ = _run(capsys, ["cap", trace_file, "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["method"] == "scaling"
    # explicit flag wins over the config file
    code, out, _ = _run(
        capsys, ["cap", trace_file, "--config", str(cfg), "--method", "direct"]
    )
    assert code == 0
    assert json.loads(out)["method"] == "direct_pd"


def test_unknown_config_key(capsys, op_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_option": 1}))
    code, _, err = _run(capsys, ["cap", op_file, "--config", str(cfg)])
    assert code == 2
    assert "no_such_option" in err


def test_cap_rejects_psi_tol_config(capsys, op_file, tmp_path):
    """psi_tol set no tolerance of the cap verb, so the key is unknown."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "psi", "psi_tol": 1e-2}))
    code, _, err = _run(capsys, ["cap", op_file, "--config", str(cfg)])
    assert code == 2
    assert "ConfigError: unknown config keys: psi_tol" in err


def test_probe_rejects_jobs(capsys, op_file, tmp_path):
    code, _, _ = _run(capsys, ["probe", op_file, "--seed", "1", "--jobs", "2"])
    assert code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jobs": 2}))
    code, _, err = _run(capsys, ["probe", op_file, "--seed", "1", "--config", str(cfg)])
    assert code == 2
    assert "unknown config keys: jobs" in err


def test_missing_file_is_domain_error(capsys):
    code, _, err = _run(capsys, ["cap", "does-not-exist.json"])
    assert code == 1
    assert "FileNotFoundError" in err


def test_malformed_operator_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2')
    code, _, err = _run(capsys, ["cap", str(path)])
    assert code == 1
    assert "ParseError" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["cap", "--help"]) == 0
    capsys.readouterr()


def test_usage_error_exits_two(capsys):
    assert main(["cap"]) == 2  # missing positional
    capsys.readouterr()
    assert main(["unknown-verb"]) == 2
    capsys.readouterr()


def test_reruns_are_byte_identical(capsys, trace_file):
    code1, out1, _ = _run(capsys, ["cap", trace_file, "--seed", "3"])
    code2, out2, _ = _run(capsys, ["cap", trace_file, "--seed", "3"])
    assert code1 == code2 == 0
    assert out1 == out2
    # sorted keys make the layout deterministic
    payload = json.loads(out1)
    assert list(payload) == sorted(payload)
