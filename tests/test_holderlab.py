import numpy as np
import pytest

from capax import (
    CompactFamily,
    CPOperator,
    DimensionMismatch,
    cap_direct_pd,
    estimate_family_modulus,
    export_csv,
    load_probe_csv,
    op_norm,
    perturb,
    probe_pair,
    random_direction,
    run_probe,
    scaling_direction,
)
from conftest import make_op


def test_probe_pair_scaled_copy():
    """Scaling the Kraus list by s multiplies capacity by s^2."""
    t = make_op(2, 2, 2, seed=1)
    s = 1.05
    t2 = CPOperator(tuple(s * a for a in t.kraus))
    dist, dcap = probe_pair(t, t2)
    base = cap_direct_pd(t, tol=1e-10).value
    assert abs(dcap - (s**2 - 1.0) * base) <= 1e-8
    assert abs(dist - (s**2 - 1.0) * op_norm(t)) <= 1e-8


def test_direction_normalization():
    t = make_op(2, 3, 2, seed=2)
    for direction in (random_direction(t, rng=3), scaling_direction(t)):
        total = sum(np.linalg.norm(d) ** 2 for d in direction)
        assert abs(total - 1.0) <= 1e-12


def test_perturb_moves_linearly():
    t = make_op(2, 2, 2, seed=3)
    direction = random_direction(t, rng=4)
    shifted = perturb(t, direction, 0.25)
    for a, d, b in zip(t.kraus, direction, shifted.kraus):
        assert np.allclose(a + 0.25 * d, b)
    with pytest.raises(DimensionMismatch):
        perturb(t, direction[:-1] if len(direction) > 1 else (), 0.1)


def test_scaling_direction_probe_has_unit_exponent():
    t = make_op(2, 2, 2, seed=5)
    run = run_probe(t, scaling_direction(t), scales=2.0 ** -np.arange(2, 9))
    assert run.fitted_alpha is not None
    assert 0.99 <= run.fitted_alpha <= 1.01
    assert run.r_squared >= 0.999


def test_probe_samples_distance_tracks_scale():
    t = make_op(2, 2, 2, seed=6)
    run = run_probe(t, random_direction(t, rng=7), scales=2.0 ** -np.arange(3, 9))
    scales, dists = run.samples[:, 0], run.samples[:, 1]
    slope = np.polyfit(np.log(scales), np.log(dists), 1)[0]
    assert 0.9 <= slope <= 1.1


def test_probe_deterministic_for_seed():
    t = make_op(2, 2, 2, seed=8)
    direction = random_direction(t, rng=9)
    r1 = run_probe(t, direction, scales=[0.25, 0.125, 0.0625])
    r2 = run_probe(t, direction, scales=[0.25, 0.125, 0.0625])
    assert r1.samples.tobytes() == r2.samples.tobytes()


def test_probe_flags_degenerate_base():
    t = CPOperator((np.diag([1.0, 0.0]).astype(complex),))
    run = run_probe(t, scaling_direction(t))
    assert run.flags == ("DegenerateBase",)
    assert run.samples.shape == (0, 3)


def test_probe_all_flat_with_high_floor():
    t = make_op(2, 2, 2, seed=10)
    run = run_probe(
        t, scaling_direction(t), scales=[0.25, 0.125, 0.0625, 0.03125], noise_floor=1e9
    )
    assert run.fitted_alpha is None
    assert "AllFlat" in run.flags


def test_csv_round_trip(tmp_path):
    t = make_op(2, 2, 2, seed=11)
    run = run_probe(t, scaling_direction(t), scales=2.0 ** -np.arange(2, 8))
    path = tmp_path / "probe.csv"
    export_csv(run, path)
    loaded = load_probe_csv(path)
    assert loaded["columns"] == ["scale", "dist", "dcap"]
    assert np.array_equal(loaded["samples"], run.samples)
    assert loaded["alpha"] == run.fitted_alpha
    assert loaded["logC"] == run.fitted_logc
    assert loaded["r2"] == run.r_squared


def test_csv_empty_run(tmp_path):
    t = CPOperator((np.diag([1.0, 0.0]).astype(complex),))
    run = run_probe(t, scaling_direction(t))
    path = tmp_path / "flat.csv"
    export_csv(run, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "scale,dist,dcap"
    data_lines = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert data_lines == []
    loaded = load_probe_csv(path)
    assert loaded["samples"].shape == (0, 3)
    assert loaded["flags"] == "DegenerateBase"


def test_compact_family_respects_radius():
    fam = CompactFamily(2, 2, 2, radius=0.5, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert op_norm(fam.sample(rng)) <= 0.5 + 1e-8


def test_family_modulus_smoke():
    fam = CompactFamily(2, 2, 2, radius=2.0, seed=21)
    summary = estimate_family_modulus(fam, pairs=6, tol=1e-9)
    assert summary.samples.shape == (6, 2)
    assert summary.count == 6
    if summary.min_alpha is not None:
        assert summary.max_ratio > 0


def test_family_modulus_repeats_exactly():
    fam = CompactFamily(2, 2, 2, radius=2.0, seed=22)
    first = estimate_family_modulus(fam, pairs=4)
    second = estimate_family_modulus(fam, pairs=4)
    assert first.samples.tobytes() == second.samples.tobytes()


def test_family_all_flat_with_high_floor():
    fam = CompactFamily(2, 2, 2, radius=2.0, seed=23)
    summary = estimate_family_modulus(fam, pairs=4, noise_floor=1e9)
    assert "AllFlat" in summary.flags
    assert summary.min_alpha is None


def test_family_summary_csv(tmp_path):
    fam = CompactFamily(2, 2, 2, radius=2.0, seed=24)
    summary = estimate_family_modulus(fam, pairs=5)
    path = tmp_path / "family.csv"
    export_csv(summary, path)
    loaded = load_probe_csv(path)
    assert loaded["columns"] == ["dist", "dcap"]
    assert np.array_equal(loaded["samples"], summary.samples)
    if summary.min_alpha is not None:
        assert loaded["min_alpha"] == summary.min_alpha
