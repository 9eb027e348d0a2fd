"""Power-law fitting and optimal-round selection."""

import json

import numpy as np
import pytest

import rinslab as rl


def synth(beta=2.0, c=0.5, eps_inf=0.1, n=24, x_lo=1e3, x_hi=1e6):
    x = np.geomspace(x_lo, x_hi, n)
    return x, beta * x**-c + eps_inf


class TestFitRecovery:
    def test_noiseless_exact(self):
        x, eps = synth()
        fit = rl.fit_power_law(list(zip(x, eps)))
        assert fit.beta == pytest.approx(2.0, rel=1e-2)
        assert fit.c == pytest.approx(0.5, rel=1e-2)
        assert fit.eps_inf == pytest.approx(0.1, rel=1e-2)
        assert fit.n_points == 24
        assert fit.fit_x_min == pytest.approx(1e3)
        assert fit.fit_x_max == pytest.approx(1e6)

    def test_zero_floor_recovered(self):
        x, eps = synth(eps_inf=0.0)
        fit = rl.fit_power_law(list(zip(x, eps)))
        assert fit.eps_inf == pytest.approx(0.0, abs=1e-6)
        assert fit.c == pytest.approx(0.5, rel=1e-3)

    def test_noisy_median_recovery(self):
        x, eps = synth()
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            noisy = eps * np.exp(rng.normal(0, 0.01, size=eps.shape))
            f = rl.fit_power_law(list(zip(x, noisy)))
            errs.append(abs(f.c - 0.5) / 0.5)
        assert np.median(errs) < 0.05

    def test_x_rescaling_leaves_c(self):
        x, eps = synth()
        f1 = rl.fit_power_law(list(zip(x, eps)))
        f2 = rl.fit_power_law(list(zip(x * 1e4, eps)))
        assert f2.c == pytest.approx(f1.c, rel=1e-2)
        assert f2.eps_inf == pytest.approx(f1.eps_inf, rel=1e-2)

    def test_point_order_irrelevant(self):
        x, eps = synth()
        pts = list(zip(x, eps))
        rng = np.random.default_rng(0)
        shuffled = [pts[i] for i in rng.permutation(len(pts))]
        f1 = rl.fit_power_law(pts)
        f2 = rl.fit_power_law(shuffled)
        assert f1 == f2


class TestFitErrors:
    def test_too_few_points(self):
        with pytest.raises(rl.FitError):
            rl.fit_power_law([(1.0, 1.0), (2.0, 0.9), (3.0, 0.8)])

    def test_duplicate_x_rejected(self):
        with pytest.raises(rl.FitError, match="non-monotone"):
            rl.fit_power_law([(1.0, 1.0), (2.0, 0.9), (2.0, 0.8), (3.0, 0.7)])

    def test_nonpositive_values_rejected(self):
        with pytest.raises(rl.FitError):
            rl.fit_power_law([(0.0, 1.0), (2.0, 0.9), (3.0, 0.8), (4.0, 0.7)])
        with pytest.raises(rl.FitError):
            rl.fit_power_law([(1.0, 1.0), (2.0, -0.9), (3.0, 0.8), (4.0, 0.7)])

    def test_increasing_losses_rejected(self):
        with pytest.raises(rl.FitError):
            rl.fit_power_law([(1.0, 1.0), (2.0, 1.1), (3.0, 1.2), (4.0, 1.3)])

    def test_residual_not_worse_than_grid(self):
        # polish must only improve on the best grid cell
        x, eps = synth()
        rng = np.random.default_rng(5)
        noisy = eps * np.exp(rng.normal(0, 0.02, size=eps.shape))
        pts = list(zip(x, noisy))
        fine = rl.fit_power_law(pts, n_grid=2048)
        coarse = rl.fit_power_law(pts, n_grid=64)
        assert coarse.residual >= fine.residual * (1 - 1e-9)


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        x, eps = synth()
        fit = rl.fit_power_law(list(zip(x, eps)))
        path = tmp_path / "fits.json"
        rl.write_fits_json(path, {"run1": fit})
        d = json.loads(path.read_text())["run1"]
        assert set(d) == {
            "beta", "c", "eps_inf", "residual", "n_points", "fit_x_min", "fit_x_max"
        }
        back = rl.FitResult(**d)
        assert back == fit
        # the data range survives, so optimal_r can still flag extrapolation
        assert (back.fit_x_min, back.fit_x_max) == (x[0], x[-1])

    def test_fits_file(self, tmp_path):
        x, eps = synth()
        fits = {"run1": rl.fit_power_law(list(zip(x, eps)))}
        path = tmp_path / "fits.json"
        rl.write_fits_json(path, fits)
        loaded = json.loads(path.read_text())
        assert "run1" in loaded and loaded["run1"]["c"] == fits["run1"].c


def family(x_lo=1e3, x_hi=1e6):
    return {
        1: rl.FitResult(3.0, 0.30, 0.50, 0.0, 10, x_lo, x_hi),
        2: rl.FitResult(6.0, 0.38, 0.35, 0.0, 10, x_lo, x_hi),
        3: rl.FitResult(12.0, 0.45, 0.25, 0.0, 10, x_lo, x_hi),
    }


def bisect_crossover(f_a, f_b, lo, hi, iters=200):
    # oracle: bisection on the sign of f_a - f_b
    for _ in range(iters):
        mid = np.sqrt(lo * hi)
        if (f_a.predict(mid) - f_b.predict(mid)) > 0:
            hi = mid
        else:
            lo = mid
    return np.sqrt(lo * hi)


class TestOptimalR:
    def test_winner_sequence_monotone(self):
        fam = family()
        grid = np.geomspace(1e2, 1e8, 400)
        res = rl.optimal_r(fam, grid)
        rs = [r for _, r in res.breakpoints]
        assert rs == sorted(rs)  # optimal depth only grows with compute
        assert rs[0] == 1 and rs[-1] == 3

    def test_breakpoints_match_bisection_oracle(self):
        fam = family()
        grid = np.geomspace(1e2, 1e8, 4000)
        res = rl.optimal_r(fam, grid)
        bps = dict((r, x) for x, r in res.breakpoints)
        x12 = bisect_crossover(fam[1], fam[2], 1e2, 1e8)
        assert bps[2] == pytest.approx(x12, rel=0.02)

    def test_tie_goes_to_smaller_r(self):
        fam = {
            1: rl.FitResult(2.0, 0.5, 0.1, 0.0, 8, 1e3, 1e6),
            2: rl.FitResult(2.0, 0.5, 0.1, 0.0, 8, 1e3, 1e6),
        }
        res = rl.optimal_r(fam, np.geomspace(1e3, 1e6, 50))
        assert all(r == 1 for _, r in res.breakpoints)

    def test_extrapolation_flagged_beyond_10x(self):
        fam = family(x_lo=1e3, x_hi=1e5)
        grid = np.geomspace(1e3, 1e7, 300)  # 100x beyond data
        res = rl.optimal_r(fam, grid)
        assert res.any_extrapolation
        flagged = res.extrapolated
        assert flagged[-1] and not flagged[0]
        inside = grid <= 10 * 1e5
        assert not np.any(np.asarray(flagged)[inside])

    def test_unit_rescaling_invariance(self):
        # scaling beta and eps_inf together rescales losses, not the argmin
        fam = family()
        scaled = {
            r: rl.FitResult(
                f.beta * 7.0, f.c, f.eps_inf * 7.0, f.residual,
                f.n_points, f.fit_x_min, f.fit_x_max,
            )
            for r, f in fam.items()
        }
        grid = np.geomspace(1e2, 1e8, 500)
        a = rl.optimal_r(fam, grid)
        b = rl.optimal_r(scaled, grid)
        assert a.breakpoints == b.breakpoints

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            rl.optimal_r(family(), np.array([1e3, 1e3, 1e4]))

    def test_breakpoints_csv(self, tmp_path):
        res = rl.optimal_r(family(), np.geomspace(1e2, 1e8, 300))
        path = tmp_path / "bp.csv"
        rl.write_breakpoints_csv(path, res)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x_break,r"
        assert len(lines) == 1 + len(res.breakpoints)
