"""Fitting saturating power laws to loss-vs-compute curves.

The fitted form is loss(x) = beta * x^(-c) + eps_inf: amplitude beta,
decay exponent c, irreducible floor eps_inf. Each recursion depth gets
its own fit; the family of fits then answers "which depth wins at
compute budget x".
"""

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

import rinslab as rl

x = np.geomspace(1e2, 1e6, 40)

print("1. Noiseless recovery. Synthesize points from known parameters and")
print("   fit them back:")
true = dict(beta=2.0, c=0.5, eps_inf=0.1)
y = true["beta"] * x ** -true["c"] + true["eps_inf"]
fit = rl.fit_power_law(list(zip(x, y)))
print(f"   true:   beta={true['beta']}, c={true['c']}, eps_inf={true['eps_inf']}")
print(f"   fitted: beta={fit.beta:.6f}, c={fit.c:.6f}, eps_inf={fit.eps_inf:.6f}")
print(f"   residual sum of squares: {fit.residual:.3e}")

print()
print("2. The same recovery under 1% log-normal noise, 20 seeds. The")
print("   amplitude is hardest to pin down (any exponent error amplifies")
print("   through it); the floor is easiest:")
errs = {"beta": [], "c": [], "eps_inf": []}
for seed in range(20):
    r = np.random.default_rng(seed)
    noisy = y * np.exp(r.normal(0.0, 0.01, size=y.shape))
    f = rl.fit_power_law(list(zip(x, noisy)))
    errs["beta"].append(abs(f.beta - true["beta"]) / true["beta"])
    errs["c"].append(abs(f.c - true["c"]) / true["c"])
    errs["eps_inf"].append(abs(f.eps_inf - true["eps_inf"]) / true["eps_inf"])
for k, v in errs.items():
    print(f"   {k:8s} median relative error {np.median(v):.2%}  "
          f"(worst of 20 seeds {max(v):.2%})")

print()
print("3. Units of x cancel out of the exponent and the floor; only the")
print("   amplitude rescales. Fitting the same curve with x in kilo-units:")
fit_k = rl.fit_power_law(list(zip(x / 1000.0, y)))
print(f"   c:       {fit.c:.6f} -> {fit_k.c:.6f} (unchanged)")
print(f"   eps_inf: {fit.eps_inf:.6f} -> {fit_k.eps_inf:.6f} (unchanged)")
print(f"   beta:    {fit.beta:.6f} -> {fit_k.beta:.6f} "
      f"(= beta * 1000^(-c) = {fit.beta * 1000**-fit.c:.6f})")

print()
print("4. Crossovers. Two depths, same exponent: deeper recursion pays a")
print("   higher amplitude (fewer optimizer steps per unit compute) but")
print("   buys a lower floor, so it wins only past a breakpoint.")
family = {
    1: rl.FitResult(beta=3.0, c=0.30, eps_inf=0.120, residual=0.0,
                    n_points=8, fit_x_min=1e2, fit_x_max=1e8),
    2: rl.FitResult(beta=5.0, c=0.30, eps_inf=0.050, residual=0.0,
                    n_points=8, fit_x_min=1e2, fit_x_max=1e8),
}
grid = np.geomspace(1e2, 1e10, 2048)
res = rl.optimal_r(family, grid)
for x0, r0 in res.breakpoints:
    print(f"   from compute {x0:10.3e}: r={r0} is optimal")
# closed form: beta1 x^-c + f1 = beta2 x^-c + f2 at the switch
exact = ((family[2].beta - family[1].beta)
         / (family[1].eps_inf - family[2].eps_inf)) ** (1 / 0.30)
print(f"   closed-form crossover: {exact:.3e} "
      f"(grid locates it to one spacing, "
      f"{grid[1] / grid[0]:.4f}x)")
print(f"   points flagged as extrapolation beyond the fit range: "
      f"{int(res.extrapolated.sum())} of {grid.size}")

print()
print("5. Fits serialize to JSON and breakpoints to CSV for the report")
print("   pipeline:")
with tempfile.TemporaryDirectory() as td:
    path = Path(td) / "breakpoints.csv"
    rl.write_breakpoints_csv(path, res)
    print("   " + "\n   ".join(path.read_text().strip().splitlines()[:3]))
    d = asdict(fit)
    print(f"   fit JSON keys {sorted(d)} round trip ok: "
          f"{rl.FitResult(**json.loads(json.dumps(d))) == fit}")
